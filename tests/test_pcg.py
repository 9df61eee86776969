"""PCG solver: exact cases, dense oracles, convergence-rate bounds."""

import math

import numpy as np
import pytest

import fftlasso.pcg
from fftlasso import GridShape, Mask, NumericalBreakdownError
from fftlasso.newton_system import apply_kkt, apply_precond_inverse
from fftlasso.pcg import pcg_solve

from conftest import (
    barrier_diagonals,
    kkt_pair_operator,
    pcg_in_new_arrays,
    precond_pair_operator,
    random_feasible_iterate,
)

identity = lambda v: v


def dense_op(m):
    return lambda v: m @ v


def random_spd(rng, n, cond=10.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.geomspace(1.0, cond, n)
    return (q * eigs) @ q.T


def recording(prec, history):
    """``prec`` that appends ``sqrt(r' P^{-1} r)`` of every residual it is
    given to ``history``: PCG calls it once at the start and once per
    iteration, and stops on that quantity."""
    def wrapped(r):
        z = prec(r)
        history.append(math.sqrt(float(np.vdot(r, z))))
        return z

    return wrapped


class TestConfig:
    """``tol``, the one stopping parameter, and the iteration limit."""

    def test_rejects_zero_tolerances(self):
        with pytest.raises(ValueError, match="tol"):
            pcg_in_new_arrays(identity, identity, np.ones(3), 0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="tol"):
            pcg_in_new_arrays(identity, identity, np.ones(3), -1.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf], ids=["abs-nan", "abs-inf"])
    def test_rejects_nonfinite(self, tol):
        with pytest.raises(ValueError, match="finite"):
            pcg_in_new_arrays(identity, identity, np.ones(3), tol)

    def test_default_iteration_limit(self, monkeypatch):
        """Ten iterations per unknown, at most ``MAX_ITERS_CAP``.  With a
        skew part the operator keeps ``p'Kp = p'p > 0`` but CG never meets
        the tolerance."""
        for n in (2, 3, 4):
            skew = np.eye(n) + np.eye(n, k=1) - np.eye(n, k=-1)
            res = pcg_in_new_arrays(dense_op(skew), identity, np.ones(n), 1e-300)
            assert not res.converged and res.iterations == 10 * n
        monkeypatch.setattr(fftlasso.pcg, "MAX_ITERS_CAP", 7)
        res = pcg_in_new_arrays(dense_op(skew), identity, np.ones(n), 1e-300)
        assert not res.converged and res.iterations == 7


class TestExactCases:
    def test_identity_system(self, rng):
        b = rng.standard_normal(12)
        res = pcg_in_new_arrays(identity, identity, b)
        assert res.converged and res.iterations == 1
        np.testing.assert_allclose(res.solution, b, atol=1e-14)

    def test_zero_rhs(self):
        res = pcg_in_new_arrays(identity, identity, np.zeros(5))
        assert res.converged and res.iterations == 0

    def test_empty_mask_condensed_two_iterations(self, rng):
        """With no missing samples the preconditioned operator is exact: at
        most two steps on the 2x2 system, one on its Schur complement."""
        n = 32
        mask = Mask(np.array([], dtype=np.int64), GridShape((n,)))
        st = random_feasible_iterate(rng, n)
        d = barrier_diagonals(st.s1, st.s2, st.nu1, st.nu2)
        rhs = rng.standard_normal(2 * n)
        res = pcg_in_new_arrays(kkt_pair_operator(d, mask), precond_pair_operator(d), rhs)
        assert res.converged and res.iterations <= 2
        res = pcg_in_new_arrays(lambda v: apply_kkt(v, d.delta, mask)[0],
                                lambda v: apply_precond_inverse(v, d.precond), rhs[:n])
        assert res.converged and res.iterations == 1


class TestDenseOracle:
    def test_matches_direct_solve(self, rng):
        m = random_spd(rng, 16, cond=50.0)
        b = rng.standard_normal(16)
        res = pcg_in_new_arrays(dense_op(m), identity, b, 1e-12)
        assert res.converged
        np.testing.assert_allclose(res.solution, np.linalg.solve(m, b), atol=1e-10)

    def test_monotone_energy_error(self, rng, monkeypatch):
        """The operator-norm error decreases at every CG iteration."""
        n = 24
        m = random_spd(rng, n, cond=200.0)
        b = rng.standard_normal(n)
        exact = np.linalg.solve(m, b)
        errors = []
        for k in range(1, n + 1):
            monkeypatch.setattr(fftlasso.pcg, "MAX_ITERS_CAP", k)
            res = pcg_in_new_arrays(dense_op(m), identity, b, 1e-30)
            e = res.solution - exact
            errors.append(math.sqrt(e @ (m @ e)))
            if res.converged:
                break
        assert all(b <= a * (1 + 1e-10) for a, b in zip(errors, errors[1:]))

    def test_finite_termination(self, rng):
        """Exact-arithmetic-friendly systems finish within dim + 2 iterations."""
        for n in (8, 16):
            m = random_spd(rng, n, cond=5.0)
            b = rng.standard_normal(n)
            res = pcg_in_new_arrays(dense_op(m), identity, b, 1e-10)
            assert res.converged and res.iterations <= n + 2
        # few distinct eigenvalues: CG terminates in that many steps
        q, _ = np.linalg.qr(rng.standard_normal((32, 32)))
        eigs = np.tile([1.0, 2.0, 5.0, 9.0], 8)
        m = (q * eigs) @ q.T
        res = pcg_in_new_arrays(dense_op(m), identity, rng.standard_normal(32), 1e-10)
        assert res.converged and res.iterations <= 4 + 2

    def test_rate_consistent_with_condition_number(self, rng):
        """Iteration counts respect the sqrt-kappa error bound."""
        n = 60
        for kappa in (4.0, 25.0, 100.0):
            eigs = np.linspace(1.0, kappa, n)
            m = np.diag(eigs)
            b = rng.standard_normal(n)
            history = []
            res = pcg_in_new_arrays(dense_op(m), recording(identity, history), b, 1e-10)
            # bound: 2 * rho^k <= eps with rho = (sqrt(k)-1)/(sqrt(k)+1),
            # eps the achieved residual reduction; generous 2x slack
            reduction = history[-1] / history[0]
            rho = (math.sqrt(kappa) - 1) / (math.sqrt(kappa) + 1)
            k_bound = math.log(max(reduction, 1e-300) / 2) / math.log(rho)
            assert res.converged
            assert res.iterations <= 2 * k_bound + 5


class TestFailureModes:
    def test_nonconvergence_flag(self, rng, monkeypatch):
        monkeypatch.setattr(fftlasso.pcg, "MAX_ITERS_CAP", 2)
        m = random_spd(rng, 32, cond=1e6)
        res = pcg_in_new_arrays(dense_op(m), identity, rng.standard_normal(32), 1e-14)
        assert not res.converged
        assert res.iterations == 2

    def test_indefinite_operator_breaks(self, rng):
        m = np.diag(np.array([1.0, -1.0, 2.0]))
        with pytest.raises(NumericalBreakdownError):
            pcg_in_new_arrays(dense_op(m), identity, np.array([1.0, 1.0, 1.0]))

    def test_nan_breaks(self):
        def bad_op(v):
            out = v.copy()
            out[0] = np.nan
            return out

        with pytest.raises(NumericalBreakdownError):
            pcg_in_new_arrays(bad_op, identity, np.ones(4))

    def test_negative_preconditioner_breaks(self):
        """``P^{-1} r = -r`` gives a negative ``r'P^{-1}r`` at the start."""
        with pytest.raises(NumericalBreakdownError,
                           match="preconditioner produced .* at iteration 0$"):
            pcg_in_new_arrays(identity, lambda r: -r, np.ones(4))

    def test_nan_from_the_preconditioner_breaks(self):
        """A NaN from the preconditioner's second call, on the first
        iteration's residual, names that iteration."""
        calls = []

        def nan_after_first(r):
            calls.append(None)
            return r if len(calls) == 1 else np.full_like(r, np.nan)

        with pytest.raises(NumericalBreakdownError, match="at iteration 1"):
            pcg_in_new_arrays(dense_op(np.diag([1.0, 2.0, 3.0])), nan_after_first, np.ones(3))

    def test_history_recorded(self, rng):
        """A recording preconditioner sees the initial residual and one per
        iteration; the last is the one PCG stopped on."""
        m = random_spd(rng, 8)
        history = []
        res = pcg_in_new_arrays(dense_op(m), recording(identity, history),
                                rng.standard_normal(8))
        assert len(history) == res.iterations + 1
        assert history[-1] == res.residual_norm <= 1e-12 < min(history[:-1])


def test_work_arrays_give_the_same_iterates(rng):
    """With the residual in the right-hand side and one output array for the
    operator and the preconditioner, PCG rounds as in separate arrays; that
    output array may also be PCG's temporary."""
    n = 40
    m = random_spd(rng, n, cond=1e4)
    scale = np.geomspace(1.0, 1e3, n)
    image_map = rng.standard_normal((n, n))
    b = rng.standard_normal(n)

    def op(v):
        return m @ v, image_map @ v

    ref_image, ref_history = np.empty(n), []
    ref = pcg_in_new_arrays(op, recording(lambda v: v / scale, ref_history), b, 1e-10,
                            image=ref_image)

    shared = np.empty(n)

    def op_into(v):
        np.matmul(m, v, out=shared)
        return shared, image_map @ v

    for temporary in (np.full(n, np.nan), shared):
        rhs = b.copy()
        work = (np.full(n, np.nan), rhs, np.full(n, np.nan), temporary)
        image, history = np.full(n, np.nan), []
        res = pcg_solve(op_into, recording(lambda v: np.divide(v, scale, out=shared), history),
                        rhs, 1e-10, work, image=image)
        assert res.solution is work[0]
        assert res.iterations == ref.iterations
        assert np.array(history).tobytes() == np.array(ref_history).tobytes()
        assert res.solution.tobytes() == ref.solution.tobytes()
        assert image.tobytes() == ref_image.tobytes()
        np.testing.assert_allclose(rhs, b - m @ res.solution, atol=1e-8)  # now the residual


def test_blocked_updates_give_the_same_iterates(rng, monkeypatch):
    """Over blocks of 16 entries with a ragged tail, through a temporary of
    one block or through the operator's and the preconditioner's output
    array, PCG gives the bits of one block over the whole vector."""
    n = 40
    m = random_spd(rng, n, cond=1e4)
    scale = np.geomspace(1.0, 1e3, n)
    image_map = rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    ref_image = np.empty(n)
    ref = pcg_in_new_arrays(lambda v: (m @ v, image_map @ v), lambda v: v / scale, b, 1e-10,
                            image=ref_image)

    monkeypatch.setattr(fftlasso.pcg, "BLOCK", 16)
    shared = np.empty(n)

    def op_into(v):
        np.matmul(m, v, out=shared)
        return shared, image_map @ v

    for temporary in (np.full(16, np.nan), shared):
        work = (np.full(n, np.nan), b.copy(), np.full(n, np.nan), temporary)
        image = np.full(n, np.nan)
        res = pcg_solve(op_into, lambda v: np.divide(v, scale, out=shared), work[1], 1e-10, work,
                        image=image)
        assert res.iterations == ref.iterations
        assert res.solution.tobytes() == ref.solution.tobytes()
        assert image.tobytes() == ref_image.tobytes()


@pytest.mark.parametrize("strided", ["x", "residual", "search", "image", "all"])
def test_strided_vectors_receive_their_updates(rng, strided):
    """A strided solution, residual, search direction or image is iterated
    in place, through views, and leaves the entries between its own alone;
    the solve matches the contiguous one, though the strided inner products
    may round differently."""
    n = 24
    m = random_spd(rng, n, cond=10.0)
    image_map = rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    op = lambda v: (m @ v, image_map @ v)
    ref_image = np.empty(n)
    ref = pcg_in_new_arrays(op, identity, b, image=ref_image)

    names = ("x", "residual", "search", "image")
    bases = {name: np.full(2 * n, np.nan) for name in names if strided in (name, "all")}
    vectors = {name: bases[name][::2] if name in bases else np.empty(n) for name in names}
    rhs = vectors["residual"]
    rhs[:] = b
    work = (vectors["x"], rhs, vectors["search"], np.empty(n))
    res = pcg_solve(op, identity, rhs, 1e-12, work, image=vectors["image"])
    assert res.converged and res.solution is vectors["x"]
    for base in bases.values():
        assert np.isnan(base[1::2]).all() and np.isfinite(base[::2]).all()
    for got, want in [(res.solution, ref.solution), (vectors["image"], ref_image)]:
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    np.testing.assert_allclose(rhs, b - m @ res.solution, atol=1e-10)  # now the residual


@pytest.mark.parametrize("wrong", ["rhs-2d", "x", "residual", "search", "image", "temporary-2d"])
def test_rejects_non_vectors(wrong):
    """A right-hand side that is not a vector, an iterated vector of another
    length or a temporary that is not a vector is refused before the
    operator or the preconditioner is called."""
    n = 8
    arrays = {name: np.ones(n) for name in ("rhs", "x", "residual", "search", "image")}
    temporary = np.empty((2, n // 2) if wrong == "temporary-2d" else n)
    if wrong == "rhs-2d":
        arrays = {name: np.ones((2, n // 2)) for name in arrays}
    elif wrong in arrays:
        arrays[wrong] = np.ones(n + 1)
    calls = []
    spy = lambda v: calls.append(v) or v
    work = (arrays["x"], arrays["residual"], arrays["search"], temporary)
    with pytest.raises(ValueError, match="vector"):
        pcg_solve(lambda v: (spy(v), v), spy, arrays["rhs"], 1e-10, work, image=arrays["image"])
    assert calls == []


def test_rejects_a_short_temporary(monkeypatch):
    """The temporary holds one block: ``min(BLOCK, rhs.size)`` floats."""
    monkeypatch.setattr(fftlasso.pcg, "BLOCK", 4)
    rhs = np.ones(8)
    for size, fails in [(3, True), (4, False), (8, False)]:
        work = (np.empty(8), np.empty(8), np.empty(8), np.empty(size))
        if fails:
            with pytest.raises(ValueError, match="temporary"):
                pcg_solve(identity, identity, rhs, 1e-10, work)
        else:
            assert pcg_solve(identity, identity, rhs, 1e-10, work).converged
    work = (np.empty(3), np.empty(3), np.empty(3), np.empty(3))
    assert pcg_solve(identity, identity, np.ones(3), 1e-10, work).converged


def test_preconditioned_stopping_quantity(rng):
    """Stopping is on sqrt(r' P^{-1} r), not the plain residual norm."""
    n = 16
    scale = np.geomspace(1.0, 1e6, n)
    m = np.diag(scale)
    prec = lambda v: v / scale
    b = rng.standard_normal(n)
    res = pcg_in_new_arrays(dense_op(m), prec, b, 1e-10)
    r = b - m @ res.solution
    assert math.sqrt(r @ prec(r)) <= 1e-10
    assert res.converged
