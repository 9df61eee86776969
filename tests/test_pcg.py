"""PCG solver: exact cases, dense oracles, convergence-rate bounds."""

import math

import numpy as np
import pytest

from fftlasso import GridShape, Mask, NumericalBreakdownError
from fftlasso.newton_system import (
    apply_kkt,
    apply_precond_inverse,
    barrier_diagonals,
)
from fftlasso.pcg import PcgConfig, pcg_solve

from conftest import random_feasible_iterate

identity = lambda v: v


def dense_op(m):
    return lambda v: m @ v


def random_spd(rng, n, cond=10.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.geomspace(1.0, cond, n)
    return (q * eigs) @ q.T


class TestConfig:
    def test_rejects_zero_tolerances(self):
        with pytest.raises(ValueError):
            PcgConfig(abs_tol=0.0, rel_tol=0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PcgConfig(abs_tol=-1.0)

    @pytest.mark.parametrize("kwargs", [
        {"abs_tol": np.nan}, {"abs_tol": np.inf}, {"rel_tol": np.nan}, {"rel_tol": np.inf},
    ], ids=["abs-nan", "abs-inf", "rel-nan", "rel-inf"])
    def test_rejects_nonfinite(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            PcgConfig(**kwargs)

    @pytest.mark.parametrize("max_iters", [-1, 2.5, 3.0, True, False, np.int64(-1), "5"],
                             ids=["negative", "float", "integral-float", "true", "false",
                                  "numpy-negative", "str"])
    def test_rejects_bad_max_iters(self, max_iters):
        with pytest.raises(ValueError, match="max_iters"):
            PcgConfig(max_iters=max_iters)

    def test_default_iteration_limit(self):
        assert PcgConfig().iteration_limit(10) == 100
        assert PcgConfig().iteration_limit(10**6) == 5000
        assert PcgConfig(max_iters=7).iteration_limit(10**6) == 7
        assert PcgConfig(max_iters=np.int64(0)).iteration_limit(10**6) == 0


class TestExactCases:
    def test_identity_system(self, rng):
        b = rng.standard_normal(12)
        res = pcg_solve(identity, identity, b)
        assert res.converged and res.iterations == 1
        np.testing.assert_allclose(res.solution, b, atol=1e-14)

    def test_zero_rhs(self):
        res = pcg_solve(identity, identity, np.zeros(5))
        assert res.converged and res.iterations == 0

    def test_empty_mask_condensed_two_iterations(self, rng):
        """With no missing samples the preconditioned operator is exact."""
        n = 32
        mask = Mask(np.array([], dtype=np.int64), GridShape((n,)))
        st = random_feasible_iterate(rng, n)
        d = barrier_diagonals(st.s1, st.s2, st.nu1, st.nu2)
        rhs = rng.standard_normal(2 * n)
        res = pcg_solve(
            lambda v: np.concatenate(apply_kkt(v[:n], v[n:], d, mask)),
            lambda v: np.concatenate(apply_precond_inverse(v[:n], v[n:], d)),
            rhs,
        )
        assert res.converged and res.iterations <= 2


class TestDenseOracle:
    def test_matches_direct_solve(self, rng):
        m = random_spd(rng, 16, cond=50.0)
        b = rng.standard_normal(16)
        res = pcg_solve(dense_op(m), identity, b, PcgConfig(abs_tol=1e-12))
        assert res.converged
        np.testing.assert_allclose(res.solution, np.linalg.solve(m, b), atol=1e-10)

    def test_monotone_energy_error(self, rng):
        """The operator-norm error decreases at every CG iteration."""
        n = 24
        m = random_spd(rng, n, cond=200.0)
        b = rng.standard_normal(n)
        exact = np.linalg.solve(m, b)
        errors = []
        for k in range(1, n + 1):
            res = pcg_solve(dense_op(m), identity, b,
                            PcgConfig(abs_tol=1e-30, rel_tol=1e-30, max_iters=k))
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
            res = pcg_solve(dense_op(m), identity, b, PcgConfig(abs_tol=1e-10))
            assert res.converged and res.iterations <= n + 2
        # few distinct eigenvalues: CG terminates in that many steps
        q, _ = np.linalg.qr(rng.standard_normal((32, 32)))
        eigs = np.tile([1.0, 2.0, 5.0, 9.0], 8)
        m = (q * eigs) @ q.T
        res = pcg_solve(dense_op(m), identity, rng.standard_normal(32),
                        PcgConfig(abs_tol=1e-10))
        assert res.converged and res.iterations <= 4 + 2

    def test_rate_consistent_with_condition_number(self, rng):
        """Iteration counts respect the sqrt-kappa error bound."""
        n = 60
        for kappa in (4.0, 25.0, 100.0):
            eigs = np.linspace(1.0, kappa, n)
            m = np.diag(eigs)
            b = rng.standard_normal(n)
            res = pcg_solve(dense_op(m), identity, b,
                            PcgConfig(abs_tol=1e-10, record_history=True))
            # bound: 2 * rho^k <= eps with rho = (sqrt(k)-1)/(sqrt(k)+1),
            # eps the achieved residual reduction; generous 2x slack
            reduction = res.residual_history[-1] / res.residual_history[0]
            rho = (math.sqrt(kappa) - 1) / (math.sqrt(kappa) + 1)
            k_bound = math.log(max(reduction, 1e-300) / 2) / math.log(rho)
            assert res.converged
            assert res.iterations <= 2 * k_bound + 5


class TestFailureModes:
    def test_nonconvergence_flag(self, rng):
        m = random_spd(rng, 32, cond=1e6)
        res = pcg_solve(dense_op(m), identity, rng.standard_normal(32),
                        PcgConfig(abs_tol=1e-14, max_iters=2))
        assert not res.converged
        assert res.iterations == 2

    def test_indefinite_operator_breaks(self, rng):
        m = np.diag(np.array([1.0, -1.0, 2.0]))
        with pytest.raises(NumericalBreakdownError):
            pcg_solve(dense_op(m), identity, np.array([1.0, 1.0, 1.0]))

    def test_nan_breaks(self):
        def bad_op(v):
            out = v.copy()
            out[0] = np.nan
            return out

        with pytest.raises(NumericalBreakdownError):
            pcg_solve(bad_op, identity, np.ones(4))

    def test_history_recorded(self, rng):
        m = random_spd(rng, 8)
        res = pcg_solve(dense_op(m), identity, rng.standard_normal(8),
                        PcgConfig(record_history=True))
        assert res.residual_history is not None
        assert len(res.residual_history) == res.iterations + 1
        assert res.residual_history[-1] == pytest.approx(res.residual_norm)


def test_work_arrays_give_the_same_iterates(rng):
    """In given arrays, with the residual in the right-hand side and one
    output array for the operator and the preconditioner, PCG rounds alike;
    that output array may also be PCG's temporary."""
    n = 40
    m = random_spd(rng, n, cond=1e4)
    scale = np.geomspace(1.0, 1e3, n)
    image_map = rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    config = PcgConfig(abs_tol=1e-10, record_history=True)

    def op(v):
        return m @ v, image_map @ v

    ref_image = np.empty(n)
    ref = pcg_solve(op, lambda v: v / scale, b, config, image=ref_image)

    shared = np.empty(n)

    def op_into(v):
        np.matmul(m, v, out=shared)
        return shared, image_map @ v

    for temporary in (np.full(n, np.nan), shared):
        rhs = b.copy()
        work = (np.full(n, np.nan), rhs, np.full(n, np.nan), temporary)
        image = np.full(n, np.nan)
        res = pcg_solve(op_into, lambda v: np.divide(v, scale, out=shared), rhs, config,
                        image=image, work=work)
        assert res.solution is work[0]
        assert res.iterations == ref.iterations
        assert (np.array(res.residual_history).tobytes()
                == np.array(ref.residual_history).tobytes())
        assert res.solution.tobytes() == ref.solution.tobytes()
        assert image.tobytes() == ref_image.tobytes()
        np.testing.assert_allclose(rhs, b - m @ res.solution, atol=1e-8)  # now the residual


def test_preconditioned_stopping_quantity(rng):
    """Stopping is on sqrt(r' P^{-1} r), not the plain residual norm."""
    n = 16
    scale = np.geomspace(1.0, 1e6, n)
    m = np.diag(scale)
    prec = lambda v: v / scale
    b = rng.standard_normal(n)
    res = pcg_solve(dense_op(m), prec, b, PcgConfig(abs_tol=1e-10))
    r = b - m @ res.solution
    assert math.sqrt(r @ prec(r)) <= 1e-10
    assert res.converged
