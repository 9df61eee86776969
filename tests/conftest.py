"""Shared dense oracles and instance builders for the test suite."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import brentq

from fftlasso import GridShape, Mask, gram, observe_adjoint
from fftlasso.diagnostics import dense_gram_matrix, dense_synthesis_matrix
from fftlasso.ipm import IpmState, _convergence_report
from fftlasso.newton_system import (
    barrier_residuals,
    barrier_scaling,
    check_interior,
    condense,
    dual_residual,
    recover_eliminated,
    schur_coefficients,
    stationarity,
)
from fftlasso.pcg import pcg_solve


def dense_observation_matrix(mask: Mask) -> np.ndarray:
    """Observed rows of the dense synthesis matrix."""
    a = dense_synthesis_matrix(mask.shape)
    return a[~mask.missing_bool, :]


def dense_augmented_system(state: IpmState, mask: Mask):
    """Dense 6n x 6n symmetrized Newton matrix in the packed block order.

    Variables ordered (d_beta, d_z, d_s1, d_s2, d_y1, d_y2); the slack
    columns carry the flipped sign convention of the condensed algebra.
    """
    n = state.n
    g = dense_gram_matrix(mask)
    i = np.eye(n)
    z = np.zeros((n, n))
    sig1 = np.diag(state.nu1 / state.s1)
    sig2 = np.diag(state.nu2 / state.s2)
    return np.block([
        [g, z, z, z, -i, i],
        [z, z, z, z, -i, -i],
        [z, z, sig1, z, -i, z],
        [z, z, z, sig2, z, -i],
        [-i, -i, -i, z, z, z],
        [i, -i, z, -i, z, z],
    ])


def barrier_diagonals(s1, s2, nu1, nu2) -> SimpleNamespace:
    """The barrier diagonals over whole vectors, from the formula helpers
    the solver's sweeps run on blocks, by name: ``sigma1``, ``sigma2``,
    ``omega1``, ``omega2``, ``delta`` and ``precond``.
    ``InteriorViolationError`` unless all four arrays are strictly positive
    and finite."""
    check_interior(s1, s2, nu1, nu2)
    d = SimpleNamespace(**{name: np.empty(np.shape(s1)) for name in
                           ("sigma1", "sigma2", "omega1", "omega2", "delta", "precond")})
    barrier_scaling(s1, s2, nu1, nu2, d.sigma1, d.sigma2, d.omega1, d.omega2,
                    lambda1=d.precond)  # precond is written last
    schur_coefficients(d.sigma1, d.omega2, d.delta, d.precond)
    return d


def lambdas(diag):
    """``(Lam1, Lam2) = (Sig1 + Sig2, Sig1 - Sig2)``, the diagonals of the 2x2
    condensed system."""
    return diag.sigma1 + diag.sigma2, diag.sigma1 - diag.sigma2


def apply_kkt_pair(d_beta, d_z, diag, mask: Mask) -> np.ndarray:
    """``K (d_beta, d_z)`` of the 2x2 condensed system, a (2, n) array."""
    lambda1, lambda2 = lambdas(diag)
    return np.stack([gram(d_beta, mask) + lambda1 * d_beta + lambda2 * d_z,
                     lambda2 * d_beta + lambda1 * d_z])


def apply_precond_inverse_pair(first, second, diag) -> np.ndarray:
    """``P^{-1} (first, second)`` of the 2x2 preconditioner, a (2, n) array,
    by block elimination through ``Delta`` and ``omega``."""
    tilt = diag.omega1 - diag.omega2  # Lam2 / Lam1
    top = diag.precond * (first - tilt * second)
    return np.stack([top, second / lambdas(diag)[0] - tilt * top])


def kkt_pair_operator(diag, mask: Mask):
    """:func:`apply_kkt_pair` on stacked vectors ``(d_beta, d_z)`` of length 2n."""
    return lambda v: apply_kkt_pair(*np.split(v, 2), diag, mask).reshape(-1)


def precond_pair_operator(diag):
    """:func:`apply_precond_inverse_pair` on stacked vectors of length 2n."""
    return lambda v: apply_precond_inverse_pair(*np.split(v, 2), diag).reshape(-1)


def schur_complement(m: np.ndarray) -> np.ndarray:
    """Schur complement of a dense 2x2 block matrix onto its first block."""
    n = m.shape[0] // 2
    return m[:n, :n] - m[:n, n:] @ np.linalg.solve(m[n:, n:], m[n:, :n])


def pcg_in_new_arrays(apply_op, apply_prec, rhs, tol: float = 1e-12, image=None):
    """:func:`~fftlasso.pcg.pcg_solve` iterating in four new arrays; ``rhs``
    is left as it is."""
    rhs = np.asarray(rhs, dtype=np.float64)
    work = [np.empty_like(rhs) for _ in range(4)]
    return pcg_solve(apply_op, apply_prec, rhs, tol, work, image=image)


def exact_data(state, b, mask: Mask):
    """``(xi, g)``: the data correlation and the exact Gram product at ``state``."""
    return observe_adjoint(b, mask), gram(state.beta, mask)


def newton_rhs(state, xi, g, lam: float):
    """Residuals ``r1``-``r4``, barrier diagonals ``diag`` and condensed
    right-hand side ``rho`` of ``state`` at ``state.mu``, over whole
    vectors: the reference the solver's block sweeps match bit for bit."""
    r1, r2, r3, r4, rho = (np.empty(state.n) for _ in range(5))
    stationarity(state.nu1, state.nu2, xi, g, r1)
    dual_residual(state.nu1, state.nu2, lam, r2)
    barrier_residuals(state.s1, state.s2, state.nu1, state.nu2, state.mu, r3, r4)
    diag = barrier_diagonals(state.s1, state.s2, state.nu1, state.nu2)
    condense(r1, r2, r3, r4, diag.omega1, diag.omega2, rho, np.empty(state.n))
    return SimpleNamespace(r1=r1, r2=r2, r3=r3, r4=r4, rho=rho, diag=diag)


def recovered(d_beta, rhs):
    """``(d_s1, d_s2, d_nu1, d_nu2)`` back-substituted over whole vectors."""
    d = rhs.diag
    return recover_eliminated(d_beta, rhs.r2, rhs.r3, rhs.r4, d.sigma1, d.sigma2, d.omega1,
                              d.omega2, [np.empty(d_beta.size) for _ in range(4)])


def check_convergence(state, rhs, tol: float):
    """The solver's convergence report of ``state`` from whole-vector extremes."""
    values = (rhs.r1, rhs.r2, state.s1 * state.nu1, state.s2 * state.nu2)
    extremes = np.array([[v.max() for v in values], [v.min() for v in values]])
    return _convergence_report(state, extremes, tol)


def exact_rhs(state, b, mask: Mask, lam: float):
    """:func:`newton_rhs` from the samples, with ``xi`` and ``g`` evaluated exactly."""
    return newton_rhs(state, *exact_data(state, b, mask), lam)


def random_feasible_iterate(rng, n: int, mu: float = 0.05) -> IpmState:
    """Arbitrary strictly interior iterate of the solver (not centered).

    The slack equations hold and ``y = nu``, as on every iterate the solver
    forms; the stationarity, dual-equality and complementarity residuals
    are arbitrary.
    """
    return IpmState(s1=rng.random(n) + 0.4, s2=rng.random(n) + 0.4,
                    nu1=rng.random(n) + 0.3, nu2=rng.random(n) + 0.3, mu=mu)


def spread_iterate(rng, n, mu):
    """Interior iterate with entries spread over 16 decades, as near convergence."""
    s1, s2, nu1, nu2 = (10.0 ** rng.uniform(-8, 8, n) for _ in range(4))
    return IpmState(s1=s1, s2=s2, nu1=nu1, nu2=nu2, mu=mu)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def central_path_state(xi: np.ndarray, lam: float, mu: float) -> IpmState:
    """Exact barrier-system solution for the empty-mask problem.

    With an orthogonal observation operator the barrier system separates
    per component: with t = z_i the scalar equations reduce to

        t * ((t + lam)^2 - xi_i^2) = (2 mu / lam) * (t + lam)^2

    whose unique positive root gives z, then beta = xi*z/(z+lam) and the
    slacks/multipliers follow.  Used as the ground-truth point where every
    barrier residual must vanish.
    """
    n = xi.size
    z = np.empty(n)
    for i, x in enumerate(xi):
        c = 2.0 * mu / lam

        def h(t, x=x, c=c):
            return t * ((t + lam) ** 2 - x * x) - c * (t + lam) ** 2

        hi = abs(x) + lam + c + 1.0
        while h(hi) <= 0.0:
            hi *= 2.0
        z[i] = brentq(h, 0.0, hi, xtol=1e-16, rtol=8.9e-16, maxiter=200)
    beta = xi * z / (z + lam)
    # the smaller slack is recovered from the product identity
    # s1*s2 = 2*mu*z/lam instead of the cancellation-prone difference
    s_plus = z + np.abs(beta)
    s_minus = (2.0 * mu / lam) * z / s_plus
    s1 = np.where(beta >= 0, s_plus, s_minus)
    s2 = np.where(beta >= 0, s_minus, s_plus)
    return IpmState(s1=s1, s2=s2, nu1=mu / s1, nu2=mu / s2, mu=mu)


def sparse_instance(rng, n: int, n_missing: int, n_active: int,
                    amplitude=(1.0, 2.0), noise: float = 0.02):
    """Masked observations of a sparse spectrum plus small noise."""
    from fftlasso import observe

    shape = GridShape((n,))
    missing = np.sort(rng.choice(n, size=n_missing, replace=False))
    mask = Mask(missing, shape)
    beta_true = np.zeros(n)
    idx = rng.choice(n, size=n_active, replace=False)
    lo, hi = amplitude
    beta_true[idx] = (lo + (hi - lo) * rng.random(n_active)) * np.sign(
        rng.standard_normal(n_active)
    )
    b = observe(beta_true, mask) + noise * rng.standard_normal(mask.n_observed)
    return b, mask, beta_true


def slab_mask(shape: GridShape, fraction: float, axis: int = 0) -> Mask:
    """Contiguous hole: the first ``round(fraction * extent)`` planes along
    ``axis`` are missing (a half-space at 0.5, a detector gap when thin)."""
    flags = np.zeros(shape.dims, dtype=bool)
    cut = [slice(None)] * shape.ndim
    cut[axis] = slice(0, round(fraction * shape.dims[axis]))
    flags[tuple(cut)] = True
    return Mask.from_bool(flags, shape)


def punched_lattice_mask(shape: GridShape, radius: float, period: int) -> Mask:
    """Contiguous holes: the closed balls of ``radius`` around every point
    whose coordinates are multiples of ``period``, periodic on the grid, as
    when the Bragg peaks are punched out of diffuse scattering."""
    axes = np.meshgrid(*(np.arange(m) for m in shape.dims), indexing="ij")
    offsets = [np.minimum(x % period, period - x % period) for x in axes]
    return Mask.from_bool(sum(o * o for o in offsets) <= radius * radius, shape)


def penalty_at_widest_gap(xi, lo_frac=1 / 16, hi_frac=1 / 4):
    """Penalty centered in the widest gap of the sorted correlation sizes.

    Guarantees a strict-complementarity margin between the penalty and
    every |xi_i|, so the solution support is numerically unambiguous.
    Returns (penalty, margin).
    """
    a = np.sort(np.abs(xi))[::-1]
    lo = max(1, int(len(a) * lo_frac))
    hi = max(lo + 1, int(len(a) * hi_frac))
    gaps = a[lo - 1 : hi - 1] - a[lo:hi]
    k = lo + int(np.argmax(gaps))
    return 0.5 * (a[k - 1] + a[k]), 0.5 * (a[k - 1] - a[k])


def fail_on_call(k, error, fn):
    """Wrap ``fn`` so that its ``k``-th call raises ``error``."""
    calls = []

    def wrapped(*args, **kw):
        calls.append(None)
        if len(calls) == k:
            raise error("injected inner failure")
        return fn(*args, **kw)

    return wrapped


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
