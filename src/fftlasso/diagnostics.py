"""Dense small-scale oracles and spectrum probes.

Everything here exists to *check* the matrix-free solver rather than to
run it: explicit matrices assembled column by column, eigenvalue probes of
the preconditioned operator, scaling-trajectory checks against the
expected barrier asymptotics, and an independent first-order reference
solver (ISTA) for cross-validating solutions.

Like the solver, this module needs only numpy: the eigenvalue probes run
on ``numpy.linalg``, the generalized one through a Cholesky reduction.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import IterationLimitError
from .fourier import GridShape, real_vector
from .ipm import IpmState
from .masking import Mask, gram, observe_adjoint
from .newton_system import check_interior

__all__ = [
    "DENSE_DIM_GUARD",
    "densify",
    "dense_synthesis_matrix",
    "dense_gram_matrix",
    "dense_condensed_matrices",
    "SupportClassification",
    "classify_support",
    "SpectrumReport",
    "preconditioned_spectrum",
    "ScalingReport",
    "scaling_trajectory_check",
    "soft_threshold",
    "ista_solve",
]

DENSE_DIM_GUARD = 4096
ISTA_DIM_GUARD = 4096
ISTA_ITER_CAP = 10**6
CLUSTER_TOL = 0.05  # an eigenvalue within this of 1 is in the unit cluster
SCALING_BAND = (1.0 / 50.0, 50.0)  # the band every scaling ratio should stay in
SCALING_TAIL = 5  # the trailing iterates whose scaling ratios are checked


def densify(operator, dim: int) -> np.ndarray:
    """Materialize a linear operator by applying it to every unit vector."""
    if dim > DENSE_DIM_GUARD:
        raise ValueError(f"dense assembly guard: dim {dim} > {DENSE_DIM_GUARD}")
    cols = []
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        cols.append(np.asarray(operator(e), dtype=np.float64))
    return np.stack(cols, axis=1)


def _dense_synthesis_1d(m: int) -> np.ndarray:
    """Synthesis matrix of one axis, written out from the trig expansion.

    Independent of any FFT code path: entries come straight from the
    cosine/sine form of the inverse transform acting on packed
    coefficients, so this is a genuine oracle for the fast path.
    """
    k = np.arange(m)[:, None]
    a = np.zeros((m, m))
    a[:, 0] = 1.0
    a[:, 1] = (-1.0) ** np.arange(m)
    j = np.arange(1, m // 2)[None, :]
    if j.size:
        angle = 2.0 * np.pi * j * k / m
        a[:, 2 : m // 2 + 1] = math.sqrt(2.0) * np.cos(angle)
        a[:, m // 2 + 1 :] = -math.sqrt(2.0) * np.sin(angle)
    return a / math.sqrt(m)


def dense_synthesis_matrix(shape: GridShape) -> np.ndarray:
    """Dense orthogonal synthesis matrix for a grid (kron over axes)."""
    if shape.n > DENSE_DIM_GUARD:
        raise ValueError(f"dense assembly guard: n {shape.n} > {DENSE_DIM_GUARD}")
    a = _dense_synthesis_1d(shape.dims[0])
    for m in shape.dims[1:]:
        a = np.kron(a, _dense_synthesis_1d(m))
    return a


def dense_gram_matrix(mask: Mask) -> np.ndarray:
    """Dense Gram matrix of the observed rows."""
    a = dense_synthesis_matrix(mask.shape)
    keep = ~mask.missing_bool
    m_perp = a[keep, :]
    return m_perp.T @ m_perp


def _sigmas(state: IpmState) -> tuple[np.ndarray, np.ndarray]:
    """Barrier scaling diagonals ``(nu1/s1, nu2/s2)`` of an interior iterate."""
    check_interior(state.s1, state.s2, state.nu1, state.nu2)
    return state.nu1 / state.s1, state.nu2 / state.s2


def dense_condensed_matrices(state: IpmState, mask: Mask):
    """Dense (K, P) pair of the condensed system at an iterate."""
    n = state.n
    sigma1, sigma2 = _sigmas(state)
    lambda1, lambda2 = np.diag(sigma1 + sigma2), np.diag(sigma1 - sigma2)
    k = np.block([[dense_gram_matrix(mask) + lambda1, lambda2], [lambda2, lambda1]])
    p = np.block([[np.eye(n) + lambda1, lambda2], [lambda2, lambda1]])
    assert k.shape == (2 * n, 2 * n)
    return k, p


@dataclass(frozen=True, eq=False)
class SupportClassification:
    """Partition of coefficient indices by solution sign."""

    positive: np.ndarray
    negative: np.ndarray
    zero: np.ndarray
    threshold: float

    @property
    def active(self) -> np.ndarray:
        return np.sort(np.concatenate([self.positive, self.negative]))

    @property
    def n_active(self) -> int:
        return self.positive.size + self.negative.size


def classify_support(beta, threshold: float | None = None) -> SupportClassification:
    """Split indices into positive / negative / numerically-zero sets.

    Default threshold is ``1e-6 * max|beta|`` (zero vector classifies as
    all-zero).
    """
    beta = real_vector(beta, "coefficients", np.size(beta))
    if threshold is None:
        scale = float(np.max(np.abs(beta))) if beta.size else 0.0
        threshold = 1e-6 * scale
    pos = np.flatnonzero(beta > threshold)
    neg = np.flatnonzero(beta < -threshold)
    zero = np.flatnonzero((beta >= -threshold) & (beta <= threshold))
    return SupportClassification(pos, neg, zero, float(threshold))


@dataclass(eq=False)
class SpectrumReport:
    """Observed spectrum of the preconditioned operator vs. prediction.

    In the small-barrier limit the preconditioned spectrum collapses to
    {1} union the spectrum of the active Gram submatrix, so the unit
    eigenvalue should appear with multiplicity at least ``2n - n_active``
    and the condition number should approach
    ``max(1, lam_max) / min(1, lam_min)`` over that submatrix.
    """

    eigenvalues: np.ndarray
    cluster_tol: float
    unit_cluster_size: int
    predicted_cluster_size: int
    kappa_observed: float
    kappa_predicted: float
    kappa_unpreconditioned: float
    n_active: int
    strict_complementarity: float  # min_i (s_i + nu_i) over all bounds
    duality_measure: float

    def to_dict(self) -> dict:
        return {"record": "spectrum", **asdict(self), "eigenvalues": self.eigenvalues.tolist()}


def _pencil_eigvalsh(k: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric-definite pencil ``K v = lam P v``.

    The Cholesky reduction that LAPACK ``dsygvd`` performs: with
    ``P = L L^T`` the pencil is congruent to ``L^-1 K L^-T``, whose
    symmetric part has the same eigenvalues.
    """
    l = np.linalg.cholesky(p)
    c = np.linalg.solve(l, np.linalg.solve(l, k).T)
    return np.linalg.eigvalsh(0.5 * (c + c.T))


def preconditioned_spectrum(state: IpmState, mask: Mask) -> SpectrumReport:
    """Dense eigenvalue probe of the preconditioned condensed operator.

    Solves the symmetric-definite generalized problem ``K v = lam P v``
    (congruent to the split-preconditioned form, identical spectrum),
    which is numerically robust where the nonsymmetric product is not.
    Guarded to ``n <= 1024``.  The unit cluster counts the eigenvalues
    within ``CLUSTER_TOL`` of 1; the support is classified at
    :func:`classify_support`'s default threshold.
    """
    n = state.n
    if n > 1024:
        raise ValueError(f"spectrum probe guard: n {n} > 1024")
    k, p = dense_condensed_matrices(state, mask)
    eigs = _pencil_eigvalsh(k, p)
    eigs_k = np.linalg.eigvalsh(k)

    support = classify_support(state.beta)
    active = support.active
    if active.size:
        q = dense_gram_matrix(mask)[np.ix_(active, active)]
        q_eigs = np.linalg.eigvalsh(q)
        kappa_pred = max(1.0, float(q_eigs[-1])) / min(1.0, float(q_eigs[0]))
    else:
        kappa_pred = 1.0

    comp_floor = min(
        float(np.min(state.s1 + state.nu1)),
        float(np.min(state.s2 + state.nu2)),
    )
    return SpectrumReport(
        eigenvalues=eigs,
        cluster_tol=CLUSTER_TOL,
        unit_cluster_size=int(np.sum(np.abs(eigs - 1.0) <= CLUSTER_TOL)),
        predicted_cluster_size=2 * n - support.n_active,
        kappa_observed=float(eigs[-1] / eigs[0]),
        kappa_predicted=kappa_pred,
        kappa_unpreconditioned=float(eigs_k[-1] / eigs_k[0]),
        n_active=support.n_active,
        strict_complementarity=comp_floor,
        duality_measure=state.duality_measure(),
    )


def _ratio_range(values: np.ndarray) -> tuple[float, float]:
    if values.size == 0:
        return (1.0, 1.0)
    return (float(values.min()), float(values.max()))


@dataclass
class ScalingReport:
    """Observed barrier scaling ratios over the tail of a trajectory.

    For each index class of the solution the barrier diagonals should
    scale like the barrier parameter or its inverse; ``in_band`` states
    whether every observed ratio stayed inside ``band``, which is
    ``SCALING_BAND``, over the last ``SCALING_TAIL`` iterates.
    """

    band: tuple[float, float]
    iterations_checked: int
    lambda1_times_mu: tuple[float, float]
    sigma1_over_mu_pos: tuple[float, float]
    sigma2_times_mu_pos: tuple[float, float]
    sigma1_times_mu_neg: tuple[float, float]
    sigma2_over_mu_neg: tuple[float, float]
    sigma1_times_mu_zero: tuple[float, float]
    sigma2_times_mu_zero: tuple[float, float]
    sigma_product_active: tuple[float, float]
    in_band: bool

    def to_dict(self) -> dict:
        return {"record": "scaling", **asdict(self)}


# ScalingReport field -> ratio of the barrier diagonals (s1, s2) at duality
# measure mu, over the index classes of the support s
_SCALING_RATIOS = {
    "lambda1_times_mu": lambda s1, s2, mu, s: (s1 + s2) * mu,
    "sigma1_over_mu_pos": lambda s1, s2, mu, s: s1[s.positive] / mu,
    "sigma2_times_mu_pos": lambda s1, s2, mu, s: s2[s.positive] * mu,
    "sigma1_times_mu_neg": lambda s1, s2, mu, s: s1[s.negative] * mu,
    "sigma2_over_mu_neg": lambda s1, s2, mu, s: s2[s.negative] / mu,
    "sigma1_times_mu_zero": lambda s1, s2, mu, s: s1[s.zero] * mu,
    "sigma2_times_mu_zero": lambda s1, s2, mu, s: s2[s.zero] * mu,
    "sigma_product_active": lambda s1, s2, mu, s: s1[s.active] * s2[s.active],
}


def scaling_trajectory_check(states: list[IpmState],
                             support: SupportClassification | None = None) -> ScalingReport:
    """Check barrier-diagonal growth rates over the last ``SCALING_TAIL``
    iterates, against the band ``SCALING_BAND``.

    Expected rates by class of the final solution: on positive indices
    ``sigma1 ~ mu`` and ``sigma2 ~ 1/mu``; mirrored on negative indices;
    both like ``1/mu`` on zero indices; ``lambda1 ~ 1/mu`` everywhere and
    ``sigma1*sigma2`` of order one on the active set.  Report only; the
    hypotheses (strict complementarity) are not verified here.
    """
    if not states:
        raise ValueError("empty trajectory")
    window = states[-SCALING_TAIL:]
    if support is None:
        support = classify_support(window[-1].beta)
    diags = [(*_sigmas(st), st.duality_measure()) for st in window]
    ranges = {
        name: _ratio_range(np.concatenate([ratio(*d, support) for d in diags]))
        for name, ratio in _SCALING_RATIOS.items()
    }
    lo, hi = SCALING_BAND
    in_band = all(lo <= r[0] and r[1] <= hi for r in ranges.values())
    return ScalingReport(band=SCALING_BAND, iterations_checked=len(window), **ranges,
                         in_band=in_band)


def soft_threshold(x, t: float) -> np.ndarray:
    """Proximity operator of ``t * ||.||_1``, in ``x``'s shape."""
    x = real_vector(x, "x", np.size(x)).reshape(np.shape(x))
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def ista_solve(b, mask: Mask, lam: float, tol: float = 1e-10,
               max_iters: int = ISTA_ITER_CAP) -> tuple[np.ndarray, int]:
    """Iterative soft-thresholding reference solver.

    Unit step size is valid because the Gram operator of orthogonal rows
    has norm at most one.  Stops when the gradient-map residual (the
    update displacement) drops below ``tol`` in the max norm.  Entirely
    independent of the interior-point path; used to cross-check final
    objectives.

    Raises
    ------
    IterationLimitError
        If ``max_iters`` is exceeded before reaching ``tol``.
    """
    if mask.shape.n > ISTA_DIM_GUARD:
        raise ValueError(f"ISTA oracle guard: n {mask.shape.n} > {ISTA_DIM_GUARD}")
    xi = observe_adjoint(b, mask)  # refuses a complex b, and one of another length
    beta = np.zeros(mask.shape.n)
    for k in range(1, max_iters + 1):
        grad = gram(beta, mask) - xi
        nxt = soft_threshold(beta - grad, lam)
        step = float(np.max(np.abs(nxt - beta))) if beta.size else 0.0
        beta = nxt
        if step <= tol:
            return beta, k
    raise IterationLimitError(
        f"ISTA did not reach tol={tol:.1e} within {max_iters} iterations"
    )
