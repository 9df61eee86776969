"""Condensed Newton (KKT) systems for the interior-point solver.

Each Newton step of the primal-dual method solves a symmetric 6-block
system in the direction ``(d_beta, d_z, d_s1, d_s2, d_y1, d_y2)``:

    [ G          0     0     0    -I    I ] [d_beta]   [r1]
    [ 0          0     0     0    -I   -I ] [d_z   ]   [r2]
    [ 0          0    Sig1   0    -I    0 ] [d_s1  ] = [r3]
    [ 0          0     0    Sig2   0   -I ] [d_s2  ]   [r4]
    [-I         -I    -I     0     0    0 ] [d_y1  ]   [0 ]
    [ I         -I     0    -I     0    0 ] [d_y2  ]   [0 ]

with ``G`` the masked Gram operator and ``Sig1 = nu1/s1``, ``Sig2 = nu2/s2``
the barrier scaling diagonals.  In this symmetrized form the slack blocks
carry the opposite sign from the raw Newton linearization: the true slack
step is ``-d_s1, -d_s2``, which :func:`recover_eliminated` returns.

On the solver's domain (``ipm.Iterate``) the slack equations hold by
construction, so the last two residual blocks are zero, and ``y = nu``, so
the multiplier step ``d_y`` is ``d_nu`` and

    r1 = xi - G beta + nu1 - nu2,    r2 = nu1 + nu2 - lam,
    r3 = nu1 - mu/s1,                r4 = nu2 - mu/s2.

Eliminating the slack and multiplier blocks condenses the system to 2x2,
``K (d_beta, d_z) = (r_beta, r_c)`` with

    K = [ G + Lam1   Lam2 ]        Lam1 = Sig1 + Sig2
        [ Lam2       Lam1 ]        Lam2 = Sig1 - Sig2

    r_beta = r1 - r3 + r4,    r_c = r2 - r3 - r4,

preconditioned by

    P = [ I + Lam1   Lam2 ]
        [ Lam2       Lam1 ]

``K`` and ``P`` differ only in their (1,1) block, so ``P^{-1} K`` is block
lower-triangular with identity (2,2) block; with an empty mask ``G = I``
and ``P^{-1} K = I``.

Schur reduction.  The (2,2) block ``Lam1`` is diagonal, so ``d_z`` leaves
both matrices exactly, and what is left are n x n systems:

    S = G + Delta,    P_S = I + Delta,    Delta = Lam1 - Lam2^2/Lam1
                                                = 4 Sig1 Sig2 / (Sig1 + Sig2)

The solver runs PCG on ``S d_beta = rho = r_beta - Lam1^{-1} Lam2 r_c``
with the diagonal preconditioner ``(I + Delta)^{-1}``.  That is PCG on
``K`` with ``P`` started at ``d_beta = 0, d_z = Lam1^{-1} r_c``, a start
that satisfies the second block row: every residual then has a zero
second block, every search direction has the form
``(p, -Lam1^{-1} Lam2 p)``, and on such vectors ``K`` and ``P^{-1}`` act
on the first block as ``S`` and ``(I + Delta)^{-1}``.  So the Krylov
iterates and the stopping quantity ``sqrt(r' P^{-1} r)`` are those of the
2x2 iteration, on vectors half as long, and with an empty mask the
identity reads ``(I + Delta)^{-1} (I + Delta) = I``.  The closed-form
``P^{-1}`` of the 2x2 form is the same block elimination:

    P^{-1} (a, c) = (x, c/Lam1 - (omega1 - omega2) x),
    x = (I + Delta)^{-1} (a - (omega1 - omega2) c).

Coefficients.  Near convergence the barrier diagonals grow like ``1/mu``:
one of ``Sig1, Sig2`` on the support, both off it.  On the support
``Lam1 ~ |Lam2|``, so expressions in ``Lam1, Lam2`` subtract huge, nearly
equal terms.  Everything here is written instead with

    omega_i = Sig_i / (Sig1 + Sig2) in [0, 1],    Delta = 4 Sig1 omega2,

so that ``Delta <= 4 min(Sig1, Sig2)`` and no two terms of size ``1/mu``
cancel.  The condensed right-hand side is

    rho = r1 + omega1 (2 r4 - r2) + omega2 (r2 - 2 r3).

Recovery.  The second block row gives ``d_z = c - (omega1 - omega2) d_beta``
with ``c = (r2 - r3 - r4)/(Sig1 + Sig2)``.  The physical slack steps
``d_z +/- d_beta`` are ``c + 2 omega2 d_beta`` and ``c - 2 omega1 d_beta``,
as ``omega1 + omega2 = 1``: on the support the vanishing slack's step is
a small ``c`` plus a small multiple of ``d_beta``, not a difference of two
steps of size ``|d_beta|``, and ``d_z`` is never formed.

``G`` enters PCG only as ``G d_beta``, which PCG accumulates to carry
``G beta`` from one iterate to the next without a transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InteriorViolationError
from .masking import Mask, gram

__all__ = [
    "BarrierDiagonals",
    "KktRhs",
    "CondensedSolution",
    "barrier_diagonals",
    "newton_rhs",
    "apply_kkt",
    "apply_precond_inverse",
    "recover_eliminated",
]


@dataclass(frozen=True)
class BarrierDiagonals:
    """Barrier scaling diagonals and the coefficients of the Schur reduction."""

    sigma1: np.ndarray
    sigma2: np.ndarray
    omega1: np.ndarray  # sigma1 / (sigma1 + sigma2)
    omega2: np.ndarray  # sigma2 / (sigma1 + sigma2)
    delta: np.ndarray  # 4 sigma1 sigma2 / (sigma1 + sigma2)
    precond: np.ndarray  # 1 / (1 + delta)

    @property
    def lambda1(self) -> np.ndarray:
        return self.sigma1 + self.sigma2

    @property
    def lambda2(self) -> np.ndarray:
        return self.sigma1 - self.sigma2


def barrier_diagonals(s1, s2, nu1, nu2) -> BarrierDiagonals:
    """Build the barrier scaling diagonals from slacks and multipliers.

    All four inputs must be strictly positive and finite; otherwise the
    iterate has left the interior and the condensed system loses
    definiteness.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in (s1, s2, nu1, nu2)]
    for name, arr in zip(("s1", "s2", "nu1", "nu2"), arrays):
        # one reduction each way; NaN fails both comparisons
        if arr.size == 0 or not (arr.min() > 0.0 and arr.max() < np.inf):
            raise InteriorViolationError(f"{name} must be strictly positive and finite")
    s1, s2, nu1, nu2 = arrays
    sigma1 = nu1 / s1
    sigma2 = nu2 / s2
    lambda1 = sigma1 + sigma2
    omega1 = sigma1 / lambda1
    omega2 = sigma2 / lambda1
    delta = 4.0 * sigma1 * omega2
    return BarrierDiagonals(sigma1, sigma2, omega1, omega2, delta, 1.0 / (1.0 + delta))


@dataclass(frozen=True)
class KktRhs:
    """Nonzero residual blocks of the 6-block system plus its Schur-reduced form.

    ``r3``/``r4`` are the barrier-shifted residuals ``nu - mu/s``, which
    make the condensed solve a Newton step on the barrier system.  ``rho``
    is the right-hand side of ``S d_beta = rho``; ``diag`` holds the
    barrier diagonals of the same iterate.
    """

    r1: np.ndarray
    r2: np.ndarray
    r3: np.ndarray
    r4: np.ndarray
    rho: np.ndarray
    diag: BarrierDiagonals

    def at_barrier(self, state) -> "KktRhs":
        """The same residuals at ``state.mu``: only r3, r4 and rho change."""
        return _condense(state, self.r1, self.r2, self.diag)


def _condense(state, r1, r2, diag: BarrierDiagonals) -> KktRhs:
    r3 = state.nu1 - state.mu / state.s1
    r4 = state.nu2 - state.mu / state.s2
    rho = r1 + diag.omega1 * (2.0 * r4 - r2) + diag.omega2 * (r2 - 2.0 * r3)
    return KktRhs(r1, r2, r3, r4, rho, diag)


def newton_rhs(state, xi, g, lam: float) -> KktRhs:
    """Residuals of the barrier KKT system at a strictly interior iterate.

    Vector algebra only: the data enter through ``xi`` and ``g``.

    Parameters
    ----------
    state : object
        Iterate with attributes ``s1, s2, nu1, nu2, mu``, on the solver's
        domain: the slack equations hold and ``y = nu``.
    xi : numpy.ndarray
        Data correlation ``observe_adjoint(b, mask)``.
    g : numpy.ndarray
        Gram product ``gram(beta, mask)`` at ``beta = (s1 - s2)/2``.
    lam : float
        L1 penalty weight.

    Returns
    -------
    KktRhs
        The four nonzero block residuals, the barrier diagonals and the
        Schur right-hand side

        ``rho = r1 + omega1 (2 r4 - r2) + omega2 (r2 - 2 r3)``.
    """
    diag = barrier_diagonals(state.s1, state.s2, state.nu1, state.nu2)
    r1 = xi - g + state.nu1 - state.nu2
    r2 = state.nu1 + state.nu2 - lam
    return _condense(state, r1, r2, diag)


def apply_kkt(d_beta, d_z, diag: BarrierDiagonals, mask: Mask):
    """Apply the condensed operator.

    With a pair ``(d_beta, d_z)`` the result is ``K (d_beta, d_z)``, a
    (2, n) array.  With ``d_z=None`` it is the Schur complement's product
    and the Gram product inside it, ``(S d_beta, G d_beta)``; PCG
    accumulates the second.  PCG calls this function rather than a private
    kernel so that each Krylov step is one call of ``apply_kkt``, the unit
    in which Krylov work is counted.
    """
    gram_d_beta = gram(d_beta, mask)
    if d_z is None:
        product = diag.delta * d_beta
        product += gram_d_beta
        return product, gram_d_beta
    lambda1, lambda2 = diag.lambda1, diag.lambda2
    out = np.empty((2, gram_d_beta.size))
    out[0] = gram_d_beta + lambda1 * d_beta + lambda2 * d_z
    out[1] = lambda2 * d_beta + lambda1 * d_z
    return out


def apply_precond_inverse(first, second, diag: BarrierDiagonals):
    """Apply the closed-form inverse of the preconditioner.

    With a pair ``(first, second)`` the result is ``P^{-1}`` times it, a
    (2, n) array, by block elimination through ``Delta`` and ``omega``.
    With ``second=None`` it is the Schur preconditioner's
    ``(I + Delta)^{-1} first``.
    """
    if second is None:
        return diag.precond * first
    tilt = diag.omega1 - diag.omega2  # Lam2 / Lam1
    out = np.empty((2, np.size(first)))
    out[0] = diag.precond * (first - tilt * second)
    out[1] = second / diag.lambda1 - tilt * out[0]
    return out


@dataclass(frozen=True)
class CondensedSolution:
    """The Newton step on the solver's domain, recovered from ``d_beta``.

    The slack steps are physical: the symmetrized 6-block system above
    carries ``-d_s1, -d_s2``.  The step in ``z`` is ``(d_s1 + d_s2)/2``,
    and that in ``y`` is ``d_nu``.
    """

    d_beta: np.ndarray
    d_s1: np.ndarray
    d_s2: np.ndarray
    d_nu1: np.ndarray
    d_nu2: np.ndarray


def recover_eliminated(d_beta, rhs: KktRhs) -> CondensedSolution:
    """Back-substitute the eliminated blocks from the solution of ``S d_beta = rho``.

    ``c = (r2 - r3 - r4)/(Sig1 + Sig2)``
    ``d_s1 = c + 2 omega2 d_beta``,  ``d_s2 = c - 2 omega1 d_beta``
    ``d_nu1 = -Sig1 d_s1 - r3``,  ``d_nu2 = -Sig2 d_s2 - r4``

    The last line is the linearized complementarity
    ``d_nu = (mu - s nu)/s - Sig d_s``, since ``r3 = nu1 - mu/s1`` and
    ``r4 = nu2 - mu/s2``.
    """
    diag = rhs.diag
    c = (rhs.r2 - rhs.r3 - rhs.r4) / diag.lambda1
    d_s1 = c + 2.0 * diag.omega2 * d_beta
    d_s2 = c - 2.0 * diag.omega1 * d_beta
    return CondensedSolution(d_beta, d_s1, d_s2,
                             -diag.sigma1 * d_s1 - rhs.r3, -diag.sigma2 * d_s2 - rhs.r4)
