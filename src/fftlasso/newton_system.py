"""Condensed Newton (KKT) systems for the interior-point solver.

Each Newton step of the primal-dual method solves a symmetric 6-block
system in the direction ``(d_beta, d_z, d_s1, d_s2, d_y1, d_y2)``:

    [ G          0     0     0    -I    I ] [d_beta]   [r1]
    [ 0          0     0     0    -I   -I ] [d_z   ]   [r2]
    [ 0          0    Sig1   0    -I    0 ] [d_s1  ] = [r3]
    [ 0          0     0    Sig2   0   -I ] [d_s2  ]   [r4]
    [-I         -I    -I     0     0    0 ] [d_y1  ]   [r5]
    [ I         -I     0    -I     0    0 ] [d_y2  ]   [r6]

with ``G`` the masked Gram operator and ``Sig1 = nu1/s1``, ``Sig2 = nu2/s2``
the barrier scaling diagonals.  In this symmetrized form the slack blocks
carry the opposite sign from the raw Newton linearization: the true slack
step is ``-d_s1, -d_s2`` (the driver flips it on update).

Eliminating the slack and multiplier blocks condenses the system to 2x2:

    K = [ G + Lam1   Lam2 ]        Lam1 = Sig1 + Sig2
        [ Lam2       Lam1 ]        Lam2 = Sig1 - Sig2

which is solved by preconditioned CG with the preconditioner

    P = [ I + Lam1   Lam2 ]
        [ Lam2       Lam1 ]

whose inverse is closed-form diagonal-block:

    P^{-1} = [ Lam1/D    -Lam2/D ]      D = Lam1 (I + Lam1) - Lam2^2
             [ -Lam2/D    1/B    ]      B = D / (I + Lam1)

Elementwise, ``D = Sig1 + Sig2 + 4 Sig1 Sig2 > 0`` so the inverse is always
well defined on the interior, and ``P^{-1} K`` is block lower-triangular
with identity (2,2)-block; with an empty mask ``G = I`` and ``P^{-1}K = I``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InteriorViolationError
from .masking import Mask, gram, observe, observe_adjoint

__all__ = [
    "BarrierDiagonals",
    "KktRhs",
    "CondensedSolution",
    "barrier_diagonals",
    "newton_rhs",
    "apply_kkt",
    "apply_precond_inverse",
    "apply_precond_kkt",
    "recover_eliminated",
]


@dataclass(frozen=True)
class BarrierDiagonals:
    """Diagonal data of the condensed system and its preconditioner."""

    sigma1: np.ndarray
    sigma2: np.ndarray
    lambda1: np.ndarray  # sigma1 + sigma2
    lambda2: np.ndarray  # sigma1 - sigma2
    dvec: np.ndarray  # sigma1 + sigma2 + 4*sigma1*sigma2
    bvec: np.ndarray  # dvec / (1 + lambda1)


def barrier_diagonals(s1, s2, nu1, nu2) -> BarrierDiagonals:
    """Build the barrier scaling diagonals from slacks and multipliers.

    All four inputs must be strictly positive; otherwise the iterate has
    left the interior and the condensed system loses definiteness.
    """
    s1 = np.asarray(s1, dtype=np.float64)
    s2 = np.asarray(s2, dtype=np.float64)
    nu1 = np.asarray(nu1, dtype=np.float64)
    nu2 = np.asarray(nu2, dtype=np.float64)
    for name, arr in (("s1", s1), ("s2", s2), ("nu1", nu1), ("nu2", nu2)):
        if arr.size == 0 or np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
            raise InteriorViolationError(f"{name} must be strictly positive and finite")
    sigma1 = nu1 / s1
    sigma2 = nu2 / s2
    lambda1 = sigma1 + sigma2
    lambda2 = sigma1 - sigma2
    dvec = sigma1 + sigma2 + 4.0 * sigma1 * sigma2
    bvec = dvec / (1.0 + lambda1)
    return BarrierDiagonals(sigma1, sigma2, lambda1, lambda2, dvec, bvec)


@dataclass(frozen=True)
class KktRhs:
    """Right-hand side of the 6-block system plus its condensed form.

    ``r3``/``r4`` carry the barrier-shifted multiplier residuals
    ``y - mu/s`` (equal to ``y - nu`` exactly on the central path), which
    makes the condensed solve a true Newton step on the barrier system.
    ``diag`` holds the barrier diagonals of the same iterate.
    """

    r1: np.ndarray
    r2: np.ndarray
    r3: np.ndarray
    r4: np.ndarray
    r5: np.ndarray
    r6: np.ndarray
    r_beta: np.ndarray
    r_c: np.ndarray
    diag: BarrierDiagonals

    def at_barrier(self, state) -> "KktRhs":
        """The same residuals at ``state.mu``: only r3, r4, r_beta, r_c change."""
        return _condense(state, self.r1, self.r2, self.r5, self.r6, self.diag)


def _condense(state, r1, r2, r5, r6, diag: BarrierDiagonals) -> KktRhs:
    r3 = state.y1 - state.mu / state.s1
    r4 = state.y2 - state.mu / state.s2
    r_beta = r1 - r3 + r4 - diag.sigma1 * r5 + diag.sigma2 * r6
    r_c = r2 - r3 - r4 - diag.sigma1 * r5 - diag.sigma2 * r6
    return KktRhs(r1, r2, r3, r4, r5, r6, r_beta, r_c, diag)


def newton_rhs(state, b, mask: Mask, lam: float) -> KktRhs:
    """Residuals of the barrier KKT system at a strictly interior iterate.

    Parameters
    ----------
    state : object
        Iterate with attributes ``beta, z, s1, s2, y1, y2, nu1, nu2, mu``.
    b : numpy.ndarray
        Observed samples (length ``mask.n_observed``).
    mask : Mask
        Missing-sample set.
    lam : float
        L1 penalty weight.

    Returns
    -------
    KktRhs
        All six block residuals, the barrier diagonals and the condensed
        pair ``(r_beta, r_c)``:

        ``r_beta = r1 - r3 + r4 - Sig1 r5 + Sig2 r6``
        ``r_c    = r2 - r3 - r4 - Sig1 r5 - Sig2 r6``
    """
    diag = barrier_diagonals(state.s1, state.s2, state.nu1, state.nu2)
    residual = b - observe(state.beta, mask)
    r1 = observe_adjoint(residual, mask) + state.y1 - state.y2
    r2 = state.y1 + state.y2 - lam
    r5 = state.z + state.beta - state.s1
    r6 = state.z - state.beta - state.s2
    return _condense(state, r1, r2, r5, r6, diag)


def apply_kkt(d_beta, d_z, diag: BarrierDiagonals, mask: Mask):
    """Apply the condensed operator ``K`` to a direction pair."""
    top = gram(d_beta, mask) + diag.lambda1 * d_beta + diag.lambda2 * d_z
    bottom = diag.lambda2 * d_beta + diag.lambda1 * d_z
    return top, bottom


def apply_precond_inverse(r_beta, r_c, diag: BarrierDiagonals):
    """Apply the closed-form inverse of the preconditioner ``P``."""
    top = (diag.lambda1 * r_beta - diag.lambda2 * r_c) / diag.dvec
    bottom = -diag.lambda2 / diag.dvec * r_beta + r_c / diag.bvec
    return top, bottom


def apply_precond_kkt(d_beta, d_z, diag: BarrierDiagonals, mask: Mask):
    """Apply ``P^{-1} K``; block lower-triangular with unit (2,2) block."""
    top, bottom = apply_kkt(d_beta, d_z, diag, mask)
    return apply_precond_inverse(top, bottom, diag)


@dataclass(frozen=True)
class CondensedSolution:
    """Full 6-block direction recovered from the condensed solve.

    Components are in the symmetrized system's convention; the physical
    slack step is ``(-d_s1, -d_s2)``.
    """

    d_beta: np.ndarray
    d_z: np.ndarray
    d_s1: np.ndarray
    d_s2: np.ndarray
    d_y1: np.ndarray
    d_y2: np.ndarray


def recover_eliminated(d_beta, d_z, rhs: KktRhs, diag: BarrierDiagonals) -> CondensedSolution:
    """Back-substitute multipliers and slacks from the condensed solution.

    ``d_y1 = Sig1 (-d_beta - d_z - r5 - r3/Sig1)``
    ``d_y2 = Sig2 ( d_beta - d_z - r6 - r4/Sig2)``
    ``d_s1 = (r3 + d_y1) / Sig1``
    ``d_s2 = (r4 + d_y2) / Sig2``
    """
    d_y1 = -diag.sigma1 * (d_beta + d_z + rhs.r5) - rhs.r3
    d_y2 = diag.sigma2 * (d_beta - d_z - rhs.r6) - rhs.r4
    d_s1 = (rhs.r3 + d_y1) / diag.sigma1
    d_s2 = (rhs.r4 + d_y2) / diag.sigma2
    return CondensedSolution(d_beta, d_z, d_s1, d_s2, d_y1, d_y2)
