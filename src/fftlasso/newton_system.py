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

Sum/difference coordinates.  Near convergence the barrier diagonals grow
like ``1/mu``: one of ``Sig1, Sig2`` on the support, both off it.  On the
support ``Lam1 ~ +-Lam2 ~ sigma_max``, so products with ``K`` and
``P^{-1}`` in ``(d_beta, d_z)`` subtract huge, nearly equal terms, and
rounding leaves errors of order ``eps * sigma_max``: with an empty mask
PCG takes two or three steps where ``P^{-1}K = I`` promises one.  The
solver works in the orthonormal coordinates

    u = (d_beta + d_z)/sqrt(2),    w = (d_beta - d_z)/sqrt(2),

an orthogonal similarity that turns the barrier blocks diagonal:

    K' = [ G/2 + 2 Sig1   G/2          ]    P' = [ 1/2 + 2 Sig1   1/2          ]
         [ G/2            G/2 + 2 Sig2 ]         [ 1/2            1/2 + 2 Sig2 ]

    P'^{-1} = (1/D) [ 1/2 + 2 Sig2   -1/2         ]
                    [ -1/2           1/2 + 2 Sig1 ]

with the same ``D``.  No coefficient is a difference, PCG produces the
same iterates in exact arithmetic, and ``G`` enters only as ``G(u + w)/2
= G d_beta / sqrt(2)``, which PCG accumulates to carry ``G beta`` from one
iterate to the next without a transform.  ``apply_kkt``,
``apply_precond_inverse`` and the ``lambda1``/``lambda2``/``dvec``/``bvec``
properties keep the ``(d_beta, d_z)`` form above, by a rotation into and
out of these coordinates.
"""

from __future__ import annotations

import math
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
    "sum_difference",
    "apply_kkt",
    "apply_precond_inverse",
    "apply_precond_kkt",
    "recover_eliminated",
]

SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class BarrierDiagonals:
    """Barrier scaling diagonals and the coefficients of ``P'^{-1}``."""

    sigma1: np.ndarray
    sigma2: np.ndarray
    prec_u: np.ndarray  # (1/2 + 2 sigma2) / D
    prec_w: np.ndarray  # (1/2 + 2 sigma1) / D
    prec_uw: np.ndarray  # -1 / (2 D)

    @property
    def lambda1(self) -> np.ndarray:
        return self.sigma1 + self.sigma2

    @property
    def lambda2(self) -> np.ndarray:
        return self.sigma1 - self.sigma2

    @property
    def dvec(self) -> np.ndarray:
        return self.sigma1 + self.sigma2 + 4.0 * self.sigma1 * self.sigma2

    @property
    def bvec(self) -> np.ndarray:
        return self.dvec / (1.0 + self.lambda1)


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
    prec_uw = -0.5 / (sigma1 + sigma2 + 4.0 * sigma1 * sigma2)
    prec_u = (-1.0 - 4.0 * sigma2) * prec_uw
    prec_w = (-1.0 - 4.0 * sigma1) * prec_uw
    return BarrierDiagonals(sigma1, sigma2, prec_u, prec_w, prec_uw)


def sum_difference(first, second) -> np.ndarray:
    """``((first + second)/sqrt(2), (first - second)/sqrt(2))`` as a (2, n) array.

    The change between ``(d_beta, d_z)`` and ``(u, w)`` in both directions:
    the map is orthogonal and its own inverse.
    """
    pair = np.empty((2, np.size(first)))
    np.add(first, second, out=pair[0])
    np.subtract(first, second, out=pair[1])
    pair *= SQRT_HALF
    return pair


@dataclass(frozen=True)
class KktRhs:
    """Right-hand side of the 6-block system plus its condensed form.

    ``r3``/``r4`` carry the barrier-shifted multiplier residuals
    ``y - mu/s`` (equal to ``y - nu`` exactly on the central path), which
    makes the condensed solve a true Newton step on the barrier system.
    ``r_uw`` is the condensed right-hand side in sum/difference
    coordinates, a (2, n) array; ``diag`` holds the barrier diagonals of
    the same iterate.
    """

    r1: np.ndarray
    r2: np.ndarray
    r3: np.ndarray
    r4: np.ndarray
    r5: np.ndarray
    r6: np.ndarray
    r_uw: np.ndarray
    diag: BarrierDiagonals

    def at_barrier(self, state) -> "KktRhs":
        """The same residuals at ``state.mu``: only r3, r4 and r_uw change."""
        return _condense(state, self.r1, self.r2, self.r5, self.r6, self.diag)


def _condense(state, r1, r2, r5, r6, diag: BarrierDiagonals) -> KktRhs:
    r3 = state.y1 - state.mu / state.s1
    r4 = state.y2 - state.mu / state.s2
    r_uw = np.empty((2, r1.size))
    r_uw[0] = r1 + r2 - 2.0 * (r3 + diag.sigma1 * r5)
    r_uw[1] = r1 - r2 + 2.0 * (r4 + diag.sigma2 * r6)
    r_uw *= SQRT_HALF
    return KktRhs(r1, r2, r3, r4, r5, r6, r_uw, diag)


def newton_rhs(state, xi, g, lam: float) -> KktRhs:
    """Residuals of the barrier KKT system at a strictly interior iterate.

    Vector algebra only: the data enter through ``xi`` and ``g``.

    Parameters
    ----------
    state : object
        Iterate with attributes ``beta, z, s1, s2, y1, y2, nu1, nu2, mu``.
    xi : numpy.ndarray
        Data correlation ``observe_adjoint(b, mask)``.
    g : numpy.ndarray
        Gram product ``gram(state.beta, mask)``.
    lam : float
        L1 penalty weight.

    Returns
    -------
    KktRhs
        All six block residuals, the barrier diagonals and the condensed
        pair in sum/difference coordinates:

        ``r_u = (r1 + r2 - 2 r3 - 2 Sig1 r5) / sqrt(2)``
        ``r_w = (r1 - r2 + 2 r4 + 2 Sig2 r6) / sqrt(2)``
    """
    diag = barrier_diagonals(state.s1, state.s2, state.nu1, state.nu2)
    r1 = xi - g + state.y1 - state.y2
    r2 = state.y1 + state.y2 - lam
    r5 = state.z + state.beta - state.s1
    r6 = state.z - state.beta - state.s2
    return _condense(state, r1, r2, r5, r6, diag)


def _apply_kkt_uw(u, w, diag: BarrierDiagonals, mask: Mask):
    """``(K' (u, w), G(u + w)/2)``: the (2, n) product and its Gram part."""
    half_gram = gram(u + w, mask)
    half_gram *= 0.5
    product = np.empty((2, half_gram.size))
    np.multiply(diag.sigma1, u, out=product[0])
    np.multiply(diag.sigma2, w, out=product[1])
    product *= 2.0
    product += half_gram
    return product, half_gram


def _apply_precond_inverse_uw(u, w, diag: BarrierDiagonals) -> np.ndarray:
    """``P'^{-1} (u, w)`` as a (2, n) array."""
    out = np.empty((2, np.size(u)))
    np.multiply(diag.prec_u, u, out=out[0])
    out[0] += diag.prec_uw * w
    np.multiply(diag.prec_w, w, out=out[1])
    out[1] += diag.prec_uw * u
    return out


def apply_kkt(first, second, diag: BarrierDiagonals, mask: Mask, *, rotated=False):
    """Apply the condensed operator to a direction pair.

    By default the pair is ``(d_beta, d_z)`` and the result is ``K`` times
    it, a (2, n) array.  With ``rotated=True`` the pair is ``(u, w)`` and
    the result is ``(K' (u, w), G(u + w)/2)``: the (2, n) product and the
    half Gram product inside it, which PCG accumulates.  PCG goes through
    this function rather than the kernel so that each Krylov step is one
    call of ``apply_kkt``, the unit in which Krylov work is counted.
    """
    if rotated:
        return _apply_kkt_uw(first, second, diag, mask)
    product, _ = _apply_kkt_uw(*sum_difference(first, second), diag, mask)
    return sum_difference(*product)


def apply_precond_inverse(first, second, diag: BarrierDiagonals, *, rotated=False):
    """Apply the closed-form inverse of the preconditioner; a (2, n) array.

    By default the pair and the result are in ``(d_beta, d_z)``
    coordinates (``P^{-1}``); with ``rotated=True`` in ``(u, w)``
    coordinates (``P'^{-1}``).
    """
    if rotated:
        return _apply_precond_inverse_uw(first, second, diag)
    return sum_difference(*_apply_precond_inverse_uw(
        *sum_difference(first, second), diag))


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
