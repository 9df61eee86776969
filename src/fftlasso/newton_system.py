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

On the solver's domain (``ipm.IpmState``) the slack equations hold by
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

The formulas are helpers on arrays (:func:`barrier_scaling`,
:func:`schur_coefficients`, :func:`stationarity`, :func:`dual_residual`,
:func:`barrier_residuals`, :func:`condense`, :func:`recover_eliminated`),
which the solver's block sweeps (``ipm._Workspace``) call on slices, so
each formula has one implementation.  Every helper and kernel takes the
arrays it reads and writes: ``stationarity(nu1, nu2, xi, g, out)``,
``dual_residual(nu1, nu2, lam, out)``,
``barrier_residuals(s1, s2, nu1, nu2, mu, r3, r4)``,
:func:`apply_kkt` the diagonal ``delta``,
:func:`apply_precond_inverse` the diagonal ``precond = 1/(1 + delta)``
and :func:`recover_eliminated` ``sigma1, sigma2, omega1, omega2``.  Only
the Schur forms run: the 2x2 forms of ``K`` and ``P^{-1}`` above, and the
diagonals over whole vectors, are references in the test suite
(``tests/conftest.py``), composed from :func:`~fftlasso.masking.gram` and
these helpers and checked against the dense 6-block system.

Recovery.  The second block row gives ``d_z = c - (omega1 - omega2) d_beta``
with ``c = (r2 - r3 - r4)/(Sig1 + Sig2)``.  The physical slack steps
``d_z +/- d_beta`` are ``c + 2 omega2 d_beta`` and ``c - 2 omega1 d_beta``,
as ``omega1 + omega2 = 1``: on the support the vanishing slack's step is
a small ``c`` plus a small multiple of ``d_beta``, not a difference of two
steps of size ``|d_beta|``, and ``d_z`` is never formed.
"""

from __future__ import annotations

import numpy as np

from .errors import InteriorViolationError
from .masking import Mask, gram

__all__ = [
    "apply_kkt",
    "apply_precond_inverse",
    "recover_eliminated",
]


def check_interior(s1, s2, nu1, nu2) -> None:
    """Raise ``InteriorViolationError`` naming the first of the four arrays
    that is empty or holds an entry that is not strictly positive and
    finite.  Given each array's maxima and minima over blocks instead of
    the array, it names the same one."""
    for name, arr in zip(("s1", "s2", "nu1", "nu2"), (s1, s2, nu1, nu2)):
        # one reduction each way; NaN fails both comparisons
        if arr.size == 0 or not (arr.min() > 0.0 and arr.max() < np.inf):
            raise InteriorViolationError(f"{name} must be strictly positive and finite")


def barrier_scaling(s1, s2, nu1, nu2, sigma1, sigma2, omega1, omega2, lambda1) -> None:
    """``sigma1 = nu1/s1``, ``sigma2 = nu2/s2``, ``lambda1 = sigma1 + sigma2``
    and ``omega_i = sigma_i/lambda1`` into the given arrays."""
    np.divide(nu1, s1, out=sigma1)
    np.divide(nu2, s2, out=sigma2)
    np.add(sigma1, sigma2, out=lambda1)
    np.divide(sigma1, lambda1, out=omega1)
    np.divide(sigma2, lambda1, out=omega2)


def schur_coefficients(sigma1, omega2, delta, precond) -> None:
    """``delta = 4 sigma1 omega2`` and ``precond = 1/(1 + delta)`` into the given arrays."""
    np.multiply(sigma1, 4.0, out=delta)
    delta *= omega2
    np.add(delta, 1.0, out=precond)
    np.divide(1.0, precond, out=precond)


def stationarity(nu1, nu2, xi, g, out) -> None:
    """``r1 = xi - g + nu1 - nu2`` into ``out``."""
    r1 = np.subtract(xi, g, out=out)
    r1 += nu1
    r1 -= nu2


def dual_residual(nu1, nu2, lam: float, out) -> None:
    """``r2 = nu1 + nu2 - lam`` into ``out``."""
    r2 = np.add(nu1, nu2, out=out)
    r2 -= lam


def barrier_residuals(s1, s2, nu1, nu2, mu: float, r3, r4) -> None:
    """``r3 = nu1 - mu/s1`` and ``r4 = nu2 - mu/s2`` into the given arrays."""
    np.divide(mu, s1, out=r3)
    np.subtract(nu1, r3, out=r3)
    np.divide(mu, s2, out=r4)
    np.subtract(nu2, r4, out=r4)


def condense(r1, r2, r3, r4, omega1, omega2, out, scratch) -> None:
    """``rho = r1 + omega1 (2 r4 - r2) + omega2 (r2 - 2 r3)`` into ``out``, in
    that rounding order; ``scratch`` is a temporary of the same length."""
    rho = np.multiply(r4, 2.0, out=out)
    rho -= r2
    rho *= omega1
    rho += r1
    term = np.multiply(r3, 2.0, out=scratch)
    np.subtract(r2, term, out=term)
    term *= omega2
    rho += term


def apply_kkt(d_beta, delta, mask: Mask, out=None, gram_out=None, spectra=None):
    """The Schur complement's product and the Gram product inside it,
    ``(S d_beta, G d_beta)``; PCG accumulates the second.

    PCG calls this function rather than a private kernel so that each
    Krylov step is one call of ``apply_kkt``, the unit in which Krylov work
    is counted.  ``out`` (when given) receives ``S d_beta``; ``gram_out``
    (for ``G d_beta``) and ``spectra`` go to :func:`~fftlasso.masking.gram`,
    done before ``out`` is written.  With an empty mask and no ``gram_out``,
    ``G d_beta`` is ``d_beta`` itself.
    """
    identity = not mask.n_missing and gram_out is None  # G = I: no copy
    gram_d_beta = d_beta if identity else gram(d_beta, mask, out=gram_out, spectra=spectra)
    product = np.multiply(delta, d_beta, out=out)
    product += gram_d_beta
    return product, gram_d_beta


def apply_precond_inverse(r, precond, out=None):
    """The Schur preconditioner's ``(I + Delta)^{-1} r``, with ``precond``
    the diagonal ``1/(1 + delta)``, written into ``out`` when it is given."""
    return np.multiply(precond, r, out=out)


def recover_eliminated(d_beta, r2, r3, r4, sigma1, sigma2, omega1, omega2,
                       out) -> tuple[np.ndarray, ...]:
    """Back-substitute the eliminated blocks from the solution of ``S d_beta = rho``.

    ``c = (r2 - r3 - r4)/(Sig1 + Sig2)``
    ``d_s1 = c + 2 omega2 d_beta``,  ``d_s2 = c - 2 omega1 d_beta``
    ``d_nu1 = -Sig1 d_s1 - r3``,  ``d_nu2 = -Sig2 d_s2 - r4``

    The last line is the linearized complementarity
    ``d_nu = (mu - s nu)/s - Sig d_s``, since ``r3 = nu1 - mu/s1`` and
    ``r4 = nu2 - mu/s2``.  Returns the physical steps
    ``(d_s1, d_s2, d_nu1, d_nu2)``, in the four arrays of ``out``;
    ``d_beta`` is not modified.
    """
    d_s1, d_s2, d_nu1, d_nu2 = out
    # c waits in d_nu2 and Sig1 + Sig2 in d_nu1 until the slack steps are formed
    c = np.subtract(r2, r3, out=d_nu2)
    c -= r4
    c /= np.add(sigma1, sigma2, out=d_nu1)
    # (2 omega) d_beta == omega (2 d_beta) exactly: the doubling is shared
    twice = np.multiply(d_beta, 2.0, out=d_s1)
    np.multiply(omega1, twice, out=d_s2)
    np.subtract(c, d_s2, out=d_s2)
    twice *= omega2
    twice += c
    np.negative(sigma1, out=d_nu1)
    d_nu1 *= d_s1
    d_nu1 -= r3
    np.negative(sigma2, out=d_nu2)
    d_nu2 *= d_s2
    d_nu2 -= r4
    return d_s1, d_s2, d_nu1, d_nu2
