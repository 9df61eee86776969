"""Preconditioned conjugate gradients for SPD operator equations.

Matrix-free: the operator and the preconditioner inverse are callables on
vectors of the right-hand side's length, whose iterates are updated in
place.  Convergence is declared on the preconditioned residual norm
``sqrt(r' P^{-1} r)``, the natural quantity CG already carries.  Like the
residual, a linear image ``L x`` of the solution can ride along on the
recurrence (Hestenes-Stiefel): when the operator returns ``L p`` next to
``K p``, its image costs one vector update per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdownError

__all__ = ["PcgResult", "pcg_solve"]

MAX_ITERS_CAP = 5000
#: Entries per block of the O(n) vector updates, here and in the solver's
#: sweeps (``ipm``): seven rows of this length fit L2, and it is a multiple
#: of 8 floats, so the blocks of a 64-byte-aligned row start aligned too.
BLOCK = 16384


@dataclass(eq=False)
class PcgResult:
    solution: np.ndarray
    iterations: int
    converged: bool
    residual_norm: float


def pcg_solve(apply_op, apply_prec, rhs, tol: float, work, image=None) -> PcgResult:
    """Solve ``K x = rhs`` with preconditioned CG from a zero initial guess.

    Parameters
    ----------
    apply_op : callable
        ``v -> K v`` for a symmetric positive definite ``K``; with
        ``image`` given, ``v -> (K v, L v)`` for a linear map ``L``.
    apply_prec : callable
        ``v -> P^{-1} v`` for a symmetric positive definite ``P``.
    rhs : numpy.ndarray
        Right-hand side, a vector (1-D) of any stride.
    tol : float
        Bound on the preconditioned residual norm, positive and finite.
        The iteration limit is 10x the system dimension, capped at
        ``MAX_ITERS_CAP``.
    work : sequence of numpy.ndarray
        The solution ``x`` (returned), the residual and the search
        direction, three vectors of ``rhs``'s length to iterate in, and a
        temporary vector of at least ``min(BLOCK, rhs.size)`` floats.  Any
        of them may be strided: the updates run on slices, which are views.
        The residual may be ``rhs`` itself, which is then overwritten.  The
        operator and the preconditioner may return the same vector on
        every call, and that vector may be the temporary: the updates run
        over the blocks in increasing order and write only the temporary's
        head, so each block of ``K p`` is read before it is overwritten.
        ``L p`` must be a different vector.
    image : numpy.ndarray, optional
        A vector of ``rhs``'s length; overwritten with ``L x`` for the
        returned ``x``, accumulated with CG's own step lengths, so ``L`` is
        never applied to ``x`` itself.

    Returns
    -------
    PcgResult
        ``converged`` is False when the iteration limit is hit; the caller
        decides how to react.

    Raises
    ------
    ValueError
        Before any call of the operator or the preconditioner: if ``tol``
        is not positive and finite, if ``rhs`` is not a vector, if ``image``
        or one of the three iterated vectors has another shape, or if the
        temporary is not a vector of enough floats.
    NumericalBreakdownError
        If the recurrence produces NaN/Inf or a direction of nonpositive
        curvature (the operator is not SPD, typically an interior
        violation upstream).
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be positive and finite")
    x, r, p, scaled = work
    iterated = (x, r, p) if image is None else (x, r, p, image)
    if rhs.ndim != 1 or any(a.shape != rhs.shape for a in iterated):
        raise ValueError(f"rhs must be a vector, and x, r, p and image of its shape {rhs.shape}")
    if scaled.ndim != 1 or scaled.size < min(BLOCK, rhs.size):
        raise ValueError(f"the temporary holds {scaled.size} floats in {scaled.ndim} axes, "
                         f"not a vector of min(BLOCK, rhs.size) = {min(BLOCK, rhs.size)}")
    limit = min(10 * r.size, MAX_ITERS_CAP)
    blocks = [(slice(start, start + BLOCK), scaled[:min(BLOCK, r.size - start)])
              for start in range(0, r.size, BLOCK)]
    x.fill(0.0)
    if image is not None:
        image.fill(0.0)
    if r is not rhs:
        np.copyto(r, rhs)
    for k in range(limit + 1):
        if k:  # the k-th update, from p and rho
            kp = apply_op(p)
            if image is not None:
                kp, lp = kp
            curvature = float(np.vdot(p, kp))
            if not math.isfinite(curvature) or curvature <= 0:
                raise NumericalBreakdownError(f"nonpositive curvature p'Kp = {curvature} "
                                              f"at iteration {k}")
            alpha = rho / curvature
            # r -= alpha * Kp and the like, a block at a time through the
            # temporary; Kp, which may be the temporary, is read first
            for cut, temp in blocks:
                r[cut] -= np.multiply(kp[cut], alpha, out=temp)
                x[cut] += np.multiply(p[cut], alpha, out=temp)
                if image is not None:
                    image[cut] += np.multiply(lp[cut], alpha, out=temp)
        z = apply_prec(r)
        rho_next = float(np.vdot(r, z))
        if not math.isfinite(rho_next) or rho_next < 0:
            raise NumericalBreakdownError(f"preconditioner produced r'P^{{-1}}r = {rho_next} "
                                          f"at iteration {k}")
        norm = math.sqrt(rho_next)
        if norm <= tol or k == limit:
            return PcgResult(x, k, norm <= tol, norm)
        if k:
            ratio = rho_next / rho
            for cut, _ in blocks:  # p = z + ratio * p
                search = p[cut]
                search *= ratio
                search += z[cut]
        else:
            np.copyto(p, z)
        rho = rho_next
