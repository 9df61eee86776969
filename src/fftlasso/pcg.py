"""Preconditioned conjugate gradients for SPD operator equations.

Matrix-free: the operator and the preconditioner inverse are callables on
arrays of the right-hand side's shape, whose iterates are updated in
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


@dataclass
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
        Right-hand side, of any shape; inner products run over all entries.
    tol : float
        Bound on the preconditioned residual norm, positive and finite.
        The iteration limit is 10x the system dimension, capped at
        ``MAX_ITERS_CAP``.
    work : sequence of numpy.ndarray
        The solution ``x`` (returned), the residual and the search
        direction, three C-contiguous arrays of ``rhs``'s shape to iterate
        in, and a temporary of at least ``min(BLOCK, rhs.size)`` floats.
        The residual array may be ``rhs`` itself, which is then
        overwritten.  The operator and the preconditioner may return the
        same array on every call, and that array may be the temporary:
        the updates run over the blocks in increasing order and write only
        the temporary's head, so each block of ``K p`` is read before it
        is overwritten.  ``L p`` must be a different array.
    image : numpy.ndarray, optional
        C-contiguous; overwritten with ``L x`` for the returned ``x``,
        accumulated with CG's own step lengths, so ``L`` is never applied
        to ``x`` itself.

    Returns
    -------
    PcgResult
        ``converged`` is False when the iteration limit is hit; the caller
        decides how to react.

    Raises
    ------
    ValueError
        If ``tol`` is not positive and finite, if ``rhs``, ``image`` or one
        of the three iterated arrays is not C-contiguous (the updates run
        on flat views of them, where a copy would drop them), or if the
        temporary is too short.
    NumericalBreakdownError
        If the recurrence produces NaN/Inf or a direction of nonpositive
        curvature (the operator is not SPD, typically an interior
        violation upstream).
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be positive and finite")
    x, r, p, scaled = work
    if not all(a.flags.c_contiguous for a in (rhs, x, r, p, *([] if image is None else [image]))):
        raise ValueError("rhs, image and the iterated work arrays must be C-contiguous")
    if scaled.size < min(BLOCK, rhs.size):
        raise ValueError(f"the temporary holds {scaled.size} floats, "
                         f"fewer than min(BLOCK, rhs.size) = {min(BLOCK, rhs.size)}")
    limit = min(10 * r.size, MAX_ITERS_CAP)
    x.fill(0.0)
    if image is not None:
        image.fill(0.0)
    if r is not rhs:
        np.copyto(r, rhs)
    z = apply_prec(r)
    rho = float(np.vdot(r, z))
    if not math.isfinite(rho) or rho < 0:
        raise NumericalBreakdownError(f"preconditioner produced r'P^{{-1}}r = {rho}")
    norm = math.sqrt(rho)
    if norm <= tol:
        return PcgResult(x, 0, True, norm)

    np.copyto(p, z)
    x_flat, r_flat, p_flat = (a.reshape(-1) for a in (x, r, p))  # views: all contiguous
    image_flat = None if image is None else image.reshape(-1)
    scaled = scaled.reshape(-1)
    blocks = [(slice(start, start + BLOCK), scaled[:min(BLOCK, r.size - start)])
              for start in range(0, r.size, BLOCK)]
    for k in range(1, limit + 1):
        kp = apply_op(p)
        if image is not None:
            kp, lp = kp
            lp = lp.reshape(-1)
        curvature = float(np.vdot(p, kp))
        if not math.isfinite(curvature) or curvature <= 0:
            raise NumericalBreakdownError(
                f"nonpositive curvature p'Kp = {curvature} at iteration {k}"
            )
        alpha = rho / curvature
        kp = kp.reshape(-1)
        # r -= alpha * Kp and the like, a block at a time through the
        # temporary; Kp, which may be the temporary, is read first
        for cut, temp in blocks:
            r_flat[cut] -= np.multiply(kp[cut], alpha, out=temp)
            x_flat[cut] += np.multiply(p_flat[cut], alpha, out=temp)
            if image is not None:
                image_flat[cut] += np.multiply(lp[cut], alpha, out=temp)
        z = apply_prec(r)
        rho_next = float(np.vdot(r, z))
        if not math.isfinite(rho_next) or rho_next < 0:
            raise NumericalBreakdownError(
                f"r'P^{{-1}}r = {rho_next} at iteration {k}"
            )
        norm = math.sqrt(rho_next)
        if norm <= tol:
            return PcgResult(x, k, True, norm)
        z, ratio = z.reshape(-1), rho_next / rho
        for cut, _ in blocks:  # p = z + ratio * p
            search = p_flat[cut]
            search *= ratio
            search += z[cut]
        rho = rho_next

    return PcgResult(x, limit, False, norm)
