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
        Four arrays of ``rhs``'s shape to iterate in: the solution ``x``
        (returned), the residual, the search direction and a temporary.
        The residual array may be ``rhs`` itself, which is then
        overwritten.  The operator and the preconditioner may return the
        same array on every call, and that array may be the temporary:
        ``K p`` is last read when it is scaled into the temporary in place,
        and ``L p`` must be a different array.
    image : numpy.ndarray, optional
        Overwritten with ``L x`` for the returned ``x``, accumulated with
        CG's own step lengths, so ``L`` is never applied to ``x`` itself.

    Returns
    -------
    PcgResult
        ``converged`` is False when the iteration limit is hit; the caller
        decides how to react.

    Raises
    ------
    ValueError
        If ``tol`` is not positive and finite.
    NumericalBreakdownError
        If the recurrence produces NaN/Inf or a direction of nonpositive
        curvature (the operator is not SPD, typically an interior
        violation upstream).
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be positive and finite")
    x, r, p, scaled = work
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
    for k in range(1, limit + 1):
        kp = apply_op(p)
        if image is not None:
            kp, lp = kp
        curvature = float(np.vdot(p, kp))
        if not math.isfinite(curvature) or curvature <= 0:
            raise NumericalBreakdownError(
                f"nonpositive curvature p'Kp = {curvature} at iteration {k}"
            )
        alpha = rho / curvature
        # r -= alpha * Kp and the like, through one temporary, which may be Kp
        r -= np.multiply(kp, alpha, out=scaled)
        x += np.multiply(p, alpha, out=scaled)
        if image is not None:
            image += np.multiply(lp, alpha, out=scaled)
        z = apply_prec(r)
        rho_next = float(np.vdot(r, z))
        if not math.isfinite(rho_next) or rho_next < 0:
            raise NumericalBreakdownError(
                f"r'P^{{-1}}r = {rho_next} at iteration {k}"
            )
        norm = math.sqrt(rho_next)
        if norm <= tol:
            return PcgResult(x, k, True, norm)
        p *= rho_next / rho
        p += z
        rho = rho_next

    return PcgResult(x, limit, False, norm)
