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
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalBreakdownError

__all__ = ["PcgConfig", "PcgResult", "pcg_solve"]

MAX_ITERS_CAP = 5000


def is_iteration_count(value) -> bool:
    """True for an integer >= 0, numpy integers included; False for a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0


@dataclass(frozen=True)
class PcgConfig:
    """Stopping control for :func:`pcg_solve`.

    ``abs_tol``/``rel_tol`` bound the preconditioned residual norm; both
    must be finite and at least one positive.  ``max_iters``, an integer
    >= 0, defaults to 10x the system dimension, capped at 5000.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 0.0
    max_iters: int | None = None
    record_history: bool = False

    def __post_init__(self):
        if not all(math.isfinite(t) and t >= 0 for t in (self.abs_tol, self.rel_tol)):
            raise ValueError("tolerances must be nonnegative and finite")
        if self.abs_tol == 0 and self.rel_tol == 0:
            raise ValueError("abs_tol and rel_tol cannot both be zero")
        if self.max_iters is not None and not is_iteration_count(self.max_iters):
            raise ValueError("max_iters must be a nonnegative integer")

    def iteration_limit(self, dim: int) -> int:
        if self.max_iters is not None:
            return int(self.max_iters)
        return min(10 * dim, MAX_ITERS_CAP)


@dataclass
class PcgResult:
    solution: np.ndarray
    iterations: int
    converged: bool
    residual_norm: float
    residual_history: list[float] | None = field(default=None)


def pcg_solve(apply_op, apply_prec, rhs, config: PcgConfig = PcgConfig(),
              image=None, work=None) -> PcgResult:
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
    config : PcgConfig
        Tolerances and iteration limit.
    image : numpy.ndarray, optional
        Overwritten with ``L x`` for the returned ``x``, accumulated with
        CG's own step lengths, so ``L`` is never applied to ``x`` itself.
    work : sequence of numpy.ndarray, optional
        Four arrays of ``rhs``'s shape to iterate in instead of new ones:
        the solution ``x`` (returned), the residual, the search direction
        and a temporary.  The residual array may be ``rhs`` itself, which
        is then overwritten.  The operator and the preconditioner may
        return the same array on every call, and that array may be the
        temporary: ``K p`` is last read when it is scaled into the
        temporary in place, and ``L p`` must be a different array.

    Returns
    -------
    PcgResult
        ``converged`` is False when the iteration limit is hit; the caller
        decides how to react.

    Raises
    ------
    NumericalBreakdownError
        If the recurrence produces NaN/Inf or a direction of nonpositive
        curvature (the operator is not SPD, typically an interior
        violation upstream).
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    dim = rhs.size
    limit = config.iteration_limit(dim)

    x, r, p, scaled = work if work is not None else [np.empty_like(rhs) for _ in range(4)]
    x.fill(0.0)
    if image is not None:
        image.fill(0.0)
    if r is not rhs:
        np.copyto(r, rhs)
    z = apply_prec(r)
    rho = float(np.vdot(r, z))
    if not math.isfinite(rho) or rho < 0:
        raise NumericalBreakdownError(f"preconditioner produced r'P^{{-1}}r = {rho}")
    norm0 = math.sqrt(rho)
    threshold = config.abs_tol + config.rel_tol * norm0
    history = [norm0] if config.record_history else None

    if norm0 <= threshold:
        return PcgResult(x, 0, True, norm0, history)

    np.copyto(p, z)
    norm = norm0
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
        if history is not None:
            history.append(norm)
        if norm <= threshold:
            return PcgResult(x, k, True, norm, history)
        p *= rho_next / rho
        p += z
        rho = rho_next

    return PcgResult(x, limit, False, norm, history)
