"""Primal-dual interior-point driver for the spectral LASSO problem.

Solves

    min_beta  0.5*||b - observe(beta)||^2 + lam*||beta||_1

through the standard bound-constrained reformulation with auxiliary
variable ``z`` (|beta| <= z elementwise), slacks ``s1 = z + beta``,
``s2 = z - beta``, equality multipliers ``y1, y2`` and bound multipliers
``nu1, nu2``.  The solver carries four of them, an :class:`IpmState`
``(s1, s2, nu1, nu2, mu)`` with ``beta`` and ``z`` derived and ``y = nu``;
observers get copies of it.  Each iteration takes one Newton
step on the barrier KKT system (no predictor-corrector), solving the Schur
complement of the condensed 2x2 system, an n x n system in ``d_beta``,
with preconditioned CG; the other blocks follow by back-substitution.
Separate primal and dual step lengths come from the fraction-to-boundary
rule.  The barrier parameter follows a monotone schedule with a
superlinear tail once the iterate is centered.

An iteration costs one transform pair per Krylov iteration and none
outside PCG.  The solve computes ``xi = observe_adjoint(b)`` once and
carries ``g = gram(beta)``: PCG accumulates ``G d_beta`` from the products
it forms anyway, so the residuals, the convergence check and the step are
vector algebra.  Before a solve is declared converged, ``g`` is recomputed
exactly and the check repeated.

A solve allocates its n-vectors once, in a :class:`_Workspace`, which
also holds the solve's constants (``xi``, ``lam``, the mask and the
tolerances), so a step is ``ipm_step(state, work)``; the starting
iterate and ``g`` are rows of it too, and ``xi`` and every row start on
a 64-byte boundary.  Its :data:`ROLES`
table says which row holds what in each phase of a step, ``g`` and the
Newton direction's arrays included; a :class:`NewtonDirection` carries
only the step lengths and the Krylov solve's diagnostics.  The O(n)
phases run as sweeps over blocks of ``BLOCK`` entries that recompute the
barrier diagonals and residuals per block, with the formula helpers of
:mod:`~fftlasso.newton_system` on slices of the iterate's arrays.  The
evaluation sweep checks that the iterate is interior from the extremes it
keeps: it evaluates every block, and one check after it names the
offending array.  Observers get copies.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .errors import InteriorViolationError, NumericalBreakdownError, StalledError
from .fourier import real_vector
from .masking import Mask, gram, observe, observe_adjoint
from .newton_system import (
    apply_kkt,
    apply_precond_inverse,
    barrier_residuals,
    barrier_scaling,
    check_interior,
    condense,
    dual_residual,
    recover_eliminated,
    schur_coefficients,
    stationarity,
)
from .pcg import BLOCK, pcg_solve

__all__ = [
    "IpmConfig",
    "IpmState",
    "IterationRecord",
    "SolveReport",
    "ConvergenceReport",
    "default_penalty",
    "lasso_objective",
    "initial_state",
    "newton_direction",
    "ipm_step",
    "next_barrier",
    "solve",
]


SIGMA_MU = 0.2  # barrier reduction factor
MU_POWER = 1.5  # superlinear tail of the barrier schedule
FTB_TAU = 0.995  # fraction-to-boundary damping
INNER_SLACK = 10.0  # a barrier stage is solved when its residual <= this * mu


@dataclass(frozen=True)
class IpmConfig:
    """Solver parameters.

    ``lam`` may be None, in which case the standard LASSO scaling
    ``0.1 * max|observe_adjoint(b)|`` is used and recorded in the report.
    ``tol`` (KKT residuals) and ``cg_tol`` (PCG's residual) are absolute, in
    the units of ``b``, not scaled with it: ``b`` times 1e-100 reports
    ``"converged"`` after 0 iterations with ``beta = 0``.
    """

    lam: float | None = None
    tol: float = 1e-8
    cg_tol: float = 1e-12
    max_iters: int = 200

    def __post_init__(self):
        if self.lam is not None and not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError("lam must be positive and finite")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError("tol must be positive and finite")
        if not (math.isfinite(self.cg_tol) and self.cg_tol > 0.0):
            raise ValueError("cg_tol must be positive and finite")
        count = self.max_iters  # an integer >= 0, numpy integers included, not a bool
        if isinstance(count, bool) or not (isinstance(count, numbers.Integral) and count >= 0):
            raise ValueError("max_iters must be a nonnegative integer")


@dataclass(frozen=True, eq=False)
class IpmState:
    """The solver's iterate: slacks, bound multipliers and the barrier.

    ``beta = (s1 - s2)/2`` and ``z = (s1 + s2)/2`` are derived, so the slack
    equations hold by construction; ``y = nu``, as the start sets it and
    every step moves both by ``d_nu``.  The slacks are stored because on
    the support one of them tends to ``mu/nu``, which ``z - |beta|`` would
    lose to cancellation.  Every evaluation checks their positivity.
    """

    s1: np.ndarray
    s2: np.ndarray
    nu1: np.ndarray
    nu2: np.ndarray
    mu: float

    @property
    def n(self) -> int:
        return self.s1.size

    @property
    def beta(self) -> np.ndarray:
        """``(s1 - s2)/2``, a new array on every access."""
        beta = np.subtract(self.s1, self.s2)
        beta *= 0.5
        return beta

    def duality_measure(self) -> float:
        """Average complementarity product (nu1's1 + nu2's2) / 2n."""
        return float(self.nu1 @ self.s1 + self.nu2 @ self.s2) / (2 * self.n)

    def copy(self) -> "IpmState":
        """The same iterate in new arrays."""
        return IpmState(self.s1.copy(), self.s2.copy(), self.nu1.copy(), self.nu2.copy(),
                        self.mu)


@dataclass(frozen=True)
class ConvergenceReport:
    """Residuals of the exact (mu = 0) KKT conditions at an iterate."""

    stationarity: float  # grad of the quadratic + multiplier split
    dual_equality: float  # nu1 + nu2 - lam
    complementarity: float  # max s_i nu_i
    max_residual: float
    converged: bool
    barrier_residual: float  # max norm of the mu-shifted residuals, for the barrier test


@dataclass
class IterationRecord:
    iteration: int
    mu: float
    dual_inf: float
    complementarity: float
    kkt_max: float
    krylov_iters: int
    alpha_primal: float
    alpha_dual: float
    pcg_residual: float
    wall_time: float

    def to_dict(self) -> dict:
        return {"record": "iteration", **asdict(self)}


@dataclass
class SolveReport:
    status: str  # "converged", "max_iters" or "stalled"
    lam: float
    tol: float
    records: list[IterationRecord]
    final_objective: float
    final_kkt: float
    final_mu: float
    wall_time: float
    reason: str = ""  # the inner failure's message when "stalled"

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def krylov_counts(self) -> list[int]:
        return [rec.krylov_iters for rec in self.records]

    @property
    def total_krylov(self) -> int:
        return sum(self.krylov_counts)

    def to_dict(self) -> dict:
        """The summary record: every field but ``records``, ``lam`` as
        ``lambda``, and the iteration and Krylov totals."""
        summary = {"lambda" if f.name == "lam" else f.name: getattr(self, f.name)
                   for f in fields(self) if f.name != "records"}
        return {"record": "summary", **summary, "iterations": self.iterations,
                "total_krylov": self.total_krylov}


def default_penalty(b, mask: Mask) -> float:
    """Standard LASSO heuristic: one tenth of the max correlation."""
    return _penalty_of_correlation(observe_adjoint(b, mask))


def _penalty_of_correlation(xi: np.ndarray) -> float:
    return 0.1 * float(np.max(np.abs(xi)))


def lasso_objective(beta, b, mask: Mask, lam: float) -> float:
    """``0.5 ||b - observe(beta)||^2 + lam ||beta||_1``; ``b`` is checked
    as :func:`~fftlasso.masking.embed` checks it."""
    resid = real_vector(b, "observed samples", mask.n_observed) - observe(beta, mask)
    return 0.5 * float(resid @ resid) + lam * float(np.sum(np.abs(beta)))


def initial_state(n: int, lam: float) -> IpmState:
    """Well-centered starting point.

    ``s1 = s2 = 1`` puts ``beta = 0``, ``z = 1``; ``nu = lam/2`` zeroes
    the dual equality; the only nonzero residual left is the data
    correlation.  The duality measure then equals ``lam/2``, taken as the
    initial barrier.
    """
    return _start(np.empty((4, n)), lam)


def _start(arrays, lam: float) -> IpmState:
    """:func:`initial_state`, written into the four ``arrays``."""
    if lam <= 0:
        raise ValueError("penalty must be positive")
    s1, s2, nu1, nu2 = arrays
    s1.fill(1.0)
    s2.fill(1.0)
    nu1.fill(0.5 * lam)
    nu2.fill(0.5 * lam)
    return IpmState(s1, s2, nu1, nu2, mu=lam / 2.0)


def _aligned(size: int) -> np.ndarray:
    """A new float64 vector of ``size`` entries that starts on a 64-byte
    boundary, a cache line and an AVX-512 vector."""
    buffer = np.empty(size + 7)
    skip = -buffer.ctypes.data % 64 // 8
    return buffer[skip:skip + size]


def _padded(size: int) -> int:
    """``size`` rounded up to whole 64-byte lines of float64."""
    return -(-size // 8) * 8


def _extremes(block, r1, r2, out) -> None:
    """Maxima (row 0) and minima (row 1) of ``r1``, ``r2``, ``s1 nu1``,
    ``s2 nu2`` and the four arrays of ``block = (s1, s2, nu1, nu2)`` into
    the eight columns of ``out``; the products overwrite ``r1`` and ``r2``."""
    s1, s2, nu1, nu2 = block
    out[:, :2] = (r1.max(), r2.max()), (r1.min(), r2.min())
    values = (np.multiply(s1, nu1, out=r1), np.multiply(s2, nu2, out=r2), *block)
    for column, v in enumerate(values, start=2):
        out[:, column] = v.max(), v.min()


def _convergence_report(state: IpmState, extremes: np.ndarray, tol: float) -> ConvergenceReport:
    """Exact KKT residuals and the barrier residual at ``state.mu``, from
    the :func:`_extremes` of ``state``.  The slack equations and ``y = nu``
    hold exactly, so their residuals are not checked."""
    (r1_max, r2_max, p1_max, p2_max), (r1_min, r2_min, p1_min, p2_min) = extremes
    # max|r| from the extremes; abs() turns an all -0.0 max into +0.0
    stat = abs(float(max(r1_max, -r1_min)))
    dual = abs(float(max(r2_max, -r2_min)))
    comp = max(float(p1_max), float(p2_max))
    worst = max(stat, dual, comp)
    comp_min = min(float(p1_min), float(p2_min))
    # max|s nu - mu| from the extremes: rounding of p - mu is monotone in p
    comp_barrier = max(comp - state.mu, state.mu - comp_min)
    return ConvergenceReport(stationarity=stat, dual_equality=dual, complementarity=comp,
                             max_residual=worst, converged=worst <= tol,
                             barrier_residual=max(stat, dual, comp_barrier))


@dataclass(frozen=True)
class NewtonDirection:
    """A Newton direction's solve diagnostics and fraction-to-boundary step
    lengths.  Its arrays stay in the workspace rows that ``ROLES["step"]``
    names: ``x`` holds ``d_beta``, ``image`` holds ``G d_beta`` (``x`` when
    ``G = I``) and ``d_s1``-``d_nu2`` the other blocks."""

    krylov_iters: int
    pcg_residual: float
    alpha_primal: float  # step lengths keeping the slacks and the multipliers interior
    alpha_dual: float


_ITERATE = {name: name for name in ("s1", "s2", "nu1", "nu2")}
_FREE = ("free0", "free1", "free2", "free3")
_DIRECTION = dict(zip(("d_s1", "d_s2", "d_nu1", "d_nu2"), _FREE))
_KEPT = {"previous_s1": "free0", "previous_s2": "free1"}

#: Which row of a :class:`_Workspace` holds which role in each phase of a
#: Newton step, in the order the phases run; ``confirm`` forms the exact
#: ``gram(beta)`` before convergence is declared.  A role is listed from
#: the phase that writes it to the last phase that reads it.  ``s1``-``nu2``
#: are the iterate's own arrays, which trade places with the ``free`` rows
#: at the step (:meth:`_Workspace.rotate`), so the previous iterate's
#: slacks stay readable until ``rho`` is formed.  ``g`` is the carried
#: ``gram(beta)``: the step advances it by ``alpha_primal * G d_beta`` and
#: ``confirm`` overwrites it with the exact product.  ``image`` and
#: ``gram_p`` exist only on a masked grid: with ``G = I`` the step reads
#: ``G d_beta`` from ``x``, and a product forms no ``G p``.  PCG's
#: temporary is not a row but the first scratch row of the sweeps.
ROLES = {
    "evaluate": {**_ITERATE, "g": "g", "omega1": "x", "omega2": "product",
                 "delta": "free2", "precond": "free3", **_KEPT},
    "condense": {**_ITERATE, "g": "g", "omega1": "x", "omega2": "product",
                 "delta": "free2", "precond": "free3", "rho": "free0"},
    "pcg": {**_ITERATE, "x": "x", "residual": "free0", "search": "free1",
            "product": "product", "gram_p": "gram_p", "image": "image",
            "delta": "free2", "precond": "free3"},
    "recover": {**_ITERATE, "x": "x", "image": "image", **_DIRECTION},
    "step": {**_ITERATE, "g": "g", "x": "x", "image": "image", **_DIRECTION},
    "confirm": {**_ITERATE, "g": "g", "beta": "free2", **_KEPT},
}


class _Workspace:
    """One solve's Newton steps: its constant data ``xi = observe_adjoint(b)``,
    ``lam``, ``mask`` and tolerances, the n-vectors of the steps, allocated
    once, and the sweeps that run the O(n) phases over them, with the rows
    that :data:`ROLES` names.

    ``g``, the carried ``gram(beta)``, is a row, zero (exact at
    ``beta = 0``) until a step advances it.  ``start`` is
    :func:`initial_state` in four more rows, which the first step's
    :meth:`rotate` makes ``free`` rows.  ``sigma`` and ``r1``-``r4`` are
    never stored.  Each sweep runs over blocks of ``BLOCK`` entries and
    recomputes per block what it needs, in seven block-length ``scratch``
    rows; PCG, during which they are idle, takes the first as its
    temporary.  Elementwise work gives the same bits on a slice, and the
    extremes and step lengths combine exactly across blocks.  PCG's dot
    products run over whole vectors.

    All rows are cut from one block that starts on a 64-byte boundary,
    and each row's length is rounded up to a multiple of 8 floats, so
    every row, every block of a sweep (``BLOCK`` is a multiple of 8) and
    both lent half spectra start on a 64-byte boundary.  numpy's
    three-operand ufuncs (``np.add(a, b, out=c)``) run at about half speed
    when ``c`` does not, and the heap gives 16-byte alignment only, so
    without this the speed of a solve depended on where its rows landed.

    :meth:`evaluate` also keeps each block's extremes of ``s1``, ``s2``,
    ``nu1`` and ``nu2``, and after the sweep raises
    ``InteriorViolationError`` from them, naming the array a scan of the
    whole vectors would; it skips no block.  An exterior entry divides by
    zero or forms NaNs in its block.  The raise reports it, so the sweep's
    loop, and nothing else, runs under ``np.errstate(all="ignore")``;
    warnings change no value.

    On a masked grid the Gram products borrow two half spectra
    (``spectra``) from the rows idle during them, ``product`` and
    ``gram_p``, which are padded by ``2n/d_last`` floats so that one fits.
    On 2-D grids the packing passes end in the second half spectrum, which
    ``gram_p``, their output, cannot hold: a ``spare`` row lends it, and
    ``gram_p`` is n long.
    """

    def __init__(self, xi, lam: float, mask: Mask, config: IpmConfig = IpmConfig()):
        self.xi, self.lam, self.mask = xi, lam, mask
        self.tol, self.cg_tol = config.tol, config.cg_tol
        n = mask.shape.n
        # One allocation: as separate arrays on the heap they left the transforms'
        # temporaries on top of it, where free() trims them and every call
        # page-faults them anew (43K minor faults per 256^2 solve against none).
        half = mask.shape.half if mask.n_missing else ()
        flat_2d = len(half) == 2  # gram_p cannot lend its half spectrum: a spare row does
        plain = ["x", "g", *_FREE, *(["image"] if half else []), *(["gram_p"] if flat_2d else [])]
        lenders = ["product", *(["spare" if flat_2d else "gram_p"] if half else [])]
        spectrum = 2 * math.prod(half) if half else n  # floats in a row that holds a half spectrum
        block = min(BLOCK, n)
        stride, wide, short = _padded(n), _padded(spectrum), _padded(block)
        cut = (len(plain) + 4) * stride  # the plain rows, then the start's four
        flat = _aligned(cut + len(lenders) * wide + 7 * short)
        rows = flat[:cut].reshape(-1, stride)[:, :n]
        wides = flat[cut:cut + len(lenders) * wide].reshape(len(lenders), wide)
        self.rows = {"image": None, "gram_p": None}
        self.rows.update(zip(plain, rows))
        self.rows.update((name, row[:n]) for name, row in zip(lenders, wides))
        self.rows["g"].fill(0.0)
        self.start = _start(rows[len(plain):], lam)
        self.spectra = (tuple(row[:spectrum].view(np.complex128).reshape(half) for row in wides)
                        if half else None)
        scratch = flat[cut + wides.size:].reshape(7, short)
        self.blocks = [(slice(start, min(start + block, n)),
                        [row[:min(block, n - start)] for row in scratch])
                       for start in range(0, n, block)]
        self.extremes = np.empty((len(self.blocks), 2, 8))

    def roles(self, phase: str, state: IpmState) -> dict:
        """The arrays holding ``phase``'s roles while ``state`` is the
        iterate; None for a row the grid does not need."""
        return {role: getattr(state, row) if row in _ITERATE else self.rows[row]
                for role, row in ROLES[phase].items()}

    def rotate(self, state: IpmState, moved) -> IpmState:
        """The iterate in the four arrays ``moved``, where the step wrote it;
        ``state``'s arrays become the ``free`` rows."""
        self.rows.update(zip(_FREE, _arrays(state)))
        return IpmState(*moved, mu=state.mu)

    def evaluate(self, state: IpmState, step: NewtonDirection | None = None) -> IpmState:
        """Evaluate ``state`` in one sweep: write the ``evaluate`` roles, keep
        the extremes for :meth:`report` and, from them, check that it is
        interior.

        With ``step``, the step lengths of the direction from ``state`` in
        the ``step`` roles, each block first takes the step: ``x + alpha*dx``
        over the direction's rows and ``g += alpha_primal * G d_beta``.  The
        sweep then evaluates the new iterate, rotated in, and returns it.
        """
        new = state
        if step is not None:
            rows = self.roles("step", state)
            moved = [rows[name] for name in _DIRECTION]
            image = rows["x"] if rows["image"] is None else rows["image"]  # G d_beta
            moves = list(zip(moved, _arrays(state), (step.alpha_primal, step.alpha_primal,
                                                     step.alpha_dual, step.alpha_dual)))
            new = self.rotate(state, moved)
        rows = self.roles("evaluate", new)
        written = [rows[role] for role in ("omega1", "omega2", "delta", "precond")]
        with np.errstate(all="ignore"):  # an exterior block is reported by the check below
            for (cut, scratch), extremes in zip(self.blocks, self.extremes):
                if step is not None:  # reads the block of state's nu before delta overwrites it
                    for x, old, alpha in moves:
                        x = x[cut]
                        x *= alpha
                        x += old[cut]
                    taken = image[cut]
                    taken *= step.alpha_primal
                    rows["g"][cut] += taken
                block = [x[cut] for x in _arrays(new)]
                sigma1, sigma2 = scratch[:2]
                omega1, omega2, delta, precond = (row[cut] for row in written)
                barrier_scaling(*block, sigma1, sigma2, omega1, omega2, lambda1=precond)
                schur_coefficients(sigma1, omega2, delta, precond)
                r1, r2 = sigma1, sigma2  # spent once delta is formed
                stationarity(*block[2:], self.xi[cut], rows["g"][cut], r1)
                dual_residual(*block[2:], self.lam, r2)
                _extremes(block, r1, r2, extremes)
        # each array's block maxima and minima name it as its whole vector would
        check_interior(*self.extremes[..., 4:].reshape(-1, 4).T)
        return new

    def report(self, state: IpmState) -> ConvergenceReport:
        """The :class:`ConvergenceReport` of the iterate :meth:`evaluate` last saw."""
        extremes = np.stack((self.extremes[:, 0, :4].max(axis=0),
                             self.extremes[:, 1, :4].min(axis=0)))
        return _convergence_report(state, extremes, self.tol)

    def condense(self, state: IpmState) -> None:
        """Form the condensed right-hand side ``rho`` at ``state.mu``."""
        rows = self.roles("condense", state)
        for cut, scratch in self.blocks:
            block = [x[cut] for x in _arrays(state)]
            r1, r2, r3, r4, term = scratch[:5]
            stationarity(*block[2:], self.xi[cut], rows["g"][cut], r1)
            dual_residual(*block[2:], self.lam, r2)
            barrier_residuals(*block, state.mu, r3, r4)
            condense(r1, r2, r3, r4, rows["omega1"][cut], rows["omega2"][cut],
                     rows["rho"][cut], term)

    def recover(self, state: IpmState, d_beta) -> tuple[float, float]:
        """Back-substitute the direction from ``d_beta`` into its ``recover``
        rows; returns its step lengths ``(alpha_primal, alpha_dual)``."""
        roles = self.roles("recover", state)
        rows = [roles[name] for name in _DIRECTION]
        tau = max(FTB_TAU, 1.0 - state.mu)
        alphas = [1.0] * 4
        for cut, scratch in self.blocks:
            block = [x[cut] for x in _arrays(state)]
            sigma1, sigma2, omega1, omega2, lambda1, r3, r4 = scratch
            barrier_scaling(*block, sigma1, sigma2, omega1, omega2, lambda1)
            r2 = lambda1  # recover_eliminated forms its own sum
            dual_residual(*block[2:], self.lam, r2)
            barrier_residuals(*block, state.mu, r3, r4)
            steps = recover_eliminated(d_beta[cut], r2, r3, r4, sigma1, sigma2, omega1, omega2,
                                       [row[cut] for row in rows])
            # alpha is monotone in the nearest ratio, so the least over the
            # blocks is the whole vector's
            alphas = [min(alpha, fraction_to_boundary(v, dv, tau, sigma1))
                      for alpha, v, dv in zip(alphas, block, steps)]
        return min(alphas[:2]), min(alphas[2:])


def _arrays(state) -> tuple:
    return state.s1, state.s2, state.nu1, state.nu2


def newton_direction(state: IpmState, work: _Workspace) -> NewtonDirection:
    """One Newton direction on the barrier KKT system at ``state.mu``, into
    the rows of ``work`` that ``ROLES["step"]`` names.

    ``work`` holds the residuals' data and the evaluation of ``state``.
    PCG solves ``S d_beta = rho`` matrix-free to ``work.cg_tol`` and
    accumulates ``G d_beta``; recovery back-substitutes the other blocks
    and measures the fraction-to-boundary step lengths in the same sweep.
    """
    work.condense(state)
    rows = work.roles("pcg", state)
    image, product = rows["image"], rows["product"]

    def op(v):  # with G = I there is no image to accumulate: G d_beta is d_beta
        pair = apply_kkt(v, rows["delta"], work.mask, out=product, gram_out=rows["gram_p"],
                         spectra=work.spectra)
        return pair if image is not None else pair[0]

    def prec(v):
        return apply_precond_inverse(v, rows["precond"], out=product)

    temporary = work.blocks[0][1][0]  # a scratch row: the sweeps are idle during PCG
    result = pcg_solve(op, prec, rows["residual"], work.cg_tol,
                       (rows["x"], rows["residual"], rows["search"], temporary), image=image)
    if not result.converged:
        raise NumericalBreakdownError(
            f"PCG stalled at preconditioned residual {result.residual_norm:.3e} "
            f"after {result.iterations} iterations"
        )
    return NewtonDirection(result.iterations, result.residual_norm,
                           *work.recover(state, result.solution))


def fraction_to_boundary(v: np.ndarray, dv: np.ndarray, tau: float, scratch) -> float:
    """Largest step in (0, 1] keeping ``v + alpha*dv >= (1 - tau) * v``, for
    ``v > 0``; ``scratch`` is a temporary of ``v``'s length."""
    with np.errstate(all="ignore"):  # zeros, overflows and NaNs are sorted out below
        ratios = np.divide(v, dv, out=scratch)
    # Read as int64, a double with the sign bit set is negative and grows
    # with its magnitude, so the integer min is the negative ratio nearest
    # zero: the shrinking entry (dv < 0) that sets the step.  dv = -0 gives
    # -inf and a NaN in dv may give a negative NaN; both lie beyond every
    # finite ratio, and alone they give a step of 1 (min(1, nan) is 1).
    nearest = ratios.view(np.int64).min()
    if nearest >= 0:
        return 1.0
    return min(1.0, tau * -float(nearest.view(np.float64)))


def ipm_step(state: IpmState, work: _Workspace) -> tuple[IpmState, NewtonDirection]:
    """Take one damped Newton step from ``state`` and evaluate the new iterate;
    returns it and the direction, which holds both step lengths.

    ``work`` is as for :func:`newton_direction`.  Its ``g`` is advanced in
    place by ``alpha_primal * G d_beta``, and ``work.report`` then gives the
    new iterate's :class:`ConvergenceReport`.  ``state``'s slacks are kept
    and its ``nu`` arrays overwritten (:data:`ROLES`).
    """
    direction = newton_direction(state, work)
    alpha_p, alpha_d = direction.alpha_primal, direction.alpha_dual
    if min(alpha_p, alpha_d) < 1e-12:
        raise StalledError(
            f"fraction-to-boundary step collapsed (alpha_p={alpha_p:.2e}, "
            f"alpha_d={alpha_d:.2e})"
        )
    return work.evaluate(state, step=direction), direction


def next_barrier(mu: float, tol: float) -> float:
    """Monotone barrier schedule with a superlinear tail near the floor."""
    return max(tol / 10.0, min(SIGMA_MU * mu, mu ** MU_POWER))


def solve(b, mask: Mask, config: IpmConfig = IpmConfig(),
          observer=None) -> tuple[np.ndarray, SolveReport]:
    """Run the interior-point method to the requested KKT tolerance.

    Parameters
    ----------
    b : numpy.ndarray
        Observed samples (length ``mask.n_observed``).
    mask : Mask
        Missing-sample set (empty mask = pure denoising).
    config : IpmConfig
        Parameters; ``config.lam=None`` picks the default penalty.
    observer : callable, optional
        Called as ``observer(state, record)`` after every iteration;
        used by the spectral diagnostics to record trajectories.  Each
        state is a copy of the iterate, an :class:`IpmState` in new arrays
        whose ``mu`` equals ``record.mu``; the solver never modifies them.

    Returns
    -------
    beta : numpy.ndarray
        Recovered packed spectrum.  The imputed signal on the full grid is
        ``fourier.synthesize(beta, mask.shape)``.
    report : SolveReport
        Per-iteration residuals, barrier values, Krylov counts, timings;
        ``wall_time`` is the whole call's, checks and transforms included.
        On iteration exhaustion the best iterate seen is returned with
        status ``"max_iters"``; when PCG fails (``NumericalBreakdownError``),
        the step collapses (``StalledError``) or leaves the strict interior
        (``InteriorViolationError``), with status ``"stalled"`` and the
        error's message as ``reason``.  ``final_objective``, ``final_kkt``
        and ``final_mu`` describe the returned ``beta``.

    Raises ``ValueError`` before any transform for complex ``b``, whose
    imaginary part the solve would drop, for NaN/Inf in ``b``, and for
    samples whose squared norm ``b @ b`` overflows, which would make the
    objective infinite; ``UnsupportedShapeError`` (a ``ValueError``) for a
    ``b`` whose length is not ``mask.n_observed``.
    """
    t0 = time.perf_counter()
    b = real_vector(b, "observed samples", mask.n_observed)
    with np.errstate(all="ignore"):  # a NaN, an Inf or an overflowing square
        if not math.isfinite(b @ b):
            raise ValueError("observed samples must be finite, with a finite squared norm")
    xi = observe_adjoint(b, mask, out=_aligned(mask.shape.n))
    lam = config.lam if config.lam is not None else _penalty_of_correlation(xi)
    if lam == 0.0:  # default penalty of b = 0, whose exact solution is beta = 0
        return np.zeros(mask.shape.n), SolveReport(
            status="converged", lam=lam, tol=config.tol, records=[],
            final_objective=0.0, final_kkt=0.0, final_mu=0.0, wall_time=time.perf_counter() - t0)
    beta, records, status, final_kkt, final_mu, reason = _iterate(xi, lam, mask, config,
                                                                  observer)
    report = SolveReport(
        status=status,
        lam=lam,
        tol=config.tol,
        records=records,
        final_objective=lasso_objective(beta, b, mask, lam),
        final_kkt=final_kkt,
        final_mu=final_mu,
        wall_time=time.perf_counter() - t0,
        reason=reason,
    )
    return beta, report


def _iterate(xi, lam: float, mask: Mask, config: IpmConfig, observer):
    """The interior-point loop of :func:`solve`.

    Returns the solution, the iteration records, the status, the solution's
    KKT residual and barrier, and the failure reason.  The n-vectors of
    the loop, the starting iterate among them, live in one
    :class:`_Workspace` and are released on return; besides it the loop
    allocates only the beta of the best iterate, when a step raises the
    KKT residual, and the returned one.
    """
    work = _Workspace(xi, lam, mask, config)
    records: list[IterationRecord] = []
    state = work.evaluate(work.start)
    conv = work.report(state)
    # the best iterate's (beta, mu), or None while the best is the current iterate
    best, best_kkt = None, conv.max_residual
    stalled, reason = False, ""

    for iteration in range(1, config.max_iters + 1):
        t_iter = time.perf_counter()
        if conv.converged:
            break
        previous, mu = state, state.mu
        if conv.barrier_residual <= INNER_SLACK * mu:
            mu = next_barrier(mu, config.tol)
        try:
            state, direction = ipm_step(replace(state, mu=mu), work)
        except (NumericalBreakdownError, StalledError, InteriorViolationError) as exc:
            stalled, reason = True, str(exc)  # state, its slacks and so its beta are intact
            break
        conv = work.report(state)
        if conv.converged:  # confirm on the exact product, never on the carried one
            rows = work.roles("confirm", state)
            beta = np.subtract(state.s1, state.s2, out=rows["beta"])
            beta *= 0.5
            gram(beta, mask, out=rows["g"], spectra=work.spectra)
            work.evaluate(state)
            conv = work.report(state)
        record = IterationRecord(
            iteration=iteration,
            mu=state.mu,
            dual_inf=max(conv.dual_equality, conv.stationarity),
            complementarity=conv.complementarity,
            kkt_max=conv.max_residual,
            **asdict(direction),
            wall_time=time.perf_counter() - t_iter,
        )
        records.append(record)
        if conv.max_residual < best_kkt:
            best, best_kkt = None, conv.max_residual
        elif best is None:  # the best is `previous`, whose arrays the next step reuses
            best = (previous.beta, previous.mu)
        if observer is not None:  # a copy: the solver reuses the iterate's arrays
            observer(state.copy(), record)

    status = "converged" if conv.converged else "stalled" if stalled else "max_iters"
    if status == "converged" or best is None:
        best, best_kkt = (state.beta, state.mu), conv.max_residual
    return best[0], records, status, best_kkt, best[1], reason
