"""Interior-point driver: direction oracles, closed forms, invariants."""

import copy
import itertools
import json
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fftlasso import (
    GridShape,
    InteriorViolationError,
    Mask,
    NumericalBreakdownError,
    StalledError,
    SyntheticSpec,
    analyze,
    generate_synthetic,
    gram,
    lasso_objective,
    observe,
    observe_adjoint,
    solve,
)
from fftlasso.diagnostics import ista_solve, soft_threshold
from fftlasso.ipm import (
    BLOCK,
    ROLES,
    IpmConfig,
    IpmState,
    NewtonDirection,
    default_penalty,
    fraction_to_boundary,
    initial_state,
    ipm_step,
    newton_direction,
    next_barrier,
)

import fftlasso.fourier
import fftlasso.ipm
import fftlasso.masking
import fftlasso.newton_system
import fftlasso.pcg
from conftest import (
    central_path_state,
    check_convergence,
    dense_augmented_system,
    dense_observation_matrix,
    exact_data,
    exact_rhs,
    fail_on_call,
    newton_rhs,
    random_feasible_iterate,
    recovered,
    same_bits,
    sparse_instance,
    spread_iterate,
)


def empty_mask(n):
    return Mask(np.array([], dtype=np.int64), GridShape((n,)))


def evaluated(state, xi, g, lam, mask, tol=1e-8, cg_tol=1e-12):
    """A new workspace for ``xi``, ``lam`` and ``mask`` that carries a copy
    of ``g`` and holds the evaluation of ``state``, as a solve's sweeps
    leave it before a step."""
    work = fftlasso.ipm._Workspace(xi, lam, mask, IpmConfig(tol=tol, cg_tol=cg_tol))
    work.rows["g"][:] = g
    work.evaluate(state)
    return work


def direction_at(state, b, mask, lam, cg_tol):
    """The arrays of the Newton direction at ``state``, read from the rows
    that ``ROLES["step"]`` names, with ``xi`` and ``g`` evaluated exactly."""
    xi, g = exact_data(state, b, mask)
    work = evaluated(state, xi, g, lam, mask, cg_tol=cg_tol)
    newton_direction(state, work)
    rows = work.roles("step", state)
    return SimpleNamespace(d_beta=rows["x"], **{name: rows[name] for name in
                                                ("d_s1", "d_s2", "d_nu1", "d_nu2")})


def report_at(state, b, mask, lam, tol):
    """The solver's convergence report of ``state``, with ``xi`` and ``g`` exact."""
    return evaluated(state, *exact_data(state, b, mask), lam, mask, tol=tol).report(state)


class TestInitialState:
    def test_residuals_exactly_zero(self, rng):
        n = 16
        mask = empty_mask(n)
        b = rng.standard_normal(n)
        lam = 0.7
        state = initial_state(n, lam)
        rhs = exact_rhs(state, b, mask, lam)
        for block in (rhs.r2, rhs.r3, rhs.r4):
            assert np.all(block == 0.0)

    def test_initial_mu_is_duality_measure(self):
        state = initial_state(8, 0.5)
        assert state.mu == pytest.approx(0.25)
        assert state.duality_measure() == pytest.approx(state.mu)

    def test_only_correlation_residual(self, rng):
        n = 8
        mask = empty_mask(n)
        b = rng.standard_normal(n)
        state = initial_state(n, 0.5)
        conv = report_at(state, b, mask, 0.5, tol=1e-8)
        assert conv.stationarity == pytest.approx(np.max(np.abs(analyze(b, mask.shape))))
        assert conv.dual_equality == 0.0
        assert not conv.converged

    def test_rejects_nonpositive_penalty(self):
        with pytest.raises(ValueError):
            initial_state(4, 0.0)


class TestNewtonDirection:
    def test_no_op_at_barrier_solution(self, rng):
        """At the exact central-path point the Newton direction vanishes."""
        n = 16
        mask = empty_mask(n)
        b = rng.standard_normal(n)
        lam, mu = 0.6, 1e-3
        state = central_path_state(analyze(b, mask.shape), lam, mu)
        d = direction_at(state, b, mask, lam, cg_tol=1e-12)
        for block in (d.d_beta, d.d_s1, d.d_s2, d.d_nu1, d.d_nu2):
            assert np.max(np.abs(block)) <= 1e-9

    def test_matches_dense_six_block_solve(self, rng):
        n = 16
        mask = Mask(np.sort(rng.choice(n, 3, replace=False)), GridShape((n,)))
        state = random_feasible_iterate(rng, n, mu=0.02)
        b = rng.standard_normal(mask.n_observed)
        lam = 0.5
        rhs = exact_rhs(state, b, mask, lam)
        d = direction_at(state, b, mask, lam, cg_tol=1e-14)
        m6 = dense_augmented_system(state, mask)
        zero = np.zeros(n)  # the slack equations hold on the solver's domain
        stacked = np.concatenate([rhs.r1, rhs.r2, rhs.r3, rhs.r4, zero, zero])
        dense = np.linalg.solve(m6, stacked)
        # six-block system carries slacks with the flipped sign; d_y = d_nu
        mine = np.concatenate([d.d_beta, (d.d_s1 + d.d_s2) / 2, -d.d_s1, -d.d_s2,
                               d.d_nu1, d.d_nu2])
        assert np.max(np.abs(mine - dense)) <= 1e-8

    def test_matches_full_newton_solve(self, rng):
        """Against a from-scratch Jacobian of the raw barrier system."""
        n = 16
        mask = Mask(np.array([2, 5, 9]), GridShape((n,)))
        state = random_feasible_iterate(rng, n, mu=0.03)
        b = rng.standard_normal(mask.n_observed)
        lam = 0.4
        beta, z_aux = state.beta, 0.5 * (state.s1 + state.s2)
        y1, y2 = state.nu1, state.nu2  # y = nu on the solver's domain

        m_perp = dense_observation_matrix(mask)
        g = m_perp.T @ m_perp
        i, z = np.eye(n), np.zeros((n, n))
        s1, s2 = np.diag(state.s1), np.diag(state.s2)
        v1, v2 = np.diag(state.nu1), np.diag(state.nu2)
        jac = np.block([
            [g, z, z, z, -i, i, z, z],
            [z, z, z, z, -i, -i, z, z],
            [z, z, z, z, i, z, -i, z],
            [z, z, z, z, z, i, z, -i],
            [i, i, -i, z, z, z, z, z],
            [-i, i, z, -i, z, z, z, z],
            [z, z, v1, z, z, z, s1, z],
            [z, z, z, v2, z, z, z, s2],
        ])
        resid = np.concatenate([
            m_perp.T @ (m_perp @ beta - b) - y1 + y2,
            lam - y1 - y2,
            y1 - state.nu1,
            y2 - state.nu2,
            z_aux + beta - state.s1,
            z_aux - beta - state.s2,
            state.s1 * state.nu1 - state.mu,
            state.s2 * state.nu2 - state.mu,
        ])
        oracle = np.split(np.linalg.solve(jac, -resid), 8)

        d = direction_at(state, b, mask, lam, cg_tol=1e-14)
        mine = [d.d_beta, (d.d_s1 + d.d_s2) / 2, d.d_s1, d.d_s2,
                d.d_nu1, d.d_nu2, d.d_nu1, d.d_nu2]
        for got, want in zip(mine, oracle):
            assert np.max(np.abs(got - want)) <= 1e-8

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**31),
           dims=st.sampled_from([(2,), (4,), (6,), (10,), (16,), (2, 2), (2, 4),
                                 (4, 2), (2, 6), (4, 4), (2, 8), (8, 2)]),
           log_mu=st.floats(-8.0, 0.0))
    def test_matches_dense_six_block_solve_random(self, seed, dims, log_mu):
        """Schur solve plus back-substitution against the dense 6-block solve."""
        rng = np.random.default_rng(seed)
        shape = GridShape(dims)
        n = shape.n
        missing = np.flatnonzero(rng.random(n) < rng.random())[: n - 1]
        mask = Mask(missing, shape)
        state = random_feasible_iterate(rng, n, mu=10.0 ** log_mu)
        b = rng.standard_normal(mask.n_observed)
        rhs = exact_rhs(state, b, mask, 0.5)
        d = direction_at(state, b, mask, 0.5, cg_tol=1e-14)
        zero = np.zeros(n)  # the slack equations hold on the solver's domain
        stacked = np.concatenate([rhs.r1, rhs.r2, rhs.r3, rhs.r4, zero, zero])
        dense = np.linalg.solve(dense_augmented_system(state, mask), stacked)
        # six-block system carries slacks with the flipped sign; d_y = d_nu
        mine = np.concatenate([d.d_beta, (d.d_s1 + d.d_s2) / 2, -d.d_s1, -d.d_s2,
                               d.d_nu1, d.d_nu2])
        assert np.max(np.abs(mine - dense)) <= 1e-8
        d_nu1 = (state.mu - state.s1 * state.nu1) / state.s1 - rhs.diag.sigma1 * d.d_s1
        d_nu2 = (state.mu - state.s2 * state.nu2) / state.s2 - rhs.diag.sigma2 * d.d_s2
        assert np.max(np.abs(d.d_nu1 - d_nu1)) <= 1e-12
        assert np.max(np.abs(d.d_nu2 - d_nu2)) <= 1e-12


class TestBlockedSweeps:
    """The workspace's sweeps over blocks of ``BLOCK`` entries give the bits
    of the full-vector references in ``conftest``."""

    SIZES = pytest.mark.parametrize("n", [BLOCK // 4 + 2, 2 * BLOCK, 64000],
                                    ids=["below-one-block", "exact-multiple", "ragged-tail"])

    @SIZES
    def test_phases_match_full_vector_kernels(self, n):
        rng = np.random.default_rng(n)
        lam, tol = 0.5, 1e-8
        state = spread_iterate(rng, n, mu=1e-3)
        xi, g = rng.standard_normal(n), rng.standard_normal(n)
        work = fftlasso.ipm._Workspace(xi, lam, empty_mask(n), IpmConfig(tol=tol))
        work.rows["g"][:] = g

        assert work.evaluate(state) is state
        rhs = newton_rhs(state, xi, g, lam)
        rows = work.roles("evaluate", state)
        assert same_bits(rows["delta"], rhs.diag.delta)
        assert same_bits(rows["precond"], rhs.diag.precond)
        assert work.report(state) == check_convergence(state, rhs, tol)

        work.condense(state)
        assert same_bits(work.roles("condense", state)["rho"], rhs.rho)

        d_beta = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
        alpha_p, alpha_d = work.recover(state, d_beta)
        rows = work.roles("step", state)
        steps = [rows[name] for name in ("d_s1", "d_s2", "d_nu1", "d_nu2")]
        expect = recovered(d_beta, rhs)
        assert all(same_bits(got, want) for got, want in zip(steps, expect))
        tau = max(0.995, 1.0 - state.mu)
        ratios = [fraction_to_boundary(v, dv, tau, np.empty(n))
                  for v, dv in zip((state.s1, state.s2, state.nu1, state.nu2), expect)]
        assert (alpha_p, alpha_d) == (min(ratios[:2]), min(ratios[2:]))

        image = rng.standard_normal(n)
        rows["x"][:] = image  # G d_beta, read from x on this empty mask
        moved = [old + alpha * dx for old, dx, alpha in
                 zip((state.s1, state.s2, state.nu1, state.nu2), expect,
                     (alpha_p, alpha_p, alpha_d, alpha_d))]
        g_moved = g + alpha_p * image
        direction = NewtonDirection(krylov_iters=1, pcg_residual=0.0,
                                    alpha_primal=alpha_p, alpha_dual=alpha_d)
        new = work.evaluate(state, step=direction)
        assert [a is b for a, b in zip((new.s1, new.s2, new.nu1, new.nu2), steps)] == [True] * 4
        assert all(same_bits(got, want) for got, want in
                   zip((new.s1, new.s2, new.nu1, new.nu2), moved))
        assert same_bits(work.rows["g"], g_moved)
        rhs = newton_rhs(new, xi, g_moved, lam)
        rows = work.roles("evaluate", new)
        assert same_bits(rows["delta"], rhs.diag.delta)
        assert same_bits(rows["precond"], rhs.diag.precond)
        assert work.report(new) == check_convergence(new, rhs, tol)

    @pytest.mark.parametrize("poison, value", [  # the NaN cases keep the bare ids
        pytest.param(poison, value, id=name + suffix)
        for (name, poison), (suffix, value) in itertools.product(
            {"last-block-only": {"nu1": -1}, "later-array-first": {"s2": -1, "nu1": 0},
             "earlier-array-last": {"nu2": -1, "s1": 5}, "first-block-only": {"s2": 0}}.items(),
            {"": np.nan, "-zero": 0.0, "-negative": -1.0, "-inf": np.inf}.items())])
    @pytest.mark.parametrize("stepped", [False, True])
    def test_interior_violation_names_the_first_array(self, poison, value, stepped):
        """A violation anywhere raises, naming the first offending array in
        ``s1, s2, nu1, nu2`` order over whole vectors, as ``check_interior``
        does; with a step, the violation comes from the direction.  No
        warning is raised, and the slacks the step started from, which the
        solve's best iterate may read, are left as they were."""
        n = 64000  # the last block is partial
        rng = np.random.default_rng(1)
        state = random_feasible_iterate(rng, n)
        xi, g = rng.standard_normal(n), rng.standard_normal(n)
        work = fftlasso.ipm._Workspace(xi, 0.5, empty_mask(n))
        work.rows["g"][:] = g
        steps = work.roles("step", state)
        for name in ("x", "d_s1", "d_s2", "d_nu1", "d_nu2"):
            steps[name].fill(0.0)
        direction = NewtonDirection(krylov_iters=1, pcg_residual=0.0,
                                    alpha_primal=1.0, alpha_dual=1.0)
        for name, index in poison.items():
            old = getattr(state, name)
            if stepped:  # old + (value - old) is value, or about -1 for -1
                steps["d_" + name][index] = value - old[index]
            else:
                old[index] = value
        slacks = state.s1.copy(), state.s2.copy()
        first = min(poison, key=("s1", "s2", "nu1", "nu2").index)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InteriorViolationError, match=f"^{first} "):
                work.evaluate(state, step=direction if stepped else None)
        assert same_bits(state.s1, slacks[0]) and same_bits(state.s2, slacks[1])


class TestStepMechanics:
    def test_fraction_to_boundary(self):
        v = np.array([1.0, 2.0])
        assert fraction_to_boundary(v, np.array([1.0, 0.0]), 0.995, np.empty(2)) == 1.0
        alpha = fraction_to_boundary(v, np.array([-2.0, -1.0]), 0.995, np.empty(2))
        assert alpha == pytest.approx(0.995 * 0.5)

    @pytest.mark.parametrize("case", [-2.0, 0.0, 2.0, "nonshrinking", "signed-zeros",
                                      "signed-zeros-only", "nan", "nan-only", "underflow",
                                      "overflow"])
    def test_fraction_to_boundary_matches_gathered_ratios(self, rng, case):
        """Bit-identical to the minimum over the gathered shrinking entries.

        A float case shifts rounded normal steps (some exact zeros of either
        sign); the named cases probe the edges of the ratio's bit order."""
        size = 1000
        v = rng.random(size) + 1e-3
        dv = np.round(rng.standard_normal(size) + (case if isinstance(case, float) else 0.0), 1)
        some = rng.choice(size, 100, replace=False)
        if case == "nonshrinking":
            dv = np.abs(dv)  # abs(-0.0) = +0.0
        elif case == "signed-zeros":
            dv[some[:50]], dv[some[50:]] = 0.0, -0.0
        elif case == "signed-zeros-only":
            dv = np.where(rng.random(size) < 0.5, 0.0, -0.0)
            dv[some] = rng.random(100)
        elif case == "nan":
            dv[some[:50]], dv[some[50:]] = np.nan, -np.nan
        elif case == "nan-only":
            dv = np.where(rng.random(size) < 0.5, np.nan, -np.nan)
            dv[some[:50]], dv[some[50:]] = -0.0, rng.random(50)
        elif case == "underflow":  # v/dv rounds to +0 or -0
            v *= 1e-300
            dv = np.copysign(1e300 * (1.0 + rng.random(size)), dv)
        elif case == "overflow":  # v/dv rounds to +inf or -inf
            v *= 1e300
            dv = np.copysign(1e-300 * (1.0 + rng.random(size)), dv)
        shrinking = dv < 0.0
        with np.errstate(over="ignore"):
            ratio = np.min(v[shrinking] / -dv[shrinking]) if shrinking.any() else np.inf
        expect = min(1.0, 0.995 * float(ratio))
        alpha = fraction_to_boundary(v, dv, 0.995, np.full(size, np.nan))
        assert np.float64(alpha).tobytes() == np.float64(expect).tobytes()
        if case in ("nonshrinking", "signed-zeros-only", "nan-only", "overflow"):
            assert alpha == 1.0
        if case == "underflow":
            assert alpha == 0.0

    def test_step_preserves_interior(self, rng):
        b, mask, _ = sparse_instance(rng, 32, 4, 3)
        lam = 0.4
        state = initial_state(mask.shape.n, lam)
        for _ in range(5):
            xi, g = exact_data(state, b, mask)
            state, _ = ipm_step(state, evaluated(state, xi, g, lam, mask))
            assert min(state.s1.min(), state.s2.min()) > 0.0
            assert min(state.nu1.min(), state.nu2.min()) > 0.0

    @pytest.mark.parametrize("n_missing", [9, 0])
    def test_step_keeps_the_old_slacks(self, rng, n_missing):
        """A step evaluates the new iterate into the old one's ``nu`` arrays
        and keeps its slacks, so a solve can still return the old ``beta``;
        the old arrays become the workspace's ``free`` rows."""
        b, mask, _ = sparse_instance(rng, 64, n_missing, 3)
        state = initial_state(mask.shape.n, 0.4)
        xi, g = exact_data(state, b, mask)
        work = evaluated(state, xi, g, 0.4, mask)
        for _ in range(3):
            kept = state.copy()
            new, _ = ipm_step(state, work)
            rows = work.roles("evaluate", new)
            assert same_bits(rows["previous_s1"], kept.s1) and rows["previous_s1"] is state.s1
            assert same_bits(rows["previous_s2"], kept.s2) and rows["previous_s2"] is state.s2
            assert rows["delta"] is state.nu1 and rows["precond"] is state.nu2
            state = new

    def test_stalled_step_raises(self, rng, monkeypatch):
        n = 8
        mask = empty_mask(n)
        b = rng.standard_normal(n)
        state = initial_state(n, 0.5)

        blocked = NewtonDirection(
            krylov_iters=0, pcg_residual=0.0,
            alpha_primal=fraction_to_boundary(state.s1, -1e18 * state.s1, 0.995, np.empty(n)),
            alpha_dual=1.0,
        )
        monkeypatch.setattr(fftlasso.ipm, "newton_direction",
                            lambda *args, **kw: blocked)
        xi, g = exact_data(state, b, mask)
        with pytest.raises(StalledError):
            ipm_step(state, evaluated(state, xi, g, 0.5, mask))

    def test_nan_slack_step_leaves_interior(self, rng, monkeypatch):
        """A step that poisons a slack is caught by the next evaluation, which
        ends the solve at the start."""
        b, mask, _ = sparse_instance(rng, 32, 4, 3)
        exact = fftlasso.ipm.newton_direction

        def poisoned(state, work):
            d = exact(state, work)
            work.roles("step", state)["d_s1"][0] = np.nan
            return d

        monkeypatch.setattr(fftlasso.ipm, "newton_direction", poisoned)
        beta, report = solve(b, mask, IpmConfig(lam=0.4))
        assert report.status == "stalled" and report.iterations == 0
        assert report.reason == "s1 must be strictly positive and finite"
        assert np.all(beta == 0.0)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        pytest.param({"tol": 0.0}, id="tol"),
        pytest.param({"cg_tol": 0.0}, id="cg_tol-zero"),
        pytest.param({"cg_tol": -1e-12}, id="cg_tol-negative"),
        pytest.param({"max_iters": -1}, id="max_iters-negative"),
        pytest.param({"max_iters": 2.5}, id="max_iters-float"),
        pytest.param({"max_iters": 3.0}, id="max_iters-integral-float"),
        pytest.param({"max_iters": True}, id="max_iters-bool"),
        pytest.param({"max_iters": np.int64(-1)}, id="max_iters-numpy-negative"),
        pytest.param({"max_iters": "5"}, id="max_iters-str"),
        pytest.param({"max_iters": None}, id="max_iters-none"),
        pytest.param({"lam": 0.0}, id="lam-zero"),
        pytest.param({"lam": -0.5}, id="lam-negative"),
        pytest.param({"lam": np.nan}, id="lam-nan"),
        pytest.param({"lam": np.inf}, id="lam-inf"),
        pytest.param({"tol": np.nan}, id="tol-nan"),
        pytest.param({"tol": np.inf}, id="tol-inf"),
        pytest.param({"cg_tol": np.nan}, id="cg_tol-nan"),
        pytest.param({"cg_tol": np.inf}, id="cg_tol-inf"),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            IpmConfig(**kwargs)

    @pytest.mark.parametrize("count", [0, 7, np.int64(7), np.uint8(7)])
    def test_accepts_integer_max_iters(self, count):
        assert IpmConfig(max_iters=count).max_iters == count

    def test_settable_fields(self):
        names = [f.name for f in fields(IpmConfig)]
        assert names == ["lam", "tol", "cg_tol", "max_iters"]


class TestBarrierSchedule:
    def test_plain_reduction(self):
        assert next_barrier(1.0, 1e-8) == pytest.approx(0.2)

    def test_superlinear_tail(self):
        assert next_barrier(1e-4, 1e-8) == pytest.approx(1e-6)

    def test_floor(self):
        assert next_barrier(1e-9, 1e-8) == pytest.approx(1e-9)


class TestCheckConvergence:
    def test_converged_near_solution(self, rng):
        n = 16
        mask = empty_mask(n)
        b = rng.standard_normal(n)
        lam = 0.6
        state = central_path_state(analyze(b, mask.shape), lam, mu=1e-12)
        conv = report_at(state, b, mask, lam, tol=1e-8)
        assert conv.converged
        assert conv.complementarity <= 1e-8

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 2**31), log_mu=st.floats(-8.0, 1.0))
    def test_barrier_residual_matches_eight_piece_formula(self, seed, log_mu):
        """Bit for bit the max over the eight barrier residual blocks."""
        rng = np.random.default_rng(seed)
        n = 32
        mask = Mask(np.sort(rng.choice(n, 5, replace=False)), GridShape((n,)))
        state = random_feasible_iterate(rng, n, mu=10.0 ** log_mu)
        b = rng.standard_normal(mask.n_observed)
        rhs = exact_rhs(state, b, mask, 0.5)
        conv = report_at(state, b, mask, 0.5, tol=1e-8)
        beta, z = state.beta, 0.5 * (state.s1 + state.s2)
        y1, y2 = state.nu1, state.nu2  # y = nu on the solver's domain
        pieces = [rhs.r1, rhs.r2,
                  z + beta - state.s1, z - beta - state.s2,
                  state.s1 * state.nu1 - state.mu, state.s2 * state.nu2 - state.mu,
                  y1 - state.nu1, y2 - state.nu2]
        assert conv.barrier_residual == max(float(np.max(np.abs(p))) for p in pieces)
        assert conv.stationarity == float(np.max(np.abs(rhs.r1)))
        assert conv.dual_equality == float(np.max(np.abs(rhs.r2)))

    def test_not_converged_at_start(self, rng):
        n = 16
        mask = empty_mask(n)
        b = 10.0 * rng.standard_normal(n)
        state = initial_state(n, 0.5)
        assert not report_at(state, b, mask, 0.5, tol=1e-8).converged

    def test_soft_threshold_fixed_point(self, rng):
        """Empty-mask solutions are the soft threshold of the correlation."""
        n = 64
        mask = empty_mask(n)
        b = rng.standard_normal(n)
        xi = analyze(b, mask.shape)
        lam = 0.3 * np.max(np.abs(xi))
        beta, report = solve(b, mask, IpmConfig(lam=lam, tol=1e-8))
        assert report.converged
        np.testing.assert_allclose(beta, soft_threshold(xi, lam), atol=1e-7)


class TestSolve:
    def test_empty_mask_pcg_at_most_two(self, rng):
        n = 128
        mask = empty_mask(n)
        b = rng.standard_normal(n)
        beta, report = solve(b, mask, IpmConfig(tol=1e-8))
        assert report.converged
        assert max(report.krylov_counts) <= 2

    @pytest.mark.parametrize("seed", [10, 11, 12, 13])
    @pytest.mark.parametrize("n", [128, 512, 2048])
    def test_empty_mask_pcg_identity_holds_to_convergence(self, n, seed):
        """P^-1 K = I with no missing data, also once the barrier diagonals diverge."""
        b = np.random.default_rng(seed).standard_normal(n)
        beta, report = solve(b, empty_mask(n), IpmConfig(tol=1e-8))
        assert report.converged
        assert max(report.krylov_counts) <= 2

    def test_large_penalty_zeroes_solution(self, rng):
        n = 64
        mask = empty_mask(n)
        b = rng.standard_normal(n)
        lam = 1.01 * np.max(np.abs(analyze(b, mask.shape)))
        beta, report = solve(b, mask, IpmConfig(lam=lam, tol=1e-8))
        assert report.converged
        assert np.max(np.abs(beta)) <= 1e-7

    def test_one_sparse_support_recovery(self, rng):
        """Exhaustive one-sparse fit picks the same support as the solver."""
        n = 32
        g = GridShape((n,))
        mask = Mask(np.sort(rng.choice(n, 3, replace=False)), g)
        true_idx = 7
        beta_true = np.zeros(n)
        beta_true[true_idx] = 2.0
        b = observe(beta_true, mask)
        lam = 0.05 * np.max(np.abs(observe_adjoint(b, mask)))

        best_idx, best_obj = None, np.inf
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            col = observe(e, mask)
            nrm2 = col @ col
            c = soft_threshold(np.array([col @ b]), lam)[0] / nrm2
            obj = 0.5 * np.sum((b - c * col) ** 2) + lam * abs(c)
            if obj < best_obj:
                best_idx, best_obj = j, obj
        assert best_idx == true_idx

        beta, report = solve(b, mask, IpmConfig(lam=lam, tol=1e-8))
        assert report.converged
        support = np.flatnonzero(np.abs(beta) > 1e-6 * np.max(np.abs(beta)))
        np.testing.assert_array_equal(support, [true_idx])

    def test_masked_objective_matches_ista(self, rng):
        b, mask, _ = sparse_instance(rng, 96, 14, 4)
        lam = 0.35
        beta, report = solve(b, mask, IpmConfig(lam=lam, tol=1e-8))
        assert report.converged
        ref, _ = ista_solve(b, mask, lam, tol=1e-11)
        obj = lasso_objective(beta, b, mask, lam)
        obj_ref = lasso_objective(ref, b, mask, lam)
        assert abs(obj - obj_ref) <= 1e-6 * abs(obj_ref)

    def test_duality_measure_and_interiority(self, rng):
        b, mask, _ = sparse_instance(rng, 64, 9, 3)
        lam = 0.4
        trail = []

        def watch(state, record):
            measure = state.duality_measure()
            central = min(np.min(state.s1 * state.nu1),
                          np.min(state.s2 * state.nu2)) >= 1e-4 * measure
            trail.append((measure, central, min(state.s1.min(), state.s2.min(),
                                                state.nu1.min(), state.nu2.min())))

        beta, report = solve(b, mask, IpmConfig(lam=lam, tol=1e-8), observer=watch)
        assert report.converged
        assert all(interior > 0 for _, _, interior in trail)
        # monotone decrease (slack 10) once the iterate is centered:
        # min s_i nu_i >= 1e-4 * duality measure
        started = False
        for (mu_a, central, _), (mu_b, _, _) in zip(trail, trail[1:]):
            started = started or central
            if started:
                assert mu_b <= 10.0 * mu_a
        assert trail[-1][0] < trail[0][0]

    def test_final_complementarity(self, rng):
        b, mask, _ = sparse_instance(rng, 64, 9, 3)
        beta, report = solve(b, mask, IpmConfig(lam=0.4, tol=1e-8))
        assert report.converged
        assert report.records[-1].complementarity <= 10 * 1e-8

    def test_default_penalty_recorded(self, rng):
        n = 32
        mask = empty_mask(n)
        b = rng.standard_normal(n)
        beta, report = solve(b, mask, IpmConfig(tol=1e-8))
        xi = analyze(b, mask.shape)
        assert report.lam == pytest.approx(0.1 * np.max(np.abs(xi)))

    def test_max_iters_returns_best_iterate(self, rng):
        b, mask, _ = sparse_instance(rng, 64, 9, 3)
        beta, report = solve(b, mask, IpmConfig(lam=0.4, tol=1e-8, max_iters=3))
        assert report.status == "max_iters"
        assert report.iterations == 3
        assert np.all(np.isfinite(beta))

    def test_krylov_bounded_on_synthetic(self, rng):
        """Per-system PCG stays modest on a 15%-missing 1D instance."""
        n = 1 << 14
        g = GridShape((n,))
        missing = np.flatnonzero(rng.random(n) < 0.15)
        mask = Mask(missing, g)
        beta_true = np.zeros(n)
        beta_true[rng.choice(n, 12, replace=False)] = 5.0 * rng.standard_normal(12)
        b = observe(beta_true, mask) + 0.1 * rng.standard_normal(mask.n_observed)
        beta, report = solve(b, mask, IpmConfig(tol=1e-8))
        assert report.converged
        assert max(report.krylov_counts) <= 300

    def test_report_fields(self, rng):
        b, mask, _ = sparse_instance(rng, 32, 4, 2)
        beta, report = solve(b, mask, IpmConfig(lam=0.5, tol=1e-8))
        assert report.iterations == len(report.records)
        assert report.total_krylov == sum(report.krylov_counts)
        for rec in report.records:
            assert rec.krylov_iters >= 0
            assert 0 < rec.alpha_primal <= 1 and 0 < rec.alpha_dual <= 1
        d = report.to_dict()
        assert d["status"] == "converged" and d["reason"] == ""
        assert d["total_krylov"] == report.total_krylov

    def test_observer_states_keep_their_mu(self, rng):
        """Observed states are not mutated when the barrier later drops."""
        b, mask, _ = sparse_instance(rng, 64, 9, 3)
        seen = []
        beta, report = solve(b, mask, IpmConfig(lam=0.4, tol=1e-8),
                             observer=lambda state, record: seen.append((state, record)))
        assert len(seen) == report.iterations
        assert len({record.mu for _, record in seen}) > 1
        for state, record in seen:
            assert state.mu == record.mu

    def test_observer_contract(self, rng):
        """Every observed state is an :class:`IpmState` of its own arrays,
        shared with no other observed state, and keeps the bytes it had in
        the observer after the solve returns."""
        b, mask, _ = sparse_instance(rng, 64, 9, 3)
        seen = []

        def watch(state, record):
            arrays = (state.s1, state.s2, state.nu1, state.nu2)
            seen.append((state, record, [a.tobytes() for a in arrays]))

        beta, report = solve(b, mask, IpmConfig(lam=0.4, tol=1e-8), observer=watch)
        assert report.converged and len(seen) == report.iterations > 3
        arrays = [(i, a) for i, (state, _, _) in enumerate(seen)
                  for a in (state.s1, state.s2, state.nu1, state.nu2)]
        for (i, a), (j, c) in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, c), (i, j)
        for state, record, at_call in seen:
            assert isinstance(state, IpmState)
            assert [a.tobytes() for a in (state.s1, state.s2, state.nu1, state.nu2)] == at_call
        np.testing.assert_array_equal(beta, seen[-1][0].beta)

    @pytest.mark.parametrize("n_missing", [9, 0])
    def test_observed_states_are_never_written(self, rng, n_missing):
        """The solver reuses its arrays, but never those it hands to observers."""
        b, mask, _ = sparse_instance(rng, 64, n_missing, 3)
        kept = []
        beta, report = solve(b, mask, IpmConfig(lam=0.4, tol=1e-8),
                             observer=lambda state, record: kept.append(
                                 (state, copy.deepcopy(state))))
        assert report.converged and len(kept) == report.iterations > 3
        for state, at_call in kept:
            for field in fields(IpmState):
                got, want = getattr(state, field.name), getattr(at_call, field.name)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field.name

    @pytest.mark.parametrize("error", [NumericalBreakdownError, StalledError])
    def test_inner_failure_returns_best_iterate(self, error, rng, monkeypatch):
        """A PCG failure or step collapse keeps the best iterate seen."""
        b, mask, _ = sparse_instance(rng, 64, 9, 3)
        monkeypatch.setattr(fftlasso.ipm, "newton_direction",
                            fail_on_call(3, error, fftlasso.ipm.newton_direction))
        seen = []
        beta, report = solve(b, mask, IpmConfig(lam=0.4, tol=1e-8),
                             observer=lambda state, record: seen.append((state, record)))
        assert report.status == "stalled" and not report.converged
        assert report.reason == "injected inner failure"
        assert report.iterations == len(seen) == 2
        best_state, best_record = min(seen, key=lambda pair: pair[1].kkt_max)
        np.testing.assert_array_equal(beta, best_state.beta)
        assert report.final_kkt == best_record.kkt_max
        assert report.final_mu == best_record.mu
        assert report.final_objective == lasso_objective(beta, b, mask, 0.4)

    def test_best_iterate_outlives_the_reuse_of_its_arrays(self, rng, monkeypatch):
        """When later iterates are worse, the first step's beta is returned,
        although the steps after it reuse that iterate's arrays."""
        b, mask, _ = sparse_instance(rng, 64, 9, 3)
        report = fftlasso.ipm._Workspace.report
        calls = []

        def worse_after_first_step(*args, **kw):
            conv = report(*args, **kw)
            calls.append(None)
            return conv if len(calls) <= 2 else replace(conv, max_residual=1e3)

        monkeypatch.setattr(fftlasso.ipm._Workspace, "report", worse_after_first_step)
        seen = []
        beta, report = solve(b, mask, IpmConfig(lam=0.4, tol=1e-8, max_iters=5),
                             observer=lambda state, record: seen.append((state, record)))
        assert report.status == "max_iters" and len(seen) == 5
        best_state, best_record = seen[0]
        np.testing.assert_array_equal(beta, best_state.beta)
        assert report.final_kkt == best_record.kkt_max < 1e3
        assert report.final_mu == best_record.mu

    def test_interior_violation_returns_best_iterate(self, monkeypatch):
        """A step that leaves the interior ends the solve as ``stalled`` with
        the best iterate seen: the failing step keeps the old slacks."""
        noisy, mask, _ = generate_synthetic(
            SyntheticSpec(dims=(8, 8, 8), noise_seed=42, missing_seed=43))
        b = noisy[~mask.missing_bool]
        exact = fftlasso.ipm.fraction_to_boundary
        calls = []

        def full_steps_from_the_third(*args):  # four ratios per step on one block
            calls.append(None)
            return exact(*args) if len(calls) <= 8 else 1.0

        monkeypatch.setattr(fftlasso.ipm, "fraction_to_boundary", full_steps_from_the_third)
        seen = []
        beta, report = solve(b, mask, observer=lambda state, record: seen.append((state, record)))
        assert report.status == "stalled"
        assert report.reason == "s1 must be strictly positive and finite"
        assert report.iterations == len(seen) == 2
        best_state, best_record = min(seen, key=lambda pair: pair[1].kkt_max)
        np.testing.assert_array_equal(beta, best_state.beta)
        assert report.final_kkt == best_record.kkt_max
        assert report.final_mu == best_record.mu
        assert report.final_objective == lasso_objective(beta, b, mask, report.lam)

    def test_seed_42_counters(self, monkeypatch):
        """The 32^3 solves (noise seed 42, missing seed 43) keep their IPM,
        per-step Krylov and transform counts: a change that keeps every
        iterate bit for bit keeps them too.  With 15% missing each Krylov
        step and the confirming Gram product make one transform pair, the
        data correlation one analysis and the objective one synthesis; with
        an empty mask, where ``G = I``, only the last two remain."""
        calls = {"synthesize": 0, "analyze": 0}

        def counting(name, fn):
            def counted(*args, **kw):
                calls[name] += 1
                return fn(*args, **kw)
            return counted

        for name in calls:
            monkeypatch.setattr(fftlasso.masking, name,
                                counting(name, getattr(fftlasso.masking, name)))
        for missing, krylov, transforms in [
                (0.15, [1, 5, 7, 9, 9, 9, 8, 8, 6, 6, 5, 5, 4, 3], 87), (0.0, [1] * 14, 1)]:
            noisy, mask, _ = generate_synthetic(SyntheticSpec(
                dims=(32, 32, 32), noise_seed=42, missing_fraction=missing, missing_seed=43))
            calls.update(synthesize=0, analyze=0)
            beta, report = solve(noisy[~mask.missing_bool], mask,
                                 IpmConfig(tol=1e-8, cg_tol=1e-12))
            assert report.converged and report.iterations == 14
            assert report.krylov_counts == krylov and report.total_krylov == sum(krylov)
            assert calls == {"synthesize": transforms, "analyze": transforms}

    def test_blas_thread_count_changes_no_count(self):
        """The BLAS thread count changes how PCG's inner products and the
        objective round, not the counts: the seed-42/43 32^3 solves,
        masked and unmasked, take the same IPM iterations and per-step
        Krylov counts in a process with one OpenBLAS thread as with two."""
        code = textwrap.dedent("""
            import json
            from fftlasso import IpmConfig, SyntheticSpec, generate_synthetic, solve
            runs = []
            for missing in (0.15, 0.0):
                noisy, mask, _ = generate_synthetic(SyntheticSpec(
                    dims=(32, 32, 32), noise_seed=42, missing_fraction=missing,
                    missing_seed=43))
                _, report = solve(noisy[~mask.missing_bool], mask,
                                  IpmConfig(tol=1e-8, cg_tol=1e-12))
                runs.append([report.status, report.iterations, report.krylov_counts])
            print(json.dumps(runs))
        """)
        src = str(Path(fftlasso.__file__).resolve().parent.parent)
        counts = [json.loads(subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
            check=True, env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        ).stdout) for threads in ("1", "2")]
        assert counts[0] == counts[1]
        assert [run[:2] for run in counts[0]] == [["converged", 14]] * 2

    def test_pcg_cap_stall_returns_first_iterate(self, monkeypatch):
        """PCG capped at one iteration converges at the first step of the 8^3
        solve (seeds 42/43) and not at the second, which ends the solve as
        ``stalled`` with the first iterate, bit for bit as the observer saw
        it.  (A tiny ``cg_tol`` cannot force the stall: the recursive
        residual underflows to zero first.)"""
        monkeypatch.setattr(fftlasso.pcg, "MAX_ITERS_CAP", 1)
        noisy, mask, _ = generate_synthetic(
            SyntheticSpec(dims=(8, 8, 8), noise_seed=42, missing_seed=43))
        seen = []
        beta, report = solve(noisy[~mask.missing_bool], mask,
                             observer=lambda state, record: seen.append(
                                 (state.beta.tobytes(), record)))
        assert report.status == "stalled" and report.iterations == len(seen) == 1
        assert re.fullmatch(r"PCG stalled at preconditioned residual \S+ after 1 iterations",
                            report.reason)
        assert beta.tobytes() == seen[0][0]
        assert report.final_kkt == seen[0][1].kkt_max

    @pytest.mark.parametrize("dims", [(8, 8, 8), (64,)], ids=["8^3", "1d-64"])
    def test_default_penalty_is_the_solve_penalty(self, dims):
        noisy, mask, _ = generate_synthetic(
            SyntheticSpec(dims=dims, noise_seed=42, missing_seed=43))
        b = noisy[~mask.missing_bool]
        assert mask.n_missing > 0
        lam = default_penalty(b, mask)
        assert np.float64(lam).tobytes() == np.float64(solve(b, mask)[1].lam).tobytes()

    def test_failure_on_first_step_returns_start(self, rng, monkeypatch):
        b, mask, _ = sparse_instance(rng, 64, 9, 3)
        monkeypatch.setattr(fftlasso.ipm, "newton_direction",
                            fail_on_call(1, StalledError, fftlasso.ipm.newton_direction))
        beta, report = solve(b, mask, IpmConfig(lam=0.4))
        assert report.status == "stalled" and report.iterations == 0
        assert np.all(beta == 0.0) and np.isfinite(report.final_kkt)


class _NanEmpty:
    """numpy as ``fftlasso.ipm`` sees it, with ``empty`` filled with NaN."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(*args, **kw):
        out = np.empty(*args, **kw)
        out.fill(np.nan)
        return out


def _roles_instance(dims, missing_fraction=0.15):
    noisy, mask, _ = generate_synthetic(SyntheticSpec(
        dims=dims, noise_seed=42, missing_fraction=missing_fraction, missing_seed=43))
    return noisy[~mask.missing_bool], mask


ROLE_GRIDS = pytest.mark.parametrize("dims,missing_fraction", [
    ((40, 40, 40), 0.15), ((32, 32, 32), 0.0), ((64, 64), 0.15), ((48,), 0.15)],
    ids=["40^3-ragged-tail", "32^3-empty-mask", "64^2", "1d-48"])


class TestWorkspaceRoles:
    """The workspace's rows hold the roles that ``ROLES`` gives them."""

    @ROLE_GRIDS
    def test_no_role_read_before_written(self, dims, missing_fraction, monkeypatch):
        """With every workspace row NaN when allocated, a solve gives the same
        beta and records (but ``wall_time``): no phase reads a row that an
        earlier phase has not written."""
        b, mask = _roles_instance(dims, missing_fraction)

        def solved():
            beta, report = solve(b, mask, IpmConfig(tol=1e-8))
            assert report.converged
            records = [{k: v for k, v in vars(rec).items() if k != "wall_time"}
                       for rec in report.records]
            return beta.tobytes(), records, report.final_kkt, report.final_objective

        plain = solved()
        monkeypatch.setattr(fftlasso.ipm, "np", _NanEmpty())
        assert solved() == plain

    @ROLE_GRIDS
    def test_live_roles_never_share_memory(self, dims, missing_fraction):
        """In every phase, before and after the step rotates the rows, the
        live roles and the scratch rows are disjoint.  (The Gram products'
        half spectra are lent by rows idle while they run.)"""
        _, mask = _roles_instance(dims, missing_fraction)
        n = mask.shape.n
        work = fftlasso.ipm._Workspace(np.zeros(n), 0.5, mask)
        state = initial_state(n, 0.5)
        for _ in range(2):
            for phase in ROLES:
                live = [(role, row) for role, row in work.roles(phase, state).items()
                        if row is not None]
                live += [(f"scratch{i}", row) for i, row in enumerate(work.blocks[0][1])]
                for (role_a, a), (role_b, b) in itertools.combinations(live, 2):
                    assert not np.shares_memory(a, b), (phase, role_a, role_b)
            steps = work.roles("step", state)
            state = work.rotate(state, [steps[f"d_{name}"] for name in ("s1", "s2", "nu1", "nu2")])
        if not mask.n_missing:  # G = I: no G d_beta to accumulate and no G p
            assert work.rows["image"] is None and work.rows["gram_p"] is None

    @pytest.mark.parametrize("dims,floats,lenders", [
        # 8 n-long rows and the 4 of the start, 2 of 2*64*33 floats that lend
        # half spectra, 7 scratch rows
        ((64, 64), 12 * 4096 + 2 * 4224 + 7 * 4096, ["product", "spare"]),
        # 7 n-long rows and the 4 of the start, 2 of 2*16*16*9 floats that
        # lend half spectra, 7 scratch rows
        ((16, 16, 16), 11 * 4096 + 2 * 4608 + 7 * 4096, ["product", "gram_p"]),
        # as 2d, with rows of 72 floats and lenders of 2*6*7 = 84 padded to 88
        ((6, 12), 12 * 72 + 2 * 88 + 7 * 72, ["product", "spare"]),
        # as 3d, with every row of 30 floats padded to 32
        ((30,), 11 * 32 + 2 * 32 + 7 * 32, ["product", "gram_p"]),
    ], ids=["2d", "3d", "2d-padded", "1d-padded"])
    def test_allocation_size(self, dims, floats, lenders):
        """On a masked grid the rows that lend a half spectrum are longer.
        On 2-D grids the packing passes end in the second half spectrum, so
        ``gram_p``, their output, is a plain row and a spare row lends it.
        Every row is padded to a multiple of 8 floats, and the block has 7
        more, to start on a 64-byte boundary."""
        _, mask = _roles_instance(dims)
        work = fftlasso.ipm._Workspace(np.zeros(mask.shape.n), 0.5, mask)
        assert work.rows["x"].base.size == floats + 7
        for name, row in work.rows.items():
            lends = [np.shares_memory(row, half) for half in work.spectra]
            assert lends == [name == lender for lender in lenders], name

    @pytest.mark.parametrize("missing_fraction", [0.15, 0.0], ids=["masked", "empty"])
    @pytest.mark.parametrize("dims", [(30,), (6, 12), (64, 64), (16, 16, 16)],
                             ids=["30", "6x12", "64^2", "16^3"])
    def test_hot_vectors_start_on_a_cache_line(self, dims, missing_fraction, monkeypatch):
        """Every row of the workspace, ``g`` and the start among them, the
        scratch rows of every block, both lent half spectra, ``xi`` as
        :func:`solve` builds it and the iterate's arrays before and after a
        rotation start on a 64-byte boundary, where numpy's three-operand
        ufuncs run at full speed; so do the blocks of a sweep."""
        b, mask = _roles_instance(dims, missing_fraction)
        iterate, data = fftlasso.ipm._iterate, []

        def spy(xi, *args):
            data.append(xi)
            return iterate(xi, *args)

        monkeypatch.setattr(fftlasso.ipm, "_iterate", spy)
        solve(b, mask)
        work = fftlasso.ipm._Workspace(data[0], 0.5, mask)
        vectors = {"xi": data[0], **{name: row for name, row in work.rows.items()
                                     if row is not None}}
        vectors.update((f"spectrum{i}", half) for i, half in enumerate(work.spectra or ()))
        vectors.update((f"block{k}/scratch{i}", row) for k, (_, scratch) in enumerate(work.blocks)
                       for i, row in enumerate(scratch))
        state = work.start
        for rotations in range(2):
            vectors.update((f"{name}@{rotations}", array) for name, array
                           in zip(("s1", "s2", "nu1", "nu2"), fftlasso.ipm._arrays(state)))
            steps = work.roles("step", state)
            state = work.rotate(state, [steps[f"d_{name}"] for name in ("s1", "s2", "nu1", "nu2")])
        offsets = {name: v.ctypes.data % 64 for name, v in vectors.items()}
        assert {name: offset for name, offset in offsets.items() if offset} == {}
        assert BLOCK % 8 == 0  # so a block of an aligned row starts aligned


def forbid_transforms(monkeypatch):
    def forbidden(*args, **kw):
        raise AssertionError("transform called")

    monkeypatch.setattr(fftlasso.masking, "synthesize", forbidden)
    monkeypatch.setattr(fftlasso.masking, "analyze", forbidden)


class TestSolveBoundary:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_samples(self, bad, monkeypatch):
        forbid_transforms(monkeypatch)
        b = np.ones(8)
        b[3] = bad
        with pytest.raises(ValueError, match="finite"):
            solve(b, empty_mask(8))

    def test_rejects_overflowing_squares(self, monkeypatch):
        """Finite samples whose squared norm overflows (8^3, seeds 42/43,
        times 1e200) are rejected before any transform, without a warning."""
        forbid_transforms(monkeypatch)
        noisy, mask, _ = generate_synthetic(
            SyntheticSpec(dims=(8, 8, 8), noise_seed=42, missing_seed=43))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="squared norm"):
                solve(noisy[~mask.missing_bool] * 1e200, mask)

    def test_rejects_complex_samples(self, monkeypatch):
        """A complex ``b`` is refused before any transform, not cast with a
        ``ComplexWarning`` that drops its imaginary part."""
        forbid_transforms(monkeypatch)
        b = np.ones(8, dtype=complex)
        b[2] = 1.0 + 2.0j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="real"):
                solve(b, empty_mask(8))

    @pytest.mark.parametrize("missing", [[], [1, 6]])
    def test_zero_samples_default_penalty(self, missing):
        mask = Mask(np.array(missing, dtype=np.int64), GridShape((8,)))
        beta, report = solve(np.zeros(mask.n_observed), mask)
        assert np.all(beta == 0.0) and beta.size == 8
        assert report.status == "converged"
        assert report.iterations == 0 and report.lam == 0.0 and report.wall_time > 0.0


def _bindings(fn, name):
    """Package modules that bind ``fn`` as ``name``."""
    return [module for module in list(sys.modules.values())
            if getattr(module, "__name__", "").startswith("fftlasso")
            and getattr(module, name, None) is fn]


def _owners(owner, name):
    """Where to replace ``owner.name``: the class itself, or every package
    module binding the module function."""
    return [owner] if isinstance(owner, type) else _bindings(getattr(owner, name), name)


def count_calls(monkeypatch, targets):
    """Count calls of each ``owner.name``, a module function or a method."""
    counts = {}
    for owner, name in targets:
        original = getattr(owner, name)
        counts[name] = 0

        def counted(*args, _fn=original, _name=name, **kw):
            counts[_name] += 1
            return _fn(*args, **kw)

        for other in _owners(owner, name):
            monkeypatch.setattr(other, name, counted)
    return counts


def without_transforms(monkeypatch, owner, name):
    """Make either transform fail while ``owner.name`` runs."""
    original = getattr(owner, name)

    def guarded(*args, **kw):
        with pytest.MonkeyPatch.context() as inner:
            for transform in ("synthesize", "analyze"):
                current = getattr(fftlasso.fourier, transform)
                for other in _bindings(current, transform):
                    inner.setattr(other, transform,
                                  fail_on_call(1, AssertionError, current))
            return original(*args, **kw)

    for other in _owners(owner, name):
        monkeypatch.setattr(other, name, guarded)


class TestEvaluationCounts:
    """Transforms run only inside PCG, plus a fixed few per solve."""

    @pytest.mark.parametrize("missing_fraction", [0.15, 0.0])
    def test_one_evaluation_per_iterate(self, missing_fraction, monkeypatch):
        spec = SyntheticSpec(dims=(16, 16, 16), noise_seed=5,
                             missing_fraction=missing_fraction, missing_seed=6)
        noisy, mask, _ = generate_synthetic(spec)
        b = noisy[~mask.missing_bool]
        counts = count_calls(monkeypatch, [
            (fftlasso.fourier, "synthesize"),
            (fftlasso.fourier, "analyze"),
            (fftlasso.ipm._Workspace, "evaluate"),
        ])
        without_transforms(monkeypatch, fftlasso.ipm._Workspace, "evaluate")
        states = []
        beta, report = solve(b, mask, IpmConfig(tol=1e-8),
                             observer=lambda state, record: states.append(state))
        assert report.converged and report.iterations > 3
        # analyze(b), one pair per Krylov iteration, the exact gram(beta) that
        # confirms convergence and the final objective's observe(beta); the
        # last two need no analyze and gram no transform when G = I
        budget = report.total_krylov + 2 if mask.n_missing else 1
        assert counts["synthesize"] <= budget
        assert counts["analyze"] <= budget
        # one evaluation per iterate, plus the exact one confirming convergence
        assert counts["evaluate"] == report.iterations + 2

        exact = report_at(states[-1], b, mask, report.lam, report.tol)
        assert exact.converged
        assert abs(report.final_kkt - exact.max_residual) <= 1e-14

    def test_carried_gram_tracks_exact_product(self, monkeypatch):
        """``g`` carried out of PCG stays at ``gram(beta)`` to rounding."""
        spec = SyntheticSpec(dims=(16, 16, 16), noise_seed=5, missing_seed=6)
        noisy, mask, _ = generate_synthetic(spec)
        evaluate = fftlasso.ipm._Workspace.evaluate
        drift = []

        def spy(work, state, **kw):
            state = evaluate(work, state, **kw)  # g then belongs to the new iterate
            drift.append(np.max(np.abs(work.rows["g"] - gram(state.beta, mask))))
            return state

        monkeypatch.setattr(fftlasso.ipm._Workspace, "evaluate", spy)
        beta, report = solve(noisy[~mask.missing_bool], mask, IpmConfig(tol=1e-8))
        assert report.converged and len(drift) == report.iterations + 2
        assert max(drift) <= 1e-11
        assert drift[-1] == 0.0  # convergence is confirmed on the exact product

    @pytest.mark.parametrize("missing_fraction", [0.15, 0.0])
    def test_one_operator_call_per_krylov_step(self, missing_fraction, monkeypatch):
        """PCG calls ``apply_kkt`` once per Krylov step, on length-n vectors
        only, and gets ``(S p, G p)`` back; with ``G = I``, ``G p`` is ``p``."""
        spec = SyntheticSpec(dims=(16, 16, 16), noise_seed=5,
                             missing_fraction=missing_fraction, missing_seed=6)
        noisy, mask, _ = generate_synthetic(spec)
        n = mask.shape.n
        calls = {"inside": 0, "outside": 0}
        shapes = set()
        aliased = set()
        inside = []
        solve_pcg = fftlasso.pcg.pcg_solve
        apply_kkt = fftlasso.newton_system.apply_kkt
        apply_prec = fftlasso.newton_system.apply_precond_inverse

        def pcg_spy(op, prec, rhs, *args, **kw):
            shapes.add(np.shape(rhs))
            inside.append(None)
            try:
                result = solve_pcg(op, prec, rhs, *args, **kw)
            finally:
                inside.pop()
            shapes.add(result.solution.shape)
            return result

        def kkt_spy(d_beta, *args, **kw):
            calls["inside" if inside else "outside"] += 1
            product, image = apply_kkt(d_beta, *args, **kw)
            shapes.update({np.shape(d_beta), product.shape, image.shape})
            aliased.add(image is d_beta)
            return product, image

        def prec_spy(r, *args, **kw):
            out = apply_prec(r, *args, **kw)
            shapes.update({np.shape(r), out.shape})
            return out

        for fn, spy, name in ((solve_pcg, pcg_spy, "pcg_solve"),
                              (apply_kkt, kkt_spy, "apply_kkt"),
                              (apply_prec, prec_spy, "apply_precond_inverse")):
            for module in _bindings(fn, name):
                monkeypatch.setattr(module, name, spy)
        beta, report = solve(noisy[~mask.missing_bool], mask, IpmConfig(tol=1e-8))
        assert report.converged and report.iterations > 3
        assert report.total_krylov > report.iterations or not mask.n_missing
        assert calls == {"inside": report.total_krylov, "outside": 0}
        assert shapes == {(n,)}
        assert aliased == {not mask.n_missing}


def peak_vectors_of_solve(spec: SyntheticSpec):
    """Converged status and tracemalloc peak, in n-long float64 arrays, of a solve."""
    noisy, mask, _ = generate_synthetic(spec)
    b = noisy[~mask.missing_bool]
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        beta, report = solve(b, mask, IpmConfig(tol=1e-8, cg_tol=1e-12))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return report.converged, peak / (8 * mask.shape.n)


class TestMemory:
    """Peaks of whole solves, in n-long float64 arrays.  Fourteen n-vectors
    persist on a masked grid: ``xi`` and, in the workspace's block, the
    iterate, ``g`` and eight more rows.  Four are PCG's fixed rows, its
    solution, its accumulated ``G d_beta``, its product and ``G p``; the other
    four, dead once PCG returns, take the next direction and so the next
    iterate, and the old iterate's arrays take their place.  With an empty mask
    ``G = I``: ``G d_beta`` is ``d_beta`` and no product forms ``G p``, so
    twelve persist.  Besides them come seven block-length scratch rows and
    numpy's buffers.  On a masked grid the Gram products in the Newton loop
    borrow their half spectra from the product and ``G p`` rows, the only two
    rows longer by ``2n/d_last`` floats so that one fits (on 2-D grids a spare
    row lends the second instead, and ``G p``'s is n long).  Only the
    transforms of ``b`` before the loop and of the objective after it
    allocate their own."""

    def test_peak_vectors_of_a_masked_solve(self):
        """A 32^3 masked solve never holds more than 19.9: 19.67 measured in
        a fresh process with two padded rows, 0.125 n-vectors at this size;
        19.81 with four, 21.67 when each transform allocated two."""
        converged, peak = peak_vectors_of_solve(
            SyntheticSpec(dims=(32, 32, 32), noise_seed=42, missing_seed=43))
        assert converged
        assert peak <= 19.9

    def test_peak_vectors_of_a_denoising_solve(self):
        """A 32^3 solve with an empty mask never holds more than 17.25: 17.05
        measured in a fresh process without the ``G p`` and ``G d_beta``
        rows; 19.05 with them, 22.04 before the O(n) phases ran over blocks."""
        converged, peak = peak_vectors_of_solve(
            SyntheticSpec(dims=(32, 32, 32), noise_seed=42, missing_fraction=0.0,
                          missing_seed=43))
        assert converged
        assert peak <= 17.25

    def test_peak_vectors_of_a_masked_64_solve(self):
        """A 64^3 masked solve never holds more than 16.2: 15.77 measured in
        a fresh process with two padded rows, 0.06 n-vectors at this size;
        15.82 with four, 17.76 when each transform allocated two, 24.32
        before the O(n) phases ran over blocks."""
        converged, peak = peak_vectors_of_solve(
            SyntheticSpec(dims=(64, 64, 64), noise_seed=42, missing_seed=43))
        assert converged
        assert peak <= 16.2

    def test_peak_vectors_of_a_denoising_64_solve(self):
        """A 64^3 solve with an empty mask never holds more than 13.55: 13.52
        measured in a fresh process without the ``G p`` and ``G d_beta``
        rows, 15.52 with them.  Its loop makes no transform, so its
        workspace lends none and pads no row."""
        converged, peak = peak_vectors_of_solve(
            SyntheticSpec(dims=(64, 64, 64), noise_seed=42, missing_fraction=0.0,
                          missing_seed=43))
        assert converged
        assert peak <= 13.55

    @pytest.mark.parametrize("dims,missing_fraction", [((48, 48, 48), 0.15), ((32, 32, 32), 0.0)],
                             ids=["masked-48^3", "empty-32^3"])
    def test_no_vector_allocated_besides_the_workspace(self, dims, missing_fraction, monkeypatch):
        """From the workspace's construction to ``_iterate``'s return a solve
        allocates less than one n-vector besides the workspace's block and
        one beta, the best iterate's or the returned one: the start and
        ``g`` are rows of the block, so no n-vector is freed, and
        page-faulted anew, from solve to solve.
        (The grids are large enough that numpy's ufunc buffers, up to
        393 KB in the packing passes, stay below one n-vector.)"""
        b, mask = _roles_instance(dims, missing_fraction)
        iterate, init = fftlasso.ipm._iterate, fftlasso.ipm._Workspace.__init__
        blocks, peaks = [], []

        def spy_init(self, *args):
            init(self, *args)
            blocks.append(self.rows["x"].base.nbytes)

        def spy(*args):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = iterate(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return result

        monkeypatch.setattr(fftlasso.ipm._Workspace, "__init__", spy_init)
        monkeypatch.setattr(fftlasso.ipm, "_iterate", spy)
        tracemalloc.start()
        try:
            beta, report = solve(b, mask, IpmConfig(tol=1e-8, cg_tol=1e-12))
        finally:
            tracemalloc.stop()
        assert report.converged
        assert peaks[0] - blocks[0] - beta.nbytes < beta.nbytes

    @pytest.mark.parametrize("dims", [(64,), (16, 16), (16, 16, 16)])
    def test_no_half_spectrum_allocated_by_public_steps(self, dims, monkeypatch):
        """``newton_direction`` and ``ipm_step`` make transforms only in PCG's
        products, and those borrow their half spectra from the workspace,
        whatever arrays the iterate is in: also at the second step through a
        workspace that did not hold the first iterate."""
        noisy, mask, _ = generate_synthetic(
            SyntheticSpec(dims=dims, noise_seed=42, missing_seed=43))
        b, lam = noisy[~mask.missing_bool], 0.05
        state = random_feasible_iterate(np.random.default_rng(0), mask.shape.n)
        xi, g = exact_data(state, b, mask)
        half_spectra = fftlasso.fourier._half_spectra
        lent = []

        def spy(shape, spectra=None):
            lent.append(spectra is not None)
            return half_spectra(shape, spectra)

        monkeypatch.setattr(fftlasso.fourier, "_half_spectra", spy)
        direction = newton_direction(state, evaluated(state, xi, g, lam, mask))
        first = evaluated(state, xi, g, lam, mask)
        state, step = ipm_step(state, first)
        krylov = [direction.krylov_iters, step.krylov_iters]
        work = evaluated(state, xi, first.rows["g"], lam, mask)
        for _ in range(2):
            state, step = ipm_step(state, work)
            krylov.append(step.krylov_iters)
        assert min(krylov) > 1
        assert lent == [True] * 2 * sum(krylov)  # a pair of transforms per product

    @pytest.mark.parametrize("dims", [(64,), (16, 16), (16, 16, 16)])
    def test_no_half_spectrum_allocated_in_the_newton_loop(self, dims, monkeypatch):
        """A masked solve allocates half spectra only for the transforms of
        ``b`` and of the final objective; every other transform borrows
        them from the workspace."""
        noisy, mask, _ = generate_synthetic(
            SyntheticSpec(dims=dims, noise_seed=42, missing_seed=43))
        half_spectra = fftlasso.fourier._half_spectra
        lent = []

        def spy(shape, spectra=None):
            lent.append(spectra is not None)
            return half_spectra(shape, spectra)

        monkeypatch.setattr(fftlasso.fourier, "_half_spectra", spy)
        beta, report = solve(noisy[~mask.missing_bool], mask, IpmConfig(tol=1e-8))
        assert report.converged
        assert lent.count(False) == 2
        assert lent.count(True) >= 2 * report.total_krylov
