"""Diagnostics: dense assembly, support sets, spectrum probe, ISTA oracle."""

import itertools
from dataclasses import fields

import numpy as np
import pytest
import scipy.linalg

from fftlasso import (
    GridShape,
    IterationLimitError,
    Mask,
    analyze,
    lasso_objective,
    observe,
    solve,
    synthesize,
)
from fftlasso.diagnostics import (
    classify_support,
    dense_condensed_matrices,
    dense_gram_matrix,
    dense_synthesis_matrix,
    densify,
    ista_solve,
    preconditioned_spectrum,
    scaling_trajectory_check,
    soft_threshold,
)
from fftlasso.ipm import IpmConfig, initial_state

from conftest import random_feasible_iterate, sparse_instance


def empty_mask(n):
    return Mask(np.array([], dtype=np.int64), GridShape((n,)))


def collect_states(b, mask, config):
    states = []  # observers get copies, which the solver never writes
    beta, report = solve(b, mask, config, observer=lambda state, record: states.append(state))
    return beta, report, states


class TestDensify:
    def test_identity(self):
        np.testing.assert_array_equal(densify(lambda v: v, 5), np.eye(5))

    def test_synthesis_row_zero(self):
        g = GridShape((4,))
        a = densify(lambda v: synthesize(v, g), 4)
        np.testing.assert_allclose(a[0], 0.5 * np.array([1, 1, np.sqrt(2), 0]),
                                   atol=1e-12)

    def test_orthogonality_of_dense(self):
        g = GridShape((16,))
        a = dense_synthesis_matrix(g)
        np.testing.assert_allclose(a.T @ a, np.eye(16), atol=1e-12)

    def test_guard(self):
        with pytest.raises(ValueError):
            densify(lambda v: v, 5000)

    def test_synthesis_guard(self):
        with pytest.raises(ValueError, match="dense assembly guard: n 4098 > 4096"):
            dense_synthesis_matrix(GridShape((4098,)))

    def test_matches_matrix_free_on_unit_vectors(self, rng):
        from fftlasso import gram

        m = Mask(np.array([1, 4, 9]), GridShape((16,)))
        dense = dense_gram_matrix(m)
        for j in range(16):
            e = np.zeros(16)
            e[j] = 1.0
            np.testing.assert_allclose(gram(e, m), dense[:, j], atol=1e-12)


class TestClassifySupport:
    def test_zero_vector(self):
        c = classify_support(np.zeros(6))
        assert c.n_active == 0
        np.testing.assert_array_equal(c.zero, np.arange(6))

    def test_signs(self):
        c = classify_support(np.array([1.0, -1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(c.positive, [0])
        np.testing.assert_array_equal(c.negative, [1])
        np.testing.assert_array_equal(c.zero, [2, 3])

    def test_single_active_after_shrink(self, rng):
        xi = rng.standard_normal(32)
        top = np.argmax(np.abs(xi))
        lam = 0.999 * np.max(np.abs(xi))
        c = classify_support(soft_threshold(xi, lam))
        assert c.n_active == 1
        assert c.active[0] == top


class TestSpectrumProbe:
    def test_empty_mask_all_ones(self, rng):
        state = random_feasible_iterate(rng, 16)
        report = preconditioned_spectrum(state, empty_mask(16))
        np.testing.assert_allclose(report.eigenvalues, np.ones(32), atol=1e-10)
        assert report.unit_cluster_size == 32
        assert report.kappa_observed == pytest.approx(1.0)
        assert report.kappa_predicted >= 1.0

    def test_empty_support_predicts_one(self):
        """At ``beta = 0`` no entry is active and the predicted condition
        number is 1, on a masked grid too."""
        report = preconditioned_spectrum(initial_state(16, 0.5),
                                         Mask(np.array([3, 12]), GridShape((16,))))
        assert report.n_active == 0
        assert report.kappa_predicted == 1.0

    def test_near_convergence_cluster(self, rng):
        """Two-sparse solution: at most two eigenvalues leave the unit cluster."""
        n = 16
        g = GridShape((n,))
        mask = Mask(np.array([3, 12]), g)
        beta_true = np.zeros(n)
        beta_true[[2, 9]] = [1.5, -1.2]
        b = observe(beta_true, mask)
        beta, report, states = collect_states(b, mask, IpmConfig(lam=0.3, tol=1e-8))
        assert report.converged
        probe = preconditioned_spectrum(states[-1], mask)
        assert probe.duality_measure <= 1e-6
        assert probe.n_active == 2
        assert probe.unit_cluster_size >= 2 * n - 2
        dev = abs(probe.kappa_observed - probe.kappa_predicted)
        assert dev <= 0.2 * probe.kappa_predicted

    def test_matches_scipy_generalized_eigh(self):
        """Criterion 6's n = 48 trajectory: the Cholesky reduction agrees with
        LAPACK's ``dsygvd`` behind ``scipy.linalg.eigh(k, p)``.

        Both lose digits as P's condition number grows with 1/mu, to 6e8 at
        the last iterate.  There the two differed by at most 3.8e-8 relative
        in an eigenvalue and 2.2e-8 in kappa; the tolerance allows 5x that.
        """
        rng = np.random.default_rng(6000)
        b, mask, _ = sparse_instance(rng, 48, 7, 4, amplitude=(1.0, 2.0), noise=0.02)
        beta, report, states = collect_states(b, mask, IpmConfig(lam=0.4, tol=1e-8))
        assert report.converged and len(states) >= 5
        for state in states:
            probe = preconditioned_spectrum(state, mask)
            want = scipy.linalg.eigh(*dense_condensed_matrices(state, mask),
                                     eigvals_only=True)
            np.testing.assert_allclose(probe.eigenvalues, want, rtol=2e-7, atol=0)
            assert probe.kappa_observed == pytest.approx(want[-1] / want[0], rel=2e-7)

    def test_guard(self, rng):
        state = random_feasible_iterate(rng, 2048)
        with pytest.raises(ValueError):
            preconditioned_spectrum(state, empty_mask(2048))

    def test_report_serializable(self, rng):
        import json

        state = random_feasible_iterate(rng, 8)
        probe = preconditioned_spectrum(state, empty_mask(8))
        scaling = scaling_trajectory_check([state] * 5)
        for report, kind in ((probe, "spectrum"), (scaling, "scaling")):
            expected = {"record": kind}
            for f in fields(report):
                value = getattr(report, f.name)
                if isinstance(value, np.ndarray):
                    value = value.tolist()
                elif isinstance(value, tuple):
                    value = list(value)
                expected[f.name] = value
            assert json.loads(json.dumps(report.to_dict())) == expected
        assert len(probe.to_dict()["eigenvalues"]) == 16


class TestScalingTrajectory:
    def test_all_active_products_order_one(self, rng):
        """Empty mask, every coefficient surviving the shrink."""
        n = 16
        mask = empty_mask(n)
        xi = (1.2 + 0.8 * rng.random(n)) * np.sign(rng.standard_normal(n))
        b = synthesize(xi, mask.shape)
        # tight tolerance keeps the trailing window well inside the
        # asymptotic regime where the growth rates are meaningful
        lam = 0.8
        beta, report, states = collect_states(b, mask, IpmConfig(lam=lam, tol=1e-10))
        assert report.converged
        assert classify_support(beta).n_active == n
        scaling = scaling_trajectory_check(states)
        assert scaling.in_band
        lo, hi = scaling.sigma_product_active
        assert 1.0 / 50.0 <= lo and hi <= 50.0

    def test_all_zero_solution_grows_like_inverse_mu(self, rng):
        n = 16
        mask = empty_mask(n)
        xi = 0.4 * rng.standard_normal(n)
        b = synthesize(xi, mask.shape)
        lam = 2.0 * np.max(np.abs(xi))
        beta, report, states = collect_states(b, mask, IpmConfig(lam=lam, tol=1e-10))
        assert report.converged
        # beta is zero up to solver noise; the relative default threshold
        # would mark the noise as support, so classify with an absolute one
        support = classify_support(beta, threshold=1e-8)
        assert support.n_active == 0
        scaling = scaling_trajectory_check(states, support=support)
        assert scaling.in_band
        # both sigma diagonals scale like 1/mu on the zero class
        lo1, hi1 = scaling.sigma1_times_mu_zero
        lo2, hi2 = scaling.sigma2_times_mu_zero
        assert lo1 > 0 and lo2 > 0 and np.isfinite(hi1) and np.isfinite(hi2)

    def test_constant_trajectory_constant_ratios(self, rng):
        # identical states: the observed ranges do not depend on the length
        state = random_feasible_iterate(rng, 8)
        five = scaling_trajectory_check([state] * 5)
        two = scaling_trajectory_check([state] * 2)
        assert five.lambda1_times_mu == two.lambda1_times_mu
        assert five.sigma_product_active == two.sigma_product_active

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            scaling_trajectory_check([])


class TestIsta:
    def test_empty_mask_one_step_fixed_point(self, rng):
        n = 32
        mask = empty_mask(n)
        b = rng.standard_normal(n)
        xi = analyze(b, mask.shape)
        lam = 0.4
        beta, iters = ista_solve(b, mask, lam, tol=1e-12)
        np.testing.assert_allclose(beta, soft_threshold(xi, lam), atol=1e-12)
        assert iters <= 2  # lands on the fixed point immediately

    def test_zero_penalty_returns_correlation(self, rng):
        n = 16
        mask = empty_mask(n)
        b = rng.standard_normal(n)
        beta, _ = ista_solve(b, mask, lam=0.0, tol=1e-12)
        np.testing.assert_allclose(beta, analyze(b, mask.shape), atol=1e-11)

    def test_against_support_enumeration(self, rng):
        """Tiny masked problem vs. exhaustive optimal-support search."""
        n = 32
        g = GridShape((n,))
        mask = Mask(np.sort(rng.choice(n, 4, replace=False)), g)
        beta_true = np.zeros(n)
        beta_true[[5, 21]] = [2.0, -1.6]
        b = observe(beta_true, mask)
        lam = 0.25
        beta, _ = ista_solve(b, mask, lam, tol=1e-12)

        # dense observation matrix: columns indexed by coefficients
        m_cols = np.stack([observe(np.eye(n)[j], mask) for j in range(n)], axis=1)
        best = 0.5 * float(b @ b)  # empty support
        for size in (1, 2):
            for support in itertools.combinations(range(n), size):
                cols = m_cols[:, support]
                for signs in itertools.product((-1.0, 1.0), repeat=size):
                    sgn = np.array(signs)
                    try:
                        c = np.linalg.solve(cols.T @ cols, cols.T @ b - lam * sgn)
                    except np.linalg.LinAlgError:
                        continue
                    if np.any(np.sign(c) != sgn):
                        continue
                    obj = 0.5 * np.sum((b - cols @ c) ** 2) + lam * np.sum(np.abs(c))
                    best = min(best, obj)
        assert lasso_objective(beta, b, mask, lam) <= best + 1e-8

    def test_iteration_cap(self, rng):
        b, mask, _ = sparse_instance(rng, 32, 4, 2)
        with pytest.raises(IterationLimitError):
            ista_solve(b, mask, lam=0.3, tol=1e-14, max_iters=3)

    def test_dimension_guard(self):
        mask = empty_mask(8192)
        with pytest.raises(ValueError):
            ista_solve(np.zeros(8192), mask, lam=0.1)
