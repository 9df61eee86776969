"""Condensed KKT algebra against dense block-elimination oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fftlasso import GridShape, InteriorViolationError, Mask, analyze
from fftlasso.diagnostics import dense_gram_matrix, densify
from fftlasso.ipm import IpmState, _Workspace
from fftlasso.newton_system import apply_kkt, apply_precond_inverse, recover_eliminated

from conftest import (
    apply_kkt_pair,
    apply_precond_inverse_pair,
    barrier_diagonals,
    central_path_state,
    dense_augmented_system,
    exact_rhs,
    kkt_pair_operator,
    lambdas,
    newton_rhs,
    pcg_in_new_arrays,
    precond_pair_operator,
    random_feasible_iterate,
    recovered,
    same_bits,
    schur_complement,
    spread_iterate,
)


def empty_mask(n):
    return Mask(np.array([], dtype=np.int64), GridShape((n,)))


def scalar_diag(s1, s2, nu1, nu2, n=1):
    e = np.ones(n)
    return barrier_diagonals(s1 * e, s2 * e, nu1 * e, nu2 * e)


class TestBarrierDiagonals:
    """The formula helpers over whole vectors, through the test reference."""

    def test_unit_case(self):
        d = scalar_diag(1.0, 1.0, 1.0, 1.0, n=4)
        np.testing.assert_array_equal(d.sigma1, np.ones(4))
        lambda1, lambda2 = lambdas(d)
        np.testing.assert_array_equal(lambda1, 2 * np.ones(4))
        np.testing.assert_array_equal(lambda2, np.zeros(4))

    def test_scalar_case(self):
        d = scalar_diag(2.0, 1.0, 1.0, 3.0)
        assert d.sigma1[0] == 0.5 and d.sigma2[0] == 3.0
        assert [v[0] for v in lambdas(d)] == [3.5, -2.5]
        # Delta = 4 sigma1 sigma2 / (sigma1 + sigma2) = lambda1 - lambda2^2 / lambda1
        assert d.delta[0] == pytest.approx(3.5 - 2.5**2 / 3.5)
        assert d.precond[0] == pytest.approx(1.0 / (1.0 + 6.0 / 3.5))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf,
                                     pytest.param(None, id="empty")])
    def test_interior_violation(self, bad):
        """Each of s1, s2, nu1, nu2 is checked, and named when it fails."""
        for position, name in enumerate(("s1", "s2", "nu1", "nu2")):
            args = [np.ones(3) for _ in range(4)]
            if bad is None:
                args[position] = np.ones(0)
            else:
                args[position][1] = bad
            with pytest.raises(InteriorViolationError, match=name):
                barrier_diagonals(*args)

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 2**31), n=st.integers(1, 32))
    def test_invariants_random(self, seed, n):
        r = np.random.default_rng(seed)
        d = barrier_diagonals(*(r.random(n) * 10 + 1e-3 for _ in range(4)))
        assert np.all(d.sigma1 > 0) and np.all(d.sigma2 > 0)
        np.testing.assert_allclose(d.omega1 + d.omega2, 1.0, rtol=1e-15)
        # no coefficient exceeds the smaller diagonal: nothing of size 1/mu cancels
        assert np.all(d.delta <= 4.0 * np.minimum(d.sigma1, d.sigma2) * (1 + 1e-15))
        assert np.all(d.precond > 0) and np.all(d.precond <= 1)


class TestNewtonRhs:
    def test_zero_at_barrier_solution(self, rng):
        """All residuals vanish at the exact central-path point."""
        n = 16
        mask = empty_mask(n)
        b = rng.standard_normal(n)
        lam, mu = 0.7, 1e-3
        state = central_path_state(analyze(b, mask.shape), lam, mu)
        rhs = exact_rhs(state, b, mask, lam)
        for block in (rhs.r1, rhs.r2, rhs.r3, rhs.r4):
            assert np.max(np.abs(block)) <= 1e-10

    def test_initial_point_residuals(self, rng):
        """Only the data-correlation block is nonzero at the cold start."""
        from fftlasso.ipm import initial_state

        n = 8
        mask = empty_mask(n)
        b = rng.standard_normal(n)
        lam = 0.5
        rhs = exact_rhs(initial_state(n, lam), b, mask, lam)
        np.testing.assert_allclose(rhs.r1, analyze(b, mask.shape), atol=1e-13)
        for block in (rhs.r2, rhs.r3, rhs.r4):
            assert np.max(np.abs(block)) == 0.0

    def test_condensed_rhs_identities(self, rng):
        n = 8
        mask = Mask(np.array([1, 6]), GridShape((n,)))
        state = random_feasible_iterate(rng, n)
        b = rng.standard_normal(mask.n_observed)
        rhs = exact_rhs(state, b, mask, 0.4)
        d = barrier_diagonals(state.s1, state.s2, state.nu1, state.nu2)
        lambda1, lambda2 = lambdas(d)
        r_beta = rhs.r1 - rhs.r3 + rhs.r4  # the slack residuals r5, r6 are zero
        r_c = rhs.r2 - rhs.r3 - rhs.r4
        np.testing.assert_allclose(rhs.rho, r_beta - lambda2 / lambda1 * r_c, atol=1e-13)
        np.testing.assert_allclose(d.delta, lambda1 - lambda2**2 / lambda1, atol=1e-13)

    def test_condensed_rhs_matches_dense_elimination(self, rng):
        """Schur complements of the dense 6-block system onto beta, and onto (beta, z)."""
        n = 8
        mask = Mask(np.array([2, 5]), GridShape((n,)))
        state = random_feasible_iterate(rng, n)
        b = rng.standard_normal(mask.n_observed)
        rhs = exact_rhs(state, b, mask, 0.4)
        d = barrier_diagonals(state.s1, state.s2, state.nu1, state.nu2)
        m6 = dense_augmented_system(state, mask)
        zero = np.zeros(n)  # the slack equations hold on the solver's domain
        stacked = np.concatenate([rhs.r1, rhs.r2, rhs.r3, rhs.r4, zero, zero])

        def schur(k):
            a11, a12 = m6[:k, :k], m6[:k, k:]
            a21, a22 = m6[k:, :k], m6[k:, k:]
            return (a11 - a12 @ np.linalg.solve(a22, a21),
                    stacked[:k] - a12 @ np.linalg.solve(a22, stacked[k:]))

        s_dense, rho_dense = schur(n)
        np.testing.assert_allclose(rhs.rho, rho_dense, atol=1e-11)
        s_fast = densify(lambda v: apply_kkt(v, d.delta, mask)[0], n)
        assert np.max(np.abs(s_dense - s_fast)) <= 1e-11
        # the 2x2 condensed operator is the complement onto (beta, z)
        k_cond, _ = schur(2 * n)
        k_fast = densify(kkt_pair_operator(d, mask), 2 * n)
        assert np.max(np.abs(k_cond - k_fast)) <= 1e-11


def lifted(p, d):
    """The 2x2 direction ``(p, -Lam1^{-1} Lam2 p)`` that PCG on the Schur
    complement stands for, stacked."""
    lambda1, lambda2 = lambdas(d)
    return np.concatenate([p, -lambda2 / lambda1 * p])


class TestApplyKkt:
    """The 2x2 reference against dense ``K``, and the solver's Schur form
    against the reference on the directions PCG takes."""

    def test_unit_diagonals_empty_mask(self, rng):
        n = 8
        d = scalar_diag(1.0, 1.0, 1.0, 1.0, n)  # lambda1 = 2, lambda2 = 0, delta = 2
        db, dz = rng.standard_normal(n), rng.standard_normal(n)
        top, bottom = apply_kkt_pair(db, dz, d, empty_mask(n))
        np.testing.assert_allclose(top, 3 * db, atol=1e-13)
        np.testing.assert_allclose(bottom, 2 * dz, atol=1e-13)
        product, image = apply_kkt(db, d.delta, empty_mask(n))
        assert image is db
        np.testing.assert_allclose(product, 3 * db, atol=1e-13)

    def test_dense_equivalence(self, rng):
        n = 8
        mask = Mask(np.sort(rng.choice(n, 2, replace=False)), GridShape((n,)))
        st8 = random_feasible_iterate(rng, n)
        d = barrier_diagonals(st8.s1, st8.s2, st8.nu1, st8.nu2)
        lambda1, lambda2 = np.diag(lambdas(d)[0]), np.diag(lambdas(d)[1])
        dense = np.block([[dense_gram_matrix(mask) + lambda1, lambda2], [lambda2, lambda1]])
        fast = densify(kkt_pair_operator(d, mask), 2 * n)
        assert np.max(np.abs(dense - fast)) <= 1e-12
        schur = densify(lambda v: apply_kkt(v, d.delta, mask)[0], n)
        assert np.max(np.abs(dense_gram_matrix(mask) + np.diag(d.delta) - schur)) <= 1e-12
        for _ in range(3):  # on the lifted directions K acts on the first block as S
            p = rng.standard_normal(n)
            top, bottom = np.split(kkt_pair_operator(d, mask)(lifted(p, d)), 2)
            np.testing.assert_allclose(top, apply_kkt(p, d.delta, mask)[0], atol=1e-12)
            assert np.max(np.abs(bottom)) <= 1e-12

    def test_symmetry_and_positivity(self, rng):
        n = 16
        mask = Mask(np.array([3, 9, 10]), GridShape((n,)))
        st16 = random_feasible_iterate(rng, n)
        d = barrier_diagonals(st16.s1, st16.s2, st16.nu1, st16.nu2)
        op = kkt_pair_operator(d, mask)

        for _ in range(5):
            u, w = rng.standard_normal(2 * n), rng.standard_normal(2 * n)
            lhs, rhs_ = op(u) @ w, u @ op(w)
            assert abs(lhs - rhs_) <= 1e-12 * max(1.0, abs(lhs))
            assert u @ op(u) > 0.0
            p, q = u[:n], w[:n]  # and so is the Schur complement
            lhs, rhs_ = apply_kkt(p, d.delta, mask)[0] @ q, p @ apply_kkt(q, d.delta, mask)[0]
            assert abs(lhs - rhs_) <= 1e-12 * max(1.0, abs(lhs))
            assert p @ apply_kkt(p, d.delta, mask)[0] > 0.0


class TestPreconditioner:
    def test_diagonal_case(self):
        d = scalar_diag(1.0, 1.0, 1.0, 1.0, 4)  # P = diag(3, 2) blocks, I + Delta = 3
        rb, rc = np.ones(4), np.ones(4)
        top, bottom = apply_precond_inverse_pair(rb, rc, d)
        np.testing.assert_allclose(top, np.full(4, 1 / 3), atol=1e-14)
        np.testing.assert_allclose(bottom, np.full(4, 1 / 2), atol=1e-14)
        np.testing.assert_allclose(apply_precond_inverse(rb, d.precond), np.full(4, 1 / 3),
                                   atol=1e-14)

    def test_scalar_case_inverse(self):
        d = scalar_diag(2.0, 1.0, 1.0, 3.0)  # sigma = (0.5, 3), D = 9.5
        p = np.array([[4.5, -2.5], [-2.5, 3.5]])
        p_inv = np.column_stack([apply_precond_inverse_pair(np.ones(1), np.zeros(1), d)[:, 0],
                                 apply_precond_inverse_pair(np.zeros(1), np.ones(1), d)[:, 0]])
        np.testing.assert_allclose(p_inv, np.array([[3.5, 2.5], [2.5, 4.5]]) / 9.5,
                                   atol=1e-14)
        np.testing.assert_allclose(p @ p_inv, np.eye(2), atol=1e-13)

    def test_dense_inverse(self, rng):
        n = 16
        st16 = random_feasible_iterate(rng, n)
        d = barrier_diagonals(st16.s1, st16.s2, st16.nu1, st16.nu2)
        lambda1, lambda2 = np.diag(lambdas(d)[0]), np.diag(lambdas(d)[1])
        p = np.block([[np.eye(n) + lambda1, lambda2], [lambda2, lambda1]])
        fast = densify(precond_pair_operator(d), 2 * n)
        assert np.max(np.abs(np.linalg.inv(p) - fast)) <= 1e-12
        # the Schur form inverts the complement I + Delta of P onto beta
        schur = densify(lambda v: apply_precond_inverse(v, d.precond), n)
        assert np.max(np.abs(np.linalg.inv(schur_complement(p)) - schur)) <= 1e-12
        for _ in range(3):
            u = rng.standard_normal(2 * n)
            assert u @ (p @ u) > 0.0


class TestPreconditionedOperator:
    def test_empty_mask_identity(self, rng):
        n = 8
        st8 = random_feasible_iterate(rng, n)
        d = barrier_diagonals(st8.s1, st8.s2, st8.nu1, st8.nu2)
        v = rng.standard_normal(2 * n)
        out = apply_precond_inverse_pair(*apply_kkt_pair(v[:n], v[n:], d, empty_mask(n)), d)
        np.testing.assert_allclose(np.concatenate(out), v, atol=1e-12)
        schur = apply_precond_inverse(apply_kkt(v[:n], d.delta, empty_mask(n))[0], d.precond)
        np.testing.assert_allclose(schur, v[:n], atol=1e-12)

    def test_block_triangular_form(self, rng):
        n = 8
        mask = Mask(np.array([0, 4, 7]), GridShape((n,)))
        st8 = random_feasible_iterate(rng, n)
        d = barrier_diagonals(st8.s1, st8.s2, st8.nu1, st8.nu2)
        dense = densify(lambda v: precond_pair_operator(d)(kkt_pair_operator(d, mask)(v)), 2 * n)
        g = dense_gram_matrix(mask)
        lambda1, lambda2 = lambdas(d)
        det = lambda1 * (1 + lambda1) - lambda2**2  # of P's 2x2 blocks
        expect_11 = np.eye(n) + np.diag(lambda1 / det) @ (g - np.eye(n))
        expect_21 = -np.diag(lambda2 / det) @ (g - np.eye(n))
        np.testing.assert_allclose(dense[:n, :n], expect_11, atol=1e-12)
        np.testing.assert_allclose(dense[n:, :n], expect_21, atol=1e-12)
        assert np.max(np.abs(dense[:n, n:])) <= 1e-12  # (1,2) block vanishes
        np.testing.assert_allclose(dense[n:, n:], np.eye(n), atol=1e-12)

    def test_spectrum_real_positive(self, rng):
        n = 16
        mask = Mask(np.sort(rng.choice(n, 3, replace=False)), GridShape((n,)))
        st16 = random_feasible_iterate(rng, n)
        d = barrier_diagonals(st16.s1, st16.s2, st16.nu1, st16.nu2)
        dense = densify(lambda v: precond_pair_operator(d)(kkt_pair_operator(d, mask)(v)), 2 * n)
        eigs = np.linalg.eigvals(dense)
        assert np.max(np.abs(eigs.imag)) <= 1e-10
        assert np.min(eigs.real) > 0.0


class TestRecoverEliminated:
    def test_zero_rhs(self, rng):
        n = 8
        st8 = random_feasible_iterate(rng, n)
        zero = np.zeros(n)
        d = barrier_diagonals(st8.s1, st8.s2, st8.nu1, st8.nu2)
        out = [np.full(n, np.nan) for _ in range(4)]
        for block in recover_eliminated(zero, zero, zero, zero, d.sigma1, d.sigma2, d.omega1,
                                        d.omega2, out):
            assert np.all(block == 0.0)

    def test_matches_dense_six_block_solve(self, rng):
        n = 4
        mask = Mask(np.array([1]), GridShape((n,)))
        st4 = random_feasible_iterate(rng, n)
        b = rng.standard_normal(mask.n_observed)
        lam = 0.6
        rhs = exact_rhs(st4, b, mask, lam)
        d = barrier_diagonals(st4.s1, st4.s2, st4.nu1, st4.nu2)

        res = pcg_in_new_arrays(lambda v: apply_kkt(v, d.delta, mask)[0],
                                lambda v: apply_precond_inverse(v, d.precond), rhs.rho, 1e-13)
        d_s1, d_s2, d_nu1, d_nu2 = recovered(res.solution, rhs)

        m6 = dense_augmented_system(st4, mask)
        zero = np.zeros(n)  # the slack equations hold on the solver's domain
        stacked = np.concatenate([rhs.r1, rhs.r2, rhs.r3, rhs.r4, zero, zero])
        dense = np.linalg.solve(m6, stacked)
        # the six-block system carries slacks with the flipped sign; d_y = d_nu
        mine = np.concatenate([res.solution, (d_s1 + d_s2) / 2, -d_s1, -d_s2,
                               d_nu1, d_nu2])
        assert np.max(np.abs(mine - dense)) <= 1e-8

    def test_multiplier_rows_consistency(self, rng):
        """Recovered multipliers satisfy the eliminated 4-block rows."""
        n = 8
        mask = Mask(np.array([2, 3]), GridShape((n,)))
        st8 = random_feasible_iterate(rng, n)
        b = rng.standard_normal(mask.n_observed)
        rhs = exact_rhs(st8, b, mask, 0.4)
        d = barrier_diagonals(st8.s1, st8.s2, st8.nu1, st8.nu2)
        db = rng.standard_normal(n)
        d_s1, d_s2, d_nu1, d_nu2 = recovered(db, rhs)
        dz = (d_s1 + d_s2) / 2  # with d_y = d_nu and r5 = r6 = 0
        np.testing.assert_allclose(
            -db - dz - d_nu1 / d.sigma1, rhs.r3 / d.sigma1, atol=1e-12
        )
        np.testing.assert_allclose(
            db - dz - d_nu2 / d.sigma2, rhs.r4 / d.sigma2, atol=1e-12
        )
        # d_z satisfies the second condensed row for any d_beta
        r_c = rhs.r2 - rhs.r3 - rhs.r4
        lambda1, lambda2 = lambdas(d)
        np.testing.assert_allclose(lambda2 * db + lambda1 * dz, r_c, atol=1e-12)


class TestInPlaceKernels:
    """The kernels writing into given arrays round as the plain expressions do."""

    @pytest.mark.parametrize("seed", range(4))
    def test_evaluation_and_condensation(self, seed):
        rng = np.random.default_rng(seed)
        n, lam = 4096, 0.5
        state = spread_iterate(rng, n, mu=1e-3)
        xi, g = rng.standard_normal(n), rng.standard_normal(n)
        s1, s2, nu1, nu2, mu = state.s1, state.s2, state.nu1, state.nu2, state.mu
        sigma1, sigma2 = nu1 / s1, nu2 / s2
        lambda1 = sigma1 + sigma2
        omega1, omega2 = sigma1 / lambda1, sigma2 / lambda1
        delta = 4.0 * sigma1 * omega2
        expect_diag = (sigma1, sigma2, omega1, omega2, delta, 1.0 / (1.0 + delta))
        r1, r2 = xi - g + nu1 - nu2, nu1 + nu2 - lam
        r3, r4 = nu1 - mu / s1, nu2 - mu / s2
        rho = r1 + omega1 * (2.0 * r4 - r2) + omega2 * (r2 - 2.0 * r3)

        rhs = newton_rhs(state, xi, g, lam)
        for got, want in zip((rhs.r1, rhs.r2, rhs.r3, rhs.r4, rhs.rho),
                             (r1, r2, r3, r4, rho)):
            assert same_bits(got, want)
        for got, want in zip(vars(rhs.diag).values(), expect_diag):
            assert same_bits(got, want)

    @pytest.mark.parametrize("missing", [[], [1, 6, 7, 30]])
    def test_schur_product_into_given_vectors(self, rng, missing):
        mask = Mask(np.array(missing, dtype=np.int64), GridShape((8, 4)))
        state = spread_iterate(rng, 32, mu=1e-3)
        d = barrier_diagonals(state.s1, state.s2, state.nu1, state.nu2)
        d_beta = rng.standard_normal(32)
        product, image = np.full(32, np.nan), np.full(32, np.nan)
        got = apply_kkt(d_beta, d.delta, mask, out=product, gram_out=image)
        assert got[0] is product and got[1] is image
        for a, b in zip(got, apply_kkt(d_beta, d.delta, mask)):
            assert same_bits(a, b)

    def test_condensation_at_a_new_barrier(self, rng):
        """Condensing an evaluation at another barrier gives that barrier's
        ``rho``: the evaluation's rows do not depend on ``mu``."""
        n = 512
        state = spread_iterate(rng, n, mu=1e-2)
        xi, g = rng.standard_normal(n), rng.standard_normal(n)
        work = _Workspace(xi, 0.5, empty_mask(n))
        work.rows["g"][:] = g
        work.evaluate(state)
        work.condense(state)
        lower = IpmState(state.s1, state.s2, state.nu1, state.nu2, mu=1e-5)
        work.condense(lower)
        assert same_bits(work.roles("condense", lower)["rho"], newton_rhs(lower, xi, g, 0.5).rho)

    @pytest.mark.parametrize("seed", range(4))
    def test_recovery(self, seed):
        rng = np.random.default_rng(seed)
        n = 4096
        state = spread_iterate(rng, n, mu=1e-3)
        rhs = newton_rhs(state, rng.standard_normal(n), rng.standard_normal(n), 0.5)
        d_beta = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
        keep = d_beta.copy()
        d = rhs.diag
        c = (rhs.r2 - rhs.r3 - rhs.r4) / lambdas(d)[0]
        d_s1 = c + 2.0 * d.omega2 * d_beta
        d_s2 = c - 2.0 * d.omega1 * d_beta
        expect = (d_s1, d_s2, -d.sigma1 * d_s1 - rhs.r3, -d.sigma2 * d_s2 - rhs.r4)
        out = [np.full(n, np.nan) for _ in range(4)]
        sol = recover_eliminated(d_beta, rhs.r2, rhs.r3, rhs.r4, d.sigma1, d.sigma2, d.omega1,
                                 d.omega2, out)
        assert len(sol) == 4 and all(a is b for a, b in zip(out, sol))
        for got, want in zip(sol, expect):
            assert same_bits(got, want)
        assert same_bits(d_beta, keep)
