"""Contiguous-hole masks: slabs and punched lattices, the data geometry of
diffuse scattering with its Bragg peaks removed.  Contiguous holes spread
the preconditioned spectrum far more than iid missing samples do."""

import numpy as np
import pytest

from fftlasso import GridShape, IpmConfig, SyntheticSpec, generate_synthetic, lasso_objective, solve
from fftlasso.diagnostics import ista_solve

from conftest import dense_observation_matrix, punched_lattice_mask, slab_mask

#: Criterion 7's budgets: IPM iterations, and Krylov iterations per step.
MAX_IPM, MAX_KRYLOV = 80, 300

#: (grid, mask builder) on grids small enough for the dense oracle and ISTA.
SMALL = [
    pytest.param((64,), lambda g: slab_mask(g, 0.5), id="1d-slab-50"),
    pytest.param((64,), lambda g: punched_lattice_mask(g, 2, 16), id="1d-punched"),
    pytest.param((16, 16), lambda g: slab_mask(g, 0.5, axis=1), id="2d-slab-50"),
    pytest.param((16, 16), lambda g: punched_lattice_mask(g, 2, 8), id="2d-punched"),
    pytest.param((8, 8, 8), lambda g: slab_mask(g, 0.5), id="3d-slab-50"),
    pytest.param((8, 8, 8), lambda g: punched_lattice_mask(g, 1, 4), id="3d-punched"),
]


def synthetic_with(dims, build):
    """The seed-42 synthetic signal on ``dims``, observed outside the mask."""
    shape = GridShape(dims)
    noisy, _, _ = generate_synthetic(SyntheticSpec(dims=dims, noise_seed=42, missing_seed=43))
    mask = build(shape)
    return noisy[~mask.missing_bool], mask


class TestBuilders:
    def test_slab(self):
        mask = slab_mask(GridShape((4, 6)), 0.5, axis=1)
        assert mask.missing_bool.reshape(4, 6)[:, :3].all()
        assert mask.n_missing == 12

    def test_punched_lattice(self):
        """Balls around every ``period``-th point, wrapping around the grid:
        at 32^3 with radius 5 and period 16, 12.6% of the samples."""
        mask = punched_lattice_mask(GridShape((16,)), 2, 8)
        np.testing.assert_array_equal(mask.missing, [0, 1, 2, 6, 7, 8, 9, 10, 14, 15])
        mask = punched_lattice_mask(GridShape((32, 32, 32)), 5, 16)
        assert mask.n_missing == 4120


@pytest.mark.parametrize("dims, build", SMALL)
def test_agrees_with_the_oracles(dims, build):
    """Within criterion 7's budgets the solve meets the LASSO optimality
    conditions of the dense observation matrix and matches ISTA's objective
    to criterion 3's tolerance."""
    b, mask = synthetic_with(dims, build)
    beta, report = solve(b, mask, IpmConfig(tol=1e-8))
    assert report.converged and report.iterations <= MAX_IPM
    assert max(report.krylov_counts) <= MAX_KRYLOV

    lam = report.lam
    a = dense_observation_matrix(mask)
    correlation = a.T @ (b - a @ beta)
    support = np.abs(beta) > 1e-6 * np.abs(beta).max()
    assert support.any()
    assert np.max(np.abs(correlation[support] - lam * np.sign(beta[support]))) <= 1e-6
    assert np.max(np.abs(correlation[~support])) <= lam + 1e-6

    ref, _ = ista_solve(b, mask, lam, tol=1e-10)
    obj, obj_ref = lasso_objective(beta, b, mask, lam), lasso_objective(ref, b, mask, lam)
    assert abs(obj - obj_ref) <= 1e-6 * abs(obj_ref)


def test_slab_half_counters():
    """The 32^3 solve with the first half of axis 0 missing (noise seed 42)
    keeps its noise-free IPM and per-step Krylov counts.  Its peak, 19, is
    more than twice the 9 of 15% iid missing samples."""
    b, mask = synthetic_with((32, 32, 32), lambda g: slab_mask(g, 0.5))
    beta, report = solve(b, mask, IpmConfig(tol=1e-8, cg_tol=1e-12))
    assert report.converged and report.iterations == 14
    assert report.krylov_counts == [1, 8, 11, 17, 18, 19, 18, 17, 16, 14, 12, 8, 6, 4]
    assert report.total_krylov == 169
