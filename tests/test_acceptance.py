"""Acceptance suite: one test per gate, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.
"""

import json
import time

import numpy as np

from fftlasso import (
    GridShape,
    Mask,
    SyntheticSpec,
    analyze,
    generate_synthetic,
    lasso_objective,
    observe,
    observe_adjoint,
    solve,
    synthesize,
)
from fftlasso.cli import EXIT_OK, main
from fftlasso.diagnostics import (
    dense_condensed_matrices,
    dense_synthesis_matrix,
    densify,
    ista_solve,
    preconditioned_spectrum,
    soft_threshold,
)
from fftlasso.ipm import IpmConfig
from fftlasso.newton_system import apply_kkt, apply_precond_inverse

from conftest import (
    barrier_diagonals,
    kkt_pair_operator,
    penalty_at_widest_gap,
    precond_pair_operator,
    random_feasible_iterate,
    schur_complement,
    sparse_instance,
)


def report_pass(number, text):
    print(f"\n[acceptance] criterion {number}: PASS - {text}")


def empty_mask(n):
    return Mask(np.array([], dtype=np.int64), GridShape((n,)))


def test_criterion_1_operator_correctness():
    """Dense-oracle equivalence of every operator; orthogonality at scale.

    The condensed operator and its preconditioner are checked in the 2x2
    form (the test references) against dense ``K`` and ``P``, and in the
    Schur form the solver runs against their dense complements onto beta,
    ``S = G + Delta`` and ``I + Delta``."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for dims in [(32,), (4, 4, 4)]:
        g = GridShape(dims)
        n = g.n
        a = dense_synthesis_matrix(g)
        worst = max(worst, np.max(np.abs(a - densify(lambda v: synthesize(v, g), n))))
        worst = max(worst, np.max(np.abs(a.T - densify(lambda v: analyze(v, g), n))))

        mask = Mask(np.sort(rng.choice(n, max(2, n // 8), replace=False)), g)
        keep = ~mask.missing_bool
        obs = np.stack([observe(e, mask) for e in np.eye(n)], axis=1)
        adj = np.stack(
            [observe_adjoint(e, mask) for e in np.eye(mask.n_observed)], axis=1
        )
        worst = max(worst, np.max(np.abs(a[keep] - obs)))
        worst = max(worst, np.max(np.abs(a[keep].T - adj)))

        state = random_feasible_iterate(rng, n)
        d = barrier_diagonals(state.s1, state.s2, state.nu1, state.nu2)
        k_dense, p_dense = dense_condensed_matrices(state, mask)
        k_fast = densify(kkt_pair_operator(d, mask), 2 * n)
        pinv_fast = densify(precond_pair_operator(d), 2 * n)
        worst = max(worst, np.max(np.abs(k_dense - k_fast)))
        worst = max(worst, np.max(np.abs(np.linalg.inv(p_dense) - pinv_fast)))
        worst = max(worst, np.max(np.abs(p_dense @ pinv_fast - np.eye(2 * n))))
        s_fast = densify(lambda v: apply_kkt(v, d.delta, mask)[0], n)
        ps_inv_fast = densify(lambda v: apply_precond_inverse(v, d.precond), n)
        ps_dense = schur_complement(p_dense)
        worst = max(worst, np.max(np.abs(schur_complement(k_dense) - s_fast)))
        worst = max(worst, np.max(np.abs(np.linalg.inv(ps_dense) - ps_inv_fast)))
        worst = max(worst, np.max(np.abs(ps_dense @ ps_inv_fast - np.eye(n))))
    assert worst <= 1e-10

    ortho_worst = 0.0
    for dims in [(1 << 20,), (32, 32, 32)]:
        g = GridShape(dims)
        beta = rng.standard_normal(g.n)
        err = np.max(np.abs(analyze(synthesize(beta, g), g) - beta))
        ortho_worst = max(ortho_worst, err / np.max(np.abs(beta)))
    assert ortho_worst <= 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report_pass(1, f"operator dense equivalence {worst:.1e} <= 1e-10, "
                   f"orthogonality {ortho_worst:.1e} <= 1e-12, {elapsed:.1f}s")


def test_criterion_2_closed_form_lasso():
    """Empty-mask solutions match the soft threshold elementwise."""
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(2000 + i)
        n = 64 if i % 2 == 0 else 256
        g = GridShape((n,))
        b = rng.standard_normal(n)
        xi = analyze(b, g)
        lam, margin = penalty_at_widest_gap(xi)
        assert margin > 1e-3  # strict-complementarity margin by construction
        beta, report = solve(b, empty_mask(n), IpmConfig(lam=lam, tol=1e-8))
        assert report.converged
        worst = max(worst, np.max(np.abs(beta - soft_threshold(xi, lam))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed < 60.0
    report_pass(2, f"20 instances, worst elementwise error {worst:.2e} <= 1e-6, "
                   f"{elapsed:.1f}s")


def test_criterion_3_masked_oracle_agreement():
    """Masked objectives agree with the first-order reference solver."""
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(3000 + i)
        n = 64 if i % 2 == 0 else 128
        b, mask, _ = sparse_instance(rng, n, int(round(0.15 * n)),
                                     max(2, n // 24), amplitude=(1.0, 2.5),
                                     noise=0.05)
        lam = 0.3
        beta, report = solve(b, mask, IpmConfig(lam=lam, tol=1e-8))
        assert report.converged
        ref, _ = ista_solve(b, mask, lam, tol=1e-10)
        obj = lasso_objective(beta, b, mask, lam)
        obj_ref = lasso_objective(ref, b, mask, lam)
        worst = max(worst, abs(obj - obj_ref) / abs(obj_ref))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed < 300.0
    report_pass(3, f"20 masked instances, worst objective deviation {worst:.2e} "
                   f"<= 1e-6, {elapsed:.1f}s")


def test_criterion_4_preconditioner_identity():
    """No missing data: every condensed solve finishes in <= 2 PCG steps."""
    counts = []
    for n, seed in [(64, 1), (256, 2), (1024, 3)]:
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(n)
        beta, report = solve(b, empty_mask(n), IpmConfig(tol=1e-8))
        assert report.converged
        counts.append(max(report.krylov_counts))
    assert max(counts) <= 2
    report_pass(4, f"empty-mask PCG iteration maxima per solve: {counts} (<= 2)")


def test_criterion_5_spectrum_claims():
    """Unit-eigenvalue cluster size and limiting condition number."""
    sizes = [16, 24, 32, 40, 48, 56, 64, 20, 36, 60]
    included, excluded = 0, []
    for i, n in enumerate(sizes):
        rng = np.random.default_rng(5000 + i)
        b, mask, _ = sparse_instance(rng, n, max(2, n // 10), max(1, n // 12),
                                     amplitude=(1.0, 2.0), noise=0.02)
        states = []
        beta, report = solve(b, mask, IpmConfig(lam=0.35, tol=1e-8),
                             observer=lambda s, r: states.append(s))
        assert report.converged
        probe = preconditioned_spectrum(states[-1], mask)
        assert probe.duality_measure <= 1e-6
        if probe.strict_complementarity < 1e-4:
            excluded.append((i, probe.strict_complementarity))
            continue
        included += 1
        assert probe.unit_cluster_size >= probe.predicted_cluster_size, (
            f"instance {i}: cluster {probe.unit_cluster_size} < "
            f"{probe.predicted_cluster_size}"
        )
        dev = abs(probe.kappa_observed - probe.kappa_predicted)
        assert dev <= 0.2 * probe.kappa_predicted, (
            f"instance {i}: kappa {probe.kappa_observed} vs "
            f"{probe.kappa_predicted}"
        )
    assert included >= 5  # the claim must actually be exercised
    report_pass(5, f"{included}/10 instances checked "
                   f"(excluded for complementarity floor: {excluded or 'none'})")


def test_criterion_6_bounded_conditioning_trajectory():
    """kappa(P^-1 K) stays bounded while kappa(K) blows up."""
    rng = np.random.default_rng(6000)
    b, mask, _ = sparse_instance(rng, 48, 7, 4, amplitude=(1.0, 2.0), noise=0.02)
    kappa_pk, kappa_k = [], []

    def watch(state, record):
        probe = preconditioned_spectrum(state, mask)
        kappa_pk.append(probe.kappa_observed)
        kappa_k.append(probe.kappa_unpreconditioned)

    beta, report = solve(b, mask, IpmConfig(lam=0.4, tol=1e-8), observer=watch)
    assert report.converged
    ratio = max(kappa_pk) / kappa_pk[-1]
    growth = max(kappa_k) / kappa_k[0]
    assert ratio <= 5.0
    assert growth >= 100.0
    report_pass(6, f"kappa(P^-1 K) max/final {ratio:.2f} <= 5; "
                   f"kappa(K) grew {growth:.0f}x >= 100x")


def test_criterion_7_scaled_convergence_run():
    """32^3 synthetic with 15% missing: iteration and Krylov budgets."""
    t0 = time.perf_counter()
    spec = SyntheticSpec(dims=(32, 32, 32), noise_seed=42, missing_seed=43)
    noisy, mask, _ = generate_synthetic(spec)
    b = noisy[~mask.missing_bool]
    beta, report = solve(b, mask, IpmConfig(tol=1e-8, cg_tol=1e-12))
    elapsed = time.perf_counter() - t0

    assert report.converged
    assert report.iterations <= 80
    counts = report.krylov_counts
    assert max(counts) <= 300
    peak = max(counts)
    peak_positions = [i + 1 for i, v in enumerate(counts) if v == peak]
    assert all(3 < p < report.iterations for p in peak_positions), (
        f"profile peak at {peak_positions} of {report.iterations}: {counts}"
    )
    assert elapsed < 300.0
    report_pass(7, f"converged in {report.iterations} iterations (<= 80), "
                   f"peak Krylov {peak} (<= 300) at {peak_positions}, "
                   f"{elapsed:.1f}s")


def test_criterion_8_quasilinear_scaling():
    """Cube benchmark: gated consecutive ratio at the top sizes only."""
    times = {}
    for size in (8, 16, 32, 64):
        spec = SyntheticSpec(dims=(size,) * 3, noise_seed=42, missing_seed=43)
        noisy, mask, _ = generate_synthetic(spec)
        b = noisy[~mask.missing_bool]
        t0 = time.perf_counter()
        beta, report = solve(b, mask, IpmConfig(tol=1e-8, cg_tol=1e-12))
        times[size] = time.perf_counter() - t0
        assert report.converged
    ratios = {f"{a}->{b}": times[b] / times[a]
              for a, b in [(8, 16), (16, 32), (32, 64)]}
    assert ratios["32->64"] <= 12.0
    report_pass(8, f"wall times {({k: round(v, 2) for k, v in times.items()})}; "
                   f"ratios {({k: round(v, 1) for k, v in ratios.items()})} "
                   f"(gated: 32->64 <= 12, smaller sizes informational)")


def test_criterion_9_determinism(tmp_path):
    """Identical seeds give byte-identical reports modulo timing fields."""
    signal = str(tmp_path / "signal.f64")
    maskfile = str(tmp_path / "mask.idx")
    assert main([
        "generate", "--dims", "16,16,16", "--noise-seed", "9", "--missing-seed",
        "10", "--signal", signal, "--mask", maskfile,
    ]) == EXIT_OK

    stripped = []
    for tag in ("a", "b"):
        report = str(tmp_path / f"report_{tag}.jsonl")
        assert main([
            "solve", "--input", signal, "--mask", maskfile,
            "--output", str(tmp_path / f"beta_{tag}.f64"), "--report", report,
        ]) == EXIT_OK
        with open(report, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        stripped.append("\n".join(
            json.dumps({k: v for k, v in rec.items() if k != "wall_time"},
                       sort_keys=True)
            for rec in records
        ))
    assert stripped[0] == stripped[1]
    with open(str(tmp_path / "beta_a.f64"), "rb") as fa, \
            open(str(tmp_path / "beta_b.f64"), "rb") as fb:
        assert fa.read() == fb.read()
    report_pass(9, "repeated solves byte-identical (reports modulo timings, "
                   "output volumes exactly)")
