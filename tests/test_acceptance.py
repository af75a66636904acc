"""Acceptance suite: one test per release criterion, each printing a PASS line.

Every tolerance is pinned here, not tuned at runtime. Run with
``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from osls import _kernels
from osls.baselines import ConfusionMatrix, bbse, mapls, mlls
from osls.cli import main as cli_main
from osls.core import ProbabilityVector, SourceLabelModel
from osls.em import EmConfig, closed_form_rho_t, nll_grid_argmin, run_em
from osls.estimators import (
    bound_coverage_rho_s,
    bound_coverage_rho_t,
    correct_rho,
    threshold_rescale,
)
from osls.metrics import ece, top1_accuracy, w_mse
from osls.pipeline import correct_with_estimate, estimate
from osls.simulate import ShiftSpec, distort_scorer, make_scenario, ring_config

from conftest import easy_config, mle_em_path, overlap_config


def _report(num, description, detail):
    print(f"PASS  criterion {num:>2}: {description} [{detail}]")


def _random_k2_scenario(rng, seed):
    """Random geometry, priors and shift; the target distribution itself is a
    dirichlet draw keyed by the scenario seed."""
    return ring_config(
        2,
        radius=float(rng.uniform(2.0, 4.0)),
        scale=1.0,
        rho_s=float(rng.uniform(0.45, 0.85)),
        n_source=2000,
        n_target=300,
        n_ood_ref=2000,
        shift=ShiftSpec.dirichlet(1.5),
        r=float(np.exp(rng.uniform(np.log(0.5), np.log(2.0)))),
        seed=int(seed),
    )


def test_c01_grid_oracle_equivalence():
    """EM lands within 2e-3 per coordinate of the brute-force grid argmin."""
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for i in range(20):
        cfg = _random_k2_scenario(rng, seed=1000 + i)
        _, target, _, _ = make_scenario(cfg)
        source = SourceLabelModel(cfg.c, cfg.rho_s)
        p1, rho, _ = nll_grid_argmin(source, target.records, resolution=0.001)
        trace = run_em(source, target.records, EmConfig(max_iters=5000, tol=1e-13))
        d_pi = abs(p1 - trace.pi_final.entries[0])
        d_rho = abs(rho - trace.rho_t_final)
        worst = max(worst, d_pi, d_rho)
        assert d_pi <= 2e-3 and d_rho <= 2e-3, f"scenario {i}: ({d_pi:.2e}, {d_rho:.2e})"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"grid-oracle check took {elapsed:.1f}s"
    _report(1, "grid-oracle equivalence on 20 random K=2 scenarios",
            f"worst coord diff {worst:.2e}, {elapsed:.1f}s")


def test_c02_em_monotonicity():
    """Objective is non-increasing each iteration, MLE and MAP, 50 seeded runs."""
    ks = [2, 5, 10]
    checked = 0
    worst = -np.inf
    for seed in range(50):
        k = ks[seed % 3]
        cfg = overlap_config(
            k=k, seed=seed, n=2000,
            shift=ShiftSpec.dirichlet(1.0) if seed % 2 else ShiftSpec.ordered_lt(10),
            r=[1.0, 0.5, 2.0][seed % 3],
        )
        _, target, _, _ = make_scenario(cfg)
        source = SourceLabelModel(cfg.c, cfg.rho_s)
        for config in (
            EmConfig(max_iters=40),
            EmConfig(max_iters=40, alpha_in=np.full(k, 2.0), alpha_out=(2.0, 2.0)),
        ):
            trace = run_em(source, target.records, config)
            steps = np.diff(trace.nll_per_iter)
            worst = max(worst, float(steps.max()))
            assert np.all(steps <= 1e-9), f"seed {seed}: max increase {steps.max():.2e}"
            checked += 1
    _report(2, f"EM monotonicity across {checked} runs (K in 2/5/10, MLE and MAP)",
            f"worst step increase {worst:.2e} <= 1e-9")


def test_c03_mle_map_bitwise_degeneracy():
    """With all-ones priors the MAP iterates match a dedicated MLE path bitwise."""
    for seed in range(10):
        k = 2 + (seed % 4)
        cfg = overlap_config(k=k, seed=200 + seed, n=1000, shift=ShiftSpec.dirichlet(1.0))
        _, target, _, _ = make_scenario(cfg)
        source = SourceLabelModel(cfg.c, cfg.rho_s)
        w = target.records.extended_f() / source.extended().entries
        pi0 = source.c.entries
        mle = mle_em_path(w, pi0, source.rho_s, 60)
        mapped = _kernels.em_fit(w, pi0, source.rho_s, np.ones(k), (1.0, 1.0), 60, 0.0)
        assert np.array_equal(mle[0], mapped[0])
        assert mle[1] == mapped[1]
        assert np.array_equal(mle[2][:61], mapped[2][:61])
    _report(3, "MAP with all-ones priors is bitwise identical to the MLE path",
            "10 seeded instances, pi/rho/objective traces")


def test_c04_theorem1_coverage():
    """Source-ratio bound violated in at most 2*delta of trials (plus 3-sigma)."""
    start = time.monotonic()
    report = bound_coverage_rho_s(mu1=0.9, mu0=0.1, n=2000, delta=0.05,
                                  trials=1000, seed=42)
    elapsed = time.monotonic() - start
    limit = 0.10 + 3.0 * np.sqrt(0.10 * 0.90 / 1000)
    assert report.violation_rate <= limit, f"rate {report.violation_rate:.3f} > {limit:.3f}"
    assert elapsed < 30.0
    _report(4, "source-ratio bound coverage (1000 trials, n=2000, delta=0.05)",
            f"violation rate {report.violation_rate:.4f} <= {limit:.4f}, {elapsed:.1f}s")


def test_c05_theorem3_coverage():
    """Corrected target-ratio bound holds under the distorted scorer h' = 0.2 + 0.6h."""
    report = bound_coverage_rho_t(mu1=0.9, mu0=0.1, a=0.2, b=0.6, rho_t=0.6,
                                  n=2000, delta=0.05, trials=1000, seed=42)
    assert report.violation_rate <= report.threshold, (
        f"rate {report.violation_rate:.3f} > {report.threshold:.3f}"
    )
    _report(5, "corrected target-ratio bound coverage with affine-distorted scorer",
            f"violation rate {report.violation_rate:.4f} <= {report.threshold:.4f}")


def test_c06_closed_form_special_case():
    """Binary scorer, no ID shift: EM's rho_t equals the mean score to 1e-6."""
    cfg = easy_config(k=3, seed=31, n=5000, r=0.7)
    source_ds, target, ood_ref, _ = make_scenario(cfg)
    h_bin = threshold_rescale(target.records.h, source_ds.records.h, ood_ref.records.h)
    binary_target = target.records.with_h(h_bin)
    source = SourceLabelModel(cfg.c, cfg.rho_s)
    trace = run_em(source, binary_target)
    gap = abs(trace.rho_t_final - closed_form_rho_t(binary_target))
    assert gap <= 1e-6, f"gap {gap:.2e}"
    _report(6, "binary-scorer closed form: EM rho_t equals mean(h)", f"gap {gap:.2e} <= 1e-6")


def test_c07_consistency_trend():
    """Median w-MSE decreases monotonically over N in {1e3, 1e4, 1e5}."""
    medians = []
    for n in (1_000, 10_000, 100_000):
        errs = []
        for seed in range(20):
            cfg = ring_config(
                5, radius=3.0, scale=1.0, rho_s=0.7,
                n_source=n, n_target=n, n_ood_ref=max(n // 2, 1),
                shift=ShiftSpec.ordered_lt(100, "forward"), r=1.0, seed=seed,
            )
            source, target, ood_ref, truth = make_scenario(cfg)
            result = estimate("osls-mle", source.records, target.records,
                              mu0_hat=float(ood_ref.records.h.mean()), n_ood=len(ood_ref))
            errs.append(w_mse(result.pi_hat, truth.pi, cfg.c))
        medians.append(float(np.median(errs)))
    assert medians[0] > medians[1] > medians[2], f"medians {medians}"
    _report(7, "w-MSE median decreases over N = 1e3 -> 1e4 -> 1e5 (LT-100, r=1)",
            "medians " + " > ".join(f"{m:.2e}" for m in medians))


def test_c08_open_set_advantage():
    """OSLS-MLE beats MLLS on w-MSE in at least 90% of 50 seeds per LT shift."""
    for imbalance in (10.0, 100.0):
        wins = 0
        for seed in range(50):
            cfg = ring_config(
                5, radius=3.0, scale=1.0, rho_s=0.7,
                n_source=5000, n_target=5000, n_ood_ref=2500,
                shift=ShiftSpec.ordered_lt(imbalance, "forward"), r=1.0, seed=seed,
            )
            source, target, ood_ref, truth = make_scenario(cfg)
            res = estimate("osls-mle", source.records, target.records,
                           mu0_hat=float(ood_ref.records.h.mean()), n_ood=len(ood_ref))
            pi_mlls = mlls(target.records.f, res.c_hat)
            wins += int(
                w_mse(res.pi_hat, truth.pi, cfg.c) < w_mse(pi_mlls, truth.pi, cfg.c)
            )
        assert wins >= 45, f"LT-{imbalance:g}: {wins}/50 wins"
        _report(8, f"open-set advantage over MLLS on LT-{imbalance:g} forward, r=1",
                f"{wins}/50 seeds with lower w-MSE")


def test_c09_correction_improves_accuracy():
    """Reweighted (K+1)-posterior beats the raw combined argmax on median top-1."""
    corrected_accs, raw_accs = [], []
    for seed in range(20):
        cfg = overlap_config(k=5, seed=seed, n=10_000,
                             shift=ShiftSpec.ordered_lt(100, "forward"), r=1.0)
        source, target, ood_ref, _ = make_scenario(cfg)
        # the simulated scorer is exactly calibrated, so the affine ratio
        # correction is unnecessary; run the pipeline without it
        res = estimate("osls-mle", source.records, target.records,
                       mu0_hat=float(ood_ref.records.h.mean()), n_ood=len(ood_ref),
                       apply_rho_correction=False)
        _, labels = correct_with_estimate(res, target.records)
        raw_labels = target.records.extended_f().argmax(axis=1) + 1
        corrected_accs.append(top1_accuracy(labels, target.records.y))
        raw_accs.append(top1_accuracy(raw_labels, target.records.y))
    med_corr = float(np.median(corrected_accs))
    med_raw = float(np.median(raw_accs))
    assert med_corr > med_raw, f"median corrected {med_corr:.4f} <= raw {med_raw:.4f}"
    _report(9, "correction improves top-1 on LT-100 forward, r=1, N=1e4",
            f"median {med_corr:.4f} > {med_raw:.4f} over 20 seeds")


def test_c10_rho_correction_linearity():
    """Mean response of the distorted scorer is affine in rho_t; correction
    inverts it to slope 1 and intercept 0."""
    rho_true = np.arange(0.1, 0.95, 0.1)
    raw_estimates, corrected = [], []
    for i, rho in enumerate(rho_true):
        r = (1.0 - rho) / rho
        cfg = easy_config(k=3, seed=500 + i, n=20_000, r=r, separation=6.0)
        source, target, ood_ref, truth = make_scenario(cfg)
        d_target = distort_scorer(target, 0.2, 0.6)
        d_source = distort_scorer(source, 0.2, 0.6)
        d_ood = distort_scorer(ood_ref, 0.2, 0.6)
        rho_prime = float(d_target.records.h.mean())
        mu1p = float(d_source.records.h.mean())
        mu0p = float(d_ood.records.h.mean())
        raw_estimates.append(rho_prime)
        corrected.append(correct_rho(rho_prime, mu1p, mu0p))
    raw_fit = np.polyfit(rho_true, raw_estimates, 1)
    residuals = np.array(raw_estimates) - np.polyval(raw_fit, rho_true)
    ss_tot = float(np.sum((raw_estimates - np.mean(raw_estimates)) ** 2))
    r2 = 1.0 - float(np.sum(residuals**2)) / ss_tot
    corr_fit = np.polyfit(rho_true, corrected, 1)
    assert r2 >= 0.99, f"raw-estimate affine fit R^2 = {r2:.4f}"
    assert 0.95 <= corr_fit[0] <= 1.05, f"corrected slope {corr_fit[0]:.4f}"
    assert abs(corr_fit[1]) <= 0.03, f"corrected intercept {corr_fit[1]:.4f}"
    _report(10, "target-ratio correction linearity under the distorted scorer",
            f"raw R^2 {r2:.4f}, corrected slope {corr_fit[0]:.3f}, "
            f"intercept {corr_fit[1]:.4f}")


def test_c11_baseline_sanity():
    """Confusion-matrix solve is exact for a perfect classifier; MLLS matches
    its grid oracle; MAPLS with all-ones priors equals MLLS bitwise."""
    # exact recovery with a diagonal (perfect-classifier) confusion matrix
    rng = np.random.default_rng(7)
    for _ in range(5):
        c = rng.dirichlet([3.0, 3.0, 3.0])
        q = rng.dirichlet([2.0, 2.0, 2.0])
        pi = bbse(ConfusionMatrix(np.diag(c)), ProbabilityVector(q))
        assert float(np.max(np.abs(pi.entries - q))) <= 1e-10

    # closed-set grid oracle over pi_1 at 0.001 resolution
    worst = 0.0
    for seed in range(20):
        cfg = _random_k2_scenario(np.random.default_rng(300 + seed), seed=300 + seed)
        _, target, _, _ = make_scenario(cfg)
        f = target.records.f
        c = ProbabilityVector([0.5, 0.5])
        pi = mlls(f, c, max_iters=5000, tol=1e-13)
        ticks = np.arange(0.0, 1.0005, 0.001)
        ratios = f / c.entries
        inner = np.outer(ticks, ratios[:, 0]) + np.outer(1.0 - ticks, ratios[:, 1])
        nll = -np.sum(np.log(np.maximum(inner, 1e-300)), axis=1)
        oracle = ticks[int(np.argmin(nll))]
        worst = max(worst, abs(pi.entries[0] - oracle))
        assert abs(pi.entries[0] - oracle) <= 2e-3

    # bitwise prior degeneracy
    f = np.random.default_rng(11).dirichlet(np.ones(4), size=400)
    c4 = ProbabilityVector(np.full(4, 0.25))
    pi_a, tr_a = mlls(f, c4, return_trace=True)
    pi_b, tr_b = mapls(f, c4, np.ones(4), return_trace=True)
    assert np.array_equal(pi_a.entries, pi_b.entries) and np.array_equal(tr_a, tr_b)
    _report(11, "baseline sanity: exact diagonal solve, grid oracle, prior degeneracy",
            f"worst MLLS grid diff {worst:.2e}")


def test_c12_oracle_calibration():
    """The simulated classifier is calibrated: ECE <= 0.01 at N=1e5, 15 bins."""
    # rho_s = rho_t and no shift, so source and target laws coincide and the
    # source-posterior outputs are exactly calibrated on the target
    cfg = ring_config(5, radius=2.5, scale=1.0, rho_s=0.5,
                      n_source=1000, n_target=100_000, n_ood_ref=1000,
                      shift=ShiftSpec.none(), r=1.0, seed=77)
    _, target, _, _ = make_scenario(cfg)
    fe = target.records.extended_f()
    confidences = fe.max(axis=1)
    correct = (fe.argmax(axis=1) + 1) == target.records.y
    value = ece(confidences, correct, n_bins=15)
    assert value <= 0.01, f"ECE {value:.4f}"
    _report(12, "oracle-mode classifier calibration at N=1e5, 15 bins",
            f"ECE {value:.4f} <= 0.01")


def test_c13_cli_determinism(tmp_path):
    """simulate / estimate / sweep produce byte-identical outputs on reruns."""
    scenario_cfg = tmp_path / "scenario.cfg"
    scenario_cfg.write_text(
        "k = 2\nradius = 4.0\nscale = 0.8\nrho_s = 0.7\nn_source = 1000\n"
        "n_target = 1000\nn_ood_ref = 500\nshift = dirichlet:1.0\nr = 0.5\nseed = 3\n"
    )
    sweep_cfg = tmp_path / "grid.cfg"
    sweep_cfg.write_text(
        "shifts = lt:10:forward\nr_values = 1, 0.1\nseeds = 1, 2\n"
        "methods = osls-mle, mlls\nk = 2\nradius = 4.0\nscale = 0.8\nrho_s = 0.7\n"
        "n_source = 400\nn_target = 400\nn_ood_ref = 200\n"
    )
    artifacts = []
    for tag in ("a", "b"):
        sim_dir = tmp_path / f"sim_{tag}"
        est = tmp_path / f"est_{tag}.json"
        sweep = tmp_path / f"sweep_{tag}.json"
        assert cli_main(["simulate", "--config", str(scenario_cfg),
                         "--out-dir", str(sim_dir)]) == 0
        assert cli_main([
            "estimate", "--source", str(sim_dir / "source.jsonl"),
            "--target", str(sim_dir / "target.jsonl"),
            "--ood-ref", str(sim_dir / "ood_ref.jsonl"), "--out", str(est),
        ]) == 0
        assert cli_main(["sweep", "--config", str(sweep_cfg), "--out", str(sweep),
                         "--iters", "30"]) == 0
        blobs = {p.name: p.read_bytes() for p in sorted(sim_dir.iterdir())}
        blobs["estimate"] = est.read_bytes()
        blobs["sweep"] = sweep.read_bytes()
        artifacts.append(blobs)
    assert artifacts[0] == artifacts[1]
    _report(13, "CLI determinism: simulate / estimate / sweep byte-identical",
            f"{len(artifacts[0])} artifacts compared")
