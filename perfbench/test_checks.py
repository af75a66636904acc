"""Each output check passes the program's real output and rejects a corrupted copy.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_checks.py
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
from osls.core import RecordSet, SourceLabelModel  # noqa: E402
from osls.em import EmConfig, nll_grid_argmin, run_em  # noqa: E402
from osls.pipeline import correct_with_estimate, estimate  # noqa: E402
from osls.simulate import Scenario, ShiftSpec, make_scenario, ring_config  # noqa: E402


@pytest.fixture(scope="module")
def fitted():
    cfg = ring_config(3, radius=5.0, n_source=20_000, n_target=20_000, n_ood_ref=10_000,
                      shift=ShiftSpec.ordered_lt(10.0), r=1.0, seed=5)
    scenario = Scenario(cfg)
    source = scenario.sample_source().records
    target = scenario.sample_target_exact_ratio().records
    ood = scenario.sample_ood_ref().records
    result = estimate("osls-mle", source, target, mu0_hat=float(np.mean(ood.h)),
                      n_ood=len(ood))
    data = {
        "source": (np.asarray(source.f), np.asarray(source.h), np.asarray(source.y)),
        "target": (np.asarray(target.f), np.asarray(target.h), np.asarray(target.y)),
        "ood": (np.asarray(ood.f), np.asarray(ood.h), np.asarray(ood.y)),
        "truth": {"pi": scenario.truth.pi.entries.tolist(), "c": cfg.c.entries.tolist(),
                  "rho_t": cfg.rho_t},
    }
    return result, result.to_dict(), data, target


def test_estimate_check_accepts_real_output(fitted):
    _, report, data, _ = fitted
    assert checks.check_estimate(report, data) == []


def test_estimate_check_rejects_pi_hat_off_simplex(fitted):
    _, report, data, _ = fitted
    bad = copy.deepcopy(report)
    bad["pi_hat"][0] += 0.05
    assert any("simplex" in e for e in checks.check_estimate(bad, data))


def test_estimate_check_rejects_shifted_nll_final(fitted):
    _, report, data, _ = fitted
    bad = copy.deepcopy(report)
    bad["nll_final"] -= 1e-3
    assert any("nll_final" in e for e in checks.check_estimate(bad, data))


def test_corrected_check_rejects_flipped_y_hat(fitted):
    result, report, data, target = fitted
    g, labels = correct_with_estimate(result, target)
    _, c_ext = checks.source_model(data, report)
    y = np.asarray(target.y)
    assert checks.check_corrected(g, labels, y, report, c_ext, data["target"]) == []
    flipped = labels.copy()
    flipped[7] = 1 if flipped[7] != 1 else 2
    assert checks.check_corrected(g, flipped, y, report, c_ext, data["target"]) != []


def test_fixed_point_check_rejects_a_short_fit(fitted):
    _, report, data, target = fitted
    source_model = SourceLabelModel(report["c_hat"], report["rho_s_hat"])
    fe = ref.extended_outputs(*data["target"][:2])
    ce = ref.extend(report["c_hat"], report["rho_s_hat"])

    def fit(config):
        trace = run_em(source_model, target, config)

        class Fit:
            pi_hat, rho_t_hat = trace.pi_final, trace.rho_t_final

        return Fit

    assert checks.check_fixed_point("tol", fit(EmConfig(max_iters=10_000, tol=1e-10)),
                                    fe, ce) == []
    assert checks.check_fixed_point("short", fit(EmConfig(max_iters=2)), fe, ce) != []


@pytest.fixture(scope="module")
def grid_case():
    cfg = ring_config(2, radius=3.0, n_source=500, n_target=300, n_ood_ref=500,
                      shift=ShiftSpec.dirichlet(1.5), r=1.0, seed=1001)
    _, target, _, _ = make_scenario(cfg)
    source = SourceLabelModel(cfg.c, cfg.rho_s)
    p1, rho, value = nll_grid_argmin(source, target.records, resolution=0.01)
    fe = ref.extended_outputs(np.asarray(target.records.f), np.asarray(target.records.h))
    ce = ref.extend(cfg.c.entries, cfg.rho_s)
    return fe, ce, p1, rho, value


def test_grid_check_accepts_the_argmin(grid_case):
    fe, ce, p1, rho, value = grid_case
    assert checks.check_grid(fe, ce, p1, rho, value, 101, p1, rho) == []


def test_grid_check_rejects_a_cell_with_a_lower_neighbour(grid_case):
    fe, ce, p1, rho, _ = grid_case
    moved = rho + 0.01 if rho + 0.01 <= 1.0 else rho - 0.01
    value = ref.nll(fe, ce, [p1, 1.0 - p1], moved)
    errors = checks.check_grid(fe, ce, p1, moved, value, 101, p1, moved)
    assert any("lower neighbour" in e for e in errors)


def test_bbse_check_rejects_a_perturbed_estimate(fitted):
    _, _, data, target = fitted
    fs, hs, ys = data["source"]
    pi = estimate("bbse", RecordSet(fs, hs, ys), target).pi_hat.entries
    assert checks.check_bbse(pi, fs, ys, data["target"][0]) == []
    assert checks.check_bbse(pi + np.array([1e-6, -1e-6, 0.0]), fs, ys, data["target"][0]) != []
