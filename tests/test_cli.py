import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from osls import io as osls_io
from osls.cli import main
from osls.core import RecordSet

from conftest import child_env


SCENARIO_CFG = """
# two-class oracle scenario
k = 2
radius = 4.0
scale = 0.8
rho_s = 0.7
n_source = 2000
n_target = 2000
n_ood_ref = 1000
shift = lt:10:forward
r = 1.0
seed = 11
"""

SWEEP_CFG = """
shifts = lt:10:forward, dirichlet:1.0
r_values = 1, 0.1, 0.01
seeds = 1, 2, 3
methods = osls-mle, mlls, mapls
k = 2
radius = 4.0
scale = 0.8
rho_s = 0.7
n_source = 500
n_target = 500
n_ood_ref = 300
"""


@pytest.fixture
def sim_dir(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(SCENARIO_CFG)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
    return out


def _tree_bytes(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestSimulate:
    def test_outputs_and_determinism(self, tmp_path, sim_dir):
        names = {p.name for p in sim_dir.iterdir()}
        assert names == {
            "source.jsonl", "target.jsonl", "ood_ref.jsonl",
            "source_features.csv", "truth.json", "scenario.json",
        }
        cfg = tmp_path / "scenario.cfg"
        out2 = tmp_path / "sim2"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out2)]) == 0
        assert _tree_bytes(sim_dir) == _tree_bytes(out2)

    def test_exact_ood_count(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SCENARIO_CFG.replace("r = 1.0", "r = 0.01"))
        out = tmp_path / "small"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        target = osls_io.read_records(out / "target.jsonl")
        n_id = int(np.sum(target.y <= 2))
        assert int(np.sum(target.y == 3)) == int(np.rint(0.01 * n_id))

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "error" in capsys.readouterr().err.lower()


class TestEstimate:
    def test_report_fields(self, sim_dir, tmp_path):
        report_path = tmp_path / "est.json"
        code = main([
            "estimate", "--source", str(sim_dir / "source.jsonl"),
            "--target", str(sim_dir / "target.jsonl"),
            "--ood-ref", str(sim_dir / "ood_ref.jsonl"),
            "--out", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        for key in ("method", "K", "c_hat", "pi_hat", "rho_s_hat",
                    "rho_t_hat", "rho_t_star", "nll_initial", "nll_final"):
            assert key in report
        truth = osls_io.read_truth(sim_dir / "truth.json")
        assert abs(report["rho_t_hat"] - truth["rho_t"]) < 0.05

    def test_mle_map_all_ones_identical(self, sim_dir, tmp_path):
        paths = []
        for i, flag in enumerate(("--mle", "--map")):
            p = tmp_path / f"est{i}.json"
            code = main([
                "estimate", "--source", str(sim_dir / "source.jsonl"),
                "--target", str(sim_dir / "target.jsonl"),
                "--ood-ref", str(sim_dir / "ood_ref.jsonl"),
                flag, "--alpha-in", "1.0", "--out", str(p),
            ])
            assert code == 0
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_no_rho_correction_omits_field(self, sim_dir, tmp_path):
        p = tmp_path / "est.json"
        main([
            "estimate", "--source", str(sim_dir / "source.jsonl"),
            "--target", str(sim_dir / "target.jsonl"),
            "--ood-ref", str(sim_dir / "ood_ref.jsonl"),
            "--no-rho-correction", "--out", str(p),
        ])
        assert "rho_t_star" not in json.loads(p.read_text())

    def test_pseudo_ood_route(self, sim_dir, tmp_path):
        p = tmp_path / "est.json"
        code = main([
            "estimate", "--source", str(sim_dir / "source.jsonl"),
            "--target", str(sim_dir / "target.jsonl"),
            "--pseudo-ood", "--features", str(sim_dir / "source_features.csv"),
            "--scenario", str(sim_dir / "scenario.json"),
            "--gamma", "0.3", "--T", "2.0", "--out", str(p),
        ])
        assert code == 0
        report = json.loads(p.read_text())
        assert 0.0 <= report["mu0_hat"] <= 0.5  # rescaled by T = 2

    def test_ood_ref_and_pseudo_ood_exit_2(self, sim_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "estimate", "--source", str(sim_dir / "source.jsonl"),
                "--target", str(sim_dir / "target.jsonl"),
                "--ood-ref", str(sim_dir / "ood_ref.jsonl"), "--pseudo-ood",
                "--features", str(sim_dir / "source_features.csv"),
                "--scenario", str(sim_dir / "scenario.json"), "--out", str(tmp_path / "e.json"),
            ])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "e.json").exists()

    @pytest.mark.parametrize("flags, prior", [
        (["--alpha-out", "inf", "1"], "alpha_out"),
        (["--alpha-in", "inf"], "alpha_in"),
    ])
    def test_infinite_prior_exits_2(self, sim_dir, capsys, flags, prior):
        code = main([
            "estimate", "--source", str(sim_dir / "source.jsonl"),
            "--target", str(sim_dir / "target.jsonl"),
            "--ood-ref", str(sim_dir / "ood_ref.jsonl"), "--map", *flags,
        ])
        assert code == 2
        assert f"{prior} must be finite numbers >= 1; got inf at row 0" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("h", "0.5"), ("y", True)])
    def test_target_value_not_a_number_exits_2(self, sim_dir, tmp_path, capsys, key, value):
        # A string or a bool is no number, whatever the lines around it hold.
        lines = (sim_dir / "target.jsonl").read_text().splitlines()
        row = json.loads(lines[2])
        row[key] = value
        lines[2] = json.dumps(row)
        target = tmp_path / "target.jsonl"
        target.write_text("\n".join(lines) + "\n")
        code = main([
            "estimate", "--source", str(sim_dir / "source.jsonl"), "--target", str(target),
            "--ood-ref", str(sim_dir / "ood_ref.jsonl"), "--out", str(tmp_path / "e.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{target}: line 3: {key} must be numbers; got {value!r}" in err
        assert not (tmp_path / "e.json").exists()

    @pytest.mark.parametrize("T", ["inf", "nan"])
    def test_non_finite_T_exits_2(self, sim_dir, capsys, T):
        code = main([
            "estimate", "--source", str(sim_dir / "source.jsonl"),
            "--target", str(sim_dir / "target.jsonl"),
            "--pseudo-ood", "--features", str(sim_dir / "source_features.csv"),
            "--scenario", str(sim_dir / "scenario.json"), "--T", T,
        ])
        assert code == 2
        assert f"T must be a finite number >= 1; got {T}" in capsys.readouterr().err

    def test_degenerate_scorer_exits_1(self, tmp_path, capsys):
        # a scorer that responds identically (h = 1) to ID and OOD references
        ids = RecordSet(np.full((5, 2), 0.5), np.ones(5), np.array([1, 2, 1, 2, 1]))
        osls_io.write_records(tmp_path / "source.jsonl", ids)
        osls_io.write_records(tmp_path / "target.jsonl", ids)
        ood = RecordSet(np.full((5, 2), 0.5), np.zeros(5))
        osls_io.write_records(tmp_path / "ood.jsonl", ood)
        code = main([
            "estimate", "--source", str(tmp_path / "source.jsonl"),
            "--target", str(tmp_path / "target.jsonl"),
            "--ood-ref", str(tmp_path / "ood.jsonl"),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err.lower()

    def test_baseline_methods(self, sim_dir, tmp_path):
        for method in ("mlls", "mapls", "bbse", "uniform"):
            p = tmp_path / f"{method}.json"
            code = main([
                "estimate", "--source", str(sim_dir / "source.jsonl"),
                "--target", str(sim_dir / "target.jsonl"),
                "--method", method, "--out", str(p),
            ])
            assert code == 0
            assert json.loads(p.read_text())["method"] == method


    @pytest.mark.parametrize("method", ["mlls", "mapls"])
    def test_iters_and_tol_reach_closed_set_fits(self, sim_dir, tmp_path, method):
        reports = []
        for extra in ([], ["--tol", "0", "--iters", "1"]):
            p = tmp_path / f"{method}{len(extra)}.json"
            assert main(["estimate", "--source", str(sim_dir / "source.jsonl"),
                         "--target", str(sim_dir / "target.jsonl"),
                         "--method", method, "--out", str(p), *extra]) == 0
            reports.append(json.loads(p.read_text()))
        assert reports[0]["pi_hat"] != reports[1]["pi_hat"]


class TestCorrectAndEvaluate:
    def _estimate(self, sim_dir, tmp_path, *extra):
        p = tmp_path / "est.json"
        assert main([
            "estimate", "--source", str(sim_dir / "source.jsonl"),
            "--target", str(sim_dir / "target.jsonl"),
            "--ood-ref", str(sim_dir / "ood_ref.jsonl"),
            "--out", str(p), *extra,
        ]) == 0
        return p

    def test_identity_estimate_reproduces_extended_outputs(self, sim_dir, tmp_path):
        est_path = self._estimate(sim_dir, tmp_path)
        report = json.loads(est_path.read_text())
        report["pi_hat"] = report["c_hat"]
        report["rho_t_hat"] = report["rho_s_hat"]
        report.pop("rho_t_star", None)
        ident = tmp_path / "ident.json"
        ident.write_text(json.dumps(report))
        out = tmp_path / "corrected.jsonl"
        assert main(["correct", "--estimate", str(ident),
                     "--target", str(sim_dir / "target.jsonl"), "--out", str(out)]) == 0
        corrected = osls_io.read_corrected(out)
        target = osls_io.read_records(sim_dir / "target.jsonl")
        assert corrected["g"].shape[0] == len(target)
        np.testing.assert_allclose(corrected["g"], target.extended_f(), atol=1e-9)

    def test_row_count_and_evaluate(self, sim_dir, tmp_path):
        est_path = self._estimate(sim_dir, tmp_path)
        out = tmp_path / "corrected.jsonl"
        main(["correct", "--estimate", str(est_path),
              "--target", str(sim_dir / "target.jsonl"), "--out", str(out)])
        eval_path = tmp_path / "eval.json"
        code = main([
            "evaluate", "--estimate", str(est_path), "--corrected", str(out),
            "--truth", str(sim_dir / "truth.json"), "--ece", "--out", str(eval_path),
        ])
        assert code == 0
        rows = json.loads(eval_path.read_text())["rows"]
        assert len(rows) == 2
        assert rows[0]["w_mse"] < 0.05
        assert 0.0 <= rows[1]["ece"] <= 1.0

    def test_csv_corrected_evaluates_like_jsonl(self, sim_dir, tmp_path, capsys):
        est_path = self._estimate(sim_dir, tmp_path)
        printed = {}
        for name in ("corrected.jsonl", "corrected.csv"):
            out = tmp_path / name
            assert main(["correct", "--estimate", str(est_path),
                         "--target", str(sim_dir / "target.jsonl"), "--out", str(out)]) == 0
            capsys.readouterr()
            assert main(["evaluate", "--corrected", str(out), "--truth",
                         str(sim_dir / "truth.json"), "--ece", "--format", "json"]) == 0
            printed[name] = json.loads(capsys.readouterr().out)["rows"]
        assert printed["corrected.csv"] == printed["corrected.jsonl"]
        assert {"top1", "ece"} <= set(printed["corrected.csv"][0])

    def test_truth_as_estimate_gives_zero_error(self, sim_dir, tmp_path):
        truth = osls_io.read_truth(sim_dir / "truth.json")
        fake = {
            "method": "osls-mle", "K": truth["K"], "c_hat": truth["c"],
            "pi_hat": truth["pi"], "rho_s_hat": truth["rho_s"],
            "rho_t_hat": truth["rho_t"], "rho_t_star": truth["rho_t"],
        }
        p = tmp_path / "exact.json"
        p.write_text(json.dumps(fake))
        eval_path = tmp_path / "eval.json"
        assert main(["evaluate", "--estimate", str(p),
                     "--truth", str(sim_dir / "truth.json"), "--out", str(eval_path)]) == 0
        row = json.loads(eval_path.read_text())["rows"][0]
        assert row["w_mse"] == 0.0
        assert row["rho_t_abs_err"] == 0.0

    def test_json_format_round_trips(self, sim_dir, tmp_path, capsys):
        est_path = self._estimate(sim_dir, tmp_path)
        capsys.readouterr()  # drain the estimate command's table output
        assert main(["evaluate", "--estimate", str(est_path),
                     "--truth", str(sim_dir / "truth.json"), "--format", "json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert "rows" in parsed and parsed["rows"]


class TestSweep:
    def test_grid_shape_and_determinism(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(SWEEP_CFG)
        outputs = []
        for name in ("sweep1.json", "sweep2.json"):
            out = tmp_path / name
            code = main(["sweep", "--config", str(cfg), "--out", str(out),
                         "--iters", "50"])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        cells = json.loads(outputs[0])["cells"]
        # 2 shifts x 3 r values x 3 methods, each aggregated over 3 seeds
        assert len(cells) == 18
        assert all(cell["seeds"] == 3 for cell in cells)
        keys = [(c["method"], c["shift"], c["r"]) for c in cells]
        assert keys == sorted(keys)

    def test_workers_write_the_serial_output(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(SWEEP_CFG.replace("r_values = 1, 0.1, 0.01", "r_values = 1"))
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"sweep{workers}.json"
            assert main(["sweep", "--config", str(cfg), "--out", str(out),
                         "--workers", workers]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_failed_cells_are_recorded_and_exit_1(self, tmp_path, capsys):
        # Class 2's mean sits 0.1 from class 1's and its prior is 0.1, so no
        # source row is predicted as class 2 and bbse's confusion matrix is singular.
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("k = 2\nclass_means = 0 0; 0.1 0; 1.5 1.5\nclass_scales = 1 1 1\n"
                       "c = 0.9 0.1\nn_source = 300\nn_target = 300\nn_ood_ref = 100\n"
                       "shifts = none\nr_values = 1\nseeds = 1, 2\n"
                       "methods = osls-mle, mlls, bbse\n")
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "2 sweep cell(s) failed\n"
        report = json.loads(out.read_text())
        assert report["failures"] == [
            {"method": "bbse", "shift": "none", "r": 1.0, "seed": seed,
             "error": "IllConditioned: singular confusion matrix"} for seed in (1, 2)]
        assert [(cell["method"], cell["seeds"]) for cell in report["cells"]] == [
            ("mlls", 2), ("osls-mle", 2)]

    def test_rejects_no_workers(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(SWEEP_CFG)
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", "0"])
        assert code == 2 and "workers must be a whole number >= 1; got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_single_cell_matches_direct_estimate(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            SWEEP_CFG.replace("shifts = lt:10:forward, dirichlet:1.0", "shifts = lt:10:forward")
            .replace("r_values = 1, 0.1, 0.01", "r_values = 1")
            .replace("seeds = 1, 2, 3", "seeds = 1")
            .replace("methods = osls-mle, mlls, mapls", "methods = osls-mle")
        )
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        cells = json.loads(out.read_text())["cells"]
        assert len(cells) == 1
        assert cells[0]["w_mse_std"] == 0.0

        # compose the same cell through simulate + estimate + evaluate
        sc_cfg = tmp_path / "cell.cfg"
        sc_cfg.write_text(SCENARIO_CFG.replace("seed = 11", "seed = 1")
                          .replace("n_source = 2000", "n_source = 500")
                          .replace("n_target = 2000", "n_target = 500")
                          .replace("n_ood_ref = 1000", "n_ood_ref = 300"))
        sim = tmp_path / "cell"
        # sweep samples the target i.i.d., so compare through the library call
        from osls.io import parse_kv_file, scenario_from_kv
        from osls.metrics import w_mse as w_mse_fn
        from osls.pipeline import estimate as estimate_fn
        from osls.simulate import make_scenario

        config = scenario_from_kv(parse_kv_file(sc_cfg))
        source, target, ood_ref, truth = make_scenario(config)
        result = estimate_fn("osls-mle", source.records, target.records,
                             mu0_hat=float(ood_ref.records.h.mean()), n_ood=len(ood_ref))
        direct = w_mse_fn(result.pi_hat, truth.pi, config.c)
        assert cells[0]["w_mse_mean"] == pytest.approx(direct, rel=1e-12)

    def test_osls_map_cell_uses_the_default_prior(self):
        from osls.em import EmConfig
        from osls.io import scenario_from_kv
        from osls.metrics import w_mse as w_mse_fn
        from osls.pipeline import DEFAULT_ALPHA, run_sweep
        from osls.pipeline import estimate as estimate_fn
        from osls.simulate import make_scenario

        base_kv = {"k": "2", "radius": "4.0", "scale": "0.8", "rho_s": "0.7",
                   "n_source": "500", "n_target": "500", "n_ood_ref": "300"}
        cells, failures = run_sweep(scenario_from_kv(base_kv), ["lt:10:forward"], [1.0], [1],
                                    ["osls-mle", "osls-map"], em_iters=50)
        assert not failures
        by_method = {cell.method: cell for cell in cells}

        kv = dict(base_kv, shift="lt:10:forward", r="1.0", seed="1")
        config = scenario_from_kv(kv)
        source, target, ood_ref, truth = make_scenario(config)
        result = estimate_fn(
            "osls-map", source.records, target.records,
            mu0_hat=float(ood_ref.records.h.mean()), n_ood=len(ood_ref),
            em_config=EmConfig(max_iters=50, alpha_in=np.full(2, DEFAULT_ALPHA)),
        )
        assert result.method == "osls-map"
        direct = w_mse_fn(result.pi_hat, truth.pi, config.c)
        assert by_method["osls-map"].w_mse_mean == direct
        assert by_method["osls-map"].w_mse_mean != by_method["osls-mle"].w_mse_mean


class TestBoundCheckCli:
    def test_theorem1_passes(self, capsys):
        code = main(["bound-check", "--theorem", "1", "--trials", "400",
                     "--n", "1000", "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"]

    def test_vacuous_delta(self, capsys):
        code = main(["bound-check", "--theorem", "1", "--trials", "200",
                     "--n", "200", "--delta", "0.5", "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["threshold"] >= 1.0

    def test_rejects_few_trials(self):
        assert main(["bound-check", "--theorem", "1", "--trials", "50"]) == 2

    @pytest.mark.parametrize("theorem,mu1,mu0,bad", [
        ("3", "1.4", "0.2", "1.4"), ("1", "1.5", "0.9", "1.5"), ("1", "0.9", "-0.1", "-0.1"),
        ("3", "0.9", "nan", "nan"),
    ])
    def test_rejects_means_outside_unit_interval(self, capsys, theorem, mu1, mu0, bad):
        code = main(["bound-check", "--theorem", theorem, "--trials", "100", "--n", "50",
                     "--mu1", mu1, "--mu0", mu0, "--format", "json"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"must lie in [0, 1]; got {bad}" in captured.err

    @pytest.mark.parametrize("extra,message", [
        (["--delta", "0"], "delta must lie in (0, 1)"),
        (["--mu1", "0.5", "--mu0", "0.5"], "|mu1' - mu0'| must be positive"),
    ])
    def test_bad_bound_exits_before_any_trial_is_drawn(self, capsys, extra, message):
        # 1000 trials of 20000 draws would allocate hundreds of MB before the bound.
        tracemalloc.start()
        try:
            code = main(["bound-check", "--theorem", "3", "--trials", "1000",
                         "--n", "20000", *extra])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and message in capsys.readouterr().err
        assert peak < 1 << 20


class TestFileFormats:
    def test_csv_round_trip(self, tmp_path, rng):
        records = RecordSet(rng.dirichlet(np.ones(3), size=20), rng.random(20),
                            rng.integers(1, 5, 20))
        path = tmp_path / "records.csv"
        osls_io.write_records(path, records)
        back = osls_io.read_records(path)
        # serialization round-trips exactly; the ingest renormalization of f
        # re-divides by a sum within one ulp of 1
        np.testing.assert_allclose(back.f, records.f, rtol=1e-15, atol=0)
        np.testing.assert_array_equal(back.h, records.h)
        np.testing.assert_array_equal(back.y, records.y)

    def test_jsonl_round_trip_without_labels(self, tmp_path, rng):
        records = RecordSet(rng.dirichlet(np.ones(2), size=5), rng.random(5))
        path = tmp_path / "records.jsonl"
        osls_io.write_records(path, records)
        back = osls_io.read_records(path)
        assert back.y is None
        np.testing.assert_array_equal(back.f, records.f)

    def test_features_round_trip(self, tmp_path, rng):
        x = rng.standard_normal((7, 3))
        osls_io.write_features(tmp_path / "x.csv", x)
        np.testing.assert_array_equal(osls_io.read_features(tmp_path / "x.csv"), x)

    def test_malformed_file_errors(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"f": [0.5, 0.5]}\n')  # missing h
        with pytest.raises(Exception):
            osls_io.read_records(bad)

    def test_explicit_means_config(self, tmp_path):
        cfg = tmp_path / "explicit.cfg"
        cfg.write_text(
            "k = 2\n"
            "class_means = 3 0; -3 0; 0 0\n"
            "class_scales = 1 1 2\n"
            "c = 0.3 0.7\n"
            "rho_s = 0.6\n"
            "n_source = 50\nn_target = 50\nn_ood_ref = 20\n"
            "shift = none\nr = 1\nseed = 5\n"
        )
        config = osls_io.scenario_from_kv(osls_io.parse_kv_file(cfg))
        np.testing.assert_array_equal(config.class_means, [[3, 0], [-3, 0], [0, 0]])
        np.testing.assert_array_equal(config.class_scales, [1, 1, 2])
        np.testing.assert_allclose(config.c.entries, [0.3, 0.7])
        # round-trips through the scenario JSON used by --pseudo-ood
        back = osls_io.scenario_from_dict(osls_io.scenario_to_dict(config))
        np.testing.assert_array_equal(back.class_means, config.class_means)
        assert back.shift.key() == config.shift.key()


class TestEvaluateMultipleEstimates:
    def test_one_row_per_method(self, sim_dir, tmp_path):
        paths = []
        for method in ("osls-mle", "mlls", "mapls", "bbse"):
            p = tmp_path / f"{method}.json"
            args = [
                "estimate", "--source", str(sim_dir / "source.jsonl"),
                "--target", str(sim_dir / "target.jsonl"),
                "--method", method, "--out", str(p),
            ]
            if method == "osls-mle":
                args += ["--ood-ref", str(sim_dir / "ood_ref.jsonl")]
            assert main(args) == 0
            paths.append(p)
        eval_path = tmp_path / "eval.json"
        args = ["evaluate", "--truth", str(sim_dir / "truth.json"), "--out", str(eval_path)]
        for p in paths:
            args += ["--estimate", str(p)]
        assert main(args) == 0
        rows = json.loads(eval_path.read_text())["rows"]
        assert [row["source"] for row in rows] == ["osls-mle", "mlls", "mapls", "bbse"]
        assert all("w_mse" in row for row in rows)


class TestMalformedInputExitsTwo:
    """Malformed or non-finite input ends with exit 2 and names its line or field."""

    GOOD = '{"f": [0.5, 0.5], "h": 0.5, "y": 1}'

    @pytest.fixture
    def estimate_path(self, sim_dir, tmp_path):
        path = tmp_path / "est.json"
        assert main(["estimate", "--source", str(sim_dir / "source.jsonl"),
                     "--target", str(sim_dir / "target.jsonl"),
                     "--ood-ref", str(sim_dir / "ood_ref.jsonl"), "--out", str(path)]) == 0
        return path

    def _correct(self, estimate, target, tmp_path, capsys):
        out = tmp_path / "corrected.jsonl"
        code = main(["correct", "--estimate", str(estimate), "--target", str(target),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert not out.exists()
        return code, err

    @pytest.mark.parametrize("name,bad", [
        ("t.jsonl", '{"f": [0.5, 0.5], "h": null, "y": 1}'),
        ("t.jsonl", "[0.5, 0.5]"),
        ("t.jsonl", '{"f": [0.5, 0.5], "h": 0.5, "y": 1.7}'),
        ("t.jsonl", '{"f": [0.5, 0.5], "h": NaN, "y": 1}'),
        ("t.csv", "0.5,0.5,nan,1"),
        ("t.csv", "0.5,0.5,0.5,1.7"),
        ("t.jsonl", '{"f": [0.5, 0.6], "h": 0.5, "y": 1}'),
        ("t.jsonl", '{"f": [0.5, 0.5], "h": 1.9, "y": 1}'),
        ("t.csv", "0.5,0.5,0.9,1,7"),
    ])
    def test_bad_target_line(self, estimate_path, tmp_path, capsys, name, bad):
        lines = ["f1,f2,h,y", "0.5,0.5,0.5,1"] if name.endswith(".csv") else [self.GOOD]
        target = tmp_path / name
        target.write_text("\n".join(lines + [bad, lines[-1]]) + "\n", encoding="utf-8")
        code, err = self._correct(estimate_path, target, tmp_path, capsys)
        assert code == 2
        assert f"line {len(lines) + 1}: " in err and "Traceback" not in err

    @pytest.mark.parametrize("name,lines", [
        ("t.jsonl", [GOOD] * 3),
        ("t.csv", ["f1,f2,h,y"] + ["0.5,0.5,0.5,1"] * 3),
    ])
    def test_lone_carriage_returns(self, estimate_path, tmp_path, capsys, name, lines):
        # A line ends at "\n" only, so the whole file is one line.
        target = tmp_path / name
        target.write_bytes(("\r".join(lines) + "\r").encode())
        code, err = self._correct(estimate_path, target, tmp_path, capsys)
        assert code == 2 and str(target) in err and "Traceback" not in err

    def test_estimate_for_another_k(self, estimate_path, tmp_path, capsys):
        target = tmp_path / "t.jsonl"
        target.write_text('{"f": [0.2, 0.3, 0.5], "h": 0.5}\n' * 3, encoding="utf-8")
        code, err = self._correct(estimate_path, target, tmp_path, capsys)
        assert code == 2
        assert "the estimate is for K=2 but the target has K=3" in err and "Traceback" not in err

    @pytest.mark.parametrize("header,row,named", [
        ("f1,f2,h", "0.5,0.5,0.5", "source records need ground-truth labels"),
        ("f1,f2,h,label", "0.5,0.5,0.5,1", "CSV header names column 'label'"),
        ("f1,f2,h,y,y", "0.5,0.5,0.5,1,1", "CSV header names column 'y' twice"),
    ])
    def test_source_csv_without_labels(self, sim_dir, tmp_path, capsys, header, row, named):
        source = tmp_path / "source.csv"
        source.write_text(f"{header}\n{row}\n{row}\n", encoding="utf-8")
        code = main(["estimate", "--source", str(source),
                     "--target", str(sim_dir / "target.jsonl"),
                     "--ood-ref", str(sim_dir / "ood_ref.jsonl")])
        err = capsys.readouterr().err
        assert code == 2 and str(source) in err and named in err and "Traceback" not in err

    @pytest.mark.parametrize("name,header,good,bad", [
        ("c.jsonl", None, '{"g": [0.2, 0.3, 0.5], "y_hat": 3, "y": 3}',
         '{"g": [7.0, -3.0, 0.5], "y_hat": 9, "y": 9}'),
        ("c.jsonl", None, '{"g": [0.2, 0.3, 0.5], "y_hat": 3, "y": 3}',
         '{"g": [0.2, 0.3, 0.5], "y_hat": 3, "y": 4}'),
        ("c.csv", "g1,g2,g3,y_hat,y", "0.2,0.3,0.5,3,3", "0.2,0.3,0.4,3,3"),
        ("c.csv", "g1,g2,g3,y_hat,y", "0.2,0.3,0.5,3,3", "0.2,0.3,0.5,0,3"),
    ])
    def test_bad_corrected_line(self, sim_dir, tmp_path, capsys, name, header, good, bad):
        lines = ([header] if header else []) + [good]
        corrected = tmp_path / name
        corrected.write_text("\n".join(lines + [bad, good]) + "\n", encoding="utf-8")
        code = main(["evaluate", "--corrected", str(corrected),
                     "--truth", str(sim_dir / "truth.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{name}: line {len(lines) + 1}: " in err and "Traceback" not in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_estimate_rejects_bad_tol(self, sim_dir, capsys, tol):
        code = main(["estimate", "--source", str(sim_dir / "source.jsonl"),
                     "--target", str(sim_dir / "target.jsonl"),
                     "--ood-ref", str(sim_dir / "ood_ref.jsonl"), "--tol", tol])
        assert code == 2 and "tol must be" in capsys.readouterr().err

    def test_estimate_without_method(self, estimate_path, sim_dir, tmp_path, capsys):
        report = json.loads(estimate_path.read_text())
        del report["method"]
        estimate_path.write_text(json.dumps(report))
        code, err = self._correct(estimate_path, sim_dir / "target.jsonl", tmp_path, capsys)
        assert code == 2 and "missing field 'method'" in err

    @pytest.mark.parametrize("field,value", [
        ("rho_t_star", "abc"),
        ("rho_t_star", [0.5]),
        ("rho_t_star", True),
        ("iterations", "x"),
        ("K", 2.5),
        ("K", 3),
        ("pi_hat", "abc"),
    ])
    def test_estimate_with_mistyped_field(self, estimate_path, sim_dir, tmp_path, capsys,
                                          field, value):
        report = json.loads(estimate_path.read_text())
        report[field] = value
        estimate_path.write_text(json.dumps(report))
        code, err = self._correct(estimate_path, sim_dir / "target.jsonl", tmp_path, capsys)
        assert code == 2 and f"field {field!r}" in err and "Traceback" not in err
        code = main(["evaluate", "--estimate", str(estimate_path),
                     "--truth", str(sim_dir / "truth.json")])
        err = capsys.readouterr().err
        assert code == 2 and f"field {field!r}" in err and "Traceback" not in err

    @pytest.mark.parametrize("field,value,rule", [
        ("rho_t_hat", 1.5, "must lie in [0, 1]; got 1.5"),
        ("rho_s_hat", -0.1, "must lie in [0, 1]; got -0.1"),
        ("mu1_hat", 1.5, "must lie in [0, 1]; got 1.5"),
        ("rho_t_star", 2, "must lie in [0, 1]; got 2.0"),
        ("iterations", -3, "must be a whole number >= 0; got -3"),
        ("method", "nope", "is 'nope'; expected one of"),
    ])
    def test_estimate_with_field_out_of_range(self, estimate_path, sim_dir, tmp_path, capsys,
                                              field, value, rule):
        report = json.loads(estimate_path.read_text())
        report[field] = value
        estimate_path.write_text(json.dumps(report))
        named = f"error: {estimate_path}: estimate report field {field!r} {rule}"
        code, err = self._correct(estimate_path, sim_dir / "target.jsonl", tmp_path, capsys)
        assert code == 2 and err.startswith(named), err
        code = main(["evaluate", "--estimate", str(estimate_path),
                     "--truth", str(sim_dir / "truth.json")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(named), err

    def test_estimate_with_nan(self, estimate_path, sim_dir, tmp_path, capsys):
        text = estimate_path.read_text()
        report = json.loads(text)
        estimate_path.write_text(text.replace(repr(report["rho_t_hat"]), "NaN"))
        code, err = self._correct(estimate_path, sim_dir / "target.jsonl", tmp_path, capsys)
        assert code == 2 and "NaN is not a finite number" in err

    def test_estimate_names_bad_source_line(self, sim_dir, tmp_path, capsys):
        source = tmp_path / "source.jsonl"
        lines = (sim_dir / "source.jsonl").read_text().splitlines()
        lines[6] = lines[6].replace('"h": ', '"h": -Infinity, "x": ')
        source.write_text("\n".join(lines) + "\n")
        code = main(["estimate", "--source", str(source),
                     "--target", str(sim_dir / "target.jsonl"),
                     "--ood-ref", str(sim_dir / "ood_ref.jsonl")])
        assert code == 2 and "line 7: " in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("n_source", "abc"),
        ("rho_s", "nan"),
        ("shift", "lt:abc"),
        ("c", "0.5 x"),
        ("class_means", "3 0; -3; 0 0"),
        ("n_sourse", "100"),  # unknown keys: a typo and a sweep-only key
        ("seeds", "1, 2"),
        ("seed", "2"),  # set twice: SCENARIO_CFG sets it too
    ])
    def test_simulate_names_bad_config_value(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SCENARIO_CFG + f"{key} = {value}\n")
        code = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2 and f"key {key!r}" in err and "Traceback" not in err

    def test_simulate_writes_nothing_when_the_target_rounds_to_zero(self, tmp_path, capsys):
        # rho_t = 1/(1+r) = 0.25 of one target row rounds to no ID row and no OOD row.
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(SCENARIO_CFG.replace("n_target = 2000", "n_target = 1")
                       .replace("r = 1.0", "r = 3.0"))
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
        assert code == 2 and "rounds to zero" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("c", ["1 0", "0.9999999 1e-7"])
    def test_simulate_rejects_a_source_prior_below_the_floor(self, tmp_path, capsys, c):
        # The estimators divide by c, so a scenario may not have a class they refuse.
        cfg = tmp_path / "prior.cfg"
        cfg.write_text(SCENARIO_CFG + f"c = {c}\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and "c must be finite numbers >= 1e-06; got " in err
        assert err.endswith(" at row 1\n") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("shift", ["dirichlet:nan", "dirichlet:inf", "lt:nan", "lt:inf",
                                       "dirichlet:", "lt:x"])
    def test_non_finite_shift_exits_2(self, tmp_path, capsys, shift):
        # All gamma draws of dirichlet:nan are NaN, and lt:inf puts all mass on class 1;
        # the last two have a field that is not a number.
        cfg = tmp_path / "shift.cfg"
        cfg.write_text(SCENARIO_CFG.replace("shift = lt:10:forward", f"shift = {shift}"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: config key 'shift': ")
        assert not out.exists()
        cfg.write_text(SWEEP_CFG.replace("dirichlet:1.0", shift))
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: config key 'shifts': ")
        assert not out.exists()

    @pytest.mark.parametrize("name,text,needs", [
        ("t.jsonl", "", "at least one row"),
        ("t.jsonl", " \n\n\t\n", "at least one row"),
        ("t.jsonl", "\n" * 5000, "at least one row"),
        ("t.csv", "f1,f2,h,y\n", "a CSV header and at least one row"),
    ])
    def test_table_without_rows(self, sim_dir, tmp_path, capsys, name, text, needs):
        target = tmp_path / name
        target.write_text(text, encoding="utf-8")
        code = main(["estimate", "--source", str(sim_dir / "source.jsonl"),
                     "--target", str(target), "--ood-ref", str(sim_dir / "ood_ref.jsonl")])
        err = capsys.readouterr().err
        assert code == 2 and err == f"error: prediction file {target} needs {needs}\n"

    @pytest.mark.parametrize("extra", ["scale = 1e-160", "radius = 1e200", "scale = 1e160"])
    def test_simulate_names_a_config_too_extreme_for_float64(self, tmp_path, capsys, extra):
        # The scales' squares or the squared distances overflow or underflow.
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text(f"k = 3\nn_source = 200\nn_target = 200\nn_ood_ref = 100\n{extra}\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(
            "error: class_means and class_scales are too extreme for float64: "
            "the log densities of the target sample are not finite")
        assert "row" not in err
        assert not any(out.iterdir())

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(SCENARIO_CFG.encode() + b"# \xff\n")
        code = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 2 and "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("shifts", "lt:10, lt:abc"),
        ("r_values", "1.0, x"),
        ("seeds", "1.5, 1"),
        ("seeds", "1, 2, 1"),
        ("shifts", "lt:10, dirichlet:1.0, lt:10"),
        ("shifts", "lt:10, ordered_lt:10:forward"),
        ("r_values", "1.0, 0.1, 1"),
        ("methods", "mlls, osls-mle, MLLS"),
        ("methods", "mlls, foo"),
        ("r_values", "1.0, -1"),
        ("n_source", "5e2"),
        ("n_sourse", "500"),
        ("methods", ""),
        ("seeds", ""),
        ("shifts", ","),
        ("r_values", ""),
        ("shifts", "lt:10:forward:junk"),
        ("shifts", "none:5"),
        ("shifts", "dirichlet:1:2"),
    ])
    def test_sweep_names_bad_config_value(self, tmp_path, capsys, key, value):
        lines = [line for line in SWEEP_CFG.splitlines() if not line.startswith(key)]
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and f"key {key!r}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("n_target", None), ("n_target", 2.5), ("class_means", "abc"), ("shift", "lt:x"),
    ])
    def test_pseudo_ood_names_bad_scenario_key(self, sim_dir, tmp_path, capsys, key, value):
        scenario = json.loads((sim_dir / "scenario.json").read_text())
        if value is None:
            del scenario[key]
        else:
            scenario[key] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code = main(["estimate", "--source", str(sim_dir / "source.jsonl"),
                     "--target", str(sim_dir / "target.jsonl"), "--pseudo-ood",
                     "--features", str(sim_dir / "source_features.csv"),
                     "--scenario", str(path)])
        err = capsys.readouterr().err
        assert code == 2 and f"field {key!r}" in err and "Traceback" not in err

    @pytest.mark.parametrize("field,value", [
        ("rho_t", "abc"), ("rho_s", [0.7]), ("K", 2.5), ("K", True), ("pi", [0.5, "x"]),
        ("c", [0.5, 0.25, 0.25]), ("pi", 0.5),
    ])
    def test_evaluate_names_bad_truth_field(self, estimate_path, sim_dir, tmp_path, capsys,
                                            field, value):
        truth = json.loads((sim_dir / "truth.json").read_text())
        truth[field] = value
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(truth))
        code = main(["evaluate", "--estimate", str(estimate_path), "--truth", str(path)])
        err = capsys.readouterr().err
        assert code == 2 and f"field {field!r}" in err and "Traceback" not in err


NEEDS_TWO_CORES = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs Linux's /proc and two usable cores")


class TestNoWorkerOutlivesCommand:
    """Commands that use the process pool, each run in a session of its own: ``osls correct``
    on a table of several blocks, and ``osls sweep --workers 2``."""

    @staticmethod
    def _osls(tmp_path, *args):
        # stderr goes to a file: a worker left running would hold a pipe open.
        with open(tmp_path / "stderr.txt", "wb") as err:
            return subprocess.Popen([sys.executable, "-m", "osls.cli", *args], env=child_env(),
                                    start_new_session=True, stdout=subprocess.DEVNULL,
                                    stderr=err)

    @classmethod
    def _start(cls, tmp_path, n, bad_line=None):
        rng = np.random.default_rng(3)
        target = tmp_path / "target.jsonl"
        osls_io.write_records(target, RecordSet(rng.dirichlet(np.ones(2), n), rng.random(n),
                                                rng.integers(1, 4, n)))
        if bad_line is not None:
            lines = target.read_text().splitlines()
            lines[bad_line - 1] = '{"f": [0.5, 0.5], "h": NaN}'
            target.write_text("\n".join(lines) + "\n")
        estimate = tmp_path / "estimate.json"
        estimate.write_text(json.dumps({"method": "osls-mle", "K": 2, "c_hat": [0.5, 0.5],
                                        "pi_hat": [0.3, 0.7], "rho_s_hat": 0.7,
                                        "rho_t_hat": 0.5}))
        return cls._osls(tmp_path, "correct", "--estimate", str(estimate), "--target",
                         str(target), "--out", str(tmp_path / "corrected.jsonl"))

    @staticmethod
    def _group_size(pgid):
        """How many processes are in process group ``pgid``."""
        size = 0
        for pid in filter(str.isdigit, os.listdir("/proc")):
            try:
                with open(f"/proc/{pid}/stat") as stat:
                    # Fields after the command name: state, ppid, pgrp, ...
                    size += int(stat.read().rsplit(")", 1)[1].split()[2]) == pgid
            except (OSError, IndexError, ValueError):
                pass
        return size

    @staticmethod
    def _group_ends(command, seconds):
        """Whether the command's process group is gone within ``seconds``; kills what is left."""
        try:
            for _ in range(int(seconds / 0.05)):
                try:
                    os.killpg(command.pid, 0)
                except ProcessLookupError:
                    return True
                time.sleep(0.05)
            return False
        finally:
            try:
                os.killpg(command.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    @pytest.mark.parametrize("bad_line", [None, 2 * osls_io.BLOCK_ROWS + 5])
    def test_correct(self, tmp_path, bad_line):
        command = self._start(tmp_path, 2 * osls_io.BLOCK_ROWS + 100, bad_line)
        code = command.wait(timeout=120)
        with pytest.raises(ProcessLookupError):
            os.killpg(command.pid, 0)
        self._group_ends(command, 0)
        err = (tmp_path / "stderr.txt").read_text()
        if bad_line is None:
            assert code == 0, err
        else:
            assert code == 2 and f"line {bad_line}: " in err

    def test_killed_correct(self, tmp_path):
        # The output file opens once the target, read on the pool, is in memory.
        command = self._start(tmp_path, 40 * osls_io.BLOCK_ROWS)
        out = tmp_path / "corrected.jsonl"
        deadline = time.monotonic() + 120
        while not out.exists() and command.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
        command.kill()
        command.wait(timeout=60)
        assert self._group_ends(command, 10)

    @classmethod
    def _start_sweep(cls, tmp_path):
        """``osls sweep --workers 2`` on a long grid, once both workers run grid points."""
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("k = 2\nn_source = 20000\nn_target = 20000\nn_ood_ref = 5000\n"
                       "shifts = lt:10\nr_values = 1\nmethods = osls-mle, mlls\n"
                       f"seeds = {', '.join(map(str, range(200)))}\n")
        command = cls._osls(tmp_path, "sweep", "--config", str(cfg), "--workers", "2",
                            "--out", str(tmp_path / "sweep.json"))
        deadline = time.monotonic() + 120
        while (cls._group_size(command.pid) < 3 and command.poll() is None
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert command.poll() is None, (tmp_path / "stderr.txt").read_text()
        return command

    @NEEDS_TWO_CORES
    def test_killed_sweep(self, tmp_path):
        command = self._start_sweep(tmp_path)
        command.kill()
        command.wait(timeout=60)
        assert self._group_ends(command, 10)

    @NEEDS_TWO_CORES
    def test_interrupted_sweep(self, tmp_path):
        # Ctrl-C reaches the whole foreground process group: the command and its workers.
        command = self._start_sweep(tmp_path)
        os.killpg(command.pid, signal.SIGINT)
        try:
            code = command.wait(timeout=60)
        except subprocess.TimeoutExpired:
            code = None
        assert self._group_ends(command, 10)  # also kills what is left
        assert code == 130
        assert (tmp_path / "stderr.txt").read_text().splitlines() == ["error: interrupted"]
