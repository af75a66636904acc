import concurrent.futures
import json
import os
import re

import numpy as np
import pytest

from osls import baselines as bl
from osls.core import ValidationError
from osls.em import EmConfig
from osls.io import scenario_from_kv
from osls.pipeline import EstimateResult, estimate, run_sweep, source_class_frequencies
from osls.simulate import ShiftSpec, make_scenario

from conftest import easy_config

# The estimate report's keys in the order every report has written them.
REPORT_KEYS = ["method", "K", "c_hat", "pi_hat", "rho_s_hat", "mu1_hat", "mu0_hat",
               "rho_t_hat", "rho_t_star", "nll_initial", "nll_final", "iterations",
               "converged"]


@pytest.fixture(scope="module")
def scenario():
    cfg = easy_config(k=3, seed=4, n=1000, n_ood=500, shift=ShiftSpec.ordered_lt(10))
    source, target, ood_ref, _ = make_scenario(cfg)
    return source.records, target.records, float(np.mean(ood_ref.records.h))


class TestEstimateReport:
    @pytest.mark.parametrize("method,keys", [
        ("osls-mle", REPORT_KEYS),
        ("mlls", REPORT_KEYS[:4]),
        ("uniform", REPORT_KEYS[:4] + ["rho_t_hat"]),
    ])
    def test_round_trip_keeps_keys_and_values(self, scenario, method, keys):
        source, target, mu0_hat = scenario
        result = estimate(method, source, target, mu0_hat=mu0_hat)
        report = result.to_dict()
        assert list(report) == keys
        back = EstimateResult.from_dict(json.loads(json.dumps(report))).to_dict()
        assert list(back) == keys
        assert back == report

    def test_null_optional_field_reads_as_absent(self, scenario):
        source, target, mu0_hat = scenario
        report = estimate("osls-mle", source, target, mu0_hat=mu0_hat).to_dict()
        back = EstimateResult.from_dict({**report, "rho_t_star": None})
        assert back.rho_t_star is None and back.rho_t == report["rho_t_hat"]
        with pytest.raises(ValidationError, match="report field 'K': K must be a whole number; got None"):
            EstimateResult.from_dict({**report, "K": None})

    @pytest.mark.parametrize("field,value", [
        ("rho_t_hat", 1.5), ("rho_t_star", -3.0), ("mu0_hat", 1.01), ("iterations", -3),
        ("method", "nope"),
    ])
    def test_fields_out_of_range_are_named(self, scenario, field, value):
        source, target, mu0_hat = scenario
        report = estimate("osls-mle", source, target, mu0_hat=mu0_hat).to_dict()
        with pytest.raises(ValidationError, match=f"^estimate report field '{field}' "):
            EstimateResult.from_dict({**report, field: value})

    def test_correction_ratio_rule(self, scenario):
        source, target, mu0_hat = scenario
        osls = estimate("osls-mle", source, target, mu0_hat=mu0_hat)
        assert osls.rho_t == osls.rho_t_star != osls.rho_t_hat
        raw = estimate("osls-mle", source, target, mu0_hat=mu0_hat,
                       apply_rho_correction=False)
        assert raw.rho_t == raw.rho_t_hat
        assert estimate("uniform", source, target).rho_t == 0.5
        assert estimate("mlls", source, target).rho_t is None


class TestClosedSetFitSettings:
    def test_estimate_passes_iters_and_tol(self, scenario):
        source, target, _ = scenario
        one = EmConfig(max_iters=1, tol=0.0)
        c_hat = source_class_frequencies(source)
        alpha = np.full(3, 2.0)
        for method, fit in (("mlls", bl.mlls(target.f, c_hat, 1, tol=0.0)),
                            ("mapls", bl.mapls(target.f, c_hat, alpha, 1, tol=0.0))):
            assert fit.iterations_run == 1
            short = estimate(method, source, target, em_config=one).pi_hat.entries
            assert np.array_equal(short, fit.pi_final.entries)
            assert not np.array_equal(short, estimate(method, source, target).pi_hat.entries)

    def test_sweep_iters_reach_closed_set_cells(self):
        base_kv = {"k": "2", "radius": "4.0", "scale": "0.8", "rho_s": "0.7",
                   "n_source": "500", "n_target": "500", "n_ood_ref": "300"}
        grid = (scenario_from_kv(base_kv), ["lt:10:forward"], [1.0], [1], ["mlls", "mapls"])
        short, failures = run_sweep(*grid, em_iters=1)
        assert not failures
        default, _ = run_sweep(*grid)
        for a, b in zip(short, default):
            assert a.method == b.method and a.w_mse_mean != b.w_mse_mean

    def test_sweep_forks_no_more_workers_than_points(self, monkeypatch):
        asked = []

        class RecordingExecutor:
            """Records the pool size asked for and runs each call at once, in this process."""

            def __init__(self, max_workers=None, **kwargs):
                asked.append(max_workers)

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

            def map(self, fn, *iterables):
                return map(fn, *iterables)

            def shutdown(self, wait=True, cancel_futures=False):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.shutdown()

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        # The pool this test starts holds no processes; no later test may use it.
        monkeypatch.setattr("osls.pool._POOL", None)
        grid = (easy_config(2, n=200, n_ood=100), ["none"], [1.0], [1, 2], ["mlls"])
        cells, failures = run_sweep(*grid, workers=1000)
        assert asked and max(asked) <= 2
        serial, _ = run_sweep(*grid)
        assert not failures and [c.to_dict() for c in cells] == [c.to_dict() for c in serial]


class TestSweepGrid:
    """``run_sweep`` checks its whole grid, the rules a sweep config is held to,
    before any point runs."""

    AXES = dict(shifts=["lt:10"], r_values=[1.0], seeds=[1], methods=["mlls"])

    @pytest.mark.parametrize("axis,values,message", [
        ("shifts", ["lt:10", "lt:10"], "'shifts': lt:10 is repeated"),
        ("shifts", ["lt:10", "ordered_lt:10:forward"], "'shifts': ordered_lt:10:forward is rep"),
        ("r_values", [1.0, 1], "'r_values': 1 is repeated"),
        ("seeds", [1, 1], "'seeds': 1 is repeated"),
        ("methods", ["mlls", "MLLS"], "'methods': MLLS is repeated"),
        ("methods", ["mlls", "foo"], "'methods': unknown method 'foo'"),
        ("shifts", ["lt:10", "lt:junk"], "'shifts': cannot parse shift spec 'lt:junk'"),
        ("shifts", ["lt:10", "dirichlet:nan"], "'shifts': alpha must be a finite number > 0"),
        ("r_values", [1.0, -1.0], "'r_values': r must be a finite number > 0; got -1.0"),
        ("r_values", [1.0, "2"], "'r_values': r must be a finite number > 0; got '2'"),
        ("seeds", [1, 1.5], "'seeds': seed must be a whole number; got 1.5"),
        ("seeds", [1, True], "'seeds': seed must be a whole number; got True"),
        ("shifts", [], "'shifts' has no values"),
        ("r_values", [], "'r_values' has no values"),
        ("seeds", [], "'seeds' has no values"),
        ("methods", [], "'methods' has no values"),
    ])
    def test_bad_grid_raises_before_any_point_runs(self, monkeypatch, axis, values, message):
        ran = []

        def make_scenario(config):
            ran.append(config)
            raise AssertionError("a grid point ran")

        monkeypatch.setattr("osls.pipeline.make_scenario", make_scenario)
        with pytest.raises(ValidationError, match=f"^config key {re.escape(message)}"):
            run_sweep(easy_config(2, n=200, n_ood=100), **dict(self.AXES, **{axis: values}))
        assert not ran

    def test_cells_keep_the_shift_as_given_and_fold_the_method(self):
        cells, failures = run_sweep(easy_config(2, n=200, n_ood=100), ["lt:10", "none"],
                                    [1, 0.5], [1, 2], ["MLLS"])
        assert not failures
        assert [(c.method, c.shift, c.r, c.seeds) for c in cells] == [
            ("mlls", shift, r, 2) for shift in ("lt:10", "none") for r in (0.5, 1.0)]
        assert all(type(c.r) is float for c in cells)
