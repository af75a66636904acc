"""The four benchmark workloads: set-up, one pass of operations, and output checks.

A workload builds its inputs from the seed in ``setup`` and then runs whole
passes of the same operations. ``run_pass`` returns the pass's wall time, its
operation counts, a digest of everything it produced (every pass over the
same inputs must produce the same bytes) and a few named timings.
``check`` validates the last pass's outputs with ``checks``.

``cli-jsonl`` and ``sweep-small`` run ``python -m osls.cli`` processes, as a
user does; ``fit-inmem`` and ``oracle-k2`` call the library in this process.
A traced pass runs the same operations with a ``tracing.Tracer`` installed
(in a child, through ``cli_child.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import osls.em
import osls.pipeline
import osls.simulate
from osls.core import OslsError, SourceLabelModel
from osls.em import EmConfig
from osls.simulate import ShiftSpec, ring_config

import checks
import reference as ref

HERE = Path(__file__).resolve().parent


@dataclass
class PassResult:
    seconds: float
    attempted: int
    failed: int
    digest: str
    rss_kb: int = 0
    detail: dict = field(default_factory=dict)


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _float_bytes(*values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class ProcessRunner:
    """Starts ``osls`` command processes and waits for each to end."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.src = str(root / "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [self.src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def _wait(self, argv):
        """Run argv to its end through spawn.py; returns (seconds, exit code, peak RSS KiB)."""
        result_path = self.work / "spawn-result.txt"
        with open(self.work / "stderr.log", "wb") as err:
            subprocess.run([sys.executable, "-S", str(HERE / "spawn.py"), str(result_path),
                            *argv], cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                           stderr=err, check=True)
        seconds, code, rss_kb = result_path.read_text(encoding="utf-8").split()
        return float(seconds), int(code), int(rss_kb)

    def osls(self, args, tracer=None):
        """One ``osls`` command; traced commands go through cli_child.py."""
        if tracer is None:
            return self._wait([sys.executable, "-m", "osls.cli", *args])
        trace_path = self.work / "child-trace.json"
        argv = [sys.executable, str(HERE / "cli_child.py"), "{spawned_at}",
                str(trace_path), self.src, "--", *args]
        result = self._wait(argv)
        record = json.loads(trace_path.read_text(encoding="utf-8"))
        tracer.merge(record)
        tracer.counts["cli.startup_s"] += record["startup_s"]
        return result

    def warm_import(self) -> None:
        """Start one interpreter that imports osls.cli, as set-up for CLI workloads."""
        _, code, _ = self._wait([sys.executable, "-c", "import osls.cli"])
        if code != 0:
            raise RuntimeError("python -c 'import osls.cli' failed; see stderr.log")

    def stderr_tail(self) -> str:
        return (self.work / "stderr.log").read_text(encoding="utf-8", errors="replace")[-500:]


class CliJsonl:
    """simulate -> estimate -> correct -> evaluate as four processes on JSONL files."""

    name = "cli-jsonl"
    in_process = False
    K = 10
    N_SOURCE = 40_000
    N_TARGET = 40_000
    N_OOD_REF = 20_000
    SHIFT_IMBALANCE = 100
    R = 1.0
    BINS = 15
    COMMANDS = ("simulate", "estimate", "correct", "evaluate")

    def __init__(self, runner: ProcessRunner):
        self.runner = runner
        self.run_dir = runner.work / "run"

    def setup(self, seed: int) -> None:
        self.config = self.runner.work / "scenario.cfg"
        self.config.write_text(
            f"k = {self.K}\nradius = 4.0\nscale = 1.0\nrho_s = 0.7\n"
            f"n_source = {self.N_SOURCE}\nn_target = {self.N_TARGET}\n"
            f"n_ood_ref = {self.N_OOD_REF}\nshift = lt:{self.SHIFT_IMBALANCE}:forward\n"
            f"r = {self.R!r}\nseed = {seed}\n",
            encoding="utf-8",
        )

    def warm_up(self) -> None:
        self.runner.warm_import()

    def _argv(self, command: str) -> list:
        d = self.run_dir
        return {
            "simulate": ["simulate", "--config", str(self.config), "--out-dir", str(d)],
            "estimate": ["estimate", "--source", str(d / "source.jsonl"),
                         "--target", str(d / "target.jsonl"),
                         "--ood-ref", str(d / "ood_ref.jsonl"),
                         "--format", "json", "--out", str(d / "estimate.json")],
            "correct": ["correct", "--estimate", str(d / "estimate.json"),
                        "--target", str(d / "target.jsonl"),
                        "--out", str(d / "corrected.jsonl")],
            "evaluate": ["evaluate", "--estimate", str(d / "estimate.json"),
                         "--corrected", str(d / "corrected.jsonl"),
                         "--truth", str(d / "truth.json"), "--ece",
                         "--bins", str(self.BINS), "--format", "json",
                         "--out", str(d / "evaluate.json")],
        }[command]

    def run_pass(self, round_index: int, tracer=None) -> PassResult:
        detail, failed, rss = {}, 0, 0
        start = time.perf_counter()
        for command in self.COMMANDS:
            seconds, code, rss_kb = self.runner.osls(self._argv(command), tracer)
            detail[f"{command}_s"] = seconds
            rss = max(rss, rss_kb)
            if code != 0:
                failed += 1
                sys.stderr.write(f"{command} exited {code}: {self.runner.stderr_tail()}\n")
        seconds = time.perf_counter() - start
        files = sorted(p for p in self.run_dir.iterdir() if p.is_file())
        digest = _digest(p.name.encode() + p.read_bytes() for p in files)
        return PassResult(seconds, len(self.COMMANDS), failed, digest, rss, detail)

    def check(self) -> list:
        d = self.run_dir
        data = {
            "source": ref.prediction_arrays(ref.read_jsonl(d / "source.jsonl")),
            "target": ref.prediction_arrays(ref.read_jsonl(d / "target.jsonl")),
            "ood": ref.prediction_arrays(ref.read_jsonl(d / "ood_ref.jsonl")),
            "truth": json.loads((d / "truth.json").read_text(encoding="utf-8")),
        }
        errors = checks.check_simulate(data, self.K, self.N_SOURCE, self.N_TARGET,
                                       self.N_OOD_REF, self.R, self.SHIFT_IMBALANCE)
        report = json.loads((d / "estimate.json").read_text(encoding="utf-8"))
        errors += checks.check_estimate(report, data)
        if errors:
            return errors
        g, y_hat, y = ref.corrected_arrays(ref.read_jsonl(d / "corrected.jsonl"))
        _, c_ext = checks.source_model(data, report)
        errors += checks.check_corrected(g, y_hat, y, report, c_ext, data["target"])
        evaluation = json.loads((d / "evaluate.json").read_text(encoding="utf-8"))
        errors += checks.check_evaluate(evaluation, report, data["truth"], g, y_hat, y,
                                        self.BINS)
        return errors


class SweepSmall:
    """``osls sweep --workers 1`` over many small scenarios and all six methods."""

    name = "sweep-small"
    in_process = False
    METHODS = ("osls-mle", "osls-map", "mlls", "mapls", "bbse", "uniform")
    SHIFTS = ("lt:10", "lt:100", "dirichlet:1")
    R_VALUES = (1.0, 0.1)
    N_SEEDS = 3
    BASE = ("k = 10\nradius = 3.0\nscale = 1.0\nrho_s = 0.7\n"
            "n_source = 5000\nn_target = 5000\nn_ood_ref = 2500\n")

    def __init__(self, runner: ProcessRunner):
        self.runner = runner
        self.out = runner.work / "sweep.json"

    @property
    def points(self) -> int:
        return len(self.SHIFTS) * len(self.R_VALUES) * self.N_SEEDS

    def setup(self, seed: int) -> None:
        seeds = ", ".join(str(seed * 100 + i) for i in range(1, self.N_SEEDS + 1))
        self.config = self.runner.work / "grid.cfg"
        self.config.write_text(
            f"shifts = {', '.join(self.SHIFTS)}\n"
            f"r_values = {', '.join(repr(r) for r in self.R_VALUES)}\n"
            f"seeds = {seeds}\nmethods = {', '.join(self.METHODS)}\n" + self.BASE,
            encoding="utf-8",
        )

    def warm_up(self) -> None:
        self.runner.warm_import()

    def run_pass(self, round_index: int, tracer=None) -> PassResult:
        args = ["sweep", "--config", str(self.config), "--workers", "1",
                "--format", "json", "--out", str(self.out)]
        seconds, code, rss_kb = self.runner.osls(args, tracer)
        attempted = self.points * len(self.METHODS)
        if code != 0:
            sys.stderr.write(f"sweep exited {code}: {self.runner.stderr_tail()}\n")
        # Exit code 1 means some cells failed and the rest were written; others, none ran.
        failed = attempted
        if code in (0, 1):
            failed = len(json.loads(self.out.read_text(encoding="utf-8"))["failures"])
        detail = {"sweep_points_per_s": self.points / seconds}
        return PassResult(seconds, attempted, failed, _digest([self.out.read_bytes()]),
                          rss_kb, detail)

    def check(self) -> list:
        obj = json.loads(self.out.read_text(encoding="utf-8"))
        return checks.check_sweep(obj, self.METHODS, self.SHIFTS, self.R_VALUES, self.N_SEEDS)


class FitInmem:
    """Every estimator on in-memory record sets: K=10 and K=100, no file I/O."""

    name = "fit-inmem"
    in_process = True
    ALPHA = 2.0  # the CLI's default --alpha-in, for osls-map and mapls
    TOL = 1e-8
    CASES = {
        # name: (K, ring radius, OOD scale, n_source, n_target, n_ood_ref)
        "k10": (10, 4.0, None, 50_000, 100_000, 25_000),
        "k100": (100, 30.0, 15.0, 20_000, 5_000, 5_000),
    }
    METHODS = ("osls-mle", "osls-map", "mlls", "mapls", "bbse")

    def setup(self, seed: int) -> None:
        self.cases = {}
        for offset, (name, (k, radius, ood_scale, n_s, n_t, n_o)) in enumerate(
            self.CASES.items()
        ):
            cfg = ring_config(k, radius=radius, ood_scale=ood_scale, rho_s=0.7,
                              n_source=n_s, n_target=n_t, n_ood_ref=n_o,
                              shift=ShiftSpec.ordered_lt(100.0), r=1.0,
                              seed=seed * 10 + offset)
            source, target, ood_ref, _ = osls.simulate.make_scenario(cfg)
            self.cases[name] = (source.records, target.records, ood_ref.records.h)

    def warm_up(self) -> None:
        for case in self.cases:
            self._estimate("osls-mle", case, EmConfig(max_iters=1))

    def _estimate(self, method, case, em_config=None):
        source, target, ood_h = self.cases[case]
        if em_config is None and method == "osls-map":
            em_config = EmConfig(alpha_in=np.full(source.k, self.ALPHA))
        return osls.pipeline.estimate(
            method, source, target, mu0_hat=float(np.mean(ood_h)), n_ood=ood_h.size,
            em_config=em_config, mapls_alpha=self.ALPHA,
        )

    def run_pass(self, round_index: int, tracer=None) -> PassResult:
        results, detail, failed = {}, {}, 0
        start = time.perf_counter()
        for case in self.CASES:
            for method in self.METHODS:
                t0 = time.perf_counter()
                try:
                    results[(case, method)] = self._estimate(method, case)
                except OslsError as exc:
                    failed += 1
                    sys.stderr.write(f"{case} {method}: {exc}\n")
                if (case, method) == ("k10", "osls-mle"):
                    detail["fit_mle_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        results["tol"] = self._estimate("osls-mle", "k10",
                                        EmConfig(max_iters=100_000, tol=self.TOL))
        detail["fit_to_tol_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        results["correct"] = osls.pipeline.correct_with_estimate(
            results[("k10", "osls-mle")], self.cases["k10"][1])
        detail["correct_s"] = time.perf_counter() - t0
        seconds = time.perf_counter() - start
        self.results = results
        chunks = []
        for key, value in results.items():
            if key == "correct":
                chunks += [value[0].tobytes(), value[1].tobytes()]
            else:
                chunks.append(value.pi_hat.entries.tobytes())
                chunks.append(_float_bytes(*(v for v in (value.rho_t_hat, value.rho_t_star,
                                                         value.nll_final) if v is not None)))
        return PassResult(seconds, 2 * len(self.METHODS) + 2, failed, _digest(chunks),
                          detail=detail)

    def check(self) -> list:
        errors = []
        for case in self.CASES:
            source, target, ood_h = self.cases[case]
            c = ref.class_frequencies(np.asarray(source.y), source.k)
            fe = ref.extended_outputs(np.asarray(target.f), np.asarray(target.h))
            f = np.asarray(target.f)
            alpha = np.full(source.k, self.ALPHA)
            for method in self.METHODS:
                result = self.results.get((case, method))
                if result is None:
                    continue
                name = f"{case} {method}"
                if method.startswith("osls"):
                    ce = ref.extend(c, result.rho_s_hat)
                    errors += checks.check_osls_fit(
                        name, result, fe, ce, c, alpha if method == "osls-map" else None)
                elif method == "bbse":
                    errors += checks.check_bbse(result.pi_hat.entries, np.asarray(source.f),
                                                np.asarray(source.y), f)
                else:
                    errors += checks.check_closed_set_fit(
                        name, result.pi_hat.entries, f, c, alpha if method == "mapls" else None)
        source, target, _ = self.cases["k10"]
        c = ref.class_frequencies(np.asarray(source.y), source.k)
        fe = ref.extended_outputs(np.asarray(target.f), np.asarray(target.h))
        tol_fit = self.results["tol"]
        ce = ref.extend(c, tol_fit.rho_s_hat)
        errors += checks.check_osls_fit("k10 tol fit", tol_fit, fe, ce, c)
        errors += checks.check_fixed_point("k10 tol fit", tol_fit, fe, ce)
        mle = self.results[("k10", "osls-mle")]
        g, labels = self.results["correct"]
        report = {"K": source.k, "pi_hat": mle.pi_hat.entries, "rho_t_hat": mle.rho_t_hat,
                  "rho_t_star": mle.rho_t_star}
        target_arrays = (np.asarray(target.f), np.asarray(target.h), np.asarray(target.y))
        errors += checks.check_corrected(g, labels, target_arrays[2], report,
                                         ref.extend(c, mle.rho_s_hat), target_arrays)
        return errors


class OracleK2:
    """Criterion c01's protocol: EM versus the 0.001 NLL grid on random K=2 scenarios."""

    name = "oracle-k2"
    in_process = True
    POOL = 16
    CHECKS_PER_PASS = 2
    ROUNDS_IN_CYCLE = POOL // CHECKS_PER_PASS  # rounds before the pool repeats
    RESOLUTION = 0.001

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.pool = []
        for i in range(self.POOL):
            cfg = ring_config(
                2, radius=float(rng.uniform(2.0, 4.0)), scale=1.0,
                rho_s=float(rng.uniform(0.45, 0.85)), n_source=2000, n_target=300,
                n_ood_ref=2000, shift=ShiftSpec.dirichlet(1.5),
                r=float(np.exp(rng.uniform(np.log(0.5), np.log(2.0)))),
                seed=seed * 1000 + i,
            )
            _, target, _, _ = osls.simulate.make_scenario(cfg)
            self.pool.append((SourceLabelModel(cfg.c, cfg.rho_s), target.records))
        self.outputs = {}

    def warm_up(self) -> None:
        """One unrecorded check: the first grid scan in a process runs ~1.7 s slower."""
        self._check(*self.pool[0])

    def _check(self, source, target):
        p1, rho, value = osls.em.nll_grid_argmin(source, target, resolution=self.RESOLUTION)
        trace = osls.em.run_em(source, target, EmConfig(max_iters=5000, tol=1e-13))
        return p1, rho, value, trace.pi_final.entries[0], trace.rho_t_final

    def run_pass(self, round_index: int, tracer=None) -> PassResult:
        detail, chunks = {"oracle_check_s": []}, []
        start = time.perf_counter()
        for slot in range(self.CHECKS_PER_PASS):
            index = (round_index * self.CHECKS_PER_PASS + slot) % self.POOL
            t0 = time.perf_counter()
            output = self._check(*self.pool[index])
            detail["oracle_check_s"].append(time.perf_counter() - t0)
            self.outputs[index] = output
            chunks.append(_float_bytes(index, *output))
        seconds = time.perf_counter() - start
        return PassResult(seconds, self.CHECKS_PER_PASS, 0, _digest(chunks), detail=detail)

    def check(self) -> list:
        errors = []
        n_side = int(round(1.0 / self.RESOLUTION)) + 1
        for index, (p1, rho, value, em_pi1, em_rho) in sorted(self.outputs.items()):
            source, target = self.pool[index]
            ce = ref.extend(source.c.entries, source.rho_s)
            fe = ref.extended_outputs(np.asarray(target.f), np.asarray(target.h))
            errors += [f"scenario {index}: {e}" for e in
                       checks.check_grid(fe, ce, p1, rho, value, n_side, em_pi1, em_rho)]
        return errors


WORKLOADS = {cls.name: cls for cls in (CliJsonl, FitInmem, SweepSmall, OracleK2)}
