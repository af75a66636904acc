"""Benchmark of the osls pipeline, end to end and per layer.

Run from the root of a checkout (the directory that holds ``src/osls``):

    python3 perfbench/run.py --workload cli-jsonl --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

A run sets its workload up three times and warms it up once (``setup_s`` is
the import time, the median set-up and the warm-up), then runs whole passes
of the workload's operations until ``--seconds`` have gone by, checks the
last pass's outputs and prints one JSON object as the last line of standard
output. With ``--trace 1`` it alternates untraced and traced passes and
reports per-layer metrics instead, with the tracing overhead as the traced
pass time minus the untraced one. ``--workload all`` runs each workload in a
process of its own and combines their results.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SETUP_REPEATS = 3

E2E_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "io.bytes_read": "B", "io.bytes_written": "B",
    "em.updates": "count", "em.updates_to_tol": "count",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def blas_threads() -> int:
    """Thread count of the OpenBLAS that numpy loaded, or -1 if not found."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype, func.argtypes = ctypes.c_int, []
                return int(func())
    return -1


def last_level_cache() -> str:
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"))
    return caches[-1].read_text().strip() if caches else "unknown"


def machine_record() -> dict:
    import numpy
    import osls

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "osls_backend": osls.BACKEND,
        "blas_threads": blas_threads(),
        "last_level_cache": last_level_cache(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    import tracing
    import workloads

    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        cls = workloads.WORKLOADS[name]
        workload = cls() if cls.in_process else cls(workloads.ProcessRunner(ROOT, work))
        setup_tracer = tracing.Tracer() if trace else None
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            traced = setup_tracer is not None and repeat == SETUP_REPEATS - 1
            if traced:
                setup_tracer.install()
            start = time.perf_counter()
            try:
                workload.setup(seed)
            finally:
                if traced:
                    setup_tracer.uninstall()
            setup_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        workload.warm_up()
        warm_up_s = time.perf_counter() - start

        pass_tracer = tracing.Tracer() if trace else None
        passes = {False: [], True: []}
        digests = {}
        errors = []
        started = time.perf_counter()
        round_index = 0
        while True:
            for traced in (False, True) if trace else (False,):
                tracer = pass_tracer if traced else None
                if tracer is not None and workload.in_process:
                    tracer.install()
                try:
                    result = workload.run_pass(round_index, tracer)
                finally:
                    if tracer is not None and workload.in_process:
                        tracer.uninstall()
                passes[traced].append(result)
                key = round_index % getattr(workload, "ROUNDS_IN_CYCLE", 1)
                if digests.setdefault(key, result.digest) != result.digest:
                    errors.append(f"pass {round_index} ({'traced' if traced else 'untraced'}) "
                                  "wrote other bytes than an earlier pass on the same inputs")
            round_index += 1
            if time.perf_counter() - started >= seconds:
                break
        untraced = passes[False]
        if workload.in_process:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            rss_kb = max(p.rss_kb for p in untraced)
        errors += workload.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    all_passes = untraced + passes[True]
    pass_s = statistics.median(p.seconds for p in untraced)
    detail = {"pass_s": [p.seconds for p in untraced], "setup_runs_s": setup_times,
              "warm_up_s": warm_up_s}
    for key in untraced[0].detail:
        values = []
        for p in untraced:
            value = p.detail[key]
            values += value if isinstance(value, list) else [value]
        detail[key] = statistics.median(values)
    if trace:
        n_traced = len(passes[True])
        layers = tracing.combine([
            tracing.layer_metrics(setup_tracer),
            tracing.layer_metrics(pass_tracer, 1.0 / n_traced),
        ])
        layers["trace.overhead_s"] = statistics.median(p.seconds for p in passes[True]) - pass_s
        metrics = {key: {"value": value, "unit": LAYER_UNITS.get(key, "s")}
                   for key, value in sorted(layers.items())}
    else:
        values = {
            "setup_s": import_s + statistics.median(setup_times) + warm_up_s,
            "pass_s": pass_s,
            "peak_rss_mb": rss_kb / 1024.0,
        }
        metrics = {key: {"value": value, "unit": E2E_UNITS[key]} for key, value in values.items()}
    for message in errors:
        print(f"check failed [{name}]: {message}", file=sys.stderr)
    return {
        "detail": detail,
        "result": {
            "correct": not errors,
            "attempted": sum(p.attempted for p in all_passes),
            "failed": sum(p.failed for p in all_passes),
            "metrics": metrics,
        },
    }


def report(name: str, out: dict) -> None:
    """Print the detail line and one line per metric, with its unit."""
    result = out["result"]
    print(f"detail [{name}]:", json.dumps(out["detail"]))
    for key, metric in result["metrics"].items():
        print(f"  {name:12s} {key:28s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {name:12s} attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}")


def main() -> int:
    names = ("cli-jsonl", "fit-inmem", "sweep-small", "oracle-k2")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "osls" / "__init__.py").is_file():
        fail(f"no osls sources under {src}; run from the root of an osls checkout")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import numpy  # noqa: F401
    import osls

    import_s = time.perf_counter() - start
    if Path(osls.__file__).resolve().parent != (src / "osls").resolve():
        fail(f"imported osls from {osls.__file__}, not from {src}")
    print("machine:", json.dumps(machine_record()))

    if args.workload != "all":
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
        report(args.workload, out)
        print(json.dumps(out["result"]))
        return 0

    # Each workload runs in its own process, as a single-workload run does, so
    # that in-process peak memory and allocator state start fresh.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        lines = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                               check=True).stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("machine:")))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
