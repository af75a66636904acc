"""Mutation check of the estimator math: does some test fail when one operator changes?

Each site is one change to one function of ``src/osls``: an arithmetic operator,
augmented assignments included, swapped with its neighbour (``+``/``-``,
``*``/``/``, ``**`` to ``*``), a
comparison loosened or tightened (``<``/``<=``, ``>``/``>=``), or a float
constant 0, 1 or 2 nudged (to 1e-3, 1.001 and 2.001). A mutant is the package
with one site changed, written to a scratch copy of ``src`` and ``tests``; it is
killed when the chosen test files fail on it (``pytest -x``), and survives when
they pass. A survivor not listed in ``EQUIVALENT`` is a gap in the tests.

    python tools/mutate.py --list                  # the sites, no mutant run
    python tools/mutate.py --out result.json       # every site
    python tools/mutate.py --sample 20 --seed 1    # 20 sites drawn with seed 1
    python tools/mutate.py --only threshold_rescale --tests tests/test_estimators.py

Sites are named ``file:function:change#n``, n counting that change within the
function in source order, so a name holds while other functions are edited. A
surviving mutant costs a full run of its test files (about 20 s for the
defaults on 2 cores), so run this when a change touches the math, not in CI.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "osls"

# The functions whose sites are listed and run by default: the EM rules (the one
# prior, the objective, the certificate, the E-step, the EM map and the "better"
# rule) and the estimator functions an earlier sampled run found gaps in.
FUNCTIONS = (
    "em.py:Prior.__init__",
    "em.py:Prior.value",
    "em.py:Prior.derivatives",
    "em.py:Prior.chart_gradient",
    "em.py:objective",
    "em.py:certificate",
    "em.py:e_step",
    "em.py:_em_map",
    "em.py:_better",
    "em.py:_lower",
    "estimators.py:estimate_rho_s",
    "estimators.py:rho_s_bound",
    "estimators.py:threshold_rescale",
    "estimators.py:estimate_source_prior_multiclass",
    "baselines.py:bbse",
    "pipeline.py:correct_records",
)

TESTS = (
    "tests/test_em.py",
    "tests/test_estimators.py",
    "tests/test_baselines.py",
    "tests/test_correction.py",
    "tests/test_pipeline.py",
    "tests/test_acceptance.py",
)

# Surviving mutants that change no result the package promises, each with why.
EQUIVALENT = {
    "em.py:_lower:Lt->LtE#0": (
        "`obj_new < obj` meets no tie: equal objectives lie inside the rounding band, "
        "which is never negative, and the objectives are finite, as the NLL and the "
        "prior floor their logs at 1e-300."
    ),
    "estimators.py:estimate_rho_s:Lt->LtE#0": (
        "the cutoff's own end: a denominator of exactly EPS_DEN is refused instead of "
        "accepted; either side of a 1e-6 cutoff is a valid rule."
    ),
    "estimators.py:estimate_source_prior_multiclass:LtE->Lt#0": (
        "`col_sums - 1.0` is exact near 1 (Sterbenz) and a multiple of 2**-53, and 1e-6 "
        "is not, so no column sum lies on the tolerance's end."
    ),
    "estimators.py:estimate_source_prior_multiclass:Div->Mult#0": (
        "the start `k` instead of `1 / k`: the first step projects onto the simplex, "
        "and where no step is taken (mu_hat = I) every start is flat and raises."
    ),
    "estimators.py:estimate_source_prior_multiclass:1.0->1.001#1": (
        "the start 1.001 / k: as for the start k."
    ),
    "estimators.py:estimate_source_prior_multiclass:1.0->1.001#2": (
        "the step 1.001 / lam_max: any step below 2 / lam_max converges to the same "
        "minimizer."
    ),
    "estimators.py:estimate_source_prior_multiclass:Lt->LtE#1": (
        "stopping at a projected gradient of exactly 1e-10 as well: one step fewer, "
        "from a point on the tolerance's own end."
    ),
    "estimators.py:estimate_source_prior_multiclass:LtE->Lt#1": (
        "a vertex objective exactly at the minimum plus 1e-12: a flatness cutoff's own "
        "end, where either side is a valid rule."
    ),
    "baselines.py:bbse:Lt->LtE#0": (
        "a condition number of exactly 1e8, the limit's own end, is refused as well."
    ),
    "baselines.py:bbse:LtE->Lt#0": (
        "`total <= 0.0` and `total < 0.0` differ only at a total of exactly 0, which "
        "cannot occur: the confusion matrix C is >= 0 with column sums m, so C w = q "
        "gives sum_j m_j w_j = sum_i q_i = 1, and total = sum_j m_j max(w_j, 0) >= 1 "
        "up to the solve's backward error, below K * cond(C) * eps <= K * 1.1e-8 "
        "under the condition-number limit of 1e8."
    ),
    "baselines.py:bbse:0.0->0.001#1": (
        "`total <= 1e-3`: the total is at least 1 up to the solve's error, as for "
        "`total < 0.0`."
    ),
}

_BINOPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
           ast.Pow: ast.Mult}
_CMPOPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
_CONSTANTS = {0.0: 1e-3, 1.0: 1.001, 2.0: 2.001}


def _functions(tree: ast.Module):
    """(qualified name, node) of every function in a module, methods as ``Class.name``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _changes(func: ast.FunctionDef):
    """(change, apply) for each site in a function, in source order.

    ``apply()`` makes the change in place on the function's tree.
    """
    found = []
    for node in ast.walk(func):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _BINOPS:
            new = _BINOPS[type(node.op)]
            found.append((node, f"{type(node.op).__name__}->{new.__name__}",
                          lambda n=node, new=new: setattr(n, "op", new())))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in _CMPOPS:
                    new = _CMPOPS[type(op)]
                    found.append((node, f"{type(op).__name__}->{new.__name__}",
                                  lambda n=node, i=i, new=new: n.ops.__setitem__(i, new())))
        elif (isinstance(node, ast.Constant) and type(node.value) is float
              and node.value in _CONSTANTS):
            new = _CONSTANTS[node.value]
            found.append((node, f"{node.value!r}->{new!r}",
                          lambda n=node, new=new: setattr(n, "value", new)))
    found.sort(key=lambda item: (item[0].lineno, item[0].col_offset))
    return [(change, apply) for _, change, apply in found]


def sites(functions=FUNCTIONS, package=PACKAGE):
    """Every site of ``functions`` in ``package`` as (name, file, function, change, index).

    Raises LookupError naming a function that is not in its file.
    """
    out = []
    for spec in functions:
        file, name = spec.split(":")
        tree = ast.parse((package / file).read_text(encoding="utf-8"))
        funcs = dict(_functions(tree))
        if name not in funcs:
            raise LookupError(f"{spec}: no such function")
        counts = {}
        for change, _ in _changes(funcs[name]):
            n = counts.get(change, 0)
            counts[change] = n + 1
            out.append((f"{file}:{name}:{change}#{n}", file, name, change, n))
    return out


def mutant_source(source: str, name: str, change: str, index: int) -> str:
    """``source`` with the ``index``-th ``change`` of its function ``name`` made."""
    tree = ast.parse(source)
    found = [apply for c, apply in _changes(dict(_functions(tree))[name]) if c == change]
    found[index]()
    return ast.unparse(tree) + "\n"


def _run_tests(copy: Path, tests, timeout: float):
    """('killed' | 'survived' | 'timeout', seconds) of the tests on the copy's package."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *[str(copy / t) for t in tests]],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    return ("survived" if code == 0 else "killed"), time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="print the sites and exit")
    parser.add_argument("--functions", nargs="+", default=FUNCTIONS, metavar="FILE:FUNC")
    parser.add_argument("--only", default="", help="keep sites whose name holds this text")
    parser.add_argument("--tests", nargs="+", default=TESTS)
    parser.add_argument("--sample", type=int, default=0, help="run this many sites (0: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--timeout", type=float, default=600.0, help="seconds per mutant")
    parser.add_argument("--out", help="write the result here as JSON")
    args = parser.parse_args(argv)

    chosen = [site for site in sites(args.functions) if args.only in site[0]]
    if args.sample:
        chosen = sorted(random.Random(args.seed).sample(chosen, min(args.sample, len(chosen))),
                        key=chosen.index)
    if args.list:
        for site in chosen:
            print(site[0] + ("  (equivalent)" if site[0] in EQUIVALENT else ""))
        return 0

    results = []
    with tempfile.TemporaryDirectory(prefix="osls-mutate-") as scratch:
        copy = Path(scratch)
        for part in ("src", "tests", "pyproject.toml"):
            src = ROOT / part
            (shutil.copytree if src.is_dir() else shutil.copy)(src, copy / part)
        # Mutants are written back through ast.unparse; the unparsed package must pass.
        for file in {site[1] for site in chosen}:
            target = copy / "src" / "osls" / file
            target.write_text(ast.unparse(ast.parse(target.read_text(encoding="utf-8"))) + "\n",
                              encoding="utf-8")
        status, seconds = _run_tests(copy, args.tests, args.timeout)
        if status != "survived":
            print(f"the tests fail without a mutant ({status}); nothing to check")
            return 2
        for name, file, func, change, index in chosen:
            target = copy / "src" / "osls" / file
            original = target.read_text(encoding="utf-8")
            target.write_text(mutant_source(original, func, change, index), encoding="utf-8")
            try:
                status, seconds = _run_tests(copy, args.tests, args.timeout)
            finally:
                target.write_text(original, encoding="utf-8")
            gap = status == "survived" and name not in EQUIVALENT
            results.append({"site": name, "status": status, "seconds": round(seconds, 1),
                            "equivalent": name in EQUIVALENT})
            print(f"{status:8s} {seconds:6.1f}s {name}{'  <- not killed' if gap else ''}",
                  flush=True)
    survivors = [r["site"] for r in results if r["status"] == "survived" and not r["equivalent"]]
    summary = {"tests": list(args.tests), "sites": results, "survivors": survivors}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"{len(results)} sites, {len(survivors)} survivors not listed as equivalent")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
