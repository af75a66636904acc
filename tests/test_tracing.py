"""The benchmark's tracer still finds every package name it wraps.

``perfbench/tracing.py`` replaces module attributes such as
``osls.pipeline.run_em`` and ``osls.baselines.mapls`` with timing wrappers;
a renamed attribute would otherwise fail only a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import osls.baselines
import osls.pipeline

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = _load_tracing().Tracer()
    tracer.install()  # raises AttributeError on a name that no longer exists
    try:
        assert hasattr(osls.pipeline.run_em, "__wrapped__")
        assert hasattr(osls.baselines.mapls, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(osls.pipeline.run_em, "__wrapped__")
    assert not hasattr(osls.baselines.mapls, "__wrapped__")
