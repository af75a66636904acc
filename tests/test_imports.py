"""Text parsing stays at the edge: importing the package does not load ``osls.io``,
``osls.io`` does not load the pipeline that runs what it parses, and importing the
CLI, or reading a table of one range, does not load the process pool that only larger
table files use."""

import subprocess
import sys

from conftest import child_env


def test_import_osls_does_not_load_io():
    code = "import sys, osls; assert 'osls.io' not in sys.modules, sorted(sys.modules)"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=child_env())


def test_io_does_not_load_the_pipeline():
    # The package's __init__ loads every module, so osls.io is imported under a bare
    # package of the same path: only what osls.io itself imports is loaded.
    code = ("import importlib.util, sys, types; spec = importlib.util.find_spec('osls'); "
            "bare = types.ModuleType('osls'); bare.__path__ = spec.submodule_search_locations; "
            "sys.modules['osls'] = bare; import osls.io; "
            "assert 'osls.pipeline' not in sys.modules, sorted(sys.modules)")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=child_env())


def test_import_cli_does_not_load_the_process_pool():
    code = ("import sys, osls.cli; loaded = [m for m in sys.modules if m.split('.')[0] in "
            "('multiprocessing', 'concurrent')]; assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=child_env())


def test_one_range_table_is_read_without_the_process_pool(tmp_path):
    # A table of one range is parsed in this process, even on a machine of many cores.
    path = tmp_path / "t.jsonl"
    path.write_text('{"f": [0.5, 0.5], "h": 0.5, "y": 1}\n' * 100, encoding="utf-8")
    code = ("import sys, osls.io; osls.io.read_records(sys.argv[1]); loaded = [m for m in "
            "sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')]; "
            "assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code, str(path)], check=True, timeout=60, env=child_env())
