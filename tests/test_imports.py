"""Text parsing stays at the edge: importing the package does not load ``osls.io``, and
importing the CLI does not load the process pool that only table files use."""

import subprocess
import sys


def test_import_osls_does_not_load_io():
    code = "import sys, osls; assert 'osls.io' not in sys.modules, sorted(sys.modules)"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_import_cli_does_not_load_the_process_pool():
    code = ("import sys, osls.cli; loaded = [m for m in sys.modules if m.split('.')[0] in "
            "('multiprocessing', 'concurrent')]; assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
