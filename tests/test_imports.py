"""Text parsing stays at the edge: importing the package does not load ``osls.io``."""

import subprocess
import sys


def test_import_osls_does_not_load_io():
    code = "import sys, osls; assert 'osls.io' not in sys.modules, sorted(sys.modules)"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
