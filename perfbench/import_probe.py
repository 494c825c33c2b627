"""Print the seconds a fresh interpreter spends importing entsup and entsup.cli.

Usage: python3 import_probe.py <src directory>
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import entsup  # noqa: E402
import entsup.cli  # noqa: E402,F401

print(repr(time.perf_counter() - start))
