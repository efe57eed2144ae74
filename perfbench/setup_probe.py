"""Set-up a user pays on every CLI call, timed in a fresh interpreter.

Usage: python3 setup_probe.py <src dir> <config.ini>

Imports `momentct.cli`, loads the configuration and builds the phantom and
the smoothing kernel; prints the elapsed seconds.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from momentct.cli import load_config  # noqa: E402

cfg = load_config(sys.argv[2])
cfg.make_density()
cfg.make_mollifier()
print(repr(time.perf_counter() - start))
