#!/usr/bin/env python3
"""Run the shipped end-to-end demo configuration.

Usage: python3 scripts/run_demo.py [-o DIR]

The arguments pass through to `momentct pipeline`, whose only option
besides the config is `-o DIR`, the output directory; every other run
setting is in `configs/uniform_demo.ini`.

Works from a plain checkout: the repository's `src` is put first on the
import path, so no install is needed.
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from momentct.cli import main  # noqa: E402

if __name__ == "__main__":
    demo = REPO / "configs" / "uniform_demo.ini"
    sys.exit(main(["pipeline", "-c", str(demo), *sys.argv[1:]]))
