"""The benchmark's golden slice (``perfbench/test_golden.py``) run with the
tests: a kernel change that moves a ``perfbench/golden.json`` trial digest
fails here, not only in a benchmark run."""
import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from test_golden import *  # noqa: E402,F401,F403
