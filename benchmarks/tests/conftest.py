import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from run import THREAD_VARS  # noqa: E402

# The pinning run.py does; effective when numpy is not imported yet.
for var in THREAD_VARS:
    os.environ[var] = "1"
