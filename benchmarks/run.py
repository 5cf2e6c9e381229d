"""Benchmark of nirmalpool's training step and evaluation pass.

    python3 benchmarks/run.py                 # every workload, untraced and traced
    python3 benchmarks/run.py --workload mnist_train --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; see benchmarks/README.md. BLAS and
OpenMP are pinned to one thread before numpy is imported.
"""

import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parents[1]
REQUIRED = ("src/nirmalpool/__init__.py", "tests/oracles.py")


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"run.py: {ROOT} is not a nirmalpool checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    return measure.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
