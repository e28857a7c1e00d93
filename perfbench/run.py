"""Benchmark entry point.

    python3 perfbench/run.py --workload {batch,serve,stream} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from its
``src`` directory, and the run exits non-zero without a result when it
is not there.
"""

import sys
from pathlib import Path

# Import the benchmark as a package from the checkout root, never its
# modules as top-level names from this directory.
sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench.runner import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
