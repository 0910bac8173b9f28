#!/usr/bin/env python3
"""Entry point of the repo's wall-clock benchmark (see bench/README.md).

    python3 bench/run.py --seed S                  # every workload, one table
    python3 bench/run.py --seed S --trace          # ... plus the per-layer pass
    python3 bench/run.py --check-repeat            # twice, compared to the bounds
    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1

Finds the program under ``src/`` of the checkout it sits in; needs no
``PYTHONPATH``.
"""

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

# Single process, closed loop, one client: never more threads than cores.
_THREADS = str(min(os.cpu_count() or 1, 2))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, _THREADS)


def main() -> int:
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"bench/run.py: no program to measure at {SRC_DIR}/repro",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH_DIR), str(SRC_DIR)]
    from jaccbench.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
