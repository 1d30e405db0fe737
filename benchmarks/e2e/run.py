"""Entry point of the end-to-end benchmark as a script.

``python3 benchmarks/e2e/run.py --workload W --seed S --seconds T
--trace 0|1`` from the repository root; the same options as ``python -m
benchmarks.e2e``.  Puts ``src/`` and the repository root on the import
path itself, so it needs no install and no ``PYTHONPATH``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def _bootstrap():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no repro package under {src}; run from a checkout "
              "of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [src, ROOT]


if __name__ == "__main__":
    _bootstrap()
    from benchmarks.e2e.cli import main

    sys.exit(main())
