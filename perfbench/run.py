"""Benchmark entry point: ``python3 perfbench/run.py --workload W --seed N``.

Runs from the root of a source checkout: the program is imported from
``src/`` (pure Python, nothing to build).  Options: ``--seconds`` (timed
phase length, default from ``BENCHMARK.json``) and ``--trace 1`` (the
per-layer traced run).  The last line of standard output is the result
JSON; the exit code is non-zero when a correctness check fails or the
program's sources are missing.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    # One process, no worker pools: keep BLAS single-threaded (<= nproc) so
    # host timings do not depend on library thread scheduling.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    sys.exit(harness.main())
