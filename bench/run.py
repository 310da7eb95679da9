"""Run the isfl benchmark from the repository root:

    python3 bench/run.py --workload trend-desk --seed 1 --seconds 40 --trace 0

See harness.py for what each mode measures.
"""

import os
import sys

if __name__ == "__main__":
    # One OpenBLAS thread, set before numpy loads. With the default two on a
    # two-core machine, identical runs differ by about 15% in wall time and
    # by one 34 MB buffer in peak memory. Set-up processes inherit it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import harness

    sys.exit(harness.main())
