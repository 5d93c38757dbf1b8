"""Time one benchmark set-up in a fresh interpreter and print the seconds.

Set-up is importing ciqn and building the workload's problem and row
layout.  ``run.py`` starts this script several times per run and
reports the median, because an import happens only once per process.

    python3 bench/setup_probe.py --workload piston-wide --seed 0
"""

import argparse
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    start = perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import make_workload  # imports ciqn
    make_workload(args.workload, args.seed, workdir=".").setup()
    print(perf_counter() - start)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
