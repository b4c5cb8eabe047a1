"""The driver's entry point: one workload, one JSON line.

    python3 benchmarks/suite/run.py --workload W --seed N --seconds S \\
        --trace 0|1

With ``--trace 0`` the last line of standard output carries every
end-to-end metric, with ``--trace 1`` every per-layer metric.  Exits
non-zero, printing no result, when the program under test is missing.
"""

import argparse
import sys
from pathlib import Path

# run as a script: import the suite as a package from the checkout root
sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.suite import runner  # noqa: E402
from benchmarks.suite.workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.trace:
            measurement, values = runner.trace(args.workload, args.seed)
            units = runner.PER_LAYER_UNITS
        else:
            measurement = runner.measure(
                args.workload, args.seed, args.seconds
            )
            values = measurement.end_to_end()
            units = runner.END_TO_END_UNITS
    except runner.SuiteError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for problem in measurement.failures + measurement.violations:
        print(problem, file=sys.stderr)
    print(runner.contract_line(measurement, values, units))
    return 0 if measurement.correct else 1


if __name__ == "__main__":
    sys.exit(main())
