"""Print every metric of every workload with its unit.

    python3 perfbench/report.py [--seed 0] [--seconds 20]

Runs run.py for each workload untraced (end-to-end metrics) and traced
(per-layer metrics), one after the other, and prints one line per metric,
after a line with each run's correctness verdict and row counts.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=True,
            )
            result = json.loads(done.stdout.splitlines()[-1])
            print(f"{name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {name:17} {metric:29} {m['value']:>16.6g} {m['unit']}")
            sys.stdout.flush()


if __name__ == "__main__":
    main()
