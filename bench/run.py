"""Run one benchmark workload on the gdmorph sources of this checkout.

    python3 bench/run.py --workload rebuild --seed 1 --seconds 25 --trace 0

Inputs are generated from the seed under .bench_work/ at the checkout's
root.  With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it reports the per-layer metrics and keeps the spans under
.bench_work/spans/.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gdmorph benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gdmorph" / "__init__.py").is_file():
        print(f"no gdmorph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import generate
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    inputs = WORK / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    generate.write_inputs(args.seed, inputs)
    checker = workloads.Checker(workloads.load_golden(args.seed))
    workload = workloads.WORKLOADS[args.workload](inputs, checker)
    if args.trace:
        metrics = workloads.run_traced(workload, args.seconds, WORK)
        lines = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    else:
        metrics, lines = workloads.run_untraced(workload, args.seconds)
    lines.append(f"op_failure_ratio = {checker.failed / checker.attempted:.6g} "
                 f"({checker.failed} of {checker.attempted} operations)")
    print("\n".join(lines))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
