"""Write bench/golden.json: the digest of every operation's output at
the default seed.  Run it only on a commit whose outputs are known to be
right, since the benchmark counts every later difference as a failure:

    python3 bench/make_golden.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import generate  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    inputs = ROOT / ".bench_work" / "golden-inputs"
    generate.write_inputs(workloads.DEFAULT_SEED, inputs)
    checker = workloads.Checker(None)
    for kind in workloads.WORKLOADS.values():
        workload = kind(inputs, checker)
        workload.setup(repeats=1)
        for i in range(workload.cycle):
            workload.op(i)
    if checker.failed:
        sys.exit(f"{checker.failed} operations disagreed with an earlier identical one")
    workloads.GOLDEN.write_text(json.dumps(
        {"seed": workloads.DEFAULT_SEED, "digests": dict(sorted(checker.seen.items()))},
        indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(checker.seen)} digests written to {workloads.GOLDEN}")
