#!/usr/bin/env python3
"""Record bench/golden.json: report digests of the first cost_sweep ops.

    python3 bench/record_golden.py

Runs the first GOLDEN_OPS ops of cost_sweep at seed 0 and stores the
sha256 of each op's CSV and breakdown CSV. run.py then requires those
bytes back on every seed-0 run. Re-record only for a change that is
meant to alter the reports, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

GOLDEN_OPS = 57  # three cycles of the 19-op sweep


def main() -> int:
    cli = run.load_cli()
    import workloads as wl

    work_dir = run.OUT / f"golden-{os.getpid()}"
    runner = run.Runner(cli, work_dir)
    csv, breakdown = [], []
    try:
        ops = wl.generate("cost_sweep", 0)
        for _ in range(GOLDEN_OPS):
            op = next(ops)
            runner.untimed(op.argv, runner.out_dir)
            csv.append(wl.sha256_file(os.path.join(runner.out_dir, "sweep.csv")))
            breakdown.append(wl.sha256_file(os.path.join(runner.out_dir, "sweep_breakdown.csv")))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    doc = {"cost_sweep": {"seed": 0, "csv_sha256": csv, "breakdown_sha256": breakdown}}
    with open(wl.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"recorded {GOLDEN_OPS} ops to {wl.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
