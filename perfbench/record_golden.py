"""Rewrite golden.json: artifact digests and exact counts of every workload at seed 0.

    python3 perfbench/record_golden.py

Run it only when a change alters simulated output on purpose, and say so in
that change.
"""

from __future__ import annotations

import json

from run import GOLDEN, run_child
from workloads import WORKLOADS


def main() -> int:
    golden = {}
    for name in WORKLOADS:
        sample = run_child(name, 0, traced=False, run_id=0)
        golden[name] = {"digests": sample["digests"], "counts": sample["counts"]}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
