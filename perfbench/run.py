"""tsesim benchmark: whole scenarios timed in fresh interpreters, outputs checked.

    python3 perfbench/run.py --workload reference --seed 0 --seconds 30 --trace 0

Runs `child.py` (one setup plus one `engine.run()`) one process at a time
until `--seconds` are spent, checks every run's artifacts and exact counts,
and prints each metric with its unit, the failure share, and last one JSON
line.  `--trace 1` alternates untraced and traced runs and reports the
per-layer metrics instead.  `--workload all` runs every workload in turn.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
MIN_RUNS = 3  # untraced runs per measurement, and traced runs with --trace 1
CHILD_TIMEOUT_S = 60

END_TO_END = {"run_s": "s", "pkts_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    "attack.build_trace_s": "s",
    "attack.emissions": "count",
    "attack.repeat_share": "ratio",
    "attack.schedule_emissions_s": "s",
    "slowpath.synthesize_megaflow_s": "s",
    "slowpath.synthesize_megaflow.calls": "count",
    "headers.header_hash64_s": "s",
    "headers.header_hash64.calls": "count",
    "flow_cache.classify_batch_s": "s",
    "flow_cache.classify_batch.p50_ms": "ms",
    "flow_cache.classify_batch.tail_ms": "ms",
    "flow_cache.classify_batch.tail_pct": "%",
    "flow_cache.classify_batch.ticks": "count",
    "flow_cache.packets": "count",
    "flow_cache.emc_hits": "count",
    "flow_cache.mfc_hits": "count",
    "flow_cache.slow_path": "count",
    "flow_cache.masks_created": "count",
    "flow_cache.emc_hit_ratio": "ratio",
    "flow_cache.fast_path_ratio": "ratio",
    "flow_cache.cost_units_per_packet": "units",
    "flow_cache.expire_s": "s",
    "flow_cache.expire.entries": "count",
    "flow_cache.expire.masks": "count",
    "flow_cache.rebalance_s": "s",
    "flow_cache.rebalance.subtables_mean": "count",
    "flow_cache.subtables_peak": "count",
    "engine.run_s": "s",
    "engine.self_s": "s",
    "engine.mask_batches_s": "s",
    "engine.victim_cost_probe_s": "s",
    "engine.export_s": "s",
    "engine.tracing_overhead_s": "s",
}


def run_child(workload: str, seed: int, traced: bool, run_id: int) -> dict:
    """One measured run in a fresh interpreter; raises RuntimeError if it fails."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed),
             "1" if traced else "0", str(run_id), repr(spawn)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=env,
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"run {run_id} exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"run {run_id} exited {proc.returncode}: {tail[0]}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    sample["wall_s"] = time.monotonic() - spawn
    return sample


def mismatches(sample: dict, expected: dict) -> list[str]:
    """Artifacts and exact counts that differ from the expected run."""
    bad = [f"{k} digest" for k, v in expected["digests"].items() if sample["digests"].get(k) != v]
    bad += [
        f"{k}={sample['counts'].get(k)} (expected {v})"
        for k, v in expected["counts"].items()
        if sample["counts"].get(k) != v
    ]
    if sample["attacker_packets"] != sample["counts"]["packets"]:
        bad.append(f"series packets {sample['attacker_packets']} != classified {sample['counts']['packets']}")
    return bad


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run children until `seconds` are spent; return metrics and failure counts.

    At seed 0 every run is checked against golden.json; at other seeds every
    run must repeat the first successful one exactly.
    """
    expected = json.loads(GOLDEN.read_text()).get(workload) if seed == 0 else None
    if trace:
        (HERE / "out" / f"{workload}.spans.csv").unlink(missing_ok=True)
    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    while True:
        want_traced = trace and attempted % 2 == 1
        done = len(plain) >= MIN_RUNS and (not trace or len(traced) >= MIN_RUNS)
        pool = traced if want_traced else plain
        typical = statistics.median(s["wall_s"] for s in pool) if pool else 0.0
        # Past the deadline, stop once the minimum runs are in, or after
        # enough attempts that failing runs cannot keep the loop going.
        if time.monotonic() + typical > deadline and (done or attempted >= 4 * MIN_RUNS):
            break
        attempted += 1
        try:
            sample = run_child(workload, seed, want_traced, attempted)
        except (RuntimeError, ValueError) as e:
            failed += 1
            print(f"FAIL {workload} seed={seed}: {e}", file=sys.stderr)
            continue
        if expected is None:
            expected = {"digests": sample["digests"], "counts": sample["counts"]}
        bad = mismatches(sample, expected)
        if bad:
            failed += 1
            print(f"FAIL {workload} seed={seed} run {attempted}: {', '.join(bad)}", file=sys.stderr)
            continue
        pool.append(sample)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": layer_report(plain, traced) if trace else end_to_end(plain),
        "speed": [s["speed"] for s in plain],
        "raw_run_s": [s["run_s"] for s in plain],
    }


def end_to_end(plain: list[dict]) -> dict:
    """Medians over the untraced runs; host times scaled by each run's speed factor."""
    if not plain:
        return {}
    return {
        "run_s": statistics.median(s["run_s"] * s["speed"] for s in plain),
        "pkts_per_s": statistics.median(s["attacker_packets"] / (s["run_s"] * s["speed"]) for s in plain),
        "setup_s": statistics.median(s["setup_s"] * s["speed"] for s in plain),
        "peak_rss_mib": statistics.median(s["peak_rss_mib"] for s in plain),
    }


def layer_report(plain: list[dict], traced: list[dict]) -> dict:
    """Medians over the traced runs; host times scaled like the end-to-end ones."""
    if not plain or not traced:
        return {}
    out = {}
    for name, unit in PER_LAYER.items():
        if name != "engine.tracing_overhead_s":
            scale = unit in ("s", "ms")
            out[name] = statistics.median(s["layers"][name] * (s["speed"] if scale else 1) for s in traced)
    out["engine.tracing_overhead_s"] = out["engine.run_s"] - end_to_end(plain)["run_s"]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        from workloads import WORKLOADS
    except ImportError as e:
        print(f"error: cannot import tsesim from this checkout: {e}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: --workload must be one of {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    attempted = failed = 0
    complete = True
    metrics: dict = {}
    for name in names:
        res = bench(name, args.seed, args.seconds, bool(args.trace))
        attempted += res["attempted"]
        failed += res["failed"]
        complete &= set(res["metrics"]) == set(units)
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, value in res["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
            print(f"{name:10s} {metric:36s} {value:16.6f} {units[metric]}")
        if res["speed"]:
            print(f"{name:10s} host speed factor {statistics.median(res['speed']):.3f} "
                  f"(median over {len(res['speed'])} runs; unscaled run_s "
                  f"{statistics.median(res['raw_run_s']):.6f} s)")
        print(f"{name:10s} failures {res['failed']}/{res['attempted']} "
              f"(share {res['failed'] / max(res['attempted'], 1):.3f})")
    correct = failed == 0 and complete
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
