"""One measured tsesim run in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py WORKLOAD SEED TRACED RUN_ID SPAWN_TIME

SPAWN_TIME is the parent's `time.monotonic()` just before it started this
process, so `setup_s` covers interpreter start, imports and input generation.
"""

from __future__ import annotations

import collections
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, Workload, attack, digests, engine, export, make_inputs

OUT_DIR = Path(__file__).resolve().parent / "out"

# Counts that must repeat exactly; at seed 0 they are checked against golden.json.
EXACT = (
    "packets", "emc_hits", "mfc_hits", "slow_path", "masks_created",
    "masks_expired", "entries_expired", "subtables_peak",
)


# Time of `calibration_s()` on the nominal host that host times are scaled to.
CAL_NOMINAL_S = 0.09


def calibration_s(n: int = 320_000) -> float:
    """Host seconds of a fixed pure-Python loop: tuple keys, dict updates, sorts.

    Interpreter-bound work like tsesim's own, over a working set that stays
    the same size.  Timed right before and right after a run, its mean tracks
    how fast the host ran the run; the total time (not the best of several
    short loops) follows the host's speed over the whole window.
    """
    start = time.perf_counter()
    counts: dict = {}
    pending: list = []
    for i in range(n):
        key = (i & 1023, i & 7)
        counts[key] = counts.get(key, 0) + 1
        pending.append(key)
        if len(pending) == 256:
            pending.sort(key=lambda k: -k[0])
            pending.clear()
    return time.perf_counter() - start


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with >= 10 samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, ordered[min(n - 1, int(n * pct / 100.0))]
    return 50.0, ordered[n // 2]


def emission_layers(trace, schedule, duration: float, tick: float) -> dict:
    """Time a bare drain of the emission stream, then count same-tick repeats.

    Ticks are cut as the engine cuts them: an emission belongs to the first
    tick whose end it precedes.
    """
    start = time.perf_counter()
    collections.deque(attack.schedule_emissions(trace, schedule, duration), maxlen=0)
    drain_s = time.perf_counter() - start
    emissions = repeats = 0
    step, seen = 0, set()
    for t, _, h in attack.schedule_emissions(trace, schedule, duration):
        while not t < (step + 1) * tick:
            step, seen = step + 1, set()
        emissions += 1
        repeats += h in seen
        seen.add(h)
    return {
        "attack.schedule_emissions_s": drain_s,
        "attack.emissions": emissions,
        "attack.repeat_share": repeats / emissions,
    }


def measure(workload: Workload, seed: int, traced: bool, run_id: int = 0,
            spawn_time: float | None = None) -> dict:
    """Set up and run one workload; return timings, counts and artifact digests."""
    tracer = Tracer(timed=traced, run_id=run_id)
    tracer.install()
    try:
        with tracer.span("setup"):
            acl, trace, victims = make_inputs(workload, seed)
            scenario = workload.make_scenario()
            schedule = scenario.schedule()
            config = scenario.sim_config(build_cache_map=workload.cache_map)
        setup_s = time.monotonic() - spawn_time if spawn_time is not None else None
        cal_before = calibration_s()
        run_index = len(tracer.spans)
        with tracer.span("engine.run") as run_span:
            result = engine.run(config, acl, [(trace, schedule)], victims)
        artifacts = export(result)
    finally:
        tracer.restore()
    out = {
        "setup_s": setup_s,
        "speed": CAL_NOMINAL_S / ((cal_before + calibration_s()) / 2),
        "run_s": run_span[2] - run_span[1],
        "attacker_packets": sum(r.attacker_pps for r in result.series),
        "digests": digests(artifacts),
        "counts": {k: tracer.counts[k] for k in EXACT},
    }
    if traced:
        out["layers"] = layer_metrics(tracer, run_index)
        out["layers"].update(emission_layers(trace, schedule, config.duration, config.tick))
        out["spans"] = tracer.spans
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def layer_metrics(tracer: Tracer, run_index: int) -> dict:
    """Per-layer metrics of one traced run; `_s` values are self times in host seconds."""
    self_s = tracer.self_times(run_index)
    c = tracer.counts
    packets = c["packets"]
    batch_ms = tracer.durations_ms("flow_cache.classify_batch")
    tail_pct, tail_ms = tail_percentile(batch_ms)
    return {
        "engine.run_s": tracer.durations_ms("engine.run")[0] / 1000.0,
        "engine.self_s": self_s.get("engine.run", 0.0),
        "engine.mask_batches_s": self_s.get("engine.mask_batches", 0.0),
        "engine.victim_cost_probe_s": self_s.get("engine.victim_cost_probe", 0.0),
        "engine.export_s": sum(tracer.durations_ms("engine.export")) / 1000.0,
        "attack.build_trace_s": sum(tracer.durations_ms("attack.build_trace")) / 1000.0,
        "slowpath.synthesize_megaflow_s": self_s.get("slowpath.synthesize_megaflow", 0.0),
        "slowpath.synthesize_megaflow.calls": c["slowpath.synthesize_megaflow.calls"],
        "headers.header_hash64_s": self_s.get("headers.header_hash64", 0.0),
        "headers.header_hash64.calls": c["headers.header_hash64.calls"],
        "flow_cache.classify_batch_s": self_s.get("flow_cache.classify_batch", 0.0),
        "flow_cache.classify_batch.p50_ms": statistics.median(batch_ms),
        "flow_cache.classify_batch.tail_ms": tail_ms,
        "flow_cache.classify_batch.tail_pct": tail_pct,
        "flow_cache.classify_batch.ticks": len(batch_ms),
        "flow_cache.packets": packets,
        "flow_cache.emc_hits": c["emc_hits"],
        "flow_cache.mfc_hits": c["mfc_hits"],
        "flow_cache.slow_path": c["slow_path"],
        "flow_cache.masks_created": c["masks_created"],
        "flow_cache.emc_hit_ratio": c["emc_hits"] / packets,
        "flow_cache.fast_path_ratio": (c["emc_hits"] + c["mfc_hits"]) / packets,
        "flow_cache.cost_units_per_packet": c["cost_units"] / packets,
        "flow_cache.expire_s": self_s.get("flow_cache.expire", 0.0),
        "flow_cache.expire.entries": c["entries_expired"],
        "flow_cache.expire.masks": c["masks_expired"],
        "flow_cache.rebalance_s": self_s.get("flow_cache.rebalance", 0.0),
        "flow_cache.rebalance.subtables_mean": c["rebalance_subtables"] / c["rebalances"],
        "flow_cache.subtables_peak": c["subtables_peak"],
    }


def write_spans(path: Path, spans: list) -> None:
    """Append spans as CSV rows: name,start,end,parent,run_id."""
    path.parent.mkdir(parents=True, exist_ok=True)
    new = not path.exists()
    with path.open("a") as f:
        if new:
            f.write("name,start,end,parent,run_id\n")
        for name, start, end, parent, run_id in spans:
            f.write(f"{name},{start:.9f},{end:.9f},{'' if parent is None else parent},{run_id}\n")


def main(argv: list[str]) -> int:
    name, seed, traced, run_id, spawn_time = argv
    result = measure(WORKLOADS[name], int(seed), traced == "1", int(run_id), float(spawn_time))
    spans = result.pop("spans", None)
    if spans is not None:
        write_spans(OUT_DIR / f"{name}.spans.csv", spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
