"""Time megaflow lifecycles through the idle list; a script that pytest does not collect.

    PYTHONPATH=src python3 tests/idle_timing.py [--repeat 30]

Both patterns run the `sip_sp_dp` probe trace (9537 headers) on its ACL with
the victims' allow rules, the EMC off, in ticks of 0.1 s that each price the
trace's next 100 headers as runs of one packet and then call `expire`; each
is run `--repeat` times on a fresh cache, with the trace compiled once
beforehand:

- clone: each tick installs its headers' megaflows and hits them once more
  at the same time, as the clone replay repeats a packet within a tick;
  once the trace is spent, ticks only expire until the cache is empty, so
  every megaflow goes install -> hit -> expire;
- reference: the trace is installed untimed, then replayed twice, a pass
  every 9.6 s: every megaflow is refreshed before it can idle out, so the
  timed ticks only hit, and expire removes nothing.

Prints one line per pattern: the megaflows, the runs priced, the entries
expired and the median microseconds per megaflow of one timed pattern.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import time

from tsesim.attack import UseCase, build_trace
from tsesim.engine import scenario_acl, victim_flow_headers
from tsesim.flow_cache import FlowCache, FlowTable, Run
from tsesim.headers import FIVE_TUPLE
from tsesim.slowpath import Acl

TICK = 0.1
PER_TICK = 100  # headers a tick, 1000 pps
PASSES = 2  # timed replays of the trace in the reference pattern


def trace_runs() -> tuple[Acl, list[list[Run]]]:
    """The ACL and the probe trace's runs of one packet, cut into ticks."""
    acl = scenario_acl(UseCase.SIP_SP_DP, victim_flow_headers(FIVE_TUPLE, 2))
    packets = build_trace(UseCase.SIP_SP_DP, acl).packets
    runs = [(h, fid, 1) for h, fid in zip(packets, FlowTable.of(acl).trace_ids(packets))]
    return acl, [runs[i:i + PER_TICK] for i in range(0, len(runs), PER_TICK)]


def clone(cache: FlowCache, ticks: list[list[Run]]) -> tuple[int, int]:
    priced = expired = 0
    for k, runs in enumerate(ticks):
        now = k * TICK
        cache.classify_batch(runs, now)
        cache.classify_batch(runs, now)
        priced += 2 * len(runs)
        expired += len(cache.expire(now)[0])
    k = len(ticks)
    while cache.entry_count:
        expired += len(cache.expire(k * TICK)[0])
        k += 1
    return priced, expired


def reference(cache: FlowCache, ticks: list[list[Run]]) -> tuple[int, int]:
    priced = expired = 0
    for k, runs in enumerate(ticks * PASSES, start=len(ticks)):
        now = k * TICK
        cache.classify_batch(runs, now)
        priced += len(runs)
        expired += len(cache.expire(now)[0])
    return priced, expired


def warm_reference(acl: Acl, ticks: list[list[Run]]) -> FlowCache:
    cache = FlowCache(acl, emc_enabled=False)
    for k, runs in enumerate(ticks):
        cache.classify_batch(runs, k * TICK)
    return cache


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=30, help="timed patterns each (default 30)")
    args = parser.parse_args()
    acl, ticks = trace_runs()
    flows = len({fid for runs in ticks for _, fid, _ in runs})
    print(f"{'pattern':10s} {'flows':>6s} {'runs':>6s} {'expired':>7s} {'median_us':>10s}")
    for name, pattern, fresh in (
        ("clone", clone, lambda: FlowCache(acl, emc_enabled=False)),
        ("reference", reference, lambda: warm_reference(acl, ticks)),
    ):
        samples = []
        for _ in range(args.repeat):
            cache = fresh()
            gc.disable()
            try:
                started = time.perf_counter()
                priced, expired = pattern(cache, ticks)
                samples.append(time.perf_counter() - started)
            finally:
                gc.enable()
        us = statistics.median(samples) * 1e6 / flows
        print(f"{name:10s} {flows:6d} {priced:6d} {expired:7d} {us:10.3f}")


if __name__ == "__main__":
    main()
