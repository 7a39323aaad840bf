"""Time `FlowCache.rebalance` on fixed hit patterns; a script that pytest does not collect.

    PYTHONPATH=src python3 tests/rebalance_timing.py [--repeat 300]

Two kinds of state, each rebalanced `--repeat` times on fresh copies:

- scattered: a `sip_sp_dp` cache holding the victims' masks and every
  mask of the probe trace (8210 subtables), with 20, 100, 900 or 3000
  masks drawn at random (seeded) and credited 1 to 99 hits each, so most
  hit masks are blocks of their own;
- reference: the cache of the reference run (`sip_sp_dp`, TSE 1.0 at
  1000 pps, 1 core, victims on) just before its rebalance at 25, 40 and
  60 s, captured by wrapping `FlowCache.rebalance` during one run.

Prints one line per state: the hit masks, the blocks they form (maximal
runs of hit masks stored side by side) and the median microseconds of one
call.  The script reads the cache's private columns (`_rev`, `_pos`,
`_hits`), as the tests' oracle does, to copy a state and count its blocks.
"""

from __future__ import annotations

import argparse
import copy
import gc
import random
import statistics
import time

from tsesim.attack import UseCase, build_trace
from tsesim.cli import Scenario
from tsesim.engine import run, scenario_acl, victim_flow_headers
from tsesim.flow_cache import FlowCache
from tsesim.headers import FIVE_TUPLE

SCATTERED = (20, 100, 900, 3000)
REFERENCE_SECONDS = (25, 40, 60)


def snapshot(cache: FlowCache) -> FlowCache:
    """A copy of the cache whose subtable columns are its own."""
    state = copy.copy(cache)
    state._rev, state._pos, state._hits = list(cache._rev), dict(cache._pos), dict(cache._hits)
    return state


def blocks(cache: FlowCache) -> int:
    at = sorted(cache._pos[mid] for mid in cache._hits)
    return sum(1 for i, p in enumerate(at) if i == 0 or at[i - 1] != p - 1)


def scattered_state(hit_masks: int, seed: int = 0) -> FlowCache:
    victims = victim_flow_headers(FIVE_TUPLE, 2)
    acl = scenario_acl(UseCase.SIP_SP_DP, victims)
    trace = build_trace(UseCase.SIP_SP_DP, acl)
    cache = FlowCache(acl, emc_enabled=False)
    cache.warm(victims, now=0.0)
    fids = cache.table.trace_ids(trace.packets)
    cache.classify_batch(zip(trace.packets, fids, [1] * len(fids)), now=0.5)
    fid_of = {cache.table.mask_of[fid]: fid for fid in cache._idle}
    rng = random.Random(seed)
    for i in sorted(rng.sample(range(cache.subtable_count), hit_masks)):
        cache.credit_hits([fid_of[cache._rev[i]]], rng.randrange(1, 100), now=1.5)
    return cache


def reference_states(seconds: tuple[int, ...]) -> dict[int, FlowCache]:
    states: dict[int, FlowCache] = {}
    rebalance = FlowCache.rebalance

    def capture(self: FlowCache, now: float) -> None:
        if round(now, 6) in seconds:
            states[round(now)] = snapshot(self)
        rebalance(self, now)

    scenario = Scenario(use_case="sip_sp_dp", tse="1.0", rate=1000.0, cores=1,
                        duration=float(max(seconds)))
    victims = victim_flow_headers(FIVE_TUPLE, scenario.victim_flows)
    acl = scenario_acl(UseCase.SIP_SP_DP, victims)
    FlowCache.rebalance = capture
    try:
        run(scenario.sim_config(build_cache_map=False), acl,
            [(build_trace(UseCase.SIP_SP_DP, acl), scenario.schedule())], victims)
    finally:
        FlowCache.rebalance = rebalance
    return states


def median_us(state: FlowCache, repeat: int) -> float:
    now = state._clock
    samples = []
    gc.disable()
    try:
        for _ in range(repeat):
            cache = snapshot(state)
            started = time.perf_counter()
            cache.rebalance(now)
            samples.append(time.perf_counter() - started)
    finally:
        gc.enable()
    return statistics.median(samples) * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=300, help="calls per state (default 300)")
    args = parser.parse_args()
    states = {f"scattered {n}": scattered_state(n) for n in SCATTERED}
    states.update((f"reference {t} s", s) for t, s in reference_states(REFERENCE_SECONDS).items())
    print(f"{'state':16s} {'subtables':>9s} {'hits':>5s} {'blocks':>6s} {'median_us':>10s}")
    for name, state in states.items():
        print(f"{name:16s} {state.subtable_count:9d} {len(state._hits):5d} {blocks(state):6d}"
              f" {median_us(state, args.repeat):10.1f}")


if __name__ == "__main__":
    main()
