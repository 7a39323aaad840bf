"""Time the cache's hot operations on fixed states; a script that pytest does not collect.

    PYTHONPATH=src python3 tests/timing.py {rebalance,compile,idle,all} [--repeat N]

Each measurement runs its timed call `--repeat` times on fresh copies of
its state, with the garbage collector off while it runs, and prints the
median of one call.  Without `--repeat`, rebalance runs each state 300
times, compile and idle 30.

rebalance: `FlowCache.rebalance` on fixed hit patterns.

- scattered: a `sip_sp_dp` cache holding the victims' masks and every
  mask of the probe trace (8210 subtables), with 20, 100, 900 or 3000
  masks drawn at random (seeded) and credited 1 to 99 hits each, so most
  hit masks are blocks of their own;
- reference: the cache of the reference run (`sip_sp_dp`, TSE 1.0 at
  1000 pps, 1 core, victims on) just before its rebalance at 25, 40 and
  60 s, captured by wrapping `FlowCache.rebalance` during one run.

  One line per state: the hit masks, the blocks they form (maximal runs of
  hit masks stored side by side) and the median microseconds of one call.
  It reads the cache's private columns (`_rev`, `_pos`, `_hits`), as the
  tests' oracle does, to copy a state and count its blocks.

compile: `FlowTable.flow_ids` on four traces, each on a fresh table.  They
run on the `sip_sp_dp` ACL with the victims' allow rules (the benchmark's
table at seed 0), except the `sp_dp` probe trace, which runs on the `sp_dp`
one:

- sip_sp_dp probe: the probe trace, 9537 headers in runs that share every
  field above `dport`;
- sp_dp probe: the probe trace, 289 headers;
- random 5-tuples: 9537 seeded random headers, so consecutive headers
  share no upper fields and every header walks the ACL's rules;
- shared uppers: 9537 headers in runs of 17 that share their upper fields
  (seeded random per run), each with a seeded random `dport`.

  One line per trace: its headers, the positions whose header repeats the
  previous one above `dport`, and the median milliseconds of one compile.

idle: megaflow lifecycles through the idle list.  Both patterns run the
`sip_sp_dp` probe trace (9537 headers) on its ACL with the victims' allow
rules, the EMC off, in ticks of 0.1 s that each price the trace's next 100
headers as runs of one packet and then call `expire`, each on a fresh
cache, with the trace compiled once beforehand:

- clone: each tick installs its headers' megaflows and hits them once more
  at the same time, as the clone replay repeats a packet within a tick;
  once the trace is spent, ticks only expire until the cache is empty, so
  every megaflow goes install -> hit -> expire;
- reference: the trace is installed untimed, then replayed twice, a pass
  every 9.6 s: every megaflow is refreshed before it can idle out, so the
  timed ticks only hit, and expire removes nothing.

  One line per pattern: the megaflows, the runs priced, the entries expired
  and the median microseconds per megaflow of one timed pattern.
"""

from __future__ import annotations

import argparse
import copy
import gc
import random
import statistics
import time
from typing import Callable, TypeVar

from tsesim.attack import UseCase, build_trace
from tsesim.cli import Scenario
from tsesim.engine import run, scenario_acl, victim_flow_headers
from tsesim.flow_cache import FlowCache, FlowTable, Run
from tsesim.headers import FIVE_TUPLE, HeaderValue, header
from tsesim.slowpath import Acl

State = TypeVar("State")


def median_s(fresh: Callable[[], State], timed: Callable[[State], object],
             repeat: int) -> tuple[float, object]:
    """Median seconds of `timed` on `repeat` states from `fresh`, and its last result.

    Only `timed` is on the clock, and the garbage collector is off while it runs.
    """
    samples, result = [], None
    for _ in range(repeat):
        state = fresh()
        gc.disable()
        try:
            started = time.perf_counter()
            result = timed(state)
            samples.append(time.perf_counter() - started)
        finally:
            gc.enable()
    return statistics.median(samples), result


def sip_sp_dp() -> tuple[list[HeaderValue], Acl]:
    """The two victim headers and the `sip_sp_dp` ACL with their allow rules."""
    victims = victim_flow_headers(FIVE_TUPLE, 2)
    return victims, scenario_acl(UseCase.SIP_SP_DP, victims)


# --- rebalance -------------------------------------------------------------------

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
    victims, acl = sip_sp_dp()
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


def time_rebalance(repeat: int) -> None:
    states = {f"scattered {n}": scattered_state(n) for n in SCATTERED}
    states.update((f"reference {t} s", s) for t, s in reference_states(REFERENCE_SECONDS).items())
    print(f"{'state':16s} {'subtables':>9s} {'hits':>5s} {'blocks':>6s} {'median_us':>10s}")
    for name, state in states.items():
        now = state._clock
        seconds, _ = median_s(lambda: snapshot(state), lambda c: c.rebalance(now), repeat)
        print(f"{name:16s} {state.subtable_count:9d} {len(state._hits):5d} {blocks(state):6d}"
              f" {seconds * 1e6:10.1f}")


# --- compile ---------------------------------------------------------------------

HEADERS = 9537  # the sip_sp_dp probe trace's length
RUN = 17
LAST = FIVE_TUPLE.fields[-1].width  # dport's bits, the lowest


def random_header(rng: random.Random) -> HeaderValue:
    return header(FIVE_TUPLE, **{f.name: rng.getrandbits(f.width) for f in FIVE_TUPLE.fields})


def traces() -> dict[str, tuple[Acl, list[HeaderValue]]]:
    victims, acl = sip_sp_dp()
    sp_dp = scenario_acl(UseCase.SP_DP, victims)
    rng = random.Random(0)
    shared = []
    while len(shared) < HEADERS:
        upper = random_header(rng)
        shared += (HeaderValue(FIVE_TUPLE, upper.bits >> LAST << LAST | rng.getrandbits(LAST))
                   for _ in range(RUN))
    return {
        "sip_sp_dp probe": (acl, list(build_trace(UseCase.SIP_SP_DP, acl).packets)),
        "sp_dp probe": (sp_dp, list(build_trace(UseCase.SP_DP, sp_dp).packets)),
        "random 5-tuples": (acl, [random_header(rng) for _ in range(HEADERS)]),
        "shared uppers": (acl, shared[:HEADERS]),
    }


def time_compile(repeat: int) -> None:
    print(f"{'trace':16s} {'headers':>7s} {'in runs':>7s} {'median_ms':>10s}")
    for name, (acl, headers) in traces().items():
        in_runs = sum(a.bits >> LAST == b.bits >> LAST for a, b in zip(headers, headers[1:]))
        seconds, _ = median_s(lambda: FlowTable(acl), lambda t: t.flow_ids(headers), repeat)
        print(f"{name:16s} {len(headers):7d} {in_runs:7d} {seconds * 1e3:10.2f}")


# --- idle ------------------------------------------------------------------------

TICK = 0.1
PER_TICK = 100  # headers a tick, 1000 pps
PASSES = 2  # timed replays of the trace in the reference pattern


def trace_runs() -> tuple[Acl, list[list[Run]]]:
    """The ACL and the probe trace's runs of one packet, cut into ticks."""
    _, acl = sip_sp_dp()
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


def time_idle(repeat: int) -> None:
    acl, ticks = trace_runs()
    flows = len({fid for runs in ticks for _, fid, _ in runs})
    print(f"{'pattern':10s} {'flows':>6s} {'runs':>6s} {'expired':>7s} {'median_us':>10s}")
    for name, pattern, fresh in (
        ("clone", clone, lambda: FlowCache(acl, emc_enabled=False)),
        ("reference", reference, lambda: warm_reference(acl, ticks)),
    ):
        seconds, (priced, expired) = median_s(fresh, lambda c: pattern(c, ticks), repeat)
        print(f"{name:10s} {flows:6d} {priced:6d} {expired:7d} {seconds * 1e6 / flows:10.3f}")


# Measurement -> (function, default repeat).
MEASUREMENTS = {
    "rebalance": (time_rebalance, 300),
    "compile": (time_compile, 30),
    "idle": (time_idle, 30),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("measurement", choices=[*MEASUREMENTS, "all"])
    parser.add_argument("--repeat", type=int, help="timed calls per state (default: "
                        + ", ".join(f"{name} {n}" for name, (_, n) in MEASUREMENTS.items()) + ")")
    args = parser.parse_args()
    chosen = list(MEASUREMENTS) if args.measurement == "all" else [args.measurement]
    for i, name in enumerate(chosen):
        measure, default = MEASUREMENTS[name]
        if i:
            print()
        measure(default if args.repeat is None else args.repeat)


if __name__ == "__main__":
    main()
