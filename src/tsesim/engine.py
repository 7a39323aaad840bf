"""Deterministic discrete-time engine over the flow cache.

Each tick: classify the attacker packets due (priced against the cache state
at tick start, so packets racing an in-flight install miss too), probe the
victim's per-packet cost, split the processing budget attacker-first, credit
the victim's served packets back to its subtable, then expire idle entries;
subtables re-rank at every whole second.  A run's one product is its list of
`TickRecord`s, one per tick.  The per-second series, the per-second cache-map
frames over 1000-mask creation batches, and the decay/resurgence metrics read
off the series are folds over that list.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import ClassVar, Iterable, Iterator, NamedTuple, Optional, Sequence

from .attack import AttackSchedule, Trace, simple_acl, use_case_acl, UseCase
from .flow_cache import BatchResult, FlowCache, FlowTable, Run
from .headers import (
    FIVE_TUPLE,
    HeaderLayout,
    HeaderValue,
    header,
    ip_to_int,
)
from .slowpath import Acl, Action, rule

MAX_TICKS = 1_000_000  # per run; 60 s at the 0.1 s tick is 600

# A tick replays an attack's emissions as runs, one list entry per distinct
# emission (a clone group), each priced in Python: a tick's memory and time
# grow with its distinct emissions, rate * tick / clone.  At the cap a
# `dp` run peaks near 80 MB and takes about half a host second a tick; the
# reference run replays 100 a tick, and TSE 1.0 at 12000 pps 1200.
MAX_DISTINCT_PER_TICK = 1_000_000
# Emission indices are counted in floats (`AttackSchedule.emission_count`),
# which stop counting whole numbers exactly past 2**53 and cannot round an
# infinite count at all.  A run's count is at most rate * duration.
MAX_RUN_EMISSIONS = 2**53

# One core's processing budget in cost units per second.  Calibrated so that a
# single saturated core ends the constant-rate reference attack at roughly one
# fifth of the victim's baseline, with collapse below 1% six seconds in while
# masks are still spawning.  Lives in config so experiments can rescale it.
DEFAULT_BUDGET_PER_CORE = 7.45e6

DEFAULT_VICTIM_OFFERED = 1.0e6

VICTIM_IP_A = "192.0.2.1"
VICTIM_IP_B = "198.51.100.7"
VICTIM_PROTO = 17  # victim runs over UDP; probe fill uses TCP
VICTIM_PORT_A = 40001
VICTIM_PORT_B = 5201
VICTIM_PRIORITY = 1000  # the first victim flow's rule; each next flow's is one lower
# Victim flow i's rule has priority VICTIM_PRIORITY - i, which must stay above every use-case rule.
MAX_VICTIM_FLOWS = VICTIM_PRIORITY - max(r.priority for r in simple_acl().rules)


@dataclass(frozen=True)
class SimConfig:
    """One run's settings; building one with a bad value raises ValueError.

    The time step and the DoS thresholds are model constants: a run steps in
    0.1 s ticks, and a second at or below 1% of the victim's baseline
    goodput is down, one at or above 5% up.
    """

    ticks_per_second: ClassVar[int] = 10
    tick: ClassVar[float] = 1 / ticks_per_second
    eps_down: ClassVar[float] = 0.01
    eps_up: ClassVar[float] = 0.05

    cores: int = 1
    budget_per_core: float = DEFAULT_BUDGET_PER_CORE
    victim_offered: float = DEFAULT_VICTIM_OFFERED
    emc_enabled: bool = False
    duration: float = 60.0
    build_cache_map: bool = True

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.duration < 0:
            raise ValueError("duration must be non-negative")
        if not float(self.duration).is_integer():  # the series has a row per whole second
            raise ValueError(f"duration must be a whole number of seconds, got {self.duration:g}")
        if (ticks := self.duration / self.tick) > MAX_TICKS:
            raise ValueError(f"duration {self.duration:g} s at tick {self.tick:g} s asks for "
                             f"{ticks:.0f} ticks, more than {MAX_TICKS}")
        if not self.budget_per_core > 0:
            raise ValueError("budget_per_core must be > 0")
        if not self.victim_offered > 0:
            raise ValueError("victim_offered must be > 0")


@dataclass(frozen=True)
class SecondRecord:
    second: int
    goodput_fraction: float
    victim_cost: float
    attacker_pps: int
    subtables: int
    entries: int


class TickRecord(NamedTuple):
    """What one tick did; a run's `ticks` list is indexed by tick."""

    batch: BatchResult  # the attacker packets classified
    victim_cost: float  # the victim's mean per-packet cost
    fraction: float  # the victim's goodput fraction
    removed_masks: list[int]  # mask ids of the subtables `expire` removed
    subtables: int  # live subtables at tick end, after any re-rank
    entries: int  # live megaflows at tick end
    last_pos: Optional[int]  # trace position of emitter 0's latest emission


@dataclass(frozen=True)
class Metrics:
    ttd: Optional[float]
    ttr: Optional[float]
    dosp: Optional[float]
    plateau_fraction: Optional[float]


@dataclass(frozen=True)
class CacheMapFrame:
    second: int
    states: tuple[str, ...]  # per batch: A absent, G generating, B active, R expiring, Y never
    attack_state: str  # 1-based packet-batch index, or X while not sending


@dataclass
class RunResult:
    """A run's tick records and the folds over them; `frames` is empty unless `build_cache_map`."""

    ticks: list[TickRecord]
    series: list[SecondRecord]
    metrics: Metrics
    frames: list[CacheMapFrame]
    cache: FlowCache
    masks_total: int

    @property
    def fractions(self) -> list[float]:
        return [r.goodput_fraction for r in self.series]


# --- goodput model -----------------------------------------------------------


def compute_goodput_fraction(
    budget_units: float,
    attacker_demand_units: float,
    victim_demand_units: float,
) -> float:
    """Attacker demand is served first; the victim gets the leftover.

    The victim never drops below GOODPUT_FLOOR, so its subtable keeps
    accruing ranking credit even under full saturation.
    """
    if victim_demand_units <= 0:
        return 1.0
    fraction = (budget_units - attacker_demand_units) / victim_demand_units
    return min(1.0, max(GOODPUT_FLOOR, fraction))


def check_replay(config: SimConfig, schedule: AttackSchedule) -> None:
    """Raise ValueError unless `run` can replay the schedule in bounded memory.

    `run` calls it for each attack before any tick.  A run's emission count,
    at most rate * duration, must be at most MAX_RUN_EMISSIONS, so it is
    finite, and a tick's distinct emissions, rate * tick / clone, at most
    MAX_DISTINCT_PER_TICK.
    """
    rate = schedule.rate
    if rate * config.duration > MAX_RUN_EMISSIONS:
        raise ValueError(f"attack at {rate:g} pps over {config.duration:g} s "
                         "holds too many packets to count")
    if (distinct := rate * config.tick / schedule.clone) > MAX_DISTINCT_PER_TICK:
        raise ValueError(f"attack at {rate:.10g} pps with clone factor {schedule.clone} replays "
                         f"{distinct:.10g} distinct packets a {config.tick:g} s tick, "
                         f"more than {MAX_DISTINCT_PER_TICK}")


def victim_cost_probe(cache: FlowCache, victim_runs: Sequence[Run]) -> float:
    """Mean cost of classifying one packet per victim flow, given as runs `(h, flow_id, 1)`.

    Read-only: neither hit counters nor idle clocks move.
    """
    if not victim_runs:
        return 0.0
    return cache.probe_cost(victim_runs) / len(victim_runs)


# --- metrics -------------------------------------------------------------------

# A recovery counts as sustained when the condition holds from some second t
# through at least t+2, i.e. spans two full seconds of samples.
SUSTAIN_SPAN_S = 2
# The victim's goodput fraction never drops below this, even under full saturation.
GOODPUT_FLOOR = 1e-3


def metrics_extract(fractions: Sequence[float], attack_start: float) -> Metrics:
    """ttd, ttr, DoSP and plateau of a per-second series, at SimConfig's thresholds."""
    start_s = max(0, math.ceil(attack_start))
    ttd_second = None
    for s in range(start_s, len(fractions)):
        if fractions[s] <= SimConfig.eps_down:
            ttd_second = s
            break
    if ttd_second is None:
        return Metrics(None, None, None, None)
    ttd = float(ttd_second - attack_start)
    run_start = None
    ttr = None
    plateau = None
    for s in range(ttd_second + 1, len(fractions) + 1):
        if s < len(fractions) and fractions[s] >= SimConfig.eps_up:
            if run_start is None:
                run_start = s
            continue
        if run_start is not None:
            span = (s - 1) - run_start
            if span >= SUSTAIN_SPAN_S:
                ttr = float(run_start - attack_start)
                plateau = sum(fractions[run_start:s]) / (s - run_start)
                break
        run_start = None
    dosp = ttr - ttd if ttr is not None else None
    return Metrics(ttd, ttr, dosp, plateau)


# --- scenario construction -----------------------------------------------------


def victim_flow_headers(layout: HeaderLayout = FIVE_TUPLE, count: int = 2) -> list[HeaderValue]:
    """Victim traffic, one header per flow; consecutive pairs are the two directions."""
    a, b = ip_to_int(VICTIM_IP_A), ip_to_int(VICTIM_IP_B)
    flows = []
    for i in range(count):
        pair = i // 2
        sport, dport = VICTIM_PORT_A + pair, VICTIM_PORT_B + pair
        if i % 2 == 0:
            flows.append(
                header(layout, ip_src=a, ip_dst=b, proto=VICTIM_PROTO, sport=sport, dport=dport)
            )
        else:
            flows.append(
                header(layout, ip_src=b, ip_dst=a, proto=VICTIM_PROTO, sport=dport, dport=sport)
            )
    return flows


def victim_allow_rules(flows: Sequence[HeaderValue]) -> list:
    """Exact allow rules for the victim flows, keyed on destination and ports.

    The source address stays wildcarded: every probe packet then charges the
    same constant mask bits against these rules regardless of which field it
    targets, so the attack's distinct-mask accounting is unchanged by the
    victim's presence.
    """
    rules = []
    for i, h in enumerate(flows):
        rules.append(
            rule(
                h.layout,
                VICTIM_PRIORITY - i,
                Action.ALLOW,
                ip_dst=h.get("ip_dst"),
                proto=h.get("proto"),
                sport=h.get("sport"),
                dport=h.get("dport"),
            )
        )
    return rules


def scenario_acl(use_case: UseCase, victim_flows: Sequence[HeaderValue] = ()) -> Acl:
    """Victim allow rules above the attack-target rules above the catch-all."""
    base = use_case_acl(use_case)
    rules = victim_allow_rules(victim_flows) + list(base.rules)
    return Acl.from_rules(base.layout, rules)


# --- cache-map batches -----------------------------------------------------------

BATCH_MASKS = 1000


class MaskBatches:
    """One trace compiled against its ACL's `FlowTable`.

    `flow_ids` holds the megaflow id of each trace position, read-only: the
    ACL's table compiles a trace once and hands every compile of it the same
    list (`FlowTable.trace_ids`).  The distinct masks, in first-spawn order
    (the order of the first position at which each mask id appears), are
    chunked into 1000-mask batches.
    """

    def __init__(self, trace: Trace, acl: Acl):
        table = FlowTable.of(acl)
        self.headers = trace.packets
        self.flow_ids = table.trace_ids(trace.packets)
        self._spawn_order = list(dict.fromkeys(map(table.mask_of.__getitem__, self.flow_ids)))
        self.mask_count = len(self._spawn_order)
        self.count = (self.mask_count + BATCH_MASKS - 1) // BATCH_MASKS

    def batch_of(self) -> dict[int, int]:
        """The batch of each mask the trace spawns, keyed by mask id."""
        return {m: i // BATCH_MASKS for i, m in enumerate(self._spawn_order)}


# --- the run loop ------------------------------------------------------------------


class _Emitter:
    """Pull over one schedule's emissions, one tick at a time, as runs.

    A run is `(header, flow_id, count)`: consecutive emissions of one trace
    position.  Tick boundaries come from the schedule's `emission_count`, and
    a tick's runs are zipped lazily from slices of the trace (whole copies of
    it for full passes) and their counts, every run a whole clone group but
    the two ends, so a tick costs O(runs) and allocates no tuple per run.
    """

    def __init__(self, compiled: MaskBatches, schedule: AttackSchedule, horizon: float):
        self.schedule = schedule
        self.headers = compiled.headers
        self.flow_ids = compiled.flow_ids
        self._k = 0
        self._end = schedule.emission_count(horizon)
        self.last_pos: Optional[int] = None

    def due(self, until: float) -> Iterator[Run]:
        """Runs of the emissions before `until` not yet returned, in order, read once."""
        k0 = self._k
        k1 = min(self.schedule.emission_count(until), self._end)
        if k1 <= k0:
            return iter(())
        self._k = k1
        n = self.schedule.clone
        headers, fids = self.headers, self.flow_ids
        length = len(headers)
        p0, p1 = k0 // n, (k1 - 1) // n
        q0, q1 = p0 % length, p1 % length
        cycles = p1 // length - p0 // length - 1  # full passes between the ends; -1 if none
        if cycles < 0:  # the tick does not wrap the trace
            hs, fs = headers[q0 : q1 + 1], fids[q0 : q1 + 1]
        else:
            hs = headers[q0:] + headers * cycles + headers[: q1 + 1]
            fs = fids[q0:] + fids * cycles + fids[: q1 + 1]
        counts = [n] * len(fs)
        # Cut the end runs at k1, then at k0; with p0 == p1 both cuts fall
        # on the one run, leaving k1 - k0.
        counts[-1] = k1 - p1 * n
        counts[0] -= k0 - p0 * n
        self.last_pos = q1
        return zip(hs, fs, counts)


def _ticks(config: SimConfig, cache: FlowCache, emitters: Sequence[_Emitter],
           victims: Sequence[Run]) -> Iterator[TickRecord]:
    """Step the classifier through the run, one record per tick; victims are credited by flow id."""
    tick, offered, ticks_per_second = config.tick, config.victim_offered, config.ticks_per_second
    budget_tick = config.cores * config.budget_per_core * tick
    first = emitters[0] if emitters else None
    lone = first if len(emitters) == 1 else None
    victim_ids = [fid for _, fid, _ in victims]
    carry = 0.0  # served packets per victim flow not yet credited, under one
    for step in range(int(round(config.duration / tick))):
        t1 = (step + 1) * tick
        # Every emitter advances (and sets `last_pos`) here; its runs are read in classify_batch.
        due = lone.due(t1) if lone else chain.from_iterable([em.due(t1) for em in emitters])
        batch = cache.classify_batch(due, now=t1)

        victim_cost = victim_cost_probe(cache, victims)
        victim_demand = offered * tick * victim_cost
        fraction = compute_goodput_fraction(budget_tick, batch.total_cost, victim_demand)
        carry += fraction * offered * tick / len(victims) if victims else 0.0
        served = int(carry)
        carry -= served
        if served:  # a served packet of a dead victim misses and installs its megaflow again
            cache.warm([h for h, fid, _ in victims if not cache.is_live(fid)], now=t1)
            cache.credit_hits(victim_ids, served, now=t1)

        _, removed_masks = cache.expire(t1)
        if (step + 1) % ticks_per_second == 0:
            cache.rebalance(t1)
        yield TickRecord(batch, victim_cost, fraction, removed_masks, cache.subtable_count,
                         cache.entry_count, first.last_pos if first else None)


def series_of(ticks: Sequence[TickRecord], ticks_per_second: int) -> list[SecondRecord]:
    """One row per second: tick means of goodput and victim cost, summed packets, end counts."""
    series = []
    for second in range(len(ticks) // ticks_per_second):
        window = ticks[second * ticks_per_second : (second + 1) * ticks_per_second]
        frac = cost = 0.0
        for r in window:  # `+=` in tick order: `sum` rounds differently on Python 3.12+
            frac += r.fraction
            cost += r.victim_cost
        pps, last = sum(r.batch.packets for r in window), window[-1]
        series.append(SecondRecord(second, frac / ticks_per_second, cost / ticks_per_second,
                                   pps, last.subtables, last.entries))
    return series


def frames_of(
    ticks: Sequence[TickRecord], ticks_per_second: int, batches: MaskBatches
) -> list[CacheMapFrame]:
    """One cache-map frame per second over `batches`, the first attack's compiled trace.

    In a second, a batch is G if the run created one of its masks, else R if one
    was removed, else B while one is live, else A; Y if the run never created one.
    """
    batch_of = batches.batch_of()
    created = {batch_of.get(m) for r in ticks for m in r.batch.created_masks}
    present = [0] * batches.count
    frames = []
    for second in range(len(ticks) // ticks_per_second):
        window = ticks[second * ticks_per_second : (second + 1) * ticks_per_second]
        made = Counter(batch_of.get(m) for r in window for m in r.batch.created_masks)
        gone = Counter(batch_of.get(m) for r in window for m in r.removed_masks)
        states = []
        for b in range(batches.count):
            present[b] += made[b] - gone[b]
            states.append("Y" if b not in created else "G" if made[b] else "R" if gone[b]
                          else "B" if present[b] > 0 else "A")
        last_pos = window[-1].last_pos
        sent = any(r.batch.packets for r in window)
        attack_state = str(last_pos // 1000 + 1) if sent and last_pos is not None else "X"
        frames.append(CacheMapFrame(second, tuple(states), attack_state))
    return frames


def run(
    config: SimConfig,
    acl: Acl,
    attacks: Sequence[tuple[Trace, AttackSchedule]],
    victim_headers: Sequence[HeaderValue],
) -> RunResult:
    """Drive attacker and victim through one shared classifier.

    The victim's load is split evenly over `victim_headers`, one header per
    flow.  Each attack's trace is compiled into `MaskBatches` up front, through
    the `FlowTable` that all runs on one ACL object share; `build_cache_map`
    adds one frame of the first one's batches per second.  Multi-core scaling
    is modeled as one classifier with `cores` times the budget.  A run is
    single-threaded and deterministic; sweeps are independent runs.  An
    attack that `check_replay` rejects raises ValueError before any tick.
    """
    for _, schedule in attacks:
        check_replay(config, schedule)
    victims = list(victim_headers)
    cache = FlowCache(acl, emc_enabled=config.emc_enabled)
    cache.warm(victims, now=0.0)
    victim_runs = [(h, cache.flow_id(h), 1) for h in victims]
    compiled = [MaskBatches(trace, acl) for trace, _ in attacks]
    emitters = [_Emitter(c, sched, config.duration) for c, (_, sched) in zip(compiled, attacks)]

    ticks = list(_ticks(config, cache, emitters, victim_runs))
    series = series_of(ticks, config.ticks_per_second)
    frames = []
    if compiled and config.build_cache_map:
        frames = frames_of(ticks, config.ticks_per_second, compiled[0])
    attack_start = min((sched.start for _, sched in attacks), default=0.0)
    metrics = metrics_extract([r.goodput_fraction for r in series], attack_start)
    masks_total = compiled[0].mask_count if compiled else 0
    return RunResult(ticks, series, metrics, frames, cache, masks_total)


# --- exports -----------------------------------------------------------------------

SERIES_CSV_HEADER = "time_s,goodput_fraction,victim_cost,attacker_pps,subtables,entries"


def series_to_csv(series: Iterable[SecondRecord]) -> str:
    lines = [SERIES_CSV_HEADER]
    for r in series:
        lines.append(
            f"{r.second},{r.goodput_fraction:.6f},{r.victim_cost:.3f},"
            f"{r.attacker_pps},{r.subtables},{r.entries}"
        )
    return "\n".join(lines) + "\n"


def metrics_to_lines(metrics: Metrics) -> str:
    def fmt(v: Optional[float]) -> str:
        return "absent" if v is None else f"{v:.3f}"

    return (
        f"ttd={fmt(metrics.ttd)}\n"
        f"ttr={fmt(metrics.ttr)}\n"
        f"dosp={fmt(metrics.dosp)}\n"
        f"plateau_fraction={fmt(metrics.plateau_fraction)}\n"
    )


def cachemap_to_csv(frames: Sequence[CacheMapFrame]) -> str:
    if not frames:
        return "second,attack\n"
    nbatches = len(frames[0].states)
    header_cols = ["second", "attack"] + [f"b{i + 1}" for i in range(nbatches)]
    lines = [",".join(header_cols)]
    for f in frames:
        lines.append(",".join([str(f.second), f.attack_state, *f.states]))
    return "\n".join(lines) + "\n"
