"""Deterministic discrete-time engine over the flow cache.

Each tick: classify the attacker packets due (priced against the cache state
at tick start, so packets racing an in-flight install miss too), probe the
victim's per-packet cost, split the processing budget attacker-first, credit
the victim's served packets back to its subtable, then expire idle entries;
subtables re-rank at every whole second.  Output is a per-second series, the
decay/resurgence metrics, and per-second cache-map frames over 1000-mask
creation batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .attack import AttackSchedule, Trace, use_case_acl, UseCase
from .flow_cache import FlowCache, FlowTable
from .headers import (
    FIVE_TUPLE,
    HeaderLayout,
    HeaderValue,
    header,
    ip_to_int,
)
from .slowpath import Acl, Action, rule, validate_acl

MAX_TICKS = 1_000_000  # per run; 60 s at the default 0.1 s tick is 600

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


@dataclass(frozen=True)
class SimConfig:
    cores: int = 1
    budget_per_core: float = DEFAULT_BUDGET_PER_CORE
    victim_offered: float = DEFAULT_VICTIM_OFFERED
    emc_enabled: bool = False
    tick: float = 0.1
    duration: float = 60.0
    eps_down: float = 0.01
    eps_up: float = 0.05
    build_cache_map: bool = True

    def validate(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.tick <= 0 or self.duration < 0:
            raise ValueError("tick must be positive and duration non-negative")
        per_second = 1.0 / self.tick
        if abs(per_second - round(per_second)) > 1e-9:
            raise ValueError("tick must divide 1.0 exactly")
        if not float(self.duration).is_integer():  # the series has a row per whole second
            raise ValueError(f"duration must be a whole number of seconds, got {self.duration:g}")
        if (ticks := self.duration / self.tick) > MAX_TICKS:
            raise ValueError(f"duration {self.duration:g} s at tick {self.tick:g} s asks for "
                             f"{ticks:.0f} ticks, more than {MAX_TICKS}")
        if not self.budget_per_core > 0:
            raise ValueError("budget_per_core must be > 0")
        if not self.victim_offered > 0:
            raise ValueError("victim_offered must be > 0")
        if not (0 <= self.eps_down <= 1 and 0 <= self.eps_up <= 1):
            raise ValueError("eps_down and eps_up must be in [0, 1]")


@dataclass(frozen=True)
class SecondRecord:
    second: int
    goodput_fraction: float
    victim_cost: float
    attacker_pps: int
    subtables: int
    entries: int


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
    """What a run produces; `frames` is empty unless `build_cache_map` is set."""

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
    floor: float = 1e-3,
) -> float:
    """Attacker demand is served first; the victim gets the leftover.

    The victim never drops below the guaranteed floor fraction, so its
    subtable keeps accruing ranking credit even under full saturation.
    """
    if victim_demand_units <= 0:
        return 1.0
    fraction = (budget_units - attacker_demand_units) / victim_demand_units
    return min(1.0, max(floor, fraction))


def victim_cost_probe(cache: FlowCache, victim_headers: Sequence[HeaderValue]) -> float:
    """Mean cost of classifying one representative packet per victim flow.

    Read-only: neither hit counters nor idle clocks move.
    """
    if not victim_headers:
        return 0.0
    return cache.probe_cost(*victim_headers) / len(victim_headers)


# --- metrics -------------------------------------------------------------------

# A recovery counts as sustained when the condition holds from some second t
# through at least t+2, i.e. spans two full seconds of samples.
SUSTAIN_SPAN_S = 2


def metrics_extract(
    fractions: Sequence[float],
    attack_start: float,
    eps_down: float = 0.01,
    eps_up: float = 0.05,
) -> Metrics:
    start_s = int(math.ceil(attack_start))
    ttd_second = None
    for s in range(start_s, len(fractions)):
        if fractions[s] <= eps_down:
            ttd_second = s
            break
    if ttd_second is None:
        return Metrics(None, None, None, None)
    ttd = float(ttd_second - attack_start)
    run_start = None
    ttr = None
    plateau = None
    for s in range(ttd_second + 1, len(fractions) + 1):
        if s < len(fractions) and fractions[s] >= eps_up:
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


def victim_allow_rules(flows: Sequence[HeaderValue], base_priority: int = 1000) -> list:
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
                base_priority - i,
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
    acl = Acl.from_rules(base.layout, rules)
    problems = validate_acl(acl)
    if problems:
        raise ValueError(f"scenario ACL invalid: {problems}")
    return acl


# --- cache-map batches -----------------------------------------------------------

BATCH_MASKS = 1000


class MaskBatches:
    """One trace compiled against its ACL's `FlowTable`.

    `flow_ids` holds the megaflow id of each trace position.  The distinct
    masks, in first-spawn order (the order of the first position at which
    each mask id appears), are chunked into 1000-mask batches.
    """

    def __init__(self, trace: Trace, acl: Acl):
        self._table = FlowTable.of(acl)
        self.headers = trace.packets
        self.flow_ids = self._table.flow_ids(trace.packets)
        mask_of = self._table.mask_of
        self._spawn_order = list(dict.fromkeys(mask_of[fid] for fid in self.flow_ids))
        self.mask_count = len(self._spawn_order)
        self.count = (self.mask_count + BATCH_MASKS - 1) // BATCH_MASKS

    def batch_of(self) -> dict[int, int]:
        """The batch of each mask the trace spawns, keyed by the mask's bits."""
        masks = self._table.masks
        return {masks[m].bits: i // BATCH_MASKS for i, m in enumerate(self._spawn_order)}


# --- the run loop ------------------------------------------------------------------


class _Emitter:
    """Pull over one schedule's emissions, one tick at a time, as runs.

    A run is `(header, flow_id, count)`: consecutive emissions of one trace
    position.  Tick boundaries come from the schedule's `emission_count`, and
    a tick's runs are built in one pass over its trace positions, every run a
    whole clone group but the two ends, so a tick costs O(runs), not O(packets).
    """

    def __init__(self, compiled: MaskBatches, schedule: AttackSchedule, horizon: float):
        if not compiled.headers:
            raise ValueError("trace is empty")
        self.schedule = schedule
        self.headers = compiled.headers
        self.flow_ids = compiled.flow_ids
        self._k = 0
        self._end = schedule.emission_count(horizon)
        self.last_pos: Optional[int] = None

    def due(self, until: float) -> list[tuple[HeaderValue, int, int]]:
        """Runs of the emissions before `until` not yet returned, in order."""
        k0 = self._k
        k1 = min(self.schedule.emission_count(until), self._end)
        if k1 <= k0:
            return []
        self._k = k1
        n = self.schedule.clone
        headers, fids = self.headers, self.flow_ids
        length = len(headers)
        p0, p1 = k0 // n, (k1 - 1) // n
        runs = [(headers[q], fids[q], n) for p in range(p0, p1 + 1) for q in (p % length,)]
        # Cut the end runs at k1, then at k0; with p0 == p1 both cuts fall
        # on the one run, leaving k1 - k0.
        runs[-1] = runs[-1][:2] + (k1 - p1 * n,)
        runs[0] = runs[0][:2] + (runs[0][2] - (k0 - p0 * n),)
        self.last_pos = p1 % length
        return runs


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
    single-threaded and deterministic; sweeps are independent runs.
    """
    config.validate()
    problems = validate_acl(acl)
    if problems:
        raise ValueError(f"ACL invalid: {problems}")
    victims = list(victim_headers)

    cache = FlowCache(acl, emc_enabled=config.emc_enabled)
    cache.warm(victims, now=0.0)
    compiled = [MaskBatches(trace, acl) for trace, _ in attacks]

    batches: Optional[MaskBatches] = None  # the census, while the cache map is on
    batch_of: dict[int, int] = {}
    batch_present: list[int] = []
    created: set[int] = set()  # batches the run created a mask of
    masks_total = 0
    if attacks:
        masks_total = compiled[0].mask_count
        if config.build_cache_map:
            batches = compiled[0]
            batch_of = batches.batch_of()
            batch_present = [0] * batches.count

    emitters = [_Emitter(c, sched, config.duration) for c, (_, sched) in zip(compiled, attacks)]
    attack_start = min((sched.start for _, sched in attacks), default=0.0)

    ticks_per_second = round(1.0 / config.tick)
    total_ticks = int(round(config.duration / config.tick))
    budget_tick = config.cores * config.budget_per_core * config.tick

    series: list[SecondRecord] = []
    frames: list[CacheMapFrame] = []

    frac_acc = 0.0
    cost_acc = 0.0
    pps_acc = 0
    created_this_second: set[int] = set()
    expired_this_second: set[int] = set()

    for step in range(total_ticks):
        t1 = (step + 1) * config.tick
        due: list[tuple[HeaderValue, int, int]] = []
        for em in emitters:
            due.extend(em.due(t1))
        batch = cache.classify_batch(due, now=t1)
        if batches is not None:
            for m in batch.created_masks:
                b = batch_of.get(m.bits)
                if b is not None:
                    created_this_second.add(b)
                    batch_present[b] += 1

        victim_cost = victim_cost_probe(cache, victims)
        victim_demand = config.victim_offered * config.tick * victim_cost
        fraction = compute_goodput_fraction(budget_tick, batch.total_cost, victim_demand)
        processed = fraction * config.victim_offered * config.tick
        share = processed / len(victims) if victims else 0.0
        for h in victims:
            cache.credit_hits(h, int(round(share)), now=t1)

        _, removed_masks = cache.expire(t1)
        if batches is not None:
            for m in removed_masks:
                b = batch_of.get(m.bits)
                if b is not None:
                    expired_this_second.add(b)
                    batch_present[b] -= 1

        if (step + 1) % ticks_per_second == 0:
            cache.rebalance(t1)

        frac_acc += fraction
        cost_acc += victim_cost
        pps_acc += batch.packets

        if (step + 1) % ticks_per_second == 0:
            second = (step + 1) // ticks_per_second - 1
            series.append(
                SecondRecord(
                    second=second,
                    goodput_fraction=frac_acc / ticks_per_second,
                    victim_cost=cost_acc / ticks_per_second,
                    attacker_pps=pps_acc,
                    subtables=cache.subtable_count,
                    entries=cache.entry_count,
                )
            )
            if batches is not None:
                states = []
                for b in range(batches.count):
                    if b in created_this_second:
                        states.append("G")
                    elif b in expired_this_second:
                        states.append("R")
                    elif batch_present[b] <= 0:
                        states.append("A")
                    else:
                        states.append("B")
                em = emitters[0] if emitters else None
                if em is not None and pps_acc > 0 and em.last_pos is not None:
                    attack_state = str(em.last_pos // 1000 + 1)
                else:
                    attack_state = "X"
                frames.append(CacheMapFrame(second, tuple(states), attack_state))
                created |= created_this_second
            frac_acc = cost_acc = 0.0
            pps_acc = 0
            created_this_second = set()
            expired_this_second = set()

    if batches is not None:  # a batch none of whose masks the run created is Y throughout
        frames = [
            CacheMapFrame(
                f.second, tuple(s if b in created else "Y" for b, s in enumerate(f.states)),
                f.attack_state,
            )
            for f in frames
        ]

    metrics = metrics_extract(
        [r.goodput_fraction for r in series], attack_start, config.eps_down, config.eps_up
    )
    return RunResult(
        series=series, metrics=metrics, frames=frames, cache=cache, masks_total=masks_total
    )


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
