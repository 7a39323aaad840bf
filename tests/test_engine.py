import functools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oracle_cache import (  # noqa: E402
    SequentialCache,
    cache_state,
    last_hits,
    oracle_synthesize,
    search_index,
    synthesize,
)

from tsesim.attack import (  # noqa: E402
    AttackSchedule,
    Trace,
    UseCase,
    build_trace,
    schedule_emissions,
)
from tsesim.engine import (  # noqa: E402
    GOODPUT_FLOOR,
    MAX_VICTIM_FLOWS,
    CacheMapFrame,
    MaskBatches,
    Metrics,
    SecondRecord,
    SimConfig,
    cachemap_to_csv,
    compute_goodput_fraction,
    metrics_extract,
    metrics_to_lines,
    run,
    scenario_acl,
    series_to_csv,
    victim_cost_probe,
    victim_flow_headers,
    SERIES_CSV_HEADER,
)
from tsesim import flow_cache  # noqa: E402
from tsesim.cli import Scenario  # noqa: E402
from tsesim.flow_cache import FlowCache, FlowTable  # noqa: E402
from tsesim.headers import FIVE_TUPLE, header, header_hash64  # noqa: E402
from tsesim.slowpath import Action, parse_acl_text  # noqa: E402


def reference_setup(use_case=UseCase.SIP_SP_DP):
    victims = victim_flow_headers()
    acl = scenario_acl(use_case, victim_flows=victims)
    trace = build_trace(use_case, acl)
    return acl, trace, victims


# -- goodput fraction ------------------------------------------------------------


def test_goodput_fraction_examples():
    assert compute_goodput_fraction(1e6, 0, 2e5) == 1.0
    assert compute_goodput_fraction(1e6, 1e6, 123.0) == pytest.approx(1e-3)
    assert compute_goodput_fraction(1e6, 1e6, 9e9) == pytest.approx(1e-3)
    assert compute_goodput_fraction(1e6, 4e5, 8e5) == pytest.approx(0.75)


def test_goodput_fraction_bounds():
    assert compute_goodput_fraction(1e6, 2e6, 1e5) == pytest.approx(1e-3)  # overload
    assert compute_goodput_fraction(1e6, 0, 0) == 1.0  # no victim demand


# -- metrics extraction ----------------------------------------------------------


def test_metrics_no_decay():
    m = metrics_extract([1.0] * 30, attack_start=10)
    assert m == Metrics(None, None, None, None)


def test_metrics_never_read_before_second_0():
    """A negative start scans from second 0, not from the end of the series."""
    f = [1.0] * 5 + [0.005]
    assert metrics_extract(f, attack_start=-3).ttd == 8.0
    assert metrics_extract(f, attack_start=-0.5).ttd == 5.5


def test_metrics_ttd_and_ttr():
    # collapse at 12, recovery sustained from 20 (span >= 2 s needs 3 samples)
    f = [1.0] * 12 + [0.005] * 8 + [0.3] * 10
    m = metrics_extract(f, attack_start=10)
    assert m.ttd == 2.0
    assert m.ttr == 10.0
    assert m.dosp == 8.0
    assert m.plateau_fraction == pytest.approx(0.3)


def test_metrics_short_spike_not_sustained():
    # two-sample spikes span only one second: not a recovery
    f = [1.0] * 10 + [0.001] * 5 + [1.0, 1.0] + [0.001] * 5 + [1.0, 1.0] + [0.001] * 5
    m = metrics_extract(f, attack_start=10)
    assert m.ttd == 0.0
    assert m.ttr is None and m.dosp is None


def test_metrics_three_sample_spike_sustained():
    f = [1.0] * 10 + [0.001] * 5 + [1.0, 1.0, 1.0] + [0.001] * 10
    m = metrics_extract(f, attack_start=10)
    assert m.ttr == 5.0
    assert m.plateau_fraction == pytest.approx(1.0)


def test_metrics_recovery_at_series_end_counts_if_long_enough():
    f = [1.0] * 5 + [0.001] * 5 + [0.2, 0.2, 0.2]
    m = metrics_extract(f, attack_start=5)
    assert m.ttr == 5.0


# -- emission counting -----------------------------------------------------------


def test_emission_count_continuous():
    sched = AttackSchedule(rate=1000, start=20.0)
    assert sched.emission_count(20.0) == 0
    assert sched.emission_count(21.0) == 1000
    assert sched.emission_count(20.0005) == 1


def test_emission_count_duty_cycle():
    sched = AttackSchedule(rate=1000, t_attack=10.0, t_sleep=2.0, start=0.0)
    assert sched.emission_count(10.0) == 10_000
    assert sched.emission_count(12.0) == 10_000  # sleep adds nothing
    assert sched.emission_count(13.0) == 11_000
    assert sched.emission_count(24.0) == 20_000


def test_emission_count_matches_generator():
    trace = build_trace(UseCase.DP, scenario_acl(UseCase.DP, victim_flows=victim_flow_headers()))
    for sched in [
        AttackSchedule(rate=700, start=1.3),
        AttackSchedule(rate=1000, t_attack=2.0, t_sleep=0.5, clone=3, start=0.7),
    ]:
        for horizon in (0.5, 3.0, 7.25):
            want = len(list(schedule_emissions(trace, sched, horizon)))
            assert sched.emission_count(horizon) == want


@pytest.mark.parametrize("tick", [0.1, 0.25])
@pytest.mark.parametrize("rate", [60, 333, 1500, 12000])  # at 60, a clone-12 group outlasts a tick
@pytest.mark.parametrize("clone", [1, 3, 12])
@pytest.mark.parametrize(
    "duty", [None, (1.0, 0.5), (0.7, 0.05)], ids=["continuous", "duty", "short_sleep"]
)
def test_emitter_runs_expand_to_schedule_emissions(duty, clone, rate, tick):
    """Tick by tick, the emitter's runs are the generator's emissions, grouped."""
    from tsesim.engine import _Emitter

    acl = scenario_acl(UseCase.DP, victim_flows=victim_flow_headers())
    trace = build_trace(UseCase.DP, acl)
    t_attack, t_sleep = duty if duty is not None else (None, 0.0)
    sched = AttackSchedule(rate=rate, t_attack=t_attack, t_sleep=t_sleep, clone=clone, start=0.35)
    horizon = 3.37  # not on a tick boundary
    want = list(schedule_emissions(trace, sched, horizon))
    em = _Emitter(MaskBatches(trace, acl), sched, horizon)
    i = 0
    for step in range(int(horizon / tick) + 2):
        t1 = (step + 1) * tick
        runs = list(em.due(t1))
        assert list(em.due(t1)) == []  # a second call at the same `until` yields nothing
        assert all(count >= 1 for _, _, count in runs)
        assert all(count == clone for _, _, count in runs[1:-1])  # only the ends are cut
        assert [fid for _, fid, _ in runs] == FlowTable.of(acl).flow_ids(h for h, _, _ in runs)
        got = [h for h, _, count in runs for _ in range(count)]
        j = i
        while j < len(want) and want[j][0] < t1:
            j += 1
        assert got == [h for _, _, h in want[i:j]]
        if j > i:
            assert em.last_pos == want[j - 1][1]
        i = j
    assert i == len(want)
    assert list(em.due(horizon + 10.0)) == []


# -- scenario construction --------------------------------------------------------


def test_victim_flows_and_rules():
    flows = victim_flow_headers()
    assert len(flows) == 2
    acl = scenario_acl(UseCase.SIP_SP_DP, victim_flows=flows)
    from oracle_acl import slowpath_lookup
    from tsesim.slowpath import validate_acl

    assert validate_acl(acl) == []
    for h in flows:
        assert slowpath_lookup(h, acl).action is Action.ALLOW


def test_max_victim_flows_is_the_most_a_scenario_acl_takes():
    """Victim rules stay above the use-case rules up to MAX_VICTIM_FLOWS flows, and no further."""
    for uc in UseCase:
        scenario_acl(uc, victim_flows=victim_flow_headers(count=MAX_VICTIM_FLOWS))
        with pytest.raises(ValueError, match="duplicate priorities"):
            scenario_acl(uc, victim_flows=victim_flow_headers(count=MAX_VICTIM_FLOWS + 1))


def test_victim_rules_do_not_change_attack_mask_counts():
    flows = victim_flow_headers()
    for uc, masks in [(UseCase.DP, 16), (UseCase.SP_DP, 257), (UseCase.SIP_SP_DP, 8209)]:
        acl = scenario_acl(uc, victim_flows=flows)
        trace = build_trace(uc, acl)
        cache = FlowCache(acl, emc_enabled=False)
        for i, p in enumerate(trace.packets):
            cache.classify_batch([(p, cache.flow_id(p), 1)], now=i / 1000.0)
        assert cache.subtable_count == masks


def victim_runs(cache, flows):
    """One run `(header, flow_id, 1)` per victim flow, as `run` builds them."""
    return [(h, cache.flow_id(h), 1) for h in flows]


def test_victim_cost_probe_positions():
    flows = victim_flow_headers()
    acl = scenario_acl(UseCase.DP, victim_flows=flows)
    cache = FlowCache(acl, emc_enabled=False)
    cache.warm(flows, now=0.0)
    runs = victim_runs(cache, flows)
    # both victim flows share one subtable at the front
    assert cache.subtable_count == 1
    assert victim_cost_probe(cache, runs) == pytest.approx(cache.costs.c_sub)
    # bury the victim behind attack masks
    trace = build_trace(UseCase.DP, acl)
    for i, p in enumerate(trace.packets):
        cache.classify_batch([(p, cache.flow_id(p), 1)], now=0.1 + i * 0.001)
    _, victim_mask, _ = synthesize(cache, flows[0])
    idx = search_index(cache, victim_mask)
    assert idx == 16  # 16 fresh attack masks rank first
    assert victim_cost_probe(cache, runs) == pytest.approx((idx + 1) * cache.costs.c_sub)


def test_victim_cost_probe_emc():
    flows = victim_flow_headers()
    acl = scenario_acl(UseCase.DP, victim_flows=flows)
    cache = FlowCache(acl, emc_enabled=True)
    cache.warm(flows, now=0.0)
    assert victim_cost_probe(cache, victim_runs(cache, flows)) == pytest.approx(cache.costs.c_emc)


@pytest.mark.parametrize("emc", [False, True])
def test_victim_warm_up_matches_sequential_classify(emc):
    """The engine's t=0 warm-up leaves the state a one-by-one sequential scan leaves."""
    flows = victim_flow_headers(count=4)
    acl = scenario_acl(UseCase.SIP_SP_DP, victim_flows=flows)
    # Repeats hit the EMC (or, with it off, the MFC); a new source address
    # misses the EMC but hits the flow's megaflow, whose mask wildcards ip_src.
    other_src = header(flows[0].layout, **{**dict(flows[0].items()), "ip_src": 1})
    victims = flows + [flows[0], other_src, flows[3]]
    res = run(SimConfig(duration=0.0, emc_enabled=emc), acl, [], victims)
    oracle = SequentialCache(acl, emc_enabled=emc)
    for h in victims:
        oracle.classify(h, now=0.0)
    assert cache_state(res.cache) == cache_state(oracle)
    assert res.cache.subtables()[0].interval_hits == (1 if emc else 3)


# -- the run loop ------------------------------------------------------------------


def test_run_without_victims_costs_nothing():
    acl, trace, _ = reference_setup()
    assert victim_cost_probe(FlowCache(acl), []) == 0.0
    res = run(SimConfig(duration=3.0, build_cache_map=False), acl,
              [(trace, AttackSchedule(rate=1000.0, start=1.0))], [])
    assert [(r.victim_cost, r.goodput_fraction) for r in res.series] == [(0.0, 1.0)] * 3
    assert res.series[-1].subtables > 0


def test_run_rejects_an_empty_trace():
    acl, _, victims = reference_setup()
    with pytest.raises(ValueError, match="trace is empty"):
        run(SimConfig(duration=1.0), acl, [(Trace(()), AttackSchedule(rate=1000.0))], victims)


def test_run_no_attack_full_goodput():
    acl, trace, victims = reference_setup()
    cfg = SimConfig(duration=5.0, build_cache_map=False)
    res = run(cfg, acl, [], victims)
    assert all(r.goodput_fraction == 1.0 for r in res.series)
    assert all(r.victim_cost == 1.0 for r in res.series)
    assert res.metrics.ttd is None


def test_run_budget_accounting():
    """Every tick's budget split, read off the run's tick records."""
    acl, trace, victims = reference_setup()
    sched = AttackSchedule(rate=1000, start=2.0)
    cfg = SimConfig(duration=12.0, build_cache_map=False)
    records = run(cfg, acl, [(trace, sched)], victims).ticks
    assert len(records) == 120
    budget = cfg.cores * cfg.budget_per_core * cfg.tick
    one_packet = max(r.batch.total_cost for r in records) / 100 + 1
    for r in records:
        attacker_demand = r.batch.total_cost
        victim_demand = cfg.victim_offered * cfg.tick * r.victim_cost
        assert r.fraction == compute_goodput_fraction(budget, attacker_demand, victim_demand)
        attacker_consumed = min(attacker_demand, budget)
        assert attacker_consumed <= budget + 1e-6
        if r.fraction > GOODPUT_FLOOR:
            assert attacker_consumed + r.fraction * victim_demand <= budget + one_packet


def _fold_by_hand(ticks, ticks_per_second, batch_of, nbatches):
    """Series and cache-map frames from tick records, the way a reader would count them."""
    series, frames = [], []
    present, created = [0] * nbatches, set()
    for second in range(len(ticks) // ticks_per_second):
        window = ticks[second * ticks_per_second : (second + 1) * ticks_per_second]
        frac = cost = 0.0
        made, gone = set(), set()
        for r in window:
            frac += r.fraction
            cost += r.victim_cost
            for m in r.batch.created_masks:
                if m in batch_of:
                    made.add(batch_of[m])
                    present[batch_of[m]] += 1
            for m in r.removed_masks:
                if m in batch_of:
                    gone.add(batch_of[m])
                    present[batch_of[m]] -= 1
        packets = sum(r.batch.packets for r in window)
        series.append(SecondRecord(second, frac / ticks_per_second, cost / ticks_per_second,
                                   packets, window[-1].subtables, window[-1].entries))
        states = ["G" if b in made else "R" if b in gone else "B" if present[b] else "A"
                  for b in range(nbatches)]
        pos = window[-1].last_pos
        attack = str(pos // 1000 + 1) if packets and pos is not None else "X"
        frames.append((second, states, attack))
        created |= made
    return series, [  # a batch the run never created a mask of is Y throughout
        CacheMapFrame(second, tuple(s if b in created else "Y" for b, s in enumerate(states)), a)
        for second, states, a in frames
    ]


@pytest.mark.parametrize("emc", [False, True])
@pytest.mark.parametrize("clone", [1, 12])
@pytest.mark.parametrize("use_case", [UseCase.DP, UseCase.SP_DP])
@pytest.mark.parametrize("start, t_sleep", [(0.5, 12.0), (0.85, 10.08)])
def test_tick_records_are_what_the_outputs_fold(start, t_sleep, use_case, clone, emc):
    """Records obey the cache's bookkeeping and the schedule, and every output folds from them.

    A 2 s attack creates masks and all of them expire in the sleep after it.
    With the longer sleep, the cache map passes through G, B, R and A; with
    the shorter one, the next phase starts within the second the masks
    expire, late enough that it creates them again in that second's last tick.
    """
    acl, trace, victims = reference_setup(use_case)
    sched = AttackSchedule(rate=1000 * clone, t_attack=2.0, t_sleep=t_sleep, clone=clone, start=start)
    cfg = SimConfig(duration=15.0, emc_enabled=emc)
    res = run(cfg, acl, [(trace, sched)], victims)
    ticks, tps = res.ticks, cfg.ticks_per_second
    assert len(ticks) == cfg.duration / cfg.tick

    warmed = FlowCache(acl, emc_enabled=emc)
    warmed.warm(victims, now=0.0)
    subtables = warmed.subtable_count
    for r in ticks:
        assert r.subtables == subtables + len(r.batch.created_masks) - len(r.removed_masks)
        subtables = r.subtables
    assert any(r.removed_masks for r in ticks)

    for second, row in enumerate(res.series):
        end, begin = (second + 1) * tps * cfg.tick, second * tps * cfg.tick
        packets = sum(r.batch.packets for r in ticks[second * tps : (second + 1) * tps])
        emitted = sched.emission_count(end) - sched.emission_count(begin)
        assert packets == row.attacker_pps == emitted

    series, frames = _fold_by_hand(ticks, tps, MaskBatches(trace, acl).batch_of(), 1)
    assert series_to_csv(series) == series_to_csv(res.series)
    assert cachemap_to_csv(frames) == cachemap_to_csv(res.frames)
    if t_sleep == 12.0:
        assert {"G", "B", "R", "A"} <= set(cachemap_to_csv(res.frames).split("\n", 1)[1])


def test_run_determinism():
    acl, trace, victims = reference_setup()
    sched = AttackSchedule(rate=1000, start=5.0)
    cfg = SimConfig(duration=18.0)
    a = run(cfg, acl, [(trace, sched)], victims)
    b = run(cfg, acl, [(trace, sched)], victims)
    assert series_to_csv(a.series) == series_to_csv(b.series)
    assert cachemap_to_csv(a.frames) == cachemap_to_csv(b.frames)


def test_run_series_invariants():
    acl, trace, victims = reference_setup()
    sched = AttackSchedule(rate=1000, start=5.0)
    cfg = SimConfig(duration=20.0, build_cache_map=False)
    res = run(cfg, acl, [(trace, sched)], victims)
    for r in res.series:
        assert 0.0 <= r.goodput_fraction <= 1.0
        assert r.entries >= r.subtables >= 0
    total_emitted = sum(r.attacker_pps for r in res.series)
    assert total_emitted == sched.emission_count(cfg.duration)


def test_reference_run_ttd_in_expected_band():
    """The stock single-core constant-rate run collapses 6-10 s after launch."""
    acl, trace, victims = reference_setup()
    sched = AttackSchedule(rate=1000, start=20.0)
    cfg = SimConfig(duration=35.0, build_cache_map=False)
    res = run(cfg, acl, [(trace, sched)], victims)
    assert res.metrics.ttd is not None
    assert 6.0 <= res.metrics.ttd <= 10.0


def test_resurgence_rank_improvement():
    """After generation completes, the first re-rank pulls the victim forward."""
    acl, trace, victims = reference_setup()
    sched = AttackSchedule(rate=1000, start=2.0)
    cfg = SimConfig(duration=16.0, build_cache_map=False)
    res = run(cfg, acl, [(trace, sched)], victims)
    gen_done = next(r.second for r in res.series if r.subtables >= res.masks_total + 1)
    costs = [r.victim_cost for r in res.series]
    assert costs[gen_done + 1] < costs[gen_done - 1]
    assert costs[gen_done + 2] == pytest.approx(1.0)


def test_monotonic_in_cores():
    acl, trace, victims = reference_setup()
    sched = AttackSchedule(rate=1000, start=5.0)
    means = []
    for cores in (1, 2, 3):
        cfg = SimConfig(cores=cores, duration=25.0, build_cache_map=False)
        res = run(cfg, acl, [(trace, sched)], victims)
        means.append(sum(res.fractions) / len(res.fractions))
    assert means[0] <= means[1] + 1e-9 <= means[2] + 2e-9


def test_monotonic_in_rate():
    acl, trace, victims = reference_setup()
    means = []
    for rate in (1000, 2000, 4000):
        sched = AttackSchedule(rate=rate, start=5.0)
        cfg = SimConfig(duration=25.0, build_cache_map=False)
        res = run(cfg, acl, [(trace, sched)], victims)
        attack_secs = res.fractions[5:]
        means.append(sum(attack_secs) / len(attack_secs))
    assert means[0] >= means[1] - 1e-9 >= means[2] - 2e-9


def test_expiry_soundness_during_run():
    acl, trace, victims = reference_setup(UseCase.SP_DP)
    sched = AttackSchedule(rate=100, t_attack=3.0, t_sleep=2.0, start=1.0)
    cfg = SimConfig(duration=30.0, build_cache_map=False)
    res = run(cfg, acl, [(trace, sched)], victims)
    now = cfg.duration
    for last_hit in last_hits(res.cache).values():
        assert now - last_hit < res.cache.idle_timeout + cfg.tick


# -- cache map ----------------------------------------------------------------------


def test_cache_map_batches():
    acl, trace, victims = reference_setup()
    batches = MaskBatches(trace, acl)
    assert batches.mask_count == 8209
    assert batches.count == 9
    assert batches.mask_count - (batches.count - 1) * 1000 == 209


def test_second_compile_on_one_acl_walks_no_header():
    """A trace compiled again on the same ACL object reuses every header's flow id.

    Sweep cells share one ACL and one trace, so a sweep synthesizes its
    trace once: with the rules made unwalkable, the second compile agrees.
    """

    class Unwalkable:
        def __iter__(self):
            raise AssertionError("a compiled header was walked again")

    acl, trace, _ = reference_setup(UseCase.SP_DP)
    first = MaskBatches(trace, acl)
    vars(acl)["packed"] = Unwalkable()
    second = MaskBatches(trace, acl)
    assert second.flow_ids == first.flow_ids and second.batch_of() == first.batch_of()


def test_cache_map_pre_attack_absent():
    acl, trace, victims = reference_setup()
    sched = AttackSchedule(rate=1000, start=5.0)
    cfg = SimConfig(duration=8.0)
    res = run(cfg, acl, [(trace, sched)], victims)
    for f in res.frames[:5]:
        # nothing present yet; trailing batches the 8 s horizon cannot reach are Y
        assert set(f.states) <= {"A", "Y"}
        assert f.states[0] == "A"
        assert f.attack_state == "X"


def test_cache_map_generation_progression():
    acl, trace, victims = reference_setup()
    sched = AttackSchedule(rate=1000, start=0.0)
    cfg = SimConfig(duration=12.0)
    res = run(cfg, acl, [(trace, sched)], victims)
    for k in range(1, 9):
        frame = res.frames[k]
        gen = sorted(i for i, s in enumerate(frame.states) if s == "G")
        # the spawning front trails the packet position (some packets share
        # masks), advances monotonically and spans at most two batches
        assert 1 <= len(gen) <= 2
        assert gen[-1] - gen[0] <= 1
        assert gen[-1] <= k
        for i in range(gen[0]):
            assert frame.states[i] == "B"
        for i in range(gen[-1] + 1, len(frame.states)):
            assert frame.states[i] == "A"
    assert res.frames[11].states == tuple("B") * 9


def test_cache_map_never_created_short_horizon():
    acl, trace, victims = reference_setup()
    sched = AttackSchedule(rate=1000, start=0.0)
    cfg = SimConfig(duration=3.0)  # only ~3000 of 9537 positions reachable
    res = run(cfg, acl, [(trace, sched)], victims)
    assert res.frames[-1].states[-1] == "Y"
    assert res.frames[-1].states[0] != "Y"


@functools.cache
def reference_batch_starts() -> tuple[int, ...]:
    """Trace position of each 1000-mask batch's first mask, by synthesis over the trace.

    Masks are taken in first-spawn order, as the cache map batches them, but
    from the independent walk `oracle_synthesize`, without `MaskBatches` or
    the `FlowTable`.
    """
    acl, trace, _ = reference_setup()
    first_pos: dict = {}
    for pos, h in enumerate(trace.packets):
        _, mask, _ = oracle_synthesize(h, acl)
        first_pos.setdefault(mask, pos)
    return tuple(list(first_pos.values())[::1000])


@pytest.mark.parametrize(
    "start, duration", [(1.0, 4.0), (0.37, 3.0)], ids=["start_on_tick", "start_off_tick"]
)
@pytest.mark.parametrize(
    "duty", [None, (2.0, 1.0), (0.7, 0.05)], ids=["continuous", "duty_2_1", "duty_0.7_0.05"]
)
@pytest.mark.parametrize("clone", [1, 3, 12])
def test_cache_map_y_iff_batch_start_not_reached(clone, duty, start, duration):
    """Y marks exactly the batches whose first mask's position the schedule never reaches.

    With the victim's UDP allow rules no probe shares a victim mask, so a
    batch the run created no mask of is one the replay never got to.
    """
    acl, trace, victims = reference_setup()
    t_attack, t_sleep = duty if duty is not None else (None, 0.0)
    sched = AttackSchedule(
        rate=1000 * clone, t_attack=t_attack, t_sleep=t_sleep, clone=clone, start=start
    )
    reached = {pos for _, pos, _ in schedule_emissions(trace, sched, duration)}
    starts = reference_batch_starts()
    assert len(reached) not in starts  # the horizon ends mid-batch
    want = tuple(pos not in reached for pos in starts)
    assert any(want) and not all(want)
    res = run(SimConfig(duration=duration), acl, [(trace, sched)], victims)
    assert len(res.frames) == duration
    for f in res.frames:
        assert tuple(s == "Y" for s in f.states) == want


def test_cache_map_y_for_batch_whose_only_reached_mask_the_victim_installed():
    """A reached batch the run created no mask of is Y, not A.

    The one packet sent shares victim flow 0's megaflow mask (the trace's
    allowed dport is the victim's), which the t=0 warm-up installed, so the
    run creates no mask and every batch, b1 included, is Y.
    """
    acl = parse_acl_text(
        FIVE_TUPLE,
        "priority=100 dport=5201 action=allow\n"
        "priority=99 ip_src=10.0.0.1 action=allow\n"
        "priority=98 sport=12345 action=allow\n"
        "priority=0 action=deny\n",
    )
    trace = build_trace(UseCase.SIP_SP_DP, acl)
    sched = AttackSchedule(rate=1000, start=0.9995)
    res = run(SimConfig(duration=1.0), acl, [(trace, sched)], victim_flow_headers())
    assert [r.attacker_pps for r in res.series] == [1]
    assert [(f.attack_state, f.states) for f in res.frames] == [("1", ("Y",) * 9)]


def test_cache_map_conf1_steady_pattern():
    acl, trace, victims = reference_setup()
    sched = AttackSchedule(rate=1000, t_attack=10.0, t_sleep=1.0, start=0.0)
    cfg = SimConfig(duration=40.0)
    res = run(cfg, acl, [(trace, sched)], victims)
    saw_expiry = 0
    for f in res.frames[15:]:
        if f.attack_state == "X":
            continue
        counts = {s: f.states.count(s) for s in set(f.states)}
        assert 1 <= counts.get("G", 0) <= 3  # respawn front, wider after sleeps
        assert counts.get("R", 0) <= 3
        saw_expiry += counts.get("R", 0)
    assert saw_expiry > 5  # expiry front keeps chasing the respawn front


# -- exports ------------------------------------------------------------------------


def test_series_csv_format():
    acl, trace, victims = reference_setup()
    cfg = SimConfig(duration=3.0, build_cache_map=False)
    res = run(cfg, acl, [], victims)
    csv = series_to_csv(res.series)
    lines = csv.strip().split("\n")
    assert lines[0] == SERIES_CSV_HEADER
    assert lines[1] == "0,1.000000,1.000,0,1,2"


def test_snapshot_lines_of_a_five_tuple_cache():
    """Each field's mask prints as zero-padded hex of the field's width, fields in layout order."""
    victims = victim_flow_headers()
    acl = scenario_acl(UseCase.DP, victim_flows=victims)
    trace = build_trace(UseCase.DP, acl)
    cfg = SimConfig(duration=25.0, build_cache_map=False)
    res = run(cfg, acl, [(trace, AttackSchedule(rate=1000.0, start=1.0))], victims)
    dport = [0xFFF0 << k & 0xFFFF for k in range(12)] + [0xFFFE, 0xFFFC, 0xFFF8]
    assert res.cache.snapshot_lines() == [
        "#0 mask=00000000/ffffffff/ff/ffff/ffff entries=2 hits=0",
        "#1 mask=00000000/ffffffff/f0/0000/ffff entries=2 hits=0",
    ] + [
        f"#{i} mask=00000000/ffffffff/f0/0000/{m:04x} entries=1 hits=0"
        for i, m in enumerate(dport, start=2)
    ]


def test_metrics_lines_format():
    text = metrics_to_lines(Metrics(6.0, None, None, None))
    assert text == "ttd=6.000\nttr=absent\ndosp=absent\nplateau_fraction=absent\n"


def test_cachemap_csv_format():
    frames = [CacheMapFrame(0, ("A", "G"), "1"), CacheMapFrame(1, ("B", "R"), "X")]
    csv = cachemap_to_csv(frames)
    assert csv == "second,attack,b1,b2\n0,1,A,G\n1,X,B,R\n"
    assert cachemap_to_csv([]) == "second,attack\n"


def test_config_rejects_too_many_ticks_and_fractional_duration():
    too_many = "^duration 60 s at tick 1e-06 s asks for 60000000 ticks, more than 1000000$"
    with pytest.raises(ValueError, match=too_many):
        SimConfig(duration=60.0, tick=1e-6)
    SimConfig(duration=1000.0, tick=0.001)  # exactly the most ticks allowed
    with pytest.raises(ValueError, match="^duration must be a whole number of seconds, got 2.5$"):
        SimConfig(duration=2.5)


def test_run_does_not_depend_on_what_the_acl_table_interned():
    """Byte-identical artifacts however much the ACL's FlowTable interned before the run.

    The ids of a table warmed with other headers, or with the trace backwards,
    differ from a fresh table's; the cache map's 1000-mask batches must still
    follow the trace's first-spawn order.
    """
    _, trace, victims = reference_setup()
    other = build_trace(UseCase.SP_DP, scenario_acl(UseCase.SP_DP, victim_flows=victims))
    sched = AttackSchedule(rate=1000, start=0.5)
    cfg = SimConfig(duration=12.0)

    def artifacts(acl):
        res = run(cfg, acl, [(trace, sched)], victims)
        return series_to_csv(res.series), metrics_to_lines(res.metrics), cachemap_to_csv(res.frames)

    fresh = artifacts(scenario_acl(UseCase.SIP_SP_DP, victim_flows=victims))
    assert fresh[2].count("G") > 9  # every batch spawns within the horizon
    for warm_up in (other.packets, [*reversed(trace.packets), *victims]):
        acl = scenario_acl(UseCase.SIP_SP_DP, victim_flows=victims)
        FlowTable.of(acl).flow_ids(warm_up)
        assert artifacts(acl) == fresh
        assert artifacts(acl) == fresh  # and again on the same, now shared, table


def test_emc_run_hashes_each_distinct_header_once(monkeypatch):
    """With the EMC on, a run hashes each distinct header once, trace packets and victims alike.

    The scenario is the benchmark's `emc_small` (`sp_dp` clone replay), with
    the attack started at 1 s and the run cut at 4 s: by then every trace
    packet has been replayed about ten times.
    """
    scenario = Scenario(use_case="sp_dp", tse="2.1", rate=12000.0, t_attack=10.0, t_sleep=2.0,
                        cores=4, emc=True, attack_start=1.0, duration=4.0)
    acl, trace, victims = reference_setup(UseCase.SP_DP)
    hashed = []

    def counting_hash(h):
        hashed.append(h.bits)
        return header_hash64(h)

    monkeypatch.setattr(flow_cache, "header_hash64", counting_hash)
    res = run(scenario.sim_config(), acl, [(trace, scenario.schedule())], victims)
    assert sum(r.batch.emc_hits for r in res.ticks) > 10 * len(trace)
    assert sorted(hashed) == sorted({h.bits for h in [*trace.packets, *victims]})


def test_run_credits_victims_once_a_tick_by_flow_id(monkeypatch):
    """Each tick makes one `credit_hits` call, and no flow id is resolved after the first tick.

    The scenario is `emc_small`'s, cut at 4 s, as in the hash-count test
    above; the victims' flow ids are taken from their runs once.
    """
    scenario = Scenario(use_case="sp_dp", tse="2.1", rate=12000.0, t_attack=10.0, t_sleep=2.0,
                        cores=4, emc=True, attack_start=1.0, duration=4.0)
    acl, trace, victims = reference_setup(UseCase.SP_DP)
    calls = []

    def counting(cls, name):
        method = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            calls.append(name)
            return method(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    for cls, name in ((FlowCache, "classify_batch"), (FlowCache, "credit_hits"),
                      (FlowTable, "flow_id")):
        counting(cls, name)
    res = run(scenario.sim_config(), acl, [(trace, scenario.schedule())], victims)
    first_tick = calls.index("classify_batch")
    assert calls[:first_tick] and set(calls[:first_tick]) == {"flow_id"}
    assert calls[first_tick:] == ["classify_batch", "credit_hits"] * len(res.ticks)
    assert sum(r.batch.packets for r in res.ticks) > 0


def test_run_classifies_every_attacks_emissions_each_tick():
    """With two attacks, a tick classifies what both schedules emitted in it."""
    acl, trace, victims = reference_setup(UseCase.DP)
    scheds = [AttackSchedule(rate=1000.0, start=0.5),
              AttackSchedule(rate=300.0, t_attack=1.0, t_sleep=0.5, clone=3, start=1.0)]
    res = run(SimConfig(duration=3.0, build_cache_map=False), acl,
              [(trace, s) for s in scheds], victims)
    tick = 0.1
    for step, r in enumerate(res.ticks):
        t0, t1 = step * tick, (step + 1) * tick
        assert r.batch.packets == sum(s.emission_count(t1) - s.emission_count(t0) for s in scheds)
    assert sum(r.batch.packets for r in res.ticks) > 0


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(tick=0.3)
    with pytest.raises(ValueError):
        SimConfig(cores=0)
    for bad in (dict(tick=0.0), dict(duration=-1.0)):
        with pytest.raises(ValueError, match="tick must be positive and duration non-negative"):
            SimConfig(**bad)
    SimConfig()
