"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the measured-versus-published comparisons.
"""

import random
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oracle_cache import (  # noqa: E402
    entries,
    expire,
    last_hits,
    masks,
    search_index,
    subtables,
    synthesize,
)
from oracle_synth import o_counts  # noqa: E402
from oracle_trace import mask_generation_rate  # noqa: E402

from tsesim.attack import (  # noqa: E402
    AttackSchedule,
    UseCase,
    build_trace,
    clone_factor,
    schedule_emissions,
    use_case_acl,
)
from tsesim.engine import (  # noqa: E402
    SimConfig,
    run,
    scenario_acl,
    series_to_csv,
    victim_flow_headers,
)
from tsesim.flow_cache import FlowCache  # noqa: E402
from tsesim.headers import FIVE_TUPLE, HYP, header  # noqa: E402
from tsesim.slowpath import Acl, Action, rule  # noqa: E402

REPORTED_MASKS = {"sp_dp": 272, "sip_sp_dp": 9000}
FROZEN_MASKS = {"dp": 16, "sp_dp": 257, "sip_sp_dp": 8209}
FROZEN_ENTRIES = {"dp": 17, "sp_dp": 273, "sip_sp_dp": 8721}


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def hyp_acl():
    return Acl.from_rules(
        HYP, [rule(HYP, 1, Action.ALLOW, hyp=0b001), rule(HYP, 0, Action.DENY)]
    )


def pack_entries(cache):
    """Split every packed (key, mask) into two uint64 columns for the pair check."""
    live = list(entries(cache))
    lo = (1 << 64) - 1
    k_arr = np.array([[k >> 64, k & lo] for k, _, _ in live], dtype=np.uint64)
    m_arr = np.array([[m >> 64, m & lo] for _, m, _ in live], dtype=np.uint64)
    return k_arr, m_arr


def assert_pairwise_disjoint(cache):
    """Brute-force all-pairs overlap check, vectorized per row."""
    k, m = pack_entries(cache)
    n = len(k)
    for i in range(n - 1):
        common = m[i] & m[i + 1 :]
        diff = (k[i] ^ k[i + 1 :]) & common
        overlaps = np.all(diff == 0, axis=1)
        assert not overlaps.any(), f"entry {i} overlaps {i + 1 + int(np.argmax(overlaps))}"
    return n


@pytest.fixture(scope="module")
def reference_run():
    """Criterion 7 scenario: 1 core, constant 1000 pps, attack at t=20, 60 s."""
    victims = victim_flow_headers()
    acl = scenario_acl(UseCase.SIP_SP_DP, victim_flows=victims)
    trace = build_trace(UseCase.SIP_SP_DP, acl)
    sched = AttackSchedule(rate=1000, start=20.0)
    cfg = SimConfig(duration=60.0)
    started = time.monotonic()
    result = run(cfg, acl, [(trace, sched)], victims)
    result_elapsed = time.monotonic() - started
    return result, result_elapsed, (cfg, acl, trace, sched, victims)


def conf_run(t_attack, t_sleep, duration=60.0):
    victims = victim_flow_headers()
    acl = scenario_acl(UseCase.SIP_SP_DP, victim_flows=victims)
    trace = build_trace(UseCase.SIP_SP_DP, acl)
    sched = AttackSchedule(rate=1000, t_attack=t_attack, t_sleep=t_sleep, start=20.0)
    cfg = SimConfig(duration=duration, build_cache_map=False)
    return run(cfg, acl, [(trace, sched)], victims), sched


def test_criterion_01_hyp_golden_table():
    started = time.monotonic()
    cache = FlowCache(hyp_acl(), emc_enabled=False)
    for v in range(8):
        cache.classify_batch([(header(HYP, hyp=v), cache.flow_id(header(HYP, hyp=v)), 1)], now=0.0)
    rows = set(entries(cache))
    expected = {
        (0b001, 0b111, Action.ALLOW),
        (0b100, 0b100, Action.DENY),
        (0b010, 0b110, Action.DENY),
        (0b000, 0b111, Action.DENY),
    }
    elapsed = time.monotonic() - started
    ok = rows == expected and elapsed < 1.0
    report(1, ok, f"3-bit sweep left exactly the 4 golden rows in {elapsed:.3f}s")
    assert rows == expected
    assert elapsed < 1.0


def test_criterion_02_mask_counts_vs_oracle_and_published():
    started = time.monotonic()
    for name in ("dp", "sp_dp", "sip_sp_dp"):
        oracle = o_counts(name)
        assert oracle["masks"] == FROZEN_MASKS[name]
        assert oracle["entries"] == FROZEN_ENTRIES[name]
        uc = UseCase(name)
        acl = use_case_acl(uc)
        trace = build_trace(uc, acl)
        cache = FlowCache(acl, emc_enabled=False)
        for i, p in enumerate(trace.packets):
            cache.classify_batch([(p, cache.flow_id(p), 1)], now=i / 1000.0)
        assert cache.subtable_count == FROZEN_MASKS[name]
        assert cache.entry_count == FROZEN_ENTRIES[name]
    assert FROZEN_MASKS["dp"] == 16
    assert FROZEN_ENTRIES["dp"] == 17
    elapsed = time.monotonic() - started
    details = []
    for name, published in REPORTED_MASKS.items():
        measured = FROZEN_MASKS[name]
        dev = abs(published - measured) / published
        flag = "FINDING >10%" if dev > 0.10 else "within 10%"
        details.append(f"{name}: measured={measured} published={published} dev={dev:.1%} [{flag}]")
    report(2, elapsed < 30.0, f"dp=16 masks/17 keys; {'; '.join(details)} in {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_03_trace_sizes():
    sizes = {}
    for uc, want in [(UseCase.DP, 17), (UseCase.SP_DP, 289), (UseCase.SIP_SP_DP, 9537)]:
        trace = build_trace(uc, use_case_acl(uc))
        sizes[uc.value] = len(trace)
        assert len(trace) == want
    report(3, True, f"trace sizes {sizes}")


def test_criterion_04_ranking_properties_fuzz():
    started = time.monotonic()
    rng = random.Random(4242)
    acl = use_case_acl(UseCase.SIP_SP_DP)
    cache = FlowCache(acl, emc_enabled=False)
    now = 0.0
    rebalances = 0
    creations = 0
    for _ in range(10_000):
        now += 0.002
        roll = rng.random()
        if roll < 0.85:
            h = header(
                FIVE_TUPLE,
                ip_src=rng.getrandbits(32),
                ip_dst=rng.getrandbits(32),
                proto=rng.getrandbits(8),
                sport=rng.getrandbits(16),
                dport=rng.getrandbits(16),
            )
            _, mask, _ = synthesize(cache, h)
            existed = mask in masks(cache)
            cache.classify_batch([(h, cache.flow_id(h), 1)], now)
            if not existed:
                creations += 1
                assert search_index(cache, mask) == 0
        elif roll < 0.95:
            cache.expire(now)
        else:
            pre = {st.mask_id: st.interval_hits for st in subtables(cache)}
            cache.rebalance(now)
            seq = [pre[st.mask_id] for st in subtables(cache)]
            assert all(a >= b for a, b in zip(seq, seq[1:]))
            rebalances += 1
    elapsed = time.monotonic() - started
    ok = elapsed < 10.0 and rebalances > 100 and creations > 100
    report(
        4,
        ok,
        f"10,000 ops, {creations} subtable creations at rank 0, "
        f"{rebalances} rebalances non-increasing, {elapsed:.1f}s",
    )
    assert elapsed < 10.0
    assert rebalances > 100 and creations > 100


def test_criterion_05_expiry_property_fuzz():
    rng = random.Random(555)
    acl = use_case_acl(UseCase.SP_DP)
    cache = FlowCache(acl, emc_enabled=False)
    tick = 0.1
    now = 0.0
    evicted_early = 0
    for step in range(5000):
        now = round((step + 1) * tick, 10)
        for _ in range(rng.randrange(3)):
            h = header(
                FIVE_TUPLE,
                ip_src=rng.getrandbits(32),
                ip_dst=rng.getrandbits(32),
                proto=rng.getrandbits(8),
                sport=rng.getrandbits(16),
                dport=rng.getrandbits(16),
            )
            cache.classify_batch([(h, cache.flow_id(h), 1)], now)
        snapshot = last_hits(cache)
        expired, _ = expire(cache, now)
        for key, m in expired:
            # 1-ulp slack: float time arithmetic puts exact-10s ages a hair under
            if now - snapshot[(key, m)] < cache.idle_timeout - 1e-9:
                evicted_early += 1
        for last_hit in last_hits(cache).values():
            assert now - last_hit < cache.idle_timeout + 1e-9
    report(5, evicted_early == 0, "no entry outlived 10s idle past a tick, none evicted early")
    assert evicted_early == 0


def test_criterion_06_disjointness_brute_force(reference_run):
    started = time.monotonic()
    counts = {}
    cache = FlowCache(hyp_acl(), emc_enabled=False)
    for v in range(8):
        cache.classify_batch([(header(HYP, hyp=v), cache.flow_id(header(HYP, hyp=v)), 1)], now=0.0)
    counts["hyp"] = assert_pairwise_disjoint(cache)
    for name in ("dp", "sp_dp", "sip_sp_dp"):
        uc = UseCase(name)
        acl = use_case_acl(uc)
        trace = build_trace(uc, acl)
        cache = FlowCache(acl, emc_enabled=False)
        for i, p in enumerate(trace.packets):
            cache.classify_batch([(p, cache.flow_id(p), 1)], now=i / 1000.0)
        counts[name] = assert_pairwise_disjoint(cache)
    result, _, _ = reference_run
    counts["reference-run"] = assert_pairwise_disjoint(result.cache)
    elapsed = time.monotonic() - started
    report(6, True, f"all-pairs overlap checks clean, entry counts {counts}, {elapsed:.1f}s")


def test_criterion_07_decay_and_resurgence(reference_run):
    result, elapsed, _ = reference_run
    fr = result.fractions
    floor_within_10s = min(fr[20:30])
    gen_done = next(r.second for r in result.series if r.subtables >= result.masks_total + 1)
    plateau = fr[gen_done + 2 : 60]
    lo, hi = min(plateau), max(plateau)
    ok = (
        floor_within_10s <= 0.01
        and 0.05 < lo
        and hi < 0.5
        and result.metrics.ttd is not None
        and result.metrics.ttd <= 10.0
        and elapsed < 10.0
    )
    report(
        7,
        ok,
        f"ttd={result.metrics.ttd}s, min fraction {floor_within_10s:.4f} within 10s, "
        f"plateau [{lo:.3f},{hi:.3f}] sustained from s={gen_done + 2}, run took {elapsed:.1f}s",
    )
    assert floor_within_10s <= 0.01
    assert result.metrics.ttd is not None and result.metrics.ttd <= 10.0
    assert 0.05 < lo and hi < 0.5
    assert elapsed < 10.0


def test_criterion_08_tse20_confs_no_recovery_and_conf3_recovers():
    res1, sched1 = conf_run(10.0, 1.0)
    res2, sched2 = conf_run(10.0, 2.0)
    res3, _ = conf_run(10.0, 3.0)
    masks1 = min(r.subtables for r in res1.series if r.second >= 34)
    # "No recovery" needs a collapse first: a run that never collapses has no ttr either.
    ok = (
        res1.metrics.ttd is not None
        and res2.metrics.ttd is not None
        and res1.metrics.ttr is None
        and res2.metrics.ttr is None
        and res3.metrics.ttr is not None
        and masks1 >= 7000
    )
    report(
        8,
        ok,
        f"attack/sleep 10/1 and 10/2: collapse at ttd={res1.metrics.ttd}s and "
        f"{res2.metrics.ttd}s, no sustained recovery over 60s "
        f"(10/1 steady masks >= {masks1}); 10/3 recovers at ttr={res3.metrics.ttr}s; "
        f"10/2 mask floor checked separately",
    )
    assert res1.metrics.ttd is not None
    assert res2.metrics.ttd is not None
    assert res1.metrics.ttr is None
    assert res2.metrics.ttr is None
    assert res3.metrics.ttr is not None
    assert masks1 >= 7000


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the reference synthesis walk spawns 8209 distinct masks for the full "
        "three-field trace versus the published ~8976; the 10s-idle/2s-sleep "
        "steady state then floors at ~6859 active masks, short of the 7000 the "
        "criterion pins to the published population (see README, 'Known deviation')"
    ),
)
def test_criterion_08b_conf2_keeps_7000_masks():
    res2, _ = conf_run(10.0, 2.0)
    floor = min(r.subtables for r in res2.series if r.second >= 34)
    report(8, floor >= 7000, f"attack/sleep 10/2 steady-state mask floor {floor} (>= 7000 required)")
    assert floor >= 7000


def test_criterion_09_clone_arithmetic():
    for rate in (2000, 2500, 3000, 5000, 7777, 12000):
        n = clone_factor(rate)
        sched = AttackSchedule(rate=rate, clone=n, start=0.0)
        trace = build_trace(UseCase.DP, use_case_acl(UseCase.DP))
        first_seen = {}
        for t, idx, _ in schedule_emissions(trace, sched, horizon_seconds=0.05):
            first_seen.setdefault(idx, t)
        times = [first_seen[i] for i in sorted(first_seen)]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert gaps, f"no distinct packets at rate {rate}"
        for g in gaps:
            assert abs(g - n / rate) < 0.1  # within one tick
            assert abs(g - n / rate) < 1e-12  # and in fact exact
        if rate % 1000 == 0:
            assert mask_generation_rate(sched) == 1000.0
    report(9, True, "distinct-packet spacing = n/rate for rates 2000..12000; MGR=1000 at multiples")


def test_criterion_10_multicore_sweep_monotonic():
    started = time.monotonic()
    victims = victim_flow_headers()
    acl = scenario_acl(UseCase.SIP_SP_DP, victim_flows=victims)
    trace = build_trace(UseCase.SIP_SP_DP, acl)
    cores_list = (1, 2, 3, 4)
    rates = (1000, 3000, 6000, 12000)
    min_rate = {}
    for cores in cores_list:
        for rate in rates:
            sched = AttackSchedule(
                rate=rate, t_attack=10.0, t_sleep=2.0, clone=clone_factor(rate), start=20.0
            )
            cfg = SimConfig(cores=cores, duration=45.0, build_cache_map=False)
            result = run(cfg, acl, [(trace, sched)], victims)
            attack_secs = [s for s in range(34, 45) if sched.phase_at(s + 0.5) == "attack"]
            mean = sum(result.fractions[s] for s in attack_secs) / len(attack_secs)
            if mean <= cfg.eps_down:
                min_rate[cores] = rate
                break
    elapsed = time.monotonic() - started
    seq = [min_rate.get(c, float("inf")) for c in cores_list]
    monotone = all(a <= b for a, b in zip(seq, seq[1:]))
    shown = {c: min_rate.get(c, "none") for c in cores_list}
    report(
        10,
        monotone and elapsed < 120.0,
        f"min rate for attack-phase collapse per cores {shown} "
        f"(published comparison: 3000/6000/12000 for 2/3/4 cores), {elapsed:.0f}s",
    )
    assert monotone
    assert elapsed < 120.0


def test_criterion_11_determinism(reference_run):
    result, _, (cfg, acl, trace, sched, victims) = reference_run
    again = run(cfg, acl, [(trace, sched)], victims)
    same = series_to_csv(result.series) == series_to_csv(again.series)
    report(11, same, "the same scenario gives a byte-identical series CSV")
    assert same
