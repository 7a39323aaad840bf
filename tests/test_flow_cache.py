import functools
import gc
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis import stateful

sys.path.insert(0, str(Path(__file__).parent))

from oracle_cache import (  # noqa: E402
    HitPath,
    SequentialCache,
    Subtable,
    batch_masks,
    cache_state,
    check_invariants,
    entries,
    expire,
    flow,
    intern,
    last_hits,
    masks,
    megaflows_overlap,
    oracle_synthesize,
    packed_mask,
    search_index,
    subtables,
    synthesize,
)

from tsesim.attack import UseCase, build_trace, simple_acl, use_case_acl  # noqa: E402
from tsesim.flow_cache import CostModel, FlowCache, FlowTable, synthesize_megaflow  # noqa: E402
from tsesim.headers import FIVE_TUPLE, HYP, HeaderValue, header, header_hash64, ip_to_int  # noqa: E402
from tsesim.slowpath import Acl, Action, parse_acl_text, rule  # noqa: E402


def hyp_acl():
    return Acl.from_rules(
        HYP, [rule(HYP, 1, Action.ALLOW, hyp=0b001), rule(HYP, 0, Action.DENY)]
    )


def hv(v):
    return header(HYP, hyp=v)


def five_acl():
    return parse_acl_text(
        FIVE_TUPLE,
        """
        priority=100 dport=80 action=allow
        priority=99 ip_src=10.0.0.1 action=allow
        priority=98 sport=12345 action=allow
        priority=0 action=deny
        """,
    )


def rand_five(rng):
    return header(
        FIVE_TUPLE,
        ip_src=rng.getrandbits(32),
        ip_dst=rng.getrandbits(32),
        proto=rng.getrandbits(8),
        sport=rng.getrandbits(16),
        dport=rng.getrandbits(16),
    )


# -- EMC ---------------------------------------------------------------------


def probe_cost(cache, *headers):
    """`cache.probe_cost` of one run `(h, flow_id(h), 1)` per header."""
    return cache.probe_cost([(h, cache.flow_id(h), 1) for h in headers])


def emc_hits(cache, h, now=0.0):
    """EMC hits of one packet h classified by `classify_batch`: 1 or 0."""
    return cache.classify_batch([(h, cache.flow_id(h), 1)], now).emc_hits


def test_emc_read_your_write():
    cache = FlowCache(hyp_acl())
    assert emc_hits(cache, hv(0b001)) == 0  # a miss fills the EMC
    assert emc_hits(cache, hv(0b001)) == 1
    assert emc_hits(cache, hv(0b011)) == 0


def test_emc_disabled_always_misses():
    cache = FlowCache(hyp_acl(), emc_enabled=False)
    assert emc_hits(cache, hv(0b001)) == 0
    assert emc_hits(cache, hv(0b001)) == 0
    assert cache._emc_slots == {}


def test_emc_capacity_must_be_positive():
    with pytest.raises(ValueError, match="EMC capacity must be >= 1"):
        FlowCache(hyp_acl(), emc_capacity=0)


def test_emc_collision_eviction_capacity_one():
    cache = FlowCache(hyp_acl(), emc_capacity=1)
    assert emc_hits(cache, hv(0b001)) == emc_hits(cache, hv(0b010)) == 0
    assert cache._emc_slots == {0: hv(0b010).bits}  # 010 evicted 001
    assert emc_hits(cache, hv(0b010)) == 1
    assert emc_hits(cache, hv(0b001)) == 0  # the slot is full, but not with 001
    assert cache._emc_slots == {0: hv(0b001).bits}
    assert len(cache._emc_slots) <= 1


# -- MFC lookup / insert (the sequential reference) ----------------------------


def table_b_cache(emc=False):
    """Cache preloaded with the four golden rows.

    Rows #1 and #4 share mask 111 and therefore one subtable; the resulting
    search order over masks is [111, 100, 110].
    """
    cache = SequentialCache(hyp_acl(), emc_enabled=emc)
    rows = [
        (0b010, 0b110, Action.DENY),
        (0b100, 0b100, Action.DENY),
        (0b001, 0b111, Action.ALLOW),
        (0b000, 0b111, Action.DENY),
    ]
    for key_bits, mask_bits, action in rows:
        cache.mfc_insert(key_bits & mask_bits, mask_bits, action, now=0.0)
    return cache


def test_mfc_lookup_empty():
    cache = SequentialCache(hyp_acl())
    assert cache.mfc_lookup(hv(0b101), now=0.0) is None
    assert cache.subtable_count == 0


def test_mfc_lookup_probe_counts():
    cache = table_b_cache()
    assert masks(cache) == [0b111, 0b100, 0b110]
    # 111&111=111 misses the {001,000} keys; the 100 subtable matches second.
    action, probed = cache.mfc_lookup(hv(0b111), now=0.0)
    assert action is Action.DENY
    assert probed == 2
    # Mask 111 holds both keys 001 and 000, so 000 hits the first subtable.
    action, probed = cache.mfc_lookup(hv(0b000), now=0.0)
    assert action is Action.DENY
    assert probed == 1


def test_mfc_insert_new_mask_ranked_first():
    cache = SequentialCache(five_acl(), emc_enabled=False)
    ma = packed_mask(FIVE_TUPLE, dport=0xFFFF)
    mb = packed_mask(FIVE_TUPLE, sport=0x8000)
    h = header(FIVE_TUPLE, ip_src=1, ip_dst=2, proto=6, sport=3, dport=80)
    cache.mfc_insert(h.bits & ma, ma, Action.ALLOW, now=0.0)
    cache.mfc_insert(h.bits & mb, mb, Action.DENY, now=0.0)
    assert masks(cache) == [mb, ma]
    assert search_index(cache, mb) == 0


def test_mfc_insert_same_mask_no_new_subtable():
    cache = SequentialCache(hyp_acl())
    m = 0b111
    cache.mfc_insert(0b001, m, Action.ALLOW, now=0.0)
    created, new_entry = cache.mfc_insert(0b000, m, Action.DENY, now=0.0)
    assert not created and new_entry
    assert cache.subtable_count == 1
    assert cache.entry_count == 2


def test_mfc_insert_duplicate_refreshes_only():
    cache = SequentialCache(hyp_acl())
    k, m = 0b001, 0b111
    cache.mfc_insert(k, m, Action.ALLOW, now=0.0)
    created, new_entry = cache.mfc_insert(k, m, Action.ALLOW, now=5.0)
    assert not created and not new_entry
    assert last_hits(cache) == {(k, m): 5.0}


# -- expiry --------------------------------------------------------------------


def test_expiry_boundaries():
    cache = SequentialCache(hyp_acl())
    k, m = 0b001, 0b111
    cache.mfc_insert(k, m, Action.ALLOW, now=0.0)
    cache.expire(9.9)
    assert cache.entry_count == 1
    cache.expire(10.0)
    assert cache.entry_count == 0
    assert cache.subtable_count == 0  # emptied subtable removed


def test_expiry_respects_refresh():
    cache = SequentialCache(hyp_acl())
    k, m = 0b001, 0b111
    cache.mfc_insert(k, m, Action.ALLOW, now=0.0)
    cache.mfc_lookup(hv(0b001), now=6.0)  # refresh
    cache.expire(10.0)
    assert cache.entry_count == 1
    expired, removed = expire(cache, 16.0)
    assert cache.entry_count == 0
    assert expired == [(k, m)]
    assert removed == [m]


def test_expiry_random_soundness():
    rng = random.Random(5)
    cache = SequentialCache(five_acl(), emc_enabled=False)
    last_hits = {}
    now = 0.0
    for _ in range(2000):
        now += rng.random() * 0.5
        h = rand_five(rng)
        key, m, action = synthesize(cache, h)
        cache.mfc_insert(key, m, action, now)
        last_hits[(key, m)] = now
        if rng.random() < 0.3:
            expired, _ = expire(cache, now)
            for key, m in expired:
                assert now - last_hits[(key, m)] >= cache.idle_timeout
        live = {(k, m) for k, m, _ in entries(cache)}
        for (k, m), t in last_hits.items():
            if now - t < cache.idle_timeout:
                assert (k, m) in live


# -- rebalance -----------------------------------------------------------------


def test_rebalance_orders_by_hits_and_resets():
    cache = FlowCache(five_acl(), emc_enabled=False)
    headers = [  # one megaflow each, under three different masks
        header(FIVE_TUPLE, ip_src=1, ip_dst=2, proto=6, sport=3, dport=80),
        header(FIVE_TUPLE, ip_src=0x0A000001, ip_dst=2, proto=6, sport=3, dport=81),
        header(FIVE_TUPLE, ip_src=1, ip_dst=2, proto=6, sport=12345, dport=81),
    ]
    cache.classify_batch([(h, cache.flow_id(h), 1) for h in headers], now=0.0)
    a, b, c = (st.mask_id for st in subtables(cache))  # current search order
    by_subtable = {cache.table.mask_of[cache.flow_id(h)]: h for h in headers}
    for mid, hits in ((a, 5), (b, 100), (c, 1)):
        cache.credit_hits([cache.flow_id(by_subtable[mid])], hits, now=0.5)
    assert [st.interval_hits for st in subtables(cache)] == [5, 100, 1]
    cache.rebalance(1.0)
    assert [st.mask_id for st in subtables(cache)] == [b, a, c]
    assert all(st.interval_hits == 0 for st in subtables(cache))


def test_rebalance_all_zero_is_stable():
    cache = SequentialCache(five_acl(), emc_enabled=False)
    h = header(FIVE_TUPLE, ip_src=1, ip_dst=2, proto=6, sport=3, dport=80)
    for m in [packed_mask(FIVE_TUPLE, dport=0xFFFF), packed_mask(FIVE_TUPLE, sport=0xFFFF)]:
        cache.mfc_insert(h.bits & m, m, Action.DENY, now=0.0)
    before = subtables(cache)
    cache.rebalance(1.0)
    assert subtables(cache) == before


@functools.cache
def _sip_sp_dp_runs():
    """The `sip_sp_dp` ACL and its probe trace as runs of one, compiled once (8209 masks)."""
    acl = use_case_acl(UseCase.SIP_SP_DP)
    packets = build_trace(UseCase.SIP_SP_DP, acl).packets
    return acl, list(zip(packets, FlowTable.of(acl).trace_ids(packets), [1] * len(packets)))


def _long_cache(first, second):
    """A `sip_sp_dp` cache holding the masks of trace runs [first:first + second], from 5 s.

    Runs [:first] are installed at 0 s and expired at 10 s.  The trace's
    first 289 runs cycle through 17 masks that recur later, so with `first`
    from 300 up the expiry removes subtables and leaves a nonzero offset.
    """
    acl, runs = _sip_sp_dp_runs()
    cache = FlowCache(acl, emc_enabled=False)
    cache.classify_batch(runs[:first], now=0.0)
    cache.classify_batch(runs[first:first + second], now=5.0)
    cache.expire(10.0)
    return cache


def _credit_storage(cache, counts, now):
    """Credit counts[i] hits to the subtable at storage index i (index 0 searched last)."""
    fid_of = {cache.table.mask_of[fid]: fid for fid in cache._idle}
    for i, count in sorted(counts.items()):
        cache.credit_hits([fid_of[cache._rev[i]]], count, now)


@settings(max_examples=50, deadline=None)
@given(first=st.just(0) | st.integers(300, 900), second=st.integers(300, 2500), data=st.data())
def test_rebalance_of_long_storage_is_a_stable_sort_by_hits(first, second, data):
    """Hundreds to thousands of subtables, hit in blocks, singletons or both, with tied counts.

    Blocks may touch the bottom or the top of storage, and a prior expiry
    or rebalance leaves a nonzero position offset.  After each rebalance
    the search order is the prior one stably sorted by hits, descending.
    """
    cache = _long_cache(first, second)
    assert first == 0 or cache._pos_offset > 0
    now = 10.0
    for _ in range(2):
        n = cache.subtable_count
        hit = set()
        for start, length in data.draw(st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(1, n)), max_size=5), label="blocks"):
            hit.update(range(start, min(start + length, n)))
        for edge in data.draw(st.sets(st.sampled_from(["bottom", "top"])), label="edges"):
            length = data.draw(st.integers(1, n), label=f"{edge} block")
            hit.update(range(length) if edge == "bottom" else range(n - length, n))
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        hit.update(rng.sample(range(n), min(n, data.draw(st.integers(0, 1500), label="singletons"))))
        most = data.draw(st.sampled_from([1, 3, 1000]), label="most hits")
        _credit_storage(cache, {i: rng.randint(1, most) for i in hit}, now)
        prior = subtables(cache)
        now += 1.0
        cache.rebalance(now)
        stable = sorted(prior, key=lambda s: -s.interval_hits)
        assert [s.mask_id for s in subtables(cache)] == [s.mask_id for s in stable]
        check_invariants(cache)


def test_rebalance_of_few_blocks_edits_storage_in_place():
    """Hits in one block: storage stays the same list, and no position of its longest unhit run is written.

    Storage 100-199 are hit, so the masks from 200 up are the longest
    unhit run.  Their positions are ints above 256, new objects whenever
    written.  Then two blocks near the top: storage stays the same list,
    its blocks deleted top first.
    """
    cache = _long_cache(0, 1000)
    assert cache.subtable_count > 400
    rev, pos = cache._rev, cache._pos
    _credit_storage(cache, {i: i % 3 + 1 for i in range(100, 200)}, now=10.0)
    kept = {mid: pos[mid] for mid in rev[200:]}
    prior = subtables(cache)
    cache.rebalance(11.0)
    assert cache._rev is rev
    assert all(pos[mid] is p for mid, p in kept.items())
    stable = sorted(prior, key=lambda s: -s.interval_hits)
    assert [s.mask_id for s in subtables(cache)] == [s.mask_id for s in stable]
    check_invariants(cache)
    n = cache.subtable_count
    _credit_storage(cache, {i: 1 for i in (*range(n - 60, n - 50), *range(n - 30, n - 20))}, 11.0)
    prior = subtables(cache)
    cache.rebalance(12.0)
    assert cache._rev is rev
    stable = sorted(prior, key=lambda s: -s.interval_hits)
    assert [s.mask_id for s in subtables(cache)] == [s.mask_id for s in stable]
    check_invariants(cache)


# -- classify -------------------------------------------------------------------


def test_classify_emc_on_second_hit():
    cache = FlowCache(hyp_acl(), emc_enabled=True)
    first = cache.classify_batch([(hv(0b001), cache.flow_id(hv(0b001)), 1)], now=0.0)
    second = cache.classify_batch([(hv(0b001), cache.flow_id(hv(0b001)), 1)], now=0.1)
    assert first.slow_path == 1
    assert second.emc_hits == 1
    assert second.total_cost == cache.costs.c_emc


def test_classify_fresh_header_slow_path():
    cache = FlowCache(hyp_acl(), emc_enabled=False)
    res = cache.classify_batch([(hv(0b101), cache.flow_id(hv(0b101)), 1)], now=0.0)
    assert res.slow_path == 1
    assert cache.entry_count == 1
    assert res.total_cost == cache.costs.c_slow  # no subtable to probe


def test_classify_hyp_sweep_builds_golden_table():
    cache = FlowCache(hyp_acl(), emc_enabled=False)
    for v in range(8):
        cache.classify_batch([(hv(v), cache.flow_id(hv(v)), 1)], now=0.0)
    rows = set(entries(cache))
    assert rows == {
        (0b001, 0b111, Action.ALLOW),
        (0b100, 0b100, Action.DENY),
        (0b010, 0b110, Action.DENY),
        (0b000, 0b111, Action.DENY),
    }


def test_classify_cost_formula():
    costs = CostModel(c_emc=2.0, c_sub=3.0, c_slow=40.0)
    cache = FlowCache(hyp_acl(), emc_enabled=True, costs=costs)
    h1, h0 = hv(0b001), hv(0b000)
    res = cache.classify_batch([(h1, cache.flow_id(h1), 1)], now=0.0)  # miss EMC, miss MFC (empty), slow
    assert res.total_cost == 2.0 + 0 * 3.0 + 40.0
    res = cache.classify_batch([(h0, cache.flow_id(h0), 1)], now=0.0)  # miss EMC, probe 1 subtable, slow
    assert res.total_cost == 2.0 + 1 * 3.0 + 40.0
    res = cache.classify_batch([(h0, cache.flow_id(h0), 1)], now=0.1)  # EMC hit
    assert res.total_cost == 2.0

    # A batch of several runs, each count at its own weight.  It holds an EMC
    # hit and a megaflow hit of several packets, a miss that creates a
    # subtable, and a second miss, which still scans the two subtables the
    # batch started with.
    c_emc, c_sub, c_slow = costs.c_emc, costs.c_sub, costs.c_slow
    h001, h100, h101, h010, h000 = (hv(v) for v in (0b001, 0b100, 0b101, 0b010, 0b000))
    miss = 2 * c_sub + c_slow  # n0 = 2, not the 3 subtables after h010's install
    for emc_enabled in (True, False):
        cache = FlowCache(hyp_acl(), emc_enabled=emc_enabled, costs=costs)
        cache.classify_batch([(h, cache.flow_id(h), 1) for h in (h001, h100)], now=0.0)
        assert masks(cache) == [0b100, 0b111]  # h100's subtable first, then h001's
        assert cache.flow_id(h101) == cache.flow_id(h100)  # an MFC hit in subtable 1
        runs = [(h001, 3), (h101, 2), (h010, 1), (h000, 2)]
        res = cache.classify_batch([(h, cache.flow_id(h), n) for h, n in runs], now=1.0)
        assert [cache.table.mask_bits[m] for m in res.created_masks] == [0b110]
        if emc_enabled:
            # h001: 3 EMC hits; h101: one MFC hit at position 1, then 1 EMC hit;
            # h010: one miss; h000: one miss, then 1 EMC hit.  Every packet probes the EMC.
            assert (res.packets, res.emc_hits, res.mfc_hits, res.slow_path) == (8, 5, 1, 2)
            assert res.total_cost == 8 * c_emc + 1 * c_sub + 2 * miss
        else:
            # h001: 3 MFC hits at position 2; h101: 2 at position 1; 3 misses.
            assert (res.packets, res.emc_hits, res.mfc_hits, res.slow_path) == (8, 0, 5, 3)
            assert res.total_cost == 3 * 2 * c_sub + 2 * 1 * c_sub + 3 * miss


# -- batch path vs sequential oracle -------------------------------------------


def test_batch_of_one_matches_sequential():
    rng = random.Random(17)
    headers = [rand_five(rng) for _ in range(400)]
    seq = SequentialCache(five_acl(), emc_enabled=False)
    bat = FlowCache(five_acl(), emc_enabled=False)
    total_seq = 0.0
    total_bat = 0.0
    for i, h in enumerate(headers):
        now = i * 0.01
        total_seq += seq.classify(h, now).cost_units
        total_bat += bat.classify_batch([(h, bat.flow_id(h), 1)], now).total_cost
    assert total_bat == pytest.approx(total_seq)
    assert {e for e in entries(bat)} == {e for e in entries(seq)}
    assert masks(bat) == masks(seq)


@pytest.mark.parametrize("capacity", [1, 3, 8192])
def test_emc_batch_of_one_matches_sequential(capacity):
    """With the EMC on, one-packet batches price and fill it as the scan's own EMC does.

    A pool of 30 headers repeats, so slots are hit, and at capacities 1 and 3
    they are shared by several headers.
    """
    rng = random.Random(19)
    pool = [rand_five(rng) for _ in range(30)]
    seq = SequentialCache(five_acl(), emc_capacity=capacity)
    bat = FlowCache(five_acl(), emc_capacity=capacity)
    hits = 0
    for i in range(400):
        h = rng.choice(pool)
        want = seq.classify(h, i * 0.01)
        got = bat.classify_batch([(h, bat.flow_id(h), 1)], i * 0.01)
        assert (got.total_cost, got.emc_hits) == (want.cost_units, want.path is HitPath.EMC)
        hits += got.emc_hits
    assert cache_state(bat) == cache_state(seq)
    assert 0 < hits < 400


def test_batch_hit_cost_matches_linear_scan_position():
    """Fast-path probe counts agree with an independent sequential scan."""
    rng = random.Random(29)
    cache = FlowCache(five_acl(), emc_enabled=False)
    headers = [rand_five(rng) for _ in range(150)]
    for i, h in enumerate(headers):
        cache.classify_batch([(h, cache.flow_id(h), 1)], now=i * 0.01)
    cache.rebalance(2.0)
    live = last_hits(cache)
    for h in rng.sample(headers, 50):
        _, mask, _ = synthesize(cache, h)
        scan_pos = None
        for pos, m in enumerate(masks(cache)):
            if (h.bits & m, m) in live:
                scan_pos = pos
                break
        assert scan_pos == search_index(cache, mask)
        assert probe_cost(cache, h) == (scan_pos + 1) * cache.costs.c_sub


def test_batch_duplicate_miss_within_tick_spawns_once():
    h = header(FIVE_TUPLE, ip_src=9, ip_dst=2, proto=6, sport=3, dport=81)
    for runs in ([(h, 1)] * 3, [(h, 3)]):
        cache = FlowCache(five_acl(), emc_enabled=False)
        res = cache.classify_batch([(x, cache.flow_id(x), n) for x, n in runs], now=0.0)
        assert res.slow_path == 3  # installs are not visible within the batch
        assert len(res.created_masks) == 1
        assert cache.entry_count == 1


# -- run pricing -----------------------------------------------------------------


def _five_pool():
    """Headers that reach every rule of the built-in table, plus random misses."""
    rng = random.Random(41)
    pool = [rand_five(rng) for _ in range(8)]
    pool += [
        header(FIVE_TUPLE, ip_src=rng.getrandbits(32), ip_dst=5, proto=6, sport=7, dport=80),
        header(FIVE_TUPLE, ip_src=0x0A000001, ip_dst=5, proto=17, sport=9, dport=443),
        header(FIVE_TUPLE, ip_src=3, ip_dst=5, proto=6, sport=12345, dport=22),
        header(FIVE_TUPLE, ip_src=0x0A000003, ip_dst=5, proto=6, sport=12344, dport=81),
    ]
    return pool


TABLES = {
    "hyp": (hyp_acl, [hv(v) for v in range(8)]),
    "builtin": (simple_acl, _five_pool()),
}

_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("batch"),
            st.lists(st.tuples(st.integers(0, 11), st.integers(1, 4)), max_size=12),
            st.sampled_from([0.0, 0.1, 1.0, 4.0, 11.0]),
        ),
        st.tuples(st.just("expire")),
        st.tuples(st.just("rebalance")),
    ),
    max_size=25,
)


@settings(max_examples=150, deadline=None)
@given(
    table=st.sampled_from(sorted(TABLES)),
    emc_enabled=st.booleans(),
    emc_capacity=st.sampled_from([1, 3, 8192]),
    costs=st.sampled_from([CostModel(), CostModel(c_emc=2.0, c_sub=3.0, c_slow=40.0)]),
    steps=_steps,
)
def test_runs_price_like_runs_of_one(table, emc_enabled, emc_capacity, costs, steps):
    """A run (h, count) gives the same result and state as count runs (h, 1)."""
    make_acl, pool = TABLES[table]
    caches = [
        FlowCache(make_acl(), emc_enabled=emc_enabled, emc_capacity=emc_capacity, costs=costs)
        for _ in range(2)
    ]
    grouped, single = caches
    now = 0.0
    for step in steps:
        if step[0] == "batch":
            _, picks, dt = step
            now += dt
            runs = [(pool[i % len(pool)], count) for i, count in picks]
            ones = [(h, 1) for h, count in runs for _ in range(count)]
            got = grouped.classify_batch([(h, grouped.flow_id(h), n) for h, n in runs], now)
            want = single.classify_batch([(h, single.flow_id(h), n) for h, n in ones], now)
            assert batch_masks(grouped, got) == batch_masks(single, want)
        elif step[0] == "expire":
            before = masks(grouped)
            expired = expire(grouped, now)
            assert expired == expire(single, now)
            removed = set(expired[1])
            assert masks(grouped) == [m for m in before if m not in removed]
        else:
            grouped.rebalance(now)
            single.rebalance(now)
        for cache in caches:
            check_invariants(cache)
            layout = cache.table.acl.layout
            for slot, bits in cache._emc_slots.items():
                assert slot == header_hash64(HeaderValue(layout, bits)) % cache.emc_capacity
        assert cache_state(grouped) == cache_state(single)


def test_check_invariants_detects_corruption():
    cache = table_b_cache()
    check_invariants(cache)
    cache._pos[cache._rev[-1]] += 1
    with pytest.raises(AssertionError, match="pos"):
        check_invariants(cache)
    cache = table_b_cache()
    cache._idle.popitem()
    with pytest.raises(AssertionError, match="has size 2 for 1 live flows"):
        check_invariants(cache)
    cache = table_b_cache()
    cache._size[cache._rev[-1]] += 1
    with pytest.raises(AssertionError, match="has size 3 for 2 live flows"):
        check_invariants(cache)
    cache = table_b_cache()
    cache.mfc_lookup(hv(0b000), now=5.0)
    check_invariants(cache)
    cache._idle.move_to_end(next(reversed(cache._idle)), last=False)
    with pytest.raises(AssertionError, match="out of last-hit order"):
        check_invariants(cache)
    cache = table_b_cache()
    cache._hits[cache._rev[-1]] = 0  # a hit mask with no hits
    with pytest.raises(AssertionError, match="hit counts hold mask .* with 0 hits, stored"):
        check_invariants(cache)
    cache = table_b_cache()
    mid = cache._rev[-1]
    cache.expire(10.0)  # every entry was installed at 0.0
    check_invariants(cache)
    cache._hits[mid] = 3
    with pytest.raises(AssertionError, match="out of storage with size 0 and 3 hits"):
        check_invariants(cache)
    cache._hits[len(cache._size)] = 1  # a mask id past the size column
    del cache._hits[mid]
    with pytest.raises(AssertionError, match="with 1 hits, out of storage"):
        check_invariants(cache)
    cache = FlowCache(hyp_acl())
    for v in (0b001, 0b010):
        emc_hits(cache, hv(v))  # two misses fill two slots
    check_invariants(cache)
    cache._resident.add(hv(0b100).bits)  # a stale entry: bits no slot holds
    with pytest.raises(AssertionError, match="resident set holds bits that no slot holds"):
        check_invariants(cache)
    cache._resident -= {hv(0b100).bits, hv(0b001).bits}  # a missing entry
    with pytest.raises(AssertionError, match="resident set lacks bits that a slot holds"):
        check_invariants(cache)
    cache._resident.add(hv(0b001).bits)
    check_invariants(cache)
    slot, bits = cache._emc_slots.popitem()  # move the bits to a free slot not their own
    cache._emc_slots[min(set(range(3)) - set(cache._emc_slots) - {slot})] = bits
    with pytest.raises(AssertionError, match="holds bits that hash to another slot"):
        check_invariants(cache)


def test_check_invariants_detects_stale_id_lists():
    cache = table_b_cache()
    del cache._pos[cache._rev[0]]
    with pytest.raises(AssertionError, match="stored mask .* has no position"):
        check_invariants(cache)
    cache = table_b_cache()
    cache._rev.append(cache._rev[0])  # one mask stored twice
    with pytest.raises(AssertionError, match="mask .* is stored 2 times"):
        check_invariants(cache)
    cache = table_b_cache()
    mid, fid = cache._rev[-1], next(iter(cache._idle))
    cache.expire(10.0)  # every entry was installed at 0.0
    check_invariants(cache)
    assert cache.subtable_count == 0 and cache._size[mid] == 0  # kept dead for revival
    cache._size[mid] = 1  # counted live, but out of storage
    with pytest.raises(AssertionError, match="out of storage with size 1 and 0 hits"):
        check_invariants(cache)
    cache._size[mid] = 0
    cache._idle[fid] = 10.0
    with pytest.raises(AssertionError, match="idle list holds a flow whose subtable is absent"):
        check_invariants(cache)
    del cache._idle[fid]
    cache.mfc_lookup(hv(0b000), now=10.0)  # nothing live: a miss
    cache.classify(hv(0b000), now=10.0)  # revives mid's subtable, first in the search order
    assert subtables(cache) == [Subtable(mid, 1, 0)]
    check_invariants(cache)
    cache._pos[cache._rev[0]] -= 1  # a stale position
    with pytest.raises(AssertionError, match="subtable at storage 0 has pos"):
        check_invariants(cache)


def test_flow_table_is_one_per_acl_object():
    acl = five_acl()
    table = FlowTable.of(acl)
    assert FlowTable.of(acl) is table and FlowCache(acl).table is table
    assert FlowTable.of(five_acl()) is not table
    a = header(FIVE_TUPLE, ip_src=1, ip_dst=2, proto=6, sport=3, dport=80)
    b = header(FIVE_TUPLE, ip_src=7, ip_dst=9, proto=17, sport=4, dport=80)  # same megaflow
    c = header(FIVE_TUPLE, ip_src=1, ip_dst=2, proto=6, sport=3, dport=81)
    fid_a, fid_b, fid_c = table.flow_ids([a, b, c])
    assert fid_a == fid_b != fid_c and table.flow_ids([c, a]) == [fid_c, fid_a]
    assert [table.flow_id(c), table.flow_id(b)] == [fid_c, fid_a]
    key, mask, action = want = oracle_synthesize(a, acl)
    assert flow(table, fid_a) == want and table.mask_bits[table.mask_of[fid_a]] == mask
    assert table.mask_ids[mask] == table.mask_of[fid_a]
    with pytest.raises(ValueError, match="already has action"):
        intern(table, mask, key, Action.DENY)


@st.composite
def acl_and_headers(draw):
    """A random multi-field ACL over FIVE_TUPLE and headers near its rules, in shuffled order.

    Rules take random priorities and constrain one to three fields; a
    catch-all deny sits below them.  Each header field is a rule value, a
    rule value with one bit flipped, or random, so walks stop at every depth.
    Headers repeat, and the shuffle decides which of them the table meets first.
    """
    widths = {f.name: f.width for f in FIVE_TUPLE.fields}
    n = draw(st.integers(1, 6))
    priorities = draw(st.lists(st.integers(1, 10_000), min_size=n, max_size=n, unique=True))
    rules, values = [rule(FIVE_TUPLE, 0, Action.DENY)], {name: [] for name in widths}
    for priority in priorities:
        names = draw(st.lists(st.sampled_from(sorted(widths)), min_size=1, max_size=3, unique=True))
        matches = {name: draw(st.integers(0, (1 << widths[name]) - 1)) for name in names}
        for name, v in matches.items():
            values[name].append(v)
        rules.append(rule(FIVE_TUPLE, priority, draw(st.sampled_from(Action)), **matches))
    acl = Acl.from_rules(FIVE_TUPLE, draw(st.permutations(rules)))

    def field(name):
        full = (1 << widths[name]) - 1
        near = [v ^ (1 << b) for v in values[name] for b in range(widths[name])]
        return st.one_of(st.integers(0, full), *(st.sampled_from(x) for x in (values[name], near) if x))

    one = st.builds(lambda **kw: header(FIVE_TUPLE, **kw), **{name: field(name) for name in widths})
    distinct = draw(st.lists(one, min_size=1, max_size=15))
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=10))
    return acl, draw(st.permutations(distinct + repeats))


@settings(max_examples=100, deadline=None)
@given(case=acl_and_headers())
def test_int_compile_matches_synthesize_megaflow(case):
    """The table's int megaflow per header is the independent walk's, and ids follow (mask, key)."""
    acl, headers = case
    table = FlowTable.of(acl)  # the table synthesize_megaflow reads
    fids = table.flow_ids(headers)
    want = [oracle_synthesize(h, acl) for h in headers]
    for h, fid, (key, mask, action) in zip(headers, fids, want):
        assert synthesize_megaflow(h, acl) == (key, mask, action)
        assert flow(table, fid)[:2] == (key, mask)
        assert table.mask_ids[mask] == table.mask_of[fid]
    for i, (f1, (k1, m1, _)) in enumerate(zip(fids, want)):
        for f2, (k2, m2, _) in zip(fids[i:], want[i:]):
            assert (f1 == f2) == ((m1, k1) == (m2, k2))
            same_mask = table.mask_of[f1] == table.mask_of[f2]
            assert same_mask == (m1 == m2)
    assert fids == [table.flow_id(h) for h in headers]  # a second look finds the same ids


@settings(max_examples=100, deadline=None)
@given(case=acl_and_headers(), data=st.data())
def test_key_bits_name_one_synthesized_flow(case, data):
    """Synthesized flows with equal keys have equal masks and actions; `intern` refuses others.

    This is what lets the table intern a flow by its key bits alone.  The
    headers at the keys' own bits join the drawn ones, as those are the
    headers that lie in every flow with that key.
    """
    acl, drawn = case
    headers = drawn + [HeaderValue(FIVE_TUPLE, oracle_synthesize(h, acl)[0]) for h in drawn]
    by_key: dict[int, tuple[int, Action]] = {}
    for key, mask, action in (oracle_synthesize(h, acl) for h in headers):
        assert by_key.setdefault(key, (mask, action)) == (mask, action)
    table = FlowTable(acl)
    table.flow_ids(headers)
    assert len(table._flow_ids) == len(by_key)
    fid = data.draw(st.sampled_from(range(len(table._flow_ids))))
    key, mask, action = flow(table, fid)
    other_mask = mask ^ 1 << data.draw(st.integers(0, FIVE_TUPLE.width - 1))
    with pytest.raises(ValueError, match="already has mask"):
        intern(table, other_mask, key, action)
    other_action = Action.DENY if action is Action.ALLOW else Action.ALLOW
    with pytest.raises(ValueError, match="already has action"):
        intern(table, mask, key, other_action)
    assert intern(table, mask, key, action) == fid and len(table._flow_ids) == len(by_key)


@pytest.mark.parametrize("emc", [False, True])
def test_probe_cost_of_absent_entry_is_what_classify_batch_charges(emc):
    """probe_cost's miss price, for a megaflow never installed and for an expired one."""
    rng = random.Random(13)
    cache = FlowCache(five_acl(), emc_enabled=emc)
    for i in range(40):
        h = rand_five(rng)
        cache.classify_batch([(h, cache.flow_id(h), 1)], now=i * 0.01)
    live = {(k, m) for k, m, _ in entries(cache)}
    h = rand_five(rng)
    while synthesize(cache, h)[:2] in live:
        h = rand_five(rng)
    miss = (1 if emc else 0) * cache.costs.c_emc + cache.subtable_count * cache.costs.c_sub
    cost = probe_cost(cache, h)
    assert cost == miss + cache.costs.c_slow
    assert cache.classify_batch([(h, cache.flow_id(h), 1)], now=1.0).total_cost == cost
    if not emc:  # with the EMC on, h would now hit the EMC
        others = [rand_five(rng) for _ in range(30)]
        others = [g for g in others if cache.flow_id(g) != cache.flow_id(h)]
        cache.classify_batch([(g, cache.flow_id(g), 1) for g in others], now=8.0)
        cache.expire(11.0)  # h's entry, installed at 1.0, expires; the others stay
        assert synthesize(cache, h)[:2] not in last_hits(cache) and cache.subtable_count > 0
        cost = probe_cost(cache, h)
        assert cost == cache.subtable_count * cache.costs.c_sub + cache.costs.c_slow
        assert cache.classify_batch([(h, cache.flow_id(h), 1)], now=11.0).total_cost == cost


@pytest.mark.parametrize("emc", [True, False])
def test_probe_cost_of_a_run_is_what_classify_batch_charges(emc):
    """A run of 3 packets missing the EMC: probed, then classified, at c_emc != c_sub.

    With the EMC on, its first packet goes on to the MFC and the other two
    hit the EMC, for the probe as for the batch.
    """
    cache = FlowCache(hyp_acl(), emc_enabled=emc, costs=CostModel(2.0, 3.0, 40.0))
    h101 = hv(0b101)
    cache.classify_batch([(h, cache.flow_id(h), 1) for h in (hv(0b100), hv(0b010))], now=0.0)
    # An MFC hit at position 2, then a miss past both subtables; each packet's
    # price past the EMC.
    for h, price in ((h101, 2 * 3.0), (hv(0b000), 2 * 3.0 + 40.0)):
        runs = [(h, cache.flow_id(h), 3)]
        cost = cache.probe_cost(runs)
        assert cost == (3 * 2.0 + price if emc else 3 * price)
        assert cache.classify_batch(runs, now=1.0).total_cost == cost


def test_probe_cost_prices_each_run_alone():
    """A probe does not see its own EMC fills: a header's run twice costs twice one run.

    `classify_batch` prices the second run as an EMC hit; the engine probes
    one run per distinct victim header, so the two never differ there.
    """
    acl = use_case_acl(UseCase.DP)
    h = build_trace(UseCase.DP, acl).packets[0]
    cache = FlowCache(acl, emc_enabled=True)
    runs = [(h, cache.flow_id(h), 1)] * 2
    assert cache.probe_cost(runs[:1]) == 51.0  # EMC miss, no subtable yet, slow path
    assert cache.probe_cost(runs) == 102.0
    assert cache.classify_batch(runs, now=0.0).total_cost == 52.0


STAMPING = {
    "classify_batch": lambda cache, h, now: cache.classify_batch([(h, cache.flow_id(h), 1)], now),
    "warm": lambda cache, h, now: cache.warm([h], now),
    "credit_hits": lambda cache, h, now: cache.credit_hits([cache.flow_id(h)], 1, now),
    "expire": lambda cache, h, now: cache.expire(now),
    "rebalance": lambda cache, h, now: cache.rebalance(now),
}


@pytest.mark.parametrize("first", sorted(STAMPING))
@pytest.mark.parametrize("second", sorted(STAMPING))
def test_time_going_backwards_raises(first, second):
    """The last-hit list stays sorted only if no call stamps a time earlier than the latest."""
    h = header(FIVE_TUPLE, ip_src=9, ip_dst=2, proto=6, sport=3, dport=80)
    cache = FlowCache(five_acl(), emc_enabled=False)
    cache.classify_batch([(h, cache.flow_id(h), 1)], now=1.0)
    STAMPING[first](cache, h, 3.0)
    STAMPING[second](cache, h, 3.0)  # the same tick again is fine
    before = cache_state(cache)
    with pytest.raises(ValueError, match="backwards"):
        STAMPING[second](cache, h, 2.5)
    assert cache_state(cache) == before
    check_invariants(cache)


def five_header():
    """Random FIVE_TUPLE headers; some fields take the rule values of `five_acl`."""
    def field(width, *special):
        return st.one_of(st.sampled_from(special), st.integers(0, (1 << width) - 1))

    return st.builds(
        lambda **values: header(FIVE_TUPLE, **values),
        ip_src=field(32, 0x0A000001, 0x0A000003),
        ip_dst=field(32, 5),
        proto=field(8, 6, 17),
        sport=field(16, 12345, 12344),
        dport=field(16, 80, 81),
    )


_expiry_dt = st.sampled_from([0.0, 0.1, 2.5, 5.0, 10.0])  # ties and exact deadlines
_expiry_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("batch"),
            st.lists(st.tuples(st.integers(0, 11), st.integers(1, 3)), max_size=8),
            _expiry_dt,
        ),
        st.tuples(st.just("credit"), st.integers(0, 11), st.integers(0, 3), _expiry_dt),
        st.tuples(st.just("expire"), _expiry_dt),
        st.tuples(st.just("rebalance"), _expiry_dt),
    ),
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(
    pool=st.one_of(
        st.just([hv(v) for v in range(8)]), st.lists(five_header(), min_size=1, max_size=12)
    ),
    emc_enabled=st.booleans(),
    steps=_expiry_steps,
)
def test_expire_removes_exactly_the_idle_entries(pool, emc_enabled, steps):
    """expire(now) removes every entry with last_hit + idle_timeout <= now, and only those."""
    acl = hyp_acl() if pool[0].layout is HYP else five_acl()
    cache = FlowCache(acl, emc_enabled=emc_enabled)
    now = 0.0
    for step in steps:
        now += step[-1]
        if step[0] == "batch":
            runs = [(pool[i % len(pool)], n) for i, n in step[1]]
            cache.classify_batch([(h, cache.flow_id(h), n) for h, n in runs], now)
        elif step[0] == "credit":
            cache.credit_hits([cache.flow_id(pool[step[1] % len(pool)])], step[2], now)
        elif step[0] == "rebalance":
            cache.rebalance(now)
        else:
            stamps = last_hits(cache)
            old = {k for k, t in stamps.items() if t + cache.idle_timeout <= now}
            emptied = set(masks(cache)) - {m for k, m in stamps.keys() - old}
            expired, removed = expire(cache, now)
            assert len(expired) == len(old) and set(expired) == old
            assert len(removed) == len(emptied) and set(removed) == emptied
            hits = [stamps[e] for e in expired]
            assert hits == sorted(hits)  # returned in last-hit order
            assert all(m not in emptied for m in masks(cache))
        check_invariants(cache)


def test_expire_compares_last_hit_plus_timeout_with_now():
    """A flow last hit at 62 ticks of 0.1 s is expired at 162 ticks; the next entry stays first.

    In floats `6.2 + 10.0 <= 16.2` holds but `6.2 <= 16.2 - 10.0` does not,
    so this pins the form of the comparison.  In whole ticks, 62 + 100 <= 162.
    """
    tick = 0.1
    assert 62 * tick + 10.0 <= 162 * tick and not 62 * tick <= 162 * tick - 10.0
    cache = FlowCache(five_acl(), emc_enabled=False)
    old, young, younger = (
        header(FIVE_TUPLE, ip_src=9, ip_dst=2, proto=6, sport=3, dport=80),
        header(FIVE_TUPLE, ip_src=ip_to_int("10.0.0.1"), ip_dst=2, proto=6, sport=3, dport=81),
        header(FIVE_TUPLE, ip_src=9, ip_dst=2, proto=6, sport=12345, dport=81),
    )
    fids = [cache.flow_id(h) for h in (old, young, younger)]
    for k, h in zip((62, 63, 64), (old, young, younger)):
        cache.classify_batch([(h, cache.flow_id(h), 1)], k * tick)
    assert len(set(fids)) == 3 and list(cache._idle) == fids
    expired, removed = cache.expire(162 * tick)
    assert expired == fids[:1] and removed == [cache.table.mask_of[fids[0]]]
    assert list(cache._idle.items()) == [(fids[1], 63 * tick), (fids[2], 64 * tick)]
    check_invariants(cache)


def test_probe_cost_is_read_only():
    cache = FlowCache(five_acl(), emc_enabled=False)
    h = header(FIVE_TUPLE, ip_src=9, ip_dst=2, proto=6, sport=3, dport=81)
    cache.classify_batch([(h, cache.flow_id(h), 1)], now=0.0)
    before = subtables(cache)
    stamps = last_hits(cache)
    cost = probe_cost(cache, h)
    assert cost == cache.costs.c_sub
    assert subtables(cache) == before
    assert last_hits(cache) == stamps

    # EMC on: an MFC hit (h's megaflow, a header not in the EMC) and a miss.
    cache = FlowCache(five_acl())
    same_flow = [header(FIVE_TUPLE, ip_src=src, ip_dst=2, proto=6, sport=3, dport=81)
                 for src in (7, 8)]
    cache.classify_batch([(h, cache.flow_id(h), 1)], now=0.0)
    cache.classify_batch([(same_flow[0], cache.flow_id(h), 1)], now=1.0)  # an MFC hit
    assert list(cache._hits) == [st.mask_id for st in subtables(cache)]
    assert last_hits(cache) == {synthesize(cache, h)[:2]: 1.0}
    mfc_hit = same_flow[1]
    miss = header(FIVE_TUPLE, ip_src=9, ip_dst=2, proto=6, sport=3, dport=80)
    assert cache.flow_id(mfc_hit) == cache.flow_id(h) and cache.flow_id(miss) not in cache._idle

    def state():
        columns = list(cache._rev), dict(cache._pos), list(cache._size), dict(cache._hits)
        return dict(cache._emc_slots), columns, last_hits(cache)

    before = state()
    c = cache.costs
    assert probe_cost(cache, mfc_hit) == c.c_emc + c.c_sub
    assert probe_cost(cache, miss) == c.c_emc + c.c_sub + c.c_slow
    assert probe_cost(cache, mfc_hit, miss) == 2 * c.c_emc + 2 * c.c_sub + c.c_slow
    assert state() == before and cache.subtable_count == 1
    check_invariants(cache)


def test_credit_hits_bulk():
    cache = FlowCache(five_acl(), emc_enabled=False)
    h = header(FIVE_TUPLE, ip_src=9, ip_dst=2, proto=6, sport=3, dport=81)
    cache.classify_batch([(h, cache.flow_id(h), 1)], now=0.0)
    cache.credit_hits([cache.flow_id(h)], 500, now=3.0)
    st = subtables(cache)[0]
    assert st.interval_hits == 500
    assert list(last_hits(cache).values()) == [3.0]


def _credit_state(cache):
    """What crediting can change: hit counts in hit order, and the idle list with stamps."""
    return (cache_state(cache), list(cache._hits.items()), list(cache._idle.items()))


def _three_masks():
    """Three headers of `five_acl`, one megaflow each, under three different masks."""
    return [
        header(FIVE_TUPLE, ip_src=1, ip_dst=2, proto=6, sport=3, dport=80),
        header(FIVE_TUPLE, ip_src=0x0A000001, ip_dst=2, proto=6, sport=3, dport=81),
        header(FIVE_TUPLE, ip_src=1, ip_dst=2, proto=6, sport=12345, dport=81),
    ]


@pytest.mark.parametrize("order", [(0, 1, 2), (1, 2, 0)])
def test_credit_hits_over_flow_ids_is_one_call_per_id(order):
    """One call over `[f0, f1, dead]`, in any order, does what one call per id does.

    Interval hits, the hit list's order and the idle list's order and stamps
    agree; the live flows move to the idle list's end in the order given.
    """
    acl = five_acl()
    bulk, single = (FlowCache(acl, emc_enabled=False) for _ in range(2))
    h0, h1, dead = _three_masks()
    for cache in (bulk, single):
        cache.classify_batch([(h, cache.flow_id(h), 1) for h in (h0, h1)], now=0.0)
    fids = [[bulk.flow_id(h) for h in (h0, h1, dead)][i] for i in order]
    bulk.credit_hits(fids, 7, now=2.0)
    for fid in fids:
        single.credit_hits([fid], 7, now=2.0)
    assert _credit_state(bulk) == _credit_state(single)
    live = [fid for fid in fids if fid != bulk.flow_id(dead)]
    assert list(bulk._idle.items()) == [(fid, 2.0) for fid in live]
    assert list(bulk._hits) == [bulk.table.mask_of[fid] for fid in live]
    assert sorted(st.interval_hits for st in subtables(bulk)) == [7, 7]
    check_invariants(bulk)


def test_credit_hits_changes_nothing_for_dead_ids_or_no_packets():
    """A dead id, or `packets <= 0`, changes nothing; a time going backwards still raises."""
    cache = FlowCache(five_acl(), emc_enabled=False)
    h0, h1, dead = _three_masks()
    cache.classify_batch([(h, cache.flow_id(h), 1) for h in (h0, h1)], now=0.0)
    cache.expire(10.0)  # h0 and h1 expire: their ids are dead too
    cache.classify_batch([(h0, cache.flow_id(h0), 1)], now=10.0)
    before = _credit_state(cache)
    cache.credit_hits([cache.flow_id(dead), cache.flow_id(h1)], 5, now=11.0)
    assert _credit_state(cache) == before
    for packets in (0, -3):
        cache.credit_hits([cache.flow_id(h0)], packets, now=12.0)
        assert _credit_state(cache) == before
    with pytest.raises(ValueError, match="backwards"):
        cache.credit_hits([cache.flow_id(h0)], 0, now=11.5)
    assert _credit_state(cache) == before
    check_invariants(cache)


@pytest.mark.parametrize("emc_enabled, capacity", [(False, 8192), (True, 1), (True, 8192)])
def test_classify_batch_reads_a_one_shot_iterator_as_a_list(emc_enabled, capacity):
    """Runs from a generator price and fill exactly as the same runs in a list.

    The batches install, hit the MFC (and the EMC, when on) and repeat a
    flow within a batch; at capacity 1 the EMC's one slot changes hands.
    """
    rng = random.Random(41)
    acl = five_acl()
    listed, lazy = (FlowCache(acl, emc_enabled=emc_enabled, emc_capacity=capacity)
                    for _ in range(2))
    pool = [rand_five(rng) for _ in range(12)]
    results, repeated = [], False
    for step in range(8):
        runs = [(h, listed.flow_id(h), rng.randint(1, 4)) for h in rng.choices(pool, k=10)]
        want = listed.classify_batch(runs, now=step * 0.5)
        got = lazy.classify_batch((run for run in runs), now=step * 0.5)
        assert got == want
        assert cache_state(lazy) == cache_state(listed)
        check_invariants(lazy)
        results.append(got)
        repeated |= len({fid for _, fid, _ in runs}) < len(runs)
    assert repeated and all(sum(getattr(r, k) for r in results) for k in ("slow_path", "mfc_hits"))
    assert (sum(r.emc_hits for r in results) > 0) == emc_enabled


def test_installing_subtables_makes_no_object_per_subtable():
    """One batch installing all 257 `sp_dp` masks adds a bounded number of GC-tracked objects.

    Subtable state lives in per-mask columns, so the batch adds its result
    and its list of created masks, not an object per subtable.
    """
    acl = use_case_acl(UseCase.SP_DP)
    cache = FlowCache(acl, emc_enabled=False)
    runs = [(h, cache.flow_id(h), 1) for h in build_trace(UseCase.SP_DP, acl).packets]
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        res = cache.classify_batch(runs, now=0.0)
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(res.created_masks) == cache.subtable_count == 257
    assert grown < 20


# -- pipeline properties ------------------------------------------------------


def test_fuzz_disjointness_and_ranking_properties():
    rng = random.Random(97)
    cache = FlowCache(five_acl(), emc_enabled=False)
    now = 0.0
    for _ in range(3000):
        now += 0.01
        op = rng.random()
        if op < 0.8:
            h = rand_five(rng)
            _, mask, _ = synthesize(cache, h)
            existed = mask in masks(cache)
            cache.classify_batch([(h, cache.flow_id(h), 1)], now)
            if not existed:
                assert search_index(cache, mask) == 0  # new subtable ranks first
        elif op < 0.9:
            cache.expire(now)
        else:
            pre = {st.mask_id: st.interval_hits for st in subtables(cache)}
            cache.rebalance(now)
            seq = [pre[st.mask_id] for st in subtables(cache)]
            assert all(a >= b for a, b in zip(seq, seq[1:]))
    live = list(entries(cache))
    for i, (k1, m1, _) in enumerate(live):
        for k2, m2, _ in live[i + 1 :]:
            assert not megaflows_overlap((k1, m1), (k2, m2))


# -- ranking oracle -------------------------------------------------------------

_dt = st.integers(0, 24).map(lambda k: k / 2)  # 0-12 s, with exact idle deadlines


class RankingMachine(stateful.RuleBasedStateMachine):
    """The cache's search order against a model that keeps its own by the ranking rules.

    The model holds the search order as mask ids (index 0 probed first),
    each subtable's hits in the current interval, the live flows' last
    hits and the EMC's slots.  A new subtable goes first, `expire` drops
    the emptied ones, and `rebalance` stable-sorts by the model's hits,
    descending.  A batch is priced packet by packet against the state at
    its start, under the default costs or ones with c_emc != c_sub.
    """

    @stateful.initialize(
        case=acl_and_headers(), emc_enabled=st.booleans(), emc_capacity=st.sampled_from([1, 8192]),
        costs=st.sampled_from([CostModel(), CostModel(c_emc=2.0, c_sub=3.0, c_slow=40.0)]),
    )
    def setup(self, case, emc_enabled, emc_capacity, costs=CostModel()):
        acl, headers = case
        self.cache = FlowCache(acl, emc_enabled=emc_enabled, emc_capacity=emc_capacity, costs=costs)
        self.pool = headers
        self.now = 0.0
        self.order: list[int] = []
        self.hits: dict[int, int] = {}  # mask id -> hits this interval, for live subtables
        self.last: dict[int, float] = {}  # live flow id -> last hit
        self.header_of: dict[int, object] = {}  # flow id -> a header of that flow
        self.emc: dict[int, int] = {}  # slot -> header bits

    def _slot(self, h):
        return header_hash64(h) % self.cache.emc_capacity

    def _mask(self, fid):
        return self.cache.table.mask_of[fid]

    @stateful.rule(
        picks=st.lists(st.tuples(st.integers(0, 24), st.integers(1, 4)), max_size=8), dt=_dt
    )
    def classify_batch(self, picks, dt):
        self.now += dt
        cache, emc_on = self.cache, self.cache.emc_enabled
        runs = [(self.pool[i % len(self.pool)], n) for i, n in picks]
        position = {mid: i + 1 for i, mid in enumerate(self.order)}  # at batch start
        c = cache.costs
        created, cost, new = [], 0.0, set()
        for h, count in runs:
            fid = cache.flow_id(h)
            self.header_of.setdefault(fid, h)
            if emc_on:
                if self.emc.get(self._slot(h)) == h.bits:
                    cost += count * c.c_emc
                    continue
                cost, count = cost + count * c.c_emc, 1  # count - 1 EMC hits after the fill
            if fid in self.last and fid not in new:
                self.hits[self._mask(fid)] += count
                self.last[fid] = self.now
                cost += count * position[self._mask(fid)] * c.c_sub
            else:
                cost += count * (len(position) * c.c_sub + c.c_slow)
                if fid not in new:
                    new.add(fid)
                    mid = self._mask(fid)
                    if mid not in self.hits:
                        self.order.insert(0, mid)
                        self.hits[mid] = 0
                        created.append(mid)
                    self.last[fid] = self.now
            if emc_on:
                self.emc[self._slot(h)] = h.bits
        got = cache.classify_batch([(h, cache.flow_id(h), n) for h, n in runs], self.now)
        assert (got.created_masks, got.total_cost) == (created, cost)

    @stateful.rule(dt=_dt)
    def expire(self, dt):
        self.now += dt
        old = {fid for fid, t in self.last.items() if t + self.cache.idle_timeout <= self.now}
        for fid in old:
            del self.last[fid]
        emptied = set(self.hits) - {self._mask(fid) for fid in self.last}
        self.order = [mid for mid in self.order if mid not in emptied]
        for mid in emptied:
            del self.hits[mid]
        fids, mids = self.cache.expire(self.now)
        assert (set(fids), set(mids)) == (old, emptied)

    @stateful.rule(dt=_dt)
    def rebalance(self, dt):
        self.now += dt
        self.order.sort(key=lambda mid: -self.hits[mid])
        self.hits = dict.fromkeys(self.hits, 0)
        self.cache.rebalance(self.now)

    @stateful.rule(i=st.integers(0, 24), packets=st.integers(0, 5), dt=_dt)
    def credit_hits(self, i, packets, dt):
        self.now += dt
        h = self.pool[i % len(self.pool)]
        fid = self.cache.flow_id(h)
        if packets > 0 and fid in self.last:
            self.hits[self._mask(fid)] += packets
            self.last[fid] = self.now
        self.cache.credit_hits([fid], packets, self.now)

    @stateful.invariant()
    def agrees_with_model(self):
        cache = self.cache
        check_invariants(cache)
        assert [st.mask_id for st in subtables(cache)] == self.order
        hits = [st.interval_hits for st in subtables(cache)]
        assert hits == [self.hits[mid] for mid in self.order]
        assert set(cache._idle) == set(self.last)
        position = {mid: i + 1 for i, mid in enumerate(self.order)}
        c = cache.costs
        for fid in self.last:
            h = self.header_of[fid]
            want = c.c_emc if cache.emc_enabled else 0.0
            if not (cache.emc_enabled and self.emc.get(self._slot(h)) == h.bits):
                want += position[self._mask(fid)] * c.c_sub
            assert cache.probe_cost([(h, fid, 1)]) == want
        live = list(entries(cache))
        for i, (k1, m1, _) in enumerate(live):
            for k2, m2, _ in live[i + 1 :]:
                assert not megaflows_overlap((k1, m1), (k2, m2))


TestRanking = RankingMachine.TestCase
TestRanking.settings = settings(max_examples=100, stateful_step_count=30, deadline=None)


def test_ranking_of_a_subtable_revived_between_rebalances():
    """Hit, expired, re-created and hit again, all in one interval: only the last hits count.

    The engine never does this (10 s idle timeout, 1 s between rebalances),
    but the API allows it.  `expire` drops the emptied subtable's hits, so
    its hits after revival count from 0, after the other subtables' hits.
    """
    machine = RankingMachine()
    acl = hyp_acl()
    pool = [hv(0b001), hv(0b100), hv(0b010)]  # three megaflows, three masks
    machine.setup((acl, pool), emc_enabled=False, emc_capacity=8192)
    steps = [
        (machine.classify_batch, dict(picks=[(0, 1), (1, 1), (2, 1)], dt=0.0)),
        (machine.classify_batch, dict(picks=[(0, 4)], dt=1.0)),  # 001's subtable: 4 hits
        (machine.credit_hits, dict(i=1, packets=2, dt=8.0)),  # 100's: 2 hits, refreshed at 9
        (machine.credit_hits, dict(i=2, packets=1, dt=0.5)),  # 010's: 1 hit, refreshed at 9.5
        (machine.expire, dict(dt=1.5)),  # at 11: 001's megaflow and subtable expire
        (machine.classify_batch, dict(picks=[(0, 1)], dt=0.0)),  # re-created, first in order
        (machine.classify_batch, dict(picks=[(0, 1)], dt=0.5)),  # hit again
    ]
    for step, args in steps:
        step(**args)
        machine.agrees_with_model()
    cache = machine.cache
    masks = [cache.table.mask_of[cache.flow_id(h)] for h in pool]
    assert list(cache._hits.items()) == [(masks[1], 2), (masks[2], 1), (masks[0], 1)]
    machine.rebalance(dt=0.0)
    machine.agrees_with_model()
    assert [st.mask_id for st in subtables(cache)] == [masks[1], masks[0], masks[2]]
