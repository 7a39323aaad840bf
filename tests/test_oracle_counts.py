"""Distinct-mask accounting, frozen from the standalone oracle.

The oracle in oracle_synth.py implements the reference synthesis walk with
plain ints and dicts; its counts were computed first and frozen here.  The
production pipeline replays the same traces through the flow cache and must
land on identical mask sets.

Published figures for comparison: the destination-port probe spawns 16
distinct masks; the two-port probe was reported at 272 tuples; the full
three-field probe at roughly 9000.  The reference walk's counts below deviate
from the two larger figures because it stops examining a rule at its first
matching field; the deviation is reported by test output and stays under the
10% finding threshold.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from oracle_synth import o_counts  # noqa: E402

from tsesim.attack import UseCase, build_trace, use_case_acl  # noqa: E402
from tsesim.flow_cache import FlowCache  # noqa: E402
from tsesim.headers import FIVE_TUPLE  # noqa: E402

# (packets, distinct masks, distinct entries) per use case, oracle-frozen.
FROZEN = {
    "dp": (17, 16, 17),
    "sp_dp": (289, 257, 273),
    "sip_sp_dp": (9537, 8209, 8721),
}

REPORTED_MASKS = {"dp": 16, "sp_dp": 272, "sip_sp_dp": 9000}


def test_oracle_reproduces_frozen_counts():
    for uc, (packets, masks, entries) in FROZEN.items():
        got = o_counts(uc)
        assert (got["packets"], got["masks"], got["entries"]) == (packets, masks, entries)


def test_cache_replay_matches_oracle_counts_and_mask_sets():
    for uc_name, (packets, masks, entries) in FROZEN.items():
        uc = UseCase(uc_name)
        acl = use_case_acl(uc)
        trace = build_trace(uc, acl)
        assert len(trace) == packets
        cache = FlowCache(acl, emc_enabled=False)
        for i, p in enumerate(trace.packets):
            cache.classify_batch([(p, cache.flow_id(p), 1)], now=i / 1000.0)
        assert cache.subtable_count == masks
        assert cache.entry_count == entries
        oracle_masks = {FIVE_TUPLE.pack(m) for m in o_counts(uc_name)["spawn_order"]}
        cache_masks = {cache.table.mask_bits[st.mask_id] for st in cache.subtables()}
        assert cache_masks == oracle_masks


def test_report_deviation_from_published_counts(capsys):
    print()
    for uc, (_, masks, _) in FROZEN.items():
        reported = REPORTED_MASKS[uc]
        deviation = abs(reported - masks) / reported
        flag = "FINDING (>10%)" if deviation > 0.10 else "within 10%"
        print(
            f"mask-count comparison {uc}: reference={masks} published={reported} "
            f"deviation={deviation:.1%} [{flag}]"
        )
        assert deviation <= 0.10 or flag.startswith("FINDING")
    with capsys.disabled():
        pass
