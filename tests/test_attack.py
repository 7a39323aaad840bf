import itertools
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from oracle_cache import masks  # noqa: E402
from oracle_synth import o_first_diff  # noqa: E402
from oracle_trace import mask_generation_rate, o_trace  # noqa: E402

from tsesim.attack import (  # noqa: E402
    ALLOW_DPORT,
    ALLOW_IP_SRC,
    ALLOW_SPORT,
    AttackSchedule,
    Trace,
    UseCase,
    average_rate,
    build_trace,
    clone_factor,
    default_benign_fill,
    field_probe_values,
    format_trace_text,
    load_trace,
    parse_trace_text,
    save_trace,
    schedule_emissions,
    use_case_acl,
)
from tsesim.engine import victim_allow_rules, victim_flow_headers  # noqa: E402
from tsesim.flow_cache import FlowCache  # noqa: E402
from tsesim.headers import (  # noqa: E402
    FIVE_TUPLE,
    HYP,
    HeaderValue,
    LayoutMismatch,
    header,
    ip_to_int,
)
from tsesim.slowpath import Acl, Action, rule  # noqa: E402


def test_probe_values_3bit():
    assert field_probe_values(3, 0b001) == [0b001, 0b101, 0b011, 0b000]


def test_probe_values_first_diff_oracle():
    for width, allow in [(3, 0b001), (16, 80), (16, 12345), (32, ip_to_int("10.0.0.1"))]:
        values = field_probe_values(width, allow)
        assert len(values) == width + 1
        assert values[0] == allow
        for i, v in enumerate(values[1:]):
            assert o_first_diff(v, allow, width) == i


def test_trace_sizes():
    for use_case, expected in [
        (UseCase.DP, 17),
        (UseCase.SP_DP, 289),
        (UseCase.SIP_SP_DP, 9537),
    ]:
        trace = build_trace(use_case, use_case_acl(use_case))
        assert len(trace) == expected


def test_trace_packet_count_matches_cross_product():
    trace = build_trace(UseCase.SP_DP, use_case_acl(UseCase.SP_DP))
    combos = {(p.get("sport"), p.get("dport")) for p in trace.packets}
    assert len(combos) == 17 * 17


def test_trace_order_last_field_fastest():
    trace = build_trace(UseCase.SP_DP, use_case_acl(UseCase.SP_DP))
    first_block = trace.packets[:17]
    assert len({p.get("sport") for p in first_block}) == 1
    assert len({p.get("dport") for p in first_block}) == 17


def test_build_trace_requires_target_rules():
    with pytest.raises(ValueError):
        build_trace(UseCase.SIP_SP_DP, use_case_acl(UseCase.DP))


def test_build_trace_rejects_fill_of_another_layout():
    with pytest.raises(LayoutMismatch):
        build_trace(UseCase.DP, use_case_acl(UseCase.DP), benign_fill=HeaderValue(HYP, 0))


BUILTIN_ALLOW = {"dport": ALLOW_DPORT, "ip_src": ip_to_int(ALLOW_IP_SRC), "sport": ALLOW_SPORT}


@pytest.mark.parametrize("use_case", list(UseCase), ids=lambda u: u.value)
def test_build_trace_matches_oracle(use_case):
    trace = build_trace(use_case, use_case_acl(use_case))
    fields = use_case.targeted_fields
    assert trace.packets == o_trace(FIVE_TUPLE, fields, BUILTIN_ALLOW, default_benign_fill())


# The ranges perfbench draws allow values and benign fills from, and the
# priorities of its single-field allow rules.
FIELD_RANGE = {
    "ip_src": (1 << 24, 224 << 24),
    "ip_dst": (1 << 24, 224 << 24),
    "sport": (1, 1 << 16),
    "dport": (1, 1 << 16),
}
ALLOW_PRIORITY = {"dport": 100, "ip_src": 99, "sport": 98}


def in_range(field):
    lo, hi = FIELD_RANGE[field]
    return st.integers(lo, hi - 1)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), use_case=st.sampled_from(list(UseCase)), victims=st.integers(0, 3))
def test_build_trace_matches_oracle_on_random_tables_and_fills(data, use_case, victims):
    fields = use_case.targeted_fields
    allow = {f: data.draw(in_range(f), label=f"allow {f}") for f in fields}
    rules = victim_allow_rules(victim_flow_headers(FIVE_TUPLE, victims))
    rules += [rule(FIVE_TUPLE, ALLOW_PRIORITY[f], Action.ALLOW, **{f: allow[f]}) for f in fields]
    rules.append(rule(FIVE_TUPLE, 0, Action.DENY))
    acl = Acl.from_rules(FIVE_TUPLE, rules)
    fill_values = {}
    for f in FIELD_RANGE:
        drawn = in_range(f)
        if f in allow:  # a fill may carry the allowed value in a targeted field
            drawn = st.one_of(st.just(allow[f]), drawn)
        fill_values[f] = data.draw(drawn, label=f"fill {f}")
    fill = header(FIVE_TUPLE, proto=data.draw(st.integers(0, 255), label="fill proto"),
                  **fill_values)
    trace = build_trace(use_case, acl, benign_fill=fill)
    assert trace.packets == o_trace(FIVE_TUPLE, fields, allow, fill)


def test_clone_factor():
    assert clone_factor(3000) == 3
    assert clone_factor(1000) == 1
    assert clone_factor(2500) == 3
    assert mask_generation_rate(AttackSchedule(rate=3000, clone=3)) == 1000
    assert mask_generation_rate(AttackSchedule(rate=2500, clone=3)) == pytest.approx(2500 / 3)


def test_low_rate_predicate():
    assert AttackSchedule(rate=15000).is_low_rate
    assert not AttackSchedule(rate=15001).is_low_rate


def test_emissions_continuous_spacing():
    trace = build_trace(UseCase.DP, use_case_acl(UseCase.DP))
    sched = AttackSchedule(rate=1000, start=0.0)
    ems = list(schedule_emissions(trace, sched, horizon_seconds=0.1))
    assert len(ems) == 100
    times = [t for t, _, _ in ems]
    assert times[0] == 0.0
    deltas = [b - a for a, b in zip(times, times[1:])]
    assert all(abs(d - 0.001) < 1e-12 for d in deltas)
    # trace order preserved and wrapping cyclically
    assert [i for _, i, _ in ems[:20]] == [k % 17 for k in range(20)]


def test_emissions_full_trace_duration():
    trace = build_trace(UseCase.SIP_SP_DP, use_case_acl(UseCase.SIP_SP_DP))
    sched = AttackSchedule(rate=1000, start=0.0)
    ems = itertools.islice(schedule_emissions(trace, sched, horizon_seconds=20.0), 9537)
    last_t, last_i, _ = list(ems)[-1]
    assert last_i == 9536
    assert last_t == pytest.approx(9.536)


def test_emissions_clone_spacing():
    trace = build_trace(UseCase.DP, use_case_acl(UseCase.DP))
    sched = AttackSchedule(rate=3000, clone=3, start=0.0)
    ems = list(schedule_emissions(trace, sched, horizon_seconds=0.01))
    indices = [i for _, i, _ in ems]
    assert indices[:9] == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    # first appearance of each distinct packet is n/rate = 1 ms apart
    seen = {}
    for t, i, _ in ems:
        seen.setdefault(i, t)
    gaps = [seen[i + 1] - seen[i] for i in range(len(seen) - 1)]
    assert all(abs(g - 0.001) < 1e-12 for g in gaps)


def test_emissions_sleep_phase_gap():
    trace = build_trace(UseCase.DP, use_case_acl(UseCase.DP))
    sched = AttackSchedule(rate=1000, t_attack=10.0, t_sleep=2.0, start=20.0)
    ems = list(schedule_emissions(trace, sched, horizon_seconds=45.0))
    times = [t for t, _, _ in ems]
    assert not [t for t in times if 30.0 <= t < 32.0]  # silent during sleep
    assert min(t for t in times if t >= 30.0) == 32.0
    # position carries across the sleep
    k_before = max(i for i, t in enumerate(times) if t < 30.0)
    resume_idx = ems[k_before + 1][1]
    assert resume_idx == (ems[k_before][1] + 1) % 17


def test_emissions_deterministic():
    trace = build_trace(UseCase.SP_DP, use_case_acl(UseCase.SP_DP))
    sched = AttackSchedule(rate=2000, t_attack=10.0, t_sleep=2.0, clone=2, start=5.0)
    a = list(schedule_emissions(trace, sched, horizon_seconds=30.0))
    b = list(schedule_emissions(trace, sched, horizon_seconds=30.0))
    assert a == b


def test_average_rate():
    pps, bps = average_rate(AttackSchedule(rate=1000))
    assert (pps, bps) == (1000, 672_000)
    pps, _ = average_rate(AttackSchedule(rate=1000, t_attack=10.0, t_sleep=2.0))
    assert pps == pytest.approx(1000 * 10 / 12)
    assert average_rate(AttackSchedule(rate=0)) == (0.0, 0.0)


def test_dp_replay_spawns_16_masks():
    acl = use_case_acl(UseCase.DP)
    trace = build_trace(UseCase.DP, acl)
    cache = FlowCache(acl, emc_enabled=False)
    for i, p in enumerate(trace.packets):
        cache.classify_batch([(p, cache.flow_id(p), 1)], now=i * 0.001)
    assert cache.subtable_count == 16
    assert cache.entry_count == 17


def test_clone_invariance_of_mask_production():
    """Cloned replay spawns exactly the masks the unclonned replay does."""
    acl = use_case_acl(UseCase.SP_DP)
    trace = build_trace(UseCase.SP_DP, acl)

    def masks_after(rate, clone, horizon):
        cache = FlowCache(acl, emc_enabled=False)
        sched = AttackSchedule(rate=rate, clone=clone, start=0.0)
        for t, _, p in schedule_emissions(trace, sched, horizon):
            cache.classify_batch([(p, cache.flow_id(p), 1)], t)
        return set(masks(cache))

    base = masks_after(rate=1000, clone=1, horizon=0.4)
    cloned = masks_after(rate=3000, clone=3, horizon=0.4)
    assert cloned == base


def test_trace_file_roundtrip(tmp_path):
    trace = build_trace(UseCase.SP_DP, use_case_acl(UseCase.SP_DP))
    path = tmp_path / "probe.trace"
    save_trace(path, trace)
    again = load_trace(path)
    assert again.packets == trace.packets
    assert format_trace_text(again) == format_trace_text(trace)


def test_trace_text_fields():
    fill = default_benign_fill()
    trace = Trace((fill,))
    text = format_trace_text(trace)
    assert text.startswith("t=0.000000 ip_src=192.0.2.1 ip_dst=198.51.100.7 proto=6")
    parsed = parse_trace_text(text)
    assert parsed.packets == trace.packets


def test_trace_text_rejects_bad_lines():
    with pytest.raises(ValueError, match="^line 1: bad token 'ip_src'$"):
        parse_trace_text("ip_src 10.0.0.1")
    good = format_trace_text(Trace((default_benign_fill(),)))
    with pytest.raises(ValueError, match="^line 4: sport given twice$"):
        parse_trace_text(f"# probes\n{good}\n{good.strip()} sport=1\n")


def test_an_empty_trace_cannot_be_built():
    with pytest.raises(ValueError, match="^trace is empty$"):
        Trace(())
    with pytest.raises(ValueError, match="^trace is empty$"):
        parse_trace_text("# no packets\n")


def test_schedule_validation():
    with pytest.raises(ValueError):
        AttackSchedule(rate=-1)
    with pytest.raises(ValueError):
        AttackSchedule(rate=1000, t_attack=0.0)
    with pytest.raises(ValueError):
        AttackSchedule(rate=1000, clone=0)
    with pytest.raises(ValueError, match="^attack phase shorter than one packet interval$"):
        AttackSchedule(rate=0.01, t_attack=10.0)
    AttackSchedule(rate=0, t_attack=10.0)  # no packets: no phase to be too short
    with pytest.raises(ValueError):
        clone_factor(0)


def test_phase_at():
    sched = AttackSchedule(rate=1000, t_attack=10.0, t_sleep=2.0, start=20.0)
    assert sched.phase_at(10.0) == "idle"
    assert sched.phase_at(20.0) == "attack"
    assert sched.phase_at(29.9) == "attack"
    assert sched.phase_at(30.5) == "sleep"
    assert sched.phase_at(32.0) == "attack"
    assert AttackSchedule(rate=1000, start=20.0).phase_at(50.0) == "attack"


def test_schedule_and_probe_guards():
    with pytest.raises(ValueError, match="t_sleep must be >= 0"):
        AttackSchedule(rate=1000.0, t_attack=1.0, t_sleep=-1.0)
    with pytest.raises(ValueError, match="allow_value 16 exceeds 4 bits"):
        field_probe_values(4, 16)
    with pytest.raises(ValueError, match="trace is empty"):
        next(schedule_emissions(Trace(()), AttackSchedule(rate=1000.0), 1.0))
    trace = build_trace(UseCase.DP, use_case_acl(UseCase.DP))
    assert list(schedule_emissions(trace, AttackSchedule(rate=0.0), 10.0)) == []
