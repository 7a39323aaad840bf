import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from oracle_acl import format_acl_text, slowpath_lookup  # noqa: E402
from oracle_cache import flow  # noqa: E402
from oracle_synth import ORDER, WIDTH, o_synthesize  # noqa: E402

from tsesim.flow_cache import FlowTable, synthesize_megaflow  # noqa: E402
from tsesim.headers import FIVE_TUPLE, HYP, HeaderValue, header, ip_to_int  # noqa: E402
from tsesim.slowpath import (  # noqa: E402
    Acl,
    Action,
    FlowRule,
    parse_acl_text,
    rule,
    validate_acl,
)


def hyp_acl():
    return Acl.from_rules(
        HYP,
        [
            rule(HYP, 1, Action.ALLOW, hyp=0b001),
            rule(HYP, 0, Action.DENY),
        ],
    )


SIMPLE_ACL_TEXT = """
priority=100 dport=80 action=allow
priority=99 ip_src=10.0.0.1 action=allow
priority=98 sport=12345 action=allow
priority=0 action=deny
"""


def simple_acl():
    return parse_acl_text(FIVE_TUPLE, SIMPLE_ACL_TEXT)


def hv(v):
    return header(HYP, hyp=v)


def test_validate_simple_acl_ok():
    assert validate_acl(simple_acl()) == []
    assert validate_acl(hyp_acl()) == []


def test_validate_reports_missing_catch_all():
    with pytest.raises(ValueError, match="catch-all"):
        Acl.from_rules(HYP, [rule(HYP, 1, Action.ALLOW, hyp=0b001)])


def test_validate_reports_duplicate_priority_and_width():
    rules = [
        rule(FIVE_TUPLE, 5, Action.ALLOW, dport=70000),
        rule(FIVE_TUPLE, 5, Action.ALLOW, sport=1),
        rule(FIVE_TUPLE, 0, Action.DENY),
    ]
    # Both problems in one error, and no ACL whose too-wide value could spill into another field.
    with pytest.raises(ValueError, match="duplicate priorities.*exceeds field width"):
        Acl.from_rules(FIVE_TUPLE, rules)


def test_validate_reports_acls_only_the_constructor_can_build():
    """`Acl(...)` takes rules as given, unsorted and unchecked by `rule`; its own check catches these."""
    with pytest.raises(ValueError, match=r"ACL invalid: \['empty ACL'\]"):
        Acl(FIVE_TUPLE, ())
    deny = rule(FIVE_TUPLE, 0, Action.DENY)
    low, high = rule(FIVE_TUPLE, 1, Action.ALLOW, dport=80), rule(FIVE_TUPLE, 2, Action.ALLOW)
    with pytest.raises(ValueError, match="rules not in descending priority order"):
        Acl(FIVE_TUPLE, (low, high, deny))
    bogus = FlowRule(5, (("vlan", 1),), Action.ALLOW)
    with pytest.raises(ValueError, match="rule priority=5: unknown field 'vlan'"):
        Acl(FIVE_TUPLE, (bogus, deny))


def test_lookup_hyp():
    acl = hyp_acl()
    assert slowpath_lookup(hv(0b001), acl).action is Action.ALLOW
    assert slowpath_lookup(hv(0b100), acl).action is Action.DENY


def test_lookup_simple_acl_first_match_wins():
    acl = simple_acl()
    h = header(FIVE_TUPLE, ip_src=1, ip_dst=2, proto=6, sport=7, dport=80)
    assert slowpath_lookup(h, acl).priority == 100
    h2 = header(FIVE_TUPLE, ip_src=ip_to_int("10.0.0.1"), ip_dst=2, proto=6, sport=7, dport=80)
    assert slowpath_lookup(h2, acl).priority == 100  # dport rule outranks ip rule


# The golden megaflow table for the 3-bit layout: all four rows.
HYP_GOLDEN = {
    (0b001, 0b111, Action.ALLOW),
    (0b100, 0b100, Action.DENY),
    (0b010, 0b110, Action.DENY),
    (0b000, 0b111, Action.DENY),
}


@pytest.mark.parametrize(
    "h,key,mask_bits,action",
    [
        (0b001, 0b001, 0b111, Action.ALLOW),
        (0b100, 0b100, 0b100, Action.DENY),
        (0b010, 0b010, 0b110, Action.DENY),
        (0b000, 0b000, 0b111, Action.DENY),
    ],
)
def test_synthesize_hyp_rows(h, key, mask_bits, action):
    assert synthesize_megaflow(hv(h), hyp_acl()) == (key, mask_bits, action)


def test_synthesize_hyp_exhaustive_dedup():
    acl = hyp_acl()
    rows = set()
    for v in range(8):
        rows.add(synthesize_megaflow(hv(v), acl))
    assert rows == HYP_GOLDEN


def test_synthesis_covers_trigger_header():
    acl = simple_acl()
    rng = random.Random(3)
    for _ in range(300):
        h = header(
            FIVE_TUPLE,
            ip_src=rng.getrandbits(32),
            ip_dst=rng.getrandbits(32),
            proto=rng.getrandbits(8),
            sport=rng.getrandbits(16),
            dport=rng.getrandbits(16),
        )
        key, mask, _ = synthesize_megaflow(h, acl)
        assert h.bits & mask == key


def test_decision_consistency_exhaustive_hyp():
    acl = hyp_acl()
    for v in range(8):
        key, mask, action = synthesize_megaflow(hv(v), acl)
        for other in range(8):
            if other & mask == key:
                assert slowpath_lookup(hv(other), acl).action is action


def test_decision_consistency_sampled_five_tuple():
    """Headers covered by a synthesized entry all resolve to the entry's action."""
    acl = simple_acl()
    rng = random.Random(11)
    for _ in range(100):
        h = header(
            FIVE_TUPLE,
            ip_src=rng.getrandbits(32),
            ip_dst=rng.getrandbits(32),
            proto=rng.getrandbits(8),
            sport=rng.getrandbits(16),
            dport=rng.getrandbits(16),
        )
        key, mask, action = synthesize_megaflow(h, acl)
        for _ in range(20):
            # Randomize wildcarded bits, keep examined bits fixed.
            noise = FIVE_TUPLE.pack(rng.getrandbits(f.width) for f in FIVE_TUPLE.fields)
            h2 = HeaderValue(FIVE_TUPLE, key | noise & ~mask)
            assert h2.bits & mask == key
            assert slowpath_lookup(h2, acl).action is action


def _near(draw, rules, name):
    """A value of field `name`: random, or a rule's value, possibly with one bit flipped."""
    near = [m[name] for _, m, _ in rules if name in m]
    value = draw(st.sampled_from(near)) if near and draw(st.booleans()) else None
    if value is None:
        return draw(st.integers(0, (1 << WIDTH[name]) - 1))
    if draw(st.booleans()):
        value ^= 1 << draw(st.integers(0, WIDTH[name] - 1))
    return value


@st.composite
def _rules(draw):
    """1-6 rules on 1-3 fields each, as (priority, matches, action), with random priorities."""
    count = draw(st.integers(1, 6))
    priorities = draw(st.lists(st.integers(1, 1000), min_size=count, max_size=count, unique=True))
    rules = []
    for priority in priorities:
        names = draw(st.lists(st.sampled_from(ORDER), min_size=1, max_size=3, unique=True))
        matches = {n: draw(st.integers(0, (1 << WIDTH[n]) - 1)) for n in names}
        rules.append((priority, matches, draw(st.sampled_from(Action))))
    return rules


def _acl(rules):
    """The ACL of drawn rules over a catch-all deny, and the same rules in the oracle's form."""
    acl = Acl.from_rules(
        FIVE_TUPLE,
        [rule(FIVE_TUPLE, p, action, **matches) for p, matches, action in rules]
        + [rule(FIVE_TUPLE, 0, Action.DENY)],
    )
    by_priority = sorted(rules, key=lambda r: -r[0])
    return acl, [(matches, action.value) for _, matches, action in by_priority] + [({}, "deny")]


@st.composite
def _acl_and_headers(draw):
    """Rules on 1-3 fields with random priorities, and headers near their values."""
    rules = draw(_rules())
    headers = []
    for _ in range(draw(st.integers(1, 8))):
        headers.append({n: _near(draw, rules, n) for n in ORDER})
    return rules, headers


@settings(max_examples=300, deadline=None)
@given(_acl_and_headers())
def test_synthesis_matches_independent_oracle(case):
    """The packed walk equals the per-field reference walk on random multi-field ACLs."""
    rules, headers = case
    acl, oracle_rules = _acl(rules)
    for fields in headers:
        key, mask, action = synthesize_megaflow(header(FIVE_TUPLE, **fields), acl)
        o_key, o_mask, o_action = o_synthesize(fields, oracle_rules)
        want = FIVE_TUPLE.pack(o_key), FIVE_TUPLE.pack(o_mask), o_action
        assert (key, mask, action.value) == want
        assert slowpath_lookup(header(FIVE_TUPLE, **fields), acl).action is action


UPPER = ORDER[:-1]  # the fields above the last one, dport


@st.composite
def _acl_and_runs(draw):
    """Rules on 1-3 fields, and a trace of runs of headers that share every field above dport.

    The runs' upper fields are a base or the base with one field changed, so
    two runs may differ in a single field.  Runs break after any length,
    resume upper fields an earlier run had, and repeat headers, back to back
    and after a break.
    """
    rules = draw(_rules())
    base = {n: _near(draw, rules, n) for n in UPPER}
    uppers = [base]
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(UPPER))
        uppers.append({**base, name: _near(draw, rules, name)})
    trace = []
    for i in draw(st.lists(st.integers(0, len(uppers) - 1), min_size=2, max_size=8)):
        for j in range(draw(st.integers(1, 6))):
            if j and draw(st.booleans()):
                trace.append(trace[-1])
            else:
                trace.append({**uppers[i], "dport": _near(draw, rules, "dport")})
    return rules, trace + [trace[0]]


@settings(max_examples=200, deadline=None)
@given(_acl_and_runs())
def test_bulk_compile_of_runs_matches_independent_oracle(case):
    """One compile of runs that share their upper fields equals the reference walk everywhere.

    A header that repeats the previous one above dport reuses that header's
    walk of those fields; a lone `flow_id` walks all of it, and agrees.
    """
    rules, trace = case
    acl, oracle_rules = _acl(rules)
    headers = [header(FIVE_TUPLE, **fields) for fields in trace]
    table = FlowTable(acl)
    ids = table.flow_ids(headers)
    for fields, h, fid in zip(trace, headers, ids):
        o_key, o_mask, o_action = o_synthesize(fields, oracle_rules)
        want = FIVE_TUPLE.pack(o_key), FIVE_TUPLE.pack(o_mask), o_action
        key, mask, action = flow(table, fid)
        assert (key, mask, action.value) == want
        assert table.flow_id(h) == fid


def test_bulk_compile_on_the_one_field_layout_matches_the_oracle():
    """On HYP the last field is the whole header, so every header shares its (no) upper fields."""
    matches = [(3, 0b101, Action.ALLOW), (2, 0b100, Action.DENY), (1, 0b001, Action.ALLOW)]
    acl = Acl.from_rules(HYP, [rule(HYP, p, a, hyp=v) for p, v, a in matches]
                         + [rule(HYP, 0, Action.DENY)])
    oracle_rules = [({"hyp": v}, a.value) for _, v, a in matches] + [({}, "deny")]
    values = [0b101, 0b100, 0b100, 0b000, 0b111, 0b001, 0b101, 0b011, 0b010, 0b110, 0b001]
    table = FlowTable(acl)
    ids = table.flow_ids([hv(v) for v in values])
    for v, fid in zip(values, ids):
        (o_key,), (o_mask,), o_action = o_synthesize({"hyp": v}, oracle_rules, (("hyp", 3),))
        key, mask, action = flow(table, fid)
        assert (key, mask, action.value) == (o_key, o_mask, o_action)
        assert table.flow_id(hv(v)) == fid


def test_synthesized_entries_same_acl_disjoint_or_identical():
    acl = simple_acl()
    rng = random.Random(23)
    flows = []
    for _ in range(60):
        h = header(
            FIVE_TUPLE,
            ip_src=rng.getrandbits(32),
            ip_dst=rng.getrandbits(32),
            proto=rng.getrandbits(8),
            sport=rng.getrandbits(16),
            dport=rng.getrandbits(16),
        )
        flows.append(synthesize_megaflow(h, acl))
    from oracle_cache import megaflows_overlap

    for i, (k1, m1, _) in enumerate(flows):
        for k2, m2, _ in flows[i + 1 :]:
            same = (k1, m1) == (k2, m2)
            assert megaflows_overlap((k1, m1), (k2, m2)) == same


def test_acl_text_roundtrip():
    acl = simple_acl()
    text = format_acl_text(acl)
    again = parse_acl_text(FIVE_TUPLE, text)
    assert again == acl
    assert "ip_src=10.0.0.1" in text


def test_acl_text_rejects_garbage():
    with pytest.raises(ValueError):
        parse_acl_text(FIVE_TUPLE, "priority=1 dport80 action=allow")
    with pytest.raises(ValueError):
        parse_acl_text(FIVE_TUPLE, "dport=80 action=allow")
    with pytest.raises(ValueError, match="^line 2: unknown field 'nofield'$"):
        parse_acl_text(FIVE_TUPLE, "priority=0 action=deny\npriority=100 nofield=80 action=allow")
    for bad, message in [
        ("dport=eighty", "bad dport value 'eighty'"),
        ("action=alow", "bad action value 'alow'"),
        ("priority=abc", "bad priority value 'abc'"),
        ("ip_src=10.0.0", "bad ip_src value '10.0.0'"),
        ("dport=80 dport=81", "dport given twice"),
        ("priority=7", "priority given twice"),
        ("action=deny", "action given twice"),
    ]:
        text = f"priority=0 action=deny\n\npriority=100 action=allow {bad}"
        with pytest.raises(ValueError, match=f"^line 3: {message}$"):
            parse_acl_text(FIVE_TUPLE, text)
