import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsesim.headers import (
    FIVE_TUPLE,
    HYP,
    FieldSpec,
    HeaderLayout,
    HeaderValue,
    decimal_int,
    header,
    header_hash64,
    int_to_ip,
    ip_to_int,
)

sys.path.insert(0, str(Path(__file__).parent))

from oracle_cache import megaflows_overlap, packed_mask  # noqa: E402

# Widths that are not byte-aligned, so each field hashes as its own padded bytes.
ODD = HeaderLayout((FieldSpec("a", 3), FieldSpec("b", 5), FieldSpec("c", 9)))


def hyp_header(v):
    return header(HYP, hyp=v)


def test_masking_packed_bits_masks_each_field():
    """A key is a header's bits AND-ed with a mask; per field, that is each field's AND."""

    def field_values(bits):
        return tuple(bits >> shift & full for shift, full in map(FIVE_TUPLE.slot, FIVE_TUPLE.names))

    rng = random.Random(7)
    for _ in range(200):
        h = header(
            FIVE_TUPLE,
            ip_src=rng.getrandbits(32),
            ip_dst=rng.getrandbits(32),
            proto=rng.getrandbits(8),
            sport=rng.getrandbits(16),
            dport=rng.getrandbits(16),
        )
        m = rng.getrandbits(FIVE_TUPLE.width)
        key = h.bits & m
        assert key & m == key
        assert field_values(key) == tuple(v & mv for v, mv in zip(h.values, field_values(m)))


def entry(key_bits, mask_bits):
    return (key_bits & mask_bits, mask_bits)


def test_overlap_examples():
    assert not megaflows_overlap(entry(0b001, 0b111), entry(0b100, 0b100))
    assert megaflows_overlap(entry(0b001, 0b111), entry(0b001, 0b111))
    assert megaflows_overlap(entry(0b000, 0b000), entry(0b101, 0b111))


def brute_force_overlap(e1, e2):
    """Oracle: enumerate all 8 HYP headers and look for a common match."""
    for v in range(8):
        h = hyp_header(v)
        if h.bits & e1[1] == e1[0] and h.bits & e2[1] == e2[0]:
            return True
    return False


def test_overlap_matches_enumeration_oracle():
    rng = random.Random(42)
    for _ in range(500):
        m1, m2 = rng.getrandbits(3), rng.getrandbits(3)
        e1 = entry(rng.getrandbits(3), m1)
        e2 = entry(rng.getrandbits(3), m2)
        assert megaflows_overlap(e1, e2) == brute_force_overlap(e1, e2)
        assert megaflows_overlap(e1, e2) == megaflows_overlap(e2, e1)
        assert megaflows_overlap(e1, e1)


SMALL = HeaderLayout((FieldSpec("x", 2), FieldSpec("y", 3), FieldSpec("z", 1)))


@settings(max_examples=300, deadline=None)
@given(
    k1=st.integers(0, 63), m1=st.integers(0, 63), k2=st.integers(0, 63), m2=st.integers(0, 63)
)
def test_overlap_matches_enumeration_multi_field(k1, m1, k2, m2):
    """On a 2/3/1-bit layout, overlap holds iff one of the 64 headers matches both."""
    e1 = (k1 & m1, m1)
    e2 = (k2 & m2, m2)
    common = False
    for x in range(4):
        for y in range(8):
            for z in range(2):
                h = header(SMALL, x=x, y=y, z=z)
                if h.bits & e1[1] == e1[0] and h.bits & e2[1] == e2[0]:
                    common = True
    assert megaflows_overlap(e1, e2) == common


def test_field_width_validation():
    with pytest.raises(ValueError):
        header(HYP, hyp=8)
    with pytest.raises(ValueError):
        packed_mask(FIVE_TUPLE, proto=0x100)
    with pytest.raises(ValueError):
        HeaderValue(HYP, 8)
    with pytest.raises(ValueError):
        HeaderValue(HYP, -1)
    with pytest.raises(ValueError):
        FieldSpec("zero", 0)
    with pytest.raises(ValueError):
        header(FIVE_TUPLE, ip_src=1, ip_dst=2, proto=6, sport=1)  # missing dport


def test_hash_is_stable_and_spreads():
    h = header(FIVE_TUPLE, ip_src=ip_to_int("10.0.0.1"), ip_dst=0, proto=6, sport=1, dport=80)
    assert header_hash64(h) == header_hash64(header(FIVE_TUPLE, **dict(h.items())))
    other = header(FIVE_TUPLE, ip_src=ip_to_int("10.0.0.2"), ip_dst=0, proto=6, sport=1, dport=80)
    assert header_hash64(h) != header_hash64(other)


def test_hash_values_are_pinned():
    """EMC slots are header_hash64(h) % capacity, so the values must not drift."""
    cases = [
        (
            header(
                FIVE_TUPLE,
                ip_src=ip_to_int("10.0.0.1"),
                ip_dst=ip_to_int("198.51.100.7"),
                proto=6,
                sport=12345,
                dport=80,
            ),
            0x3EBAD8EE0498C007,
        ),
        (header(FIVE_TUPLE, ip_src=0, ip_dst=0, proto=0, sport=0, dport=0), 0x7C96179F62DAE92F),
        (
            header(
                FIVE_TUPLE, ip_src=0xFFFFFFFF, ip_dst=0x01234567, proto=255, sport=65535, dport=1
            ),
            0x85F45A183834D0CB,
        ),
        (header(ODD, a=5, b=17, c=300), 0xC07DC35642263BBE),
    ]
    for h, expected in cases:
        assert header_hash64(h) == expected


def fnv1a_per_field(h):
    """64-bit FNV-1a, masked per byte, over each field as (width + 7) // 8 big-endian bytes."""
    acc = 0xCBF29CE484222325
    for f in h.layout.fields:
        value = h.get(f.name)
        for i in reversed(range((f.width + 7) // 8)):
            acc = ((acc ^ (value >> 8 * i & 0xFF)) * 0x100000001B3) % 2**64
    return acc


_widths = st.one_of(st.integers(1, 20), st.sampled_from([8, 16, 24, 32]))
_layouts = st.one_of(
    st.sampled_from([FIVE_TUPLE, HYP, ODD]),
    st.lists(_widths, min_size=1, max_size=4).map(
        lambda ws: HeaderLayout(tuple(FieldSpec(f"f{i}", w) for i, w in enumerate(ws)))
    ),
)


@st.composite
def headers_of(draw):
    layout = draw(_layouts)
    return header(layout, **{f.name: draw(st.integers(0, f.full_mask)) for f in layout.fields})


@settings(max_examples=300, deadline=None)
@given(h=headers_of())
def test_hash_matches_per_field_fnv1a_oracle(h):
    """One loop over the packed bytes, masked once, is FNV-1a over the padded fields."""
    assert header_hash64(h) == fnv1a_per_field(h)


def test_ip_helpers_roundtrip():
    for dotted in ("0.0.0.0", "10.0.0.1", "192.0.2.1", "255.255.255.255"):
        assert int_to_ip(ip_to_int(dotted)) == dotted
    with pytest.raises(ValueError):
        ip_to_int("10.0.0")
    with pytest.raises(ValueError):
        ip_to_int("10.0.0.300")
    assert ip_to_int("010.0.0.1") == ip_to_int("10.0.0.1")  # up to 3 digits, leading zeros too
    bad = ["1_0.0.0.1", "+10.0.0.1", " 10.0.0.1", "10.0.0.1 ", "\u0661\u0660.0.0.1",
           "10..0.1", "0010.0.0.1", "-1.0.0.0", "10.0.0.0x1", "\u00b2.0.0.1"]
    for dotted in bad:
        with pytest.raises(ValueError, match=re.escape(f"bad IPv4 address {dotted!r}")):
            ip_to_int(dotted)
    for value in (-1, 1 << 32):
        with pytest.raises(ValueError, match=f"IPv4 value out of range: {value}"):
            int_to_ip(value)


def test_decimal_int_takes_ascii_digits_only():
    for raw, value in (("0", 0), ("007", 7), ("65535", 65535)):
        assert decimal_int(raw) == value
    for raw in ("", "+1", "-1", "1_0", " 1", "1 ", "0x50", "1.0", "\u0661", "\u00b2"):
        with pytest.raises(ValueError, match=re.escape(f"not decimal digits: {raw!r}")):
            decimal_int(raw)


def test_layout_and_builder_guards():
    with pytest.raises(ValueError, match=r"duplicate field names in layout: \['a', 'a'\]"):
        HeaderLayout((FieldSpec("a", 1), FieldSpec("a", 2)))
    with pytest.raises(ValueError, match=r"unknown header fields: \['nope'\]"):
        header(HYP, hyp=1, nope=0)
    assert repr(header(HYP, hyp=5)) == "HeaderValue({'hyp': 5})"
    assert repr(header(ODD, a=0, b=3, c=0)) == "HeaderValue({'a': 0, 'b': 3, 'c': 0})"


def test_custom_layout_packs_first_field_highest():
    layout = HeaderLayout((FieldSpec("a", 4), FieldSpec("b", 2)))
    h = header(layout, a=0b1001, b=0b10)
    assert h.bits == 0b1001_10
    assert h.values == (0b1001, 0b10)
    assert h.get("a") == 0b1001 and h.get("b") == 0b10
    assert dict(h.items()) == {"a": 0b1001, "b": 0b10}
    assert packed_mask(layout, a=0xF) == 0b1111_00
    assert layout.pack((0xF, 0b11)) == (1 << layout.width) - 1
    with pytest.raises(ValueError):
        layout.pack((0x10, 0))
    with pytest.raises(ValueError):
        layout.pack((1,))
    # Equal bits as a bare int or on a different layout are a different value.
    assert h != h.bits
    assert h != HeaderValue(HeaderLayout((FieldSpec("c", 6),)), h.bits)


def test_package_all_lists_its_public_names_and_no_modules():
    import types

    import tsesim

    public = {
        name for name, value in vars(tsesim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(tsesim.__all__) == sorted(public)
    assert not {"attack", "engine", "flow_cache", "headers", "slowpath"} & set(tsesim.__all__)
