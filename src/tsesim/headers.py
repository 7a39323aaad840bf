"""Bit-level header model: field layouts, header values, wildcard masks, masked keys.

A header, mask or masked key is a layout plus one unsigned int: the layout's
fields concatenated with the first field in the highest bits.  Masking,
overlap and hashing work on that int; per-field values are derived views.
Layouts are plain data so the same code serves both the real five-field
layout and tiny synthetic layouts used in tests.  Bit index 0 is the most
significant bit of a field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class LayoutMismatch(ValueError):
    """Two values built on different layouts were combined."""


@dataclass(frozen=True)
class FieldSpec:
    """One fixed-width header field."""

    name: str
    width: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"field {self.name!r}: width must be >= 1, got {self.width}")

    @property
    def full_mask(self) -> int:
        return (1 << self.width) - 1


@dataclass(frozen=True)
class HeaderLayout:
    """Ordered, total set of fields; order is fixed for every walk over a header."""

    fields: tuple[FieldSpec, ...]

    def __post_init__(self) -> None:
        names = tuple(f.name for f in self.fields)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field names in layout: {list(names)}")
        width = shift = sum(f.width for f in self.fields)
        slot: dict[str, tuple[int, int]] = {}  # name -> (shift, field mask), layout order
        for f in self.fields:
            shift -= f.width
            slot[f.name] = (shift, f.full_mask)
        set_ = object.__setattr__
        set_(self, "names", names)
        set_(self, "width", width)
        set_(self, "_slot", slot)

    def slot(self, name: str) -> tuple[int, int]:
        """(shift, unshifted full mask) of a field within the packed int."""
        return self._slot[name]  # type: ignore[attr-defined]

    def pack(self, values: Iterable[int], what: str = "header") -> int:
        """Concatenate per-field values, first field highest; each must fit its width."""
        values = tuple(values)
        if len(values) != len(self.fields):
            raise ValueError(f"{what}: expected {len(self.fields)} fields, got {len(values)}")
        bits = 0
        for f, v in zip(self.fields, values):
            if not 0 <= v <= f.full_mask:
                raise ValueError(f"{what}: field {f.name!r} value {v:#x} exceeds {f.width} bits")
            bits = (bits << f.width) | v
        return bits


class _Packed:
    """A layout plus its fields packed into one int.  Hashable; never mutated."""

    __slots__ = ("layout", "bits")

    def __init__(self, layout: HeaderLayout, bits: int):
        if bits < 0 or bits >> layout.width:  # type: ignore[attr-defined]
            raise ValueError(f"{type(self).__name__}: {bits:#x} exceeds the layout's bits")
        self.layout = layout
        self.bits = bits

    def __hash__(self) -> int:
        # hash(int) is the int modulo 2**61 - 1, which folds high fields onto
        # low ones, so many packed masks would share a hash; pairing it with
        # the high part tells them apart.
        return hash((self.bits >> 61, self.bits))

    def __eq__(self, other: object) -> bool:
        same = type(other) is type(self)
        return same and (other.bits, other.layout) == (self.bits, self.layout)  # type: ignore

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())})"

    @property
    def values(self) -> tuple[int, ...]:
        """Per-field values in layout order."""
        slots = self.layout._slot.values()  # type: ignore[attr-defined]
        return tuple((self.bits >> s) & m for s, m in slots)

    def get(self, name: str) -> int:
        shift, full = self.layout.slot(name)
        return (self.bits >> shift) & full

    def items(self) -> Iterable[tuple[str, int]]:
        return zip(self.layout.names, self.values)


class HeaderValue(_Packed):
    """One packet's classifier-relevant field values."""

    __slots__ = ()


class HeaderMask(_Packed):
    """Bitwise wildcard mask; a set bit means the bit is examined (un-wildcarded)."""

    __slots__ = ()


class MaskedKey(_Packed):
    """A header AND-ed with a mask; key & ~mask == 0 holds by construction."""

    __slots__ = ()


def header(layout: HeaderLayout, **fields: int) -> HeaderValue:
    """Build a HeaderValue by field name; every field of the layout is required."""
    missing = set(layout.names) - set(fields)
    if missing:
        raise ValueError(f"missing header fields: {sorted(missing)}")
    extra = set(fields) - set(layout.names)
    if extra:
        raise ValueError(f"unknown header fields: {sorted(extra)}")
    return HeaderValue(layout, layout.pack((fields[n] for n in layout.names), "HeaderValue"))


def mask(layout: HeaderLayout, **fields: int) -> HeaderMask:
    """Build a HeaderMask by field name; absent fields are fully wildcarded (0)."""
    extra = set(fields) - set(layout.names)
    if extra:
        raise ValueError(f"unknown mask fields: {sorted(extra)}")
    return HeaderMask(layout, layout.pack((fields.get(n, 0) for n in layout.names), "HeaderMask"))


def apply_mask(h: HeaderValue, m: HeaderMask) -> MaskedKey:
    """Bitwise AND of a header with a mask."""
    if h.layout != m.layout:
        raise LayoutMismatch("header and mask use different layouts")
    return MaskedKey(h.layout, h.bits & m.bits)


def megaflows_overlap(e1: tuple[MaskedKey, HeaderMask], e2: tuple[MaskedKey, HeaderMask]) -> bool:
    """True iff some header matches both entries.

    Two masked entries overlap exactly when their keys agree on every bit
    both masks examine.
    """
    k1, m1 = e1
    k2, m2 = e2
    if k1.layout != k2.layout:
        raise LayoutMismatch("entries use different layouts")
    return not (k1.bits ^ k2.bits) & m1.bits & m2.bits


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def header_hash64(h: HeaderValue) -> int:
    """Stable 64-bit FNV-1a hash over the header's fields, MSB-first per field.

    Each field contributes its value as (width + 7) // 8 big-endian bytes.
    """
    acc = _FNV_OFFSET
    for f, value in zip(h.layout.fields, h.values):
        for byte in value.to_bytes((f.width + 7) // 8, "big"):
            acc = ((acc ^ byte) * _FNV_PRIME) & _MASK64
    return acc


# The two layouts used throughout: the real five-field layout and the 3-bit
# synthetic one.  Field order is fixed; walks examine fields in this order.
FIVE_TUPLE = HeaderLayout(
    (
        FieldSpec("ip_src", 32),
        FieldSpec("ip_dst", 32),
        FieldSpec("proto", 8),
        FieldSpec("sport", 16),
        FieldSpec("dport", 16),
    )
)

HYP = HeaderLayout((FieldSpec("hyp", 3),))

IP_FIELDS = ("ip_src", "ip_dst")


def ip_to_int(dotted: str) -> int:
    parts = dotted.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 address {dotted!r}")
    out = 0
    for p in parts:
        b = int(p)
        if not 0 <= b <= 255:
            raise ValueError(f"bad IPv4 address {dotted!r}")
        out = (out << 8) | b
    return out


def int_to_ip(value: int) -> str:
    if not 0 <= value < 1 << 32:
        raise ValueError(f"IPv4 value out of range: {value}")
    return ".".join(str((value >> s) & 0xFF) for s in (24, 16, 8, 0))
