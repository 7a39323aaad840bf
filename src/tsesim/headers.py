"""Bit-level header model: field layouts and packed header values.

A header is a layout plus one unsigned int: the layout's fields concatenated
with the first field in the highest bits.  A wildcard mask and a masked key
are plain ints in the same packing: a set mask bit is examined, and a key is
a header's bits AND-ed with its mask.  Masking and overlap are int
operations; per-field values, which hashing and printing read, are derived
views.  Layouts are plain data so the same code serves both the real
five-field layout and tiny synthetic layouts used in tests.  Bit index 0 is
the most significant bit of a field.
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
        # When every field after the first is whole bytes, the padded fields are the bits' bytes.
        whole = all(f.width % 8 == 0 for f in self.fields[1:])
        set_(self, "_nbytes", (width + 7) // 8 if whole else 0)

    def slot(self, name: str) -> tuple[int, int]:
        """(shift, unshifted full mask) of a field within the packed int."""
        return self._slot[name]  # type: ignore[attr-defined]

    def pack(self, values: Iterable[int]) -> int:
        """Concatenate per-field values, first field highest; each must fit its width."""
        values = tuple(values)
        if len(values) != len(self.fields):
            raise ValueError(
                f"HeaderValue: expected {len(self.fields)} fields, got {len(values)}"
            )
        bits = 0
        for f, v in zip(self.fields, values):
            if not 0 <= v <= f.full_mask:
                raise ValueError(
                    f"HeaderValue: field {f.name!r} value {v:#x} exceeds {f.width} bits"
                )
            bits = (bits << f.width) | v
        return bits


class HeaderValue:
    """A packet's classifier-relevant fields packed into one int; hashable, never mutated."""

    __slots__ = ("layout", "bits")

    def __init__(self, layout: HeaderLayout, bits: int):
        if bits < 0 or bits >> layout.width:  # type: ignore[attr-defined]
            raise ValueError(f"HeaderValue: {bits:#x} exceeds the layout's bits")
        self.layout = layout
        self.bits = bits

    def __hash__(self) -> int:
        # hash(int) is the int modulo 2**61 - 1, which folds high fields onto
        # low ones, so many packed headers would share a hash; pairing it with
        # the high part tells them apart.
        return hash((self.bits >> 61, self.bits))

    def __eq__(self, other: object) -> bool:
        same = type(other) is type(self)
        return same and (other.bits, other.layout) == (self.bits, self.layout)  # type: ignore

    def __repr__(self) -> str:
        return f"HeaderValue({dict(self.items())})"

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


def header(layout: HeaderLayout, **fields: int) -> HeaderValue:
    """Build a HeaderValue by field name; every field of the layout is required."""
    missing = set(layout.names) - set(fields)
    if missing:
        raise ValueError(f"missing header fields: {sorted(missing)}")
    extra = set(fields) - set(layout.names)
    if extra:
        raise ValueError(f"unknown header fields: {sorted(extra)}")
    return HeaderValue(layout, layout.pack(fields[n] for n in layout.names))


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def header_hash64(h: HeaderValue) -> int:
    """Stable 64-bit FNV-1a hash over the header's fields, MSB-first per field.

    Each field contributes its value as (width + 7) // 8 big-endian bytes.
    One loop masks to 64 bits once, at the end, which is exact: XOR with a
    byte changes only the low 8 bits, and a product mod 2**64 depends only
    on its operands mod 2**64.
    """
    if nbytes := h.layout._nbytes:  # type: ignore[attr-defined]
        data = h.bits.to_bytes(nbytes, "big")
    else:
        fields = zip(h.layout.fields, h.values)
        data = b"".join(v.to_bytes((f.width + 7) // 8, "big") for f, v in fields)
    acc = _FNV_OFFSET
    for byte in data:
        acc = (acc ^ byte) * _FNV_PRIME
    return acc & _MASK64


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


def decimal_int(raw: str) -> int:
    """The value of a string of ASCII decimal digits; `int` would also take "+2", "1_0" or " 2"."""
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"not decimal digits: {raw!r}")
    return int(raw)


def ip_to_int(dotted: str) -> int:
    """A dotted quad's value: four octets of 1-3 decimal digits, each at most 255."""
    parts = dotted.split(".")
    try:
        if len(parts) == 4 and all(len(p) <= 3 for p in parts):
            return int.from_bytes(bytes(map(decimal_int, parts)), "big")
    except ValueError:  # not digits, or an octet above 255
        pass
    raise ValueError(f"bad IPv4 address {dotted!r}")


def int_to_ip(value: int) -> str:
    if not 0 <= value < 1 << 32:
        raise ValueError(f"IPv4 value out of range: {value}")
    return ".".join(str((value >> s) & 0xFF) for s in (24, 16, 8, 0))
