"""Reference probe trace: the cross product built one packet at a time.

Walks the targeted fields recursively, first field outermost, and builds each
packet with `header(**fields)` from the benign fill's fields with the probe
values laid over them.  The probe values are computed here from the allowed
value, not taken from `tsesim.attack`, so a fault in the production probe
list or in its packed-int cross product shows as a mismatch.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from tsesim.headers import HeaderLayout, HeaderValue, header


def mask_generation_rate(sched) -> float:
    """Distinct packets per second of a schedule's attack phase."""
    return sched.rate / sched.clone


def o_probes(width: int, allow: int) -> list[int]:
    """The allowed value, then the allowed value with bit i flipped, MSB first."""
    return [allow] + [allow ^ (1 << (width - 1 - i)) for i in range(width)]


def o_trace(
    layout: HeaderLayout,
    fields: Sequence[str],
    allow: Mapping[str, int],
    fill: HeaderValue,
) -> tuple[HeaderValue, ...]:
    """Every probe combination over `fields`; the last field cycles fastest."""
    base = dict(fill.items())
    width = {f.name: f.width for f in layout.fields}
    packets: list[HeaderValue] = []

    def emit(i: int, partial: dict) -> None:
        if i == len(fields):
            packets.append(header(layout, **{**base, **partial}))
            return
        name = fields[i]
        for v in o_probes(width[name], allow[name]):
            partial[name] = v
            emit(i + 1, partial)

    emit(0, {})
    return tuple(packets)
