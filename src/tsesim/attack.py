"""Probe-trace construction and scheduled packet emission.

A probe trace walks every (key, mask) region a whitelist-plus-default-deny
table can cache: for each targeted field it sends the allowed value plus one
value per bit position that differs first at exactly that bit, and takes the
cross product over the targeted fields.  Schedules replay a trace at a fixed
rate, optionally duty-cycled (attack/sleep) and with per-packet cloning that
holds the distinct-packet rate at 1000/s while the packet rate grows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from .headers import (
    FIVE_TUPLE,
    HeaderValue,
    LayoutMismatch,
    decimal_int,
    header,
    int_to_ip,
    ip_to_int,
    IP_FIELDS,
)
from .slowpath import Acl, Action, rule

# An attack stays "low rate" while it never exceeds this packet rate.
LOW_RATE_PPS = 15_000

# 64-byte frames plus preamble and inter-frame gap on the wire.
DEFAULT_WIRE_BYTES = 84


class UseCase(enum.Enum):
    DP = "dp"
    SP_DP = "sp_dp"
    SIP_SP_DP = "sip_sp_dp"

    @property
    def targeted_fields(self) -> tuple[str, ...]:
        return {
            UseCase.DP: ("dport",),
            UseCase.SP_DP: ("sport", "dport"),
            UseCase.SIP_SP_DP: ("ip_src", "sport", "dport"),
        }[self]


@dataclass(frozen=True)
class Trace:
    """Ordered probe packets; building an empty one raises ValueError."""

    packets: tuple[HeaderValue, ...]

    def __post_init__(self) -> None:
        if not self.packets:
            raise ValueError("trace is empty")

    def __len__(self) -> int:
        return len(self.packets)


@dataclass(frozen=True)
class AttackSchedule:
    """Replay plan: rate, optional attack/sleep duty cycle, clone factor."""

    rate: float
    t_attack: Optional[float] = None  # None = continuous
    t_sleep: float = 0.0
    clone: int = 1
    start: float = 0.0

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("rate must be >= 0")
        if not self.start >= 0:
            raise ValueError(f"attack start must be >= 0, got {self.start:g}")
        if self.t_sleep < 0:
            raise ValueError("t_sleep must be >= 0")
        if self.t_attack is not None and self.t_attack <= 0:
            raise ValueError("t_attack must be positive when given")
        if self.clone < 1:
            raise ValueError("clone factor must be >= 1")
        if self.t_attack is not None and not math.isfinite(cycle := self.t_attack + self.t_sleep):
            raise ValueError(f"duty cycle of {self.t_attack:g} s attack and {self.t_sleep:g} s "
                             "sleep is too long to time")  # emission_time steps by the cycle
        if self.t_attack is not None and self.rate > 0:
            if not math.isfinite(self.t_attack * self.rate):  # per_phase rounds it to an int
                raise ValueError(f"attack phase of {self.t_attack:g} s at {self.rate:g} pps "
                                 "holds too many packets to count")
            if self.per_phase < 1:
                raise ValueError("attack phase shorter than one packet interval")
            # Else rounding per_phase up could space packets closer than 1 / rate.
            if self.per_phase / self.rate > cycle:
                raise ValueError(f"attack phase of {self.per_phase} packets at {self.rate:g} pps "
                                 f"overruns its {cycle:g} s duty cycle")

    @property
    def is_low_rate(self) -> bool:
        return self.rate <= LOW_RATE_PPS

    def phase_at(self, t: float) -> str:
        """'idle' before start, else 'attack' or 'sleep' within the duty cycle."""
        if self.rate == 0 or t < self.start:
            return "idle"
        if self.t_attack is None:
            return "attack"
        offset = (t - self.start) % (self.t_attack + self.t_sleep)
        return "attack" if offset < self.t_attack else "sleep"

    # The replay timing law: packets are spaced 1/rate apart during attack
    # phases, and a duty-cycled schedule sends `per_phase` packets per phase.

    @property
    def per_phase(self) -> int:
        """Packets per attack phase of a duty-cycled schedule."""
        return int(round(self.t_attack * self.rate))

    def emission_time(self, k: int) -> float:
        """Timestamp of emission k (0-based); the rate must be positive."""
        if self.t_attack is None:
            return self.start + k / self.rate
        phase, idx = divmod(k, self.per_phase)
        return self.start + phase * (self.t_attack + self.t_sleep) + idx / self.rate

    def emission_count(self, horizon: float) -> int:
        """Number of emissions strictly before the horizon.

        A closed-form estimate, stepped by one until it agrees with
        `emission_time`, so it equals the length of `schedule_emissions` exactly.
        """
        if self.rate <= 0 or horizon <= self.start:
            return 0
        window = horizon - self.start
        if self.t_attack is None:
            k = math.ceil(window * self.rate)
        else:
            per_phase = self.per_phase
            cycle = self.t_attack + self.t_sleep
            full = int(window // cycle)
            rem = window - full * cycle
            k = full * per_phase + min(per_phase, math.ceil(rem * self.rate))
        while k > 0 and self.emission_time(k - 1) >= horizon:
            k -= 1
        while self.emission_time(k) < horizon:
            k += 1
        return k


def field_probe_values(width: int, allow_value: int) -> list[int]:
    """The allowed value, then one probe per bit (MSB first).

    Probe i keeps bits above i, flips bit i, and copies the remaining bits
    from the allowed value, so its first differing bit against the allowed
    value is exactly i.  Length is width + 1.
    """
    if not 0 <= allow_value < (1 << width):
        raise ValueError(f"allow_value {allow_value} exceeds {width} bits")
    return [allow_value] + [allow_value ^ (1 << (width - 1 - i)) for i in range(width)]


def default_benign_fill() -> HeaderValue:
    """Filler for untargeted fields; matches no allow rule of the standard table."""
    return header(
        FIVE_TUPLE,
        ip_src=ip_to_int("192.0.2.1"),
        ip_dst=ip_to_int("198.51.100.7"),
        proto=6,
        sport=55555,
        dport=55555,
    )


def _single_field_allow(acl: Acl, field_name: str) -> int:
    for r in acl.rules:
        if r.action is Action.ALLOW and len(r.matches) == 1 and r.matches[0][0] == field_name:
            return r.matches[0][1]
    raise ValueError(f"ACL has no single-field allow rule on {field_name!r}")


def build_trace(
    use_case: UseCase, acl: Acl, benign_fill: Optional[HeaderValue] = None
) -> Trace:
    """Cross product of per-field probes on packed ints; the last targeted field cycles fastest."""
    layout = acl.layout
    fill = benign_fill if benign_fill is not None else default_benign_fill()
    if fill.layout != layout:
        raise LayoutMismatch("benign fill and ACL use different layouts")
    packed = [fill.bits]
    for f in use_case.targeted_fields:
        shift, full = layout.slot(f)
        allow = _single_field_allow(acl, f)
        probes = [v << shift for v in field_probe_values(full.bit_length(), allow)]
        clear = ~(full << shift)
        packed = [b & clear | p for b in packed for p in probes]
    return Trace(tuple(HeaderValue(layout, b) for b in packed))


def clone_factor(rate_pps: float) -> int:
    """Clones per distinct packet needed to keep the distinct rate at 1000/s."""
    if rate_pps < 1:
        raise ValueError("rate must be >= 1 pps")
    return math.ceil(rate_pps / 1000)


def schedule_emissions(
    trace: Trace, schedule: AttackSchedule, horizon_seconds: float
) -> Iterator[tuple[float, int, HeaderValue]]:
    """Yield (timestamp, trace_index, header) for every emission before the horizon.

    Each trace packet repeats `clone` times back to back; the trace position
    carries across sleep phases and wraps cyclically.
    """
    if schedule.rate <= 0:
        return
    n = schedule.clone
    length = len(trace)
    k = 0
    while True:
        t = schedule.emission_time(k)
        if t >= horizon_seconds:
            return
        pos = (k // n) % length
        yield t, pos, trace.packets[pos]
        k += 1


def average_rate(schedule: AttackSchedule) -> tuple[float, float]:
    """Duty-cycle-averaged (packets/second, bits/second on the wire at DEFAULT_WIRE_BYTES)."""
    if schedule.rate == 0:
        return 0.0, 0.0
    if schedule.t_attack is None:
        pps = schedule.rate
    else:
        pps = schedule.rate * schedule.t_attack / (schedule.t_attack + schedule.t_sleep)
    return pps, pps * DEFAULT_WIRE_BYTES * 8


# --- the standard whitelist-plus-default-deny table -------------------------

ALLOW_DPORT = 80
ALLOW_IP_SRC = "10.0.0.1"
ALLOW_SPORT = 12345


def simple_acl() -> Acl:
    """Reference four-rule table: three single-field allows over a deny-all."""
    return Acl.from_rules(
        FIVE_TUPLE,
        [
            rule(FIVE_TUPLE, 100, Action.ALLOW, dport=ALLOW_DPORT),
            rule(FIVE_TUPLE, 99, Action.ALLOW, ip_src=ip_to_int(ALLOW_IP_SRC)),
            rule(FIVE_TUPLE, 98, Action.ALLOW, sport=ALLOW_SPORT),
            rule(FIVE_TUPLE, 0, Action.DENY),
        ],
    )


def use_case_acl(use_case: UseCase) -> Acl:
    """The subset of the standard table a use case probes, plus the catch-all."""
    keep = use_case.targeted_fields
    rules = [
        r
        for r in simple_acl().rules
        if r.is_catch_all or (len(r.matches) == 1 and r.matches[0][0] in keep)
    ]
    return Acl.from_rules(FIVE_TUPLE, rules)


# --- trace files -------------------------------------------------------------
#
# One packet per line, each <int> in decimal digits:
#   t=<seconds> ip_src=<dotted> ip_dst=<dotted> proto=<int> sport=<int> dport=<int>


def format_trace_text(trace: Trace, rate: float = 1000.0) -> str:
    lines = []
    for i, p in enumerate(trace.packets):
        parts = [f"t={i / rate:.6f}"]
        for name, value in p.items():
            parts.append(f"{name}={int_to_ip(value) if name in IP_FIELDS else value}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_trace_text(text: str) -> Trace:
    """One packet per line; an error names its line, and a key given twice is one."""
    packets = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields: dict = {}  # key -> int, and t -> float
        try:
            for token in line.split():
                key, sep, raw = token.partition("=")
                if not sep:
                    raise ValueError(f"bad token {token!r}")
                parse = float if key == "t" else ip_to_int if key in IP_FIELDS else decimal_int
                try:
                    value = parse(raw)
                except ValueError:
                    raise ValueError(f"bad {key} value {raw!r}") from None
                if key in fields:
                    raise ValueError(f"{key} given twice")
                fields[key] = value
            fields.pop("t", None)  # validated, not kept: timing comes from schedules
            packets.append(header(FIVE_TUPLE, **fields))
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
    return Trace(tuple(packets))


def save_trace(path: str | Path, trace: Trace, rate: float = 1000.0) -> None:
    Path(path).write_text(format_trace_text(trace, rate))


def load_trace(path: str | Path) -> Trace:
    return parse_trace_text(Path(path).read_text())
