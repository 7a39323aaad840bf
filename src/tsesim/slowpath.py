"""Order-dependent priority flow table and megaflow mask synthesis.

The flow table ("slow path") is a list of rules with unique priorities; each
rule constrains some fields to exact values and wildcards the rest.  A lookup
returns the highest-priority matching rule.  Synthesis turns one lookup into
a cached (key, mask, action) entry that covers the triggering header, stays
disjoint from every other entry the same table can produce, and wildcards as
many bits as the rule set allows.  Both work on packed headers: each rule is
precomputed as a packed (mask, value) pair.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional

from .headers import (
    HeaderLayout,
    HeaderMask,
    HeaderValue,
    MaskedKey,
    int_to_ip,
    ip_to_int,
    mask,
    IP_FIELDS,
)


class Action(enum.Enum):
    ALLOW = "allow"
    DENY = "deny"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class FlowRule:
    """One rule: exact constraints on some fields, wildcard on the rest."""

    priority: int
    matches: tuple[tuple[str, int], ...]  # (field, exact value), layout order
    action: Action

    @property
    def is_catch_all(self) -> bool:
        return not self.matches


def rule(layout: HeaderLayout, priority: int, action: Action, **matches: int) -> FlowRule:
    """Build a rule, ordering its constraints by the layout's field order."""
    for name in matches:
        layout.slot(name)  # raises KeyError on unknown fields
    ordered = tuple((n, matches[n]) for n in layout.names if n in matches)
    return FlowRule(priority, ordered, action)


@dataclass(frozen=True)
class Acl:
    """Rules in descending priority; the last rule must be a catch-all deny."""

    layout: HeaderLayout
    rules: tuple[FlowRule, ...]

    @staticmethod
    def from_rules(layout: HeaderLayout, rules: Iterable[FlowRule]) -> "Acl":
        ordered = tuple(sorted(rules, key=lambda r: -r.priority))
        return Acl(layout, ordered)

    @cached_property
    def packed(self) -> tuple[tuple[int, int, FlowRule], ...]:
        """(mask, value, rule) per rule: h matches the rule iff h.bits & mask == value.

        The last rule is a catch-all, which every header matches, so a walk
        over these always stops at a rule.  Raises ValueError on an ACL that
        `validate_acl` rejects for an unknown field, a value wider than its
        field, or no catch-all at the lowest priority.
        """
        if not (self.rules and self.rules[-1].is_catch_all):
            raise ValueError("ACL has no catch-all at the lowest priority")
        full = {f.name: f.full_mask for f in self.layout.fields}
        return tuple(
            (
                mask(self.layout, **{name: full[name] for name, _ in r.matches}).bits,
                mask(self.layout, **dict(r.matches)).bits,  # constraints, others 0
                r,
            )
            for r in self.rules
        )


def validate_acl(acl: Acl) -> list[str]:
    """Return a list of violations; empty means the ACL is usable."""
    problems: list[str] = []
    if not acl.rules:
        return ["empty ACL"]
    priorities = [r.priority for r in acl.rules]
    if len(set(priorities)) != len(priorities):
        problems.append("duplicate priorities")
    if any(a.priority < b.priority for a, b in zip(acl.rules, acl.rules[1:])):
        problems.append("rules not in descending priority order")
    last = acl.rules[-1]
    if not (last.is_catch_all and last.action is Action.DENY):
        problems.append("no catch-all deny rule at lowest priority")
    for r in acl.rules:
        for name, value in r.matches:
            try:
                _, full = acl.layout.slot(name)
            except KeyError:
                problems.append(f"rule priority={r.priority}: unknown field {name!r}")
                continue
            if not 0 <= value <= full:
                problems.append(
                    f"rule priority={r.priority}: value {value} exceeds field width of {name}"
                )
    return problems


def slowpath_lookup(h: HeaderValue, acl: Acl) -> FlowRule:
    """First rule, in descending priority, whose exact constraints all match."""
    bits = h.bits
    return next(r for m, value, r in acl.packed if bits & m == value)


@dataclass
class SynthesizedFlow:
    key: MaskedKey
    mask: HeaderMask
    action: Action


def synthesize_megaflow(h: HeaderValue, acl: Acl) -> SynthesizedFlow:
    """Derive the (key, mask, action) cache entry for a header.

    Walk rules in descending priority.  For the current rule, examine its
    constrained fields in layout order: an exact match un-wildcards the whole
    field and moves on to the rule's next field; a mismatch un-wildcards the
    prefix up to and including the first differing bit and abandons the rule.
    The first rule whose constrained fields all match ends the walk; the
    catch-all ends it with a deny.  Only examined bits ever enter the mask,
    so the entry is as broad as the rule set permits.

    On packed ints a rule's walk is one expression: fields are packed first
    field highest, so the highest bit where the header differs from the rule
    under the rule's mask is the walk's first mismatch, and the walk examined
    exactly the rule's mask bits at or above it.
    """
    bits = h.bits
    acc = 0
    for m, value, r in acl.packed:
        diff = (bits ^ value) & m
        if not diff:
            break
        low = diff.bit_length() - 1
        acc |= m >> low << low
    acc |= m
    return SynthesizedFlow(MaskedKey(h.layout, bits & acc), HeaderMask(h.layout, acc), r.action)


# --- line-oriented text format -------------------------------------------
#
# One rule per line: "priority=<int> [field=<value>]* action=<allow|deny>".
# Absent fields are wildcards; ip fields use dotted-quad values.


def _parse_value(layout: HeaderLayout, name: str, raw: str) -> int:
    if name in IP_FIELDS and "." in raw:
        return ip_to_int(raw)
    return int(raw, 0)


def parse_acl_text(layout: HeaderLayout, text: str) -> Acl:
    rules = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        priority: Optional[int] = None
        action: Optional[Action] = None
        matches: dict[str, int] = {}
        given: set[str] = set()
        for token in line.split():
            if "=" not in token:
                raise ValueError(f"line {lineno}: bad token {token!r}")
            key, _, raw = token.partition("=")
            if key not in ("priority", "action") and key not in layout.names:
                raise ValueError(f"line {lineno}: unknown field {key!r}")
            try:
                if key == "priority":
                    priority = int(raw)
                elif key == "action":
                    action = Action(raw)
                else:
                    matches[key] = _parse_value(layout, key, raw)
            except ValueError:
                raise ValueError(f"line {lineno}: bad {key} value {raw!r}") from None
            if key in matches and not 0 <= matches[key] <= layout.slot(key)[1]:
                raise ValueError(f"line {lineno}: value {raw} exceeds field width of {key}")
            if key in given:
                raise ValueError(f"line {lineno}: {key} given twice")
            given.add(key)
        if priority is None or action is None:
            raise ValueError(f"line {lineno}: rule needs priority= and action=")
        rules.append(rule(layout, priority, action, **matches))
    return Acl.from_rules(layout, rules)


def format_acl_text(acl: Acl) -> str:
    lines = []
    for r in acl.rules:
        parts = [f"priority={r.priority}"]
        for name, value in r.matches:
            if name in IP_FIELDS:
                parts.append(f"{name}={int_to_ip(value)}")
            else:
                parts.append(f"{name}={value}")
        parts.append(f"action={r.action.value}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def load_acl(path: str | Path, layout: HeaderLayout) -> Acl:
    return parse_acl_text(layout, Path(path).read_text())
