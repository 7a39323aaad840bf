"""Order-dependent priority flow table: rules, ACLs and their text format.

The flow table ("slow path") is a list of rules with unique priorities; each
rule constrains some fields to exact values and wildcards the rest.  A lookup
returns the highest-priority matching rule.  Synthesis turns one lookup into
a cached (key, mask, action) entry that covers the triggering header, stays
disjoint from every other entry the same table can produce, and wildcards as
many bits as the rule set allows.  `Acl.packed` precomputes each rule for it
as a packed (mask, value) pair and a prefix table of its mask; the walk
itself is `flow_cache.FlowTable.flow_ids`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional

from .headers import HeaderLayout, decimal_int, ip_to_int, IP_FIELDS


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
    """Rules in descending priority over a catch-all deny; building one runs `validate_acl`."""

    layout: HeaderLayout
    rules: tuple[FlowRule, ...]

    def __post_init__(self) -> None:
        problems = validate_acl(self)
        if problems:
            raise ValueError(f"ACL invalid: {problems}")

    @staticmethod
    def from_rules(layout: HeaderLayout, rules: Iterable[FlowRule]) -> "Acl":
        ordered = tuple(sorted(rules, key=lambda r: -r.priority))
        return Acl(layout, ordered)

    @cached_property
    def packed(self) -> tuple[tuple[int, int, FlowRule, tuple[int, ...]], ...]:
        """(mask, value, rule, prefix) per rule: h matches the rule iff h.bits & mask == value.

        The mask examines the rule's constrained fields whole; the value holds
        their constraints and 0 elsewhere; `prefix[n]` holds the mask's bits
        at or above bit n - 1, one tuple per distinct mask.  The last rule is
        a catch-all, so a walk over these always stops at a rule.
        """
        packed, prefixes, width = [], {}, self.layout.width  # type: ignore[attr-defined]
        for r in self.rules:
            m = value = 0
            for name, v in r.matches:
                shift, full = self.layout.slot(name)
                m |= full << shift
                value |= v << shift
            if m not in prefixes:
                prefixes[m] = (0, *(m >> n << n for n in range(width)))
            packed.append((m, value, r, prefixes[m]))
        return tuple(packed)


def validate_acl(acl: Acl) -> list[str]:
    """Return a list of violations; empty means the ACL is usable.  `Acl` calls it when built."""
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


# --- line-oriented text format -------------------------------------------
#
# One rule per line: "priority=<int> [field=<value>]* action=<allow|deny>".
# Absent fields are wildcards; values are decimal digits, and ip fields may
# also take dotted quads.


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
                    priority = decimal_int(raw)
                elif key == "action":
                    action = Action(raw)
                elif key in IP_FIELDS and "." in raw:
                    matches[key] = ip_to_int(raw)
                else:
                    matches[key] = decimal_int(raw)
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


def load_acl(path: str | Path, layout: HeaderLayout) -> Acl:
    return parse_acl_text(layout, Path(path).read_text())
