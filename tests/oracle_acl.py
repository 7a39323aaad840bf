"""Test-side slow path: the sequential-scan lookup and the ACL text writer.

`slowpath_lookup` is the slow path's reference: it scans `acl.rules` and
compares each constrained field of the header with the rule's value, so it
does not read `Acl.packed`, the packed rules and prefix tables the
production walk runs on.  `format_acl_text` writes the line format that
`tsesim.slowpath.parse_acl_text` reads.
"""

from __future__ import annotations

from tsesim.headers import IP_FIELDS, HeaderValue, int_to_ip
from tsesim.slowpath import Acl, FlowRule


def slowpath_lookup(h: HeaderValue, acl: Acl) -> FlowRule:
    """First rule, in descending priority, whose exact constraints all match."""
    return next(r for r in acl.rules if all(h.get(name) == v for name, v in r.matches))


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
