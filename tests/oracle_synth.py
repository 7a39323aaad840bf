"""Self-contained oracle for mask synthesis and probe-trace accounting.

Deliberately independent of the tsesim package: plain ints, tuples and dicts
only.  Used to freeze expected distinct-mask/entry counts and to cross-check
the production synthesis walk.
"""

from __future__ import annotations

# (name, width) in fixed walk order.
FIVE = (("ip_src", 32), ("ip_dst", 32), ("proto", 8), ("sport", 16), ("dport", 16))

WIDTH = dict(FIVE)
ORDER = [name for name, _ in FIVE]


def o_first_diff(a: int, b: int, width: int):
    d = a ^ b
    if d == 0:
        return None
    return width - d.bit_length()


def o_prefix(width: int, length: int) -> int:
    return 0 if length == 0 else ((1 << length) - 1) << (width - length)


def o_synthesize(hdr: dict, rules: list, fields: tuple = FIVE) -> tuple:
    """Reference walk.

    rules: list of (matches: dict field->value, action: str), descending
    priority, last one the catch-all.  fields: (name, width) in walk order.
    Returns (key tuple, mask tuple, action) over the fields' names.
    """
    order, width = [name for name, _ in fields], dict(fields)
    acc = {name: 0 for name in order}
    for matches, action in rules:
        matched = True
        for name in order:
            if name not in matches:
                continue
            w = width[name]
            want = matches[name]
            have = hdr[name]
            if have == want:
                acc[name] = (1 << w) - 1
            else:
                d = o_first_diff(have, want, w)
                acc[name] |= o_prefix(w, d + 1)
                matched = False
                break
        if matched:
            key = tuple(hdr[n] & acc[n] for n in order)
            msk = tuple(acc[n] for n in order)
            return key, msk, action
    raise AssertionError("no catch-all rule")


def o_probe_values(width: int, allow_value: int) -> list[int]:
    """Exact value first, then one flip per bit position, suffix kept."""
    return [allow_value] + [allow_value ^ (1 << (width - 1 - i)) for i in range(width)]


IP_10_0_0_1 = (10 << 24) | 1
BENIGN = {
    "ip_src": (192 << 24) | (0 << 16) | (2 << 8) | 1,  # 192.0.2.1
    "ip_dst": (198 << 24) | (51 << 16) | (100 << 8) | 7,  # 198.51.100.7
    "proto": 6,
    "sport": 55555,
    "dport": 55555,
}

RULE_DPORT = ({"dport": 80}, "allow")
RULE_IPSRC = ({"ip_src": IP_10_0_0_1}, "allow")
RULE_SPORT = ({"sport": 12345}, "allow")
RULE_CATCH = ({}, "deny")

USE_CASE_RULES = {
    "dp": [RULE_DPORT, RULE_CATCH],
    "sp_dp": [RULE_DPORT, RULE_SPORT, RULE_CATCH],
    "sip_sp_dp": [RULE_DPORT, RULE_IPSRC, RULE_SPORT, RULE_CATCH],
}

USE_CASE_FIELDS = {
    "dp": ["dport"],
    "sp_dp": ["sport", "dport"],
    "sip_sp_dp": ["ip_src", "sport", "dport"],
}

ALLOW_VALUES = {"ip_src": IP_10_0_0_1, "sport": 12345, "dport": 80}


def o_trace(use_case: str) -> list[dict]:
    """Cross-product probe trace; last targeted field iterates fastest."""
    fields = USE_CASE_FIELDS[use_case]
    lists = [o_probe_values(WIDTH[f], ALLOW_VALUES[f]) for f in fields]
    packets = []

    def rec(i, partial):
        if i == len(fields):
            hdr = dict(BENIGN)
            hdr.update(partial)
            packets.append(hdr)
            return
        for v in lists[i]:
            partial[fields[i]] = v
            rec(i + 1, partial)

    rec(0, {})
    return packets


def o_counts(use_case: str, rules=None) -> dict:
    """Distinct masks / (key,mask,action) entries spawned by the trace."""
    rules = rules if rules is not None else USE_CASE_RULES[use_case]
    packets = o_trace(use_case)
    masks = set()
    entries = set()
    first_spawn_order = []
    for hdr in packets:
        key, msk, action = o_synthesize(hdr, rules)
        if msk not in masks:
            first_spawn_order.append(msk)
        masks.add(msk)
        entries.add((key, msk, action))
    return {
        "packets": len(packets),
        "masks": len(masks),
        "entries": len(entries),
        "spawn_order": first_spawn_order,
    }


if __name__ == "__main__":
    for uc in ("dp", "sp_dp", "sip_sp_dp"):
        c = o_counts(uc)
        print(f"{uc}: packets={c['packets']} masks={c['masks']} entries={c['entries']}")
