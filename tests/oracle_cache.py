"""Sequential-scan reference for the flow cache's pricing.

`SequentialCache.classify` handles one packet the way a tuple-space search
does: probe the EMC, then every subtable in search order with the header
masked by that subtable's mask, then the slow path.  `FlowCache` finds the
matching entry through synthesis instead and charges the probe count this
scan would have; the differential tests compare the two.  The scan shares
the cache's per-mask columns, expiry and ranking, which other tests check,
and walks the stored mask ids in search order.  It probes and fills the
EMC's slots itself, hashing each header afresh rather than through the
cache's slot memo.  It finds the entry at each subtable by looking the
masked header up in the table's interned keys and testing whether that
flow has the subtable's mask and is live, never by the header's own flow
id.  Its inserts go through `intern` and `SequentialCache._install`,
which add any (mask, key) pair the way the cache's pricing loop adds a
synthesized one inline.  The table keeps no actions, so the scan reads a
hit's action from `oracle_acl.slowpath_lookup` on the header, a lookup
that does not read the table.

The cache keeps its state in plain columns and has no views of it; this
module holds them.  `subtables` lists the live subtables in search order as
`Subtable` tuples, and `check_invariants` checks the cache's bookkeeping
against its contents: subtable storage and positions, sizes against the
live megaflows, hit counts, the idle list's order and floor, and the EMC's
slots against its resident set and slot hashes.

The cache and its `FlowTable` hold megaflows as ints and report ids; the
helpers below map ids back to key and mask bits through the table, so tests
can state expectations as (key bits, mask bits) pairs, the one form of a
megaflow.  A flow's key is its place in the table's `_flow_ids`, which
interns keys in id order, and its action is the slow path's at the key's
bits, a header that lies in the flow (`key_action`).  `oracle_synthesize`
gives a five-tuple header's megaflow by the independent per-field walk of
`oracle_synth`, for tests that check the table's own walk.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, NamedTuple, Optional

from oracle_acl import slowpath_lookup
from oracle_synth import o_synthesize

from tsesim.flow_cache import BatchResult, FlowCache, FlowTable
from tsesim.headers import HeaderLayout, HeaderValue, header_hash64
from tsesim.slowpath import Acl, Action


def packed_mask(layout: HeaderLayout, **fields: int) -> int:
    """Mask bits by field name; absent fields are fully wildcarded (0)."""
    return layout.pack(fields.get(name, 0) for name in layout.names)


class Subtable(NamedTuple):
    """One live subtable as `subtables` reads it; it does not follow later changes."""

    mask_id: int
    size: int  # live megaflows with this mask
    interval_hits: int  # hits since the last rebalance


def subtables(cache: FlowCache) -> list[Subtable]:
    """The live subtables in search order (index 0 probed first)."""
    size, hits = cache._size, cache._hits
    return [Subtable(mid, size[mid], hits.get(mid, 0)) for mid in reversed(cache._rev)]


def check_invariants(cache: FlowCache) -> None:
    """Raise AssertionError if the cache's bookkeeping disagrees with its contents.

    Checks that no mask id is stored twice, every stored mask has a
    position and its position matches storage, each stored mask's size
    is the count of its live flows in the idle list (and not 0), a mask
    out of storage has size 0 and no hits, the hit counts hold only
    stored masks with a count above 0, last hits are non-decreasing
    along the idle list, the idle floor is at most the first of them and
    at most the clock, the EMC's resident set is the set of bits its
    slots hold, and each slot's bits hash to that slot.
    """

    def require(ok: bool, what: str) -> None:
        if not ok:
            raise AssertionError(what)

    sizes = Counter(cache.table.mask_of[fid] for fid in cache._idle)  # by mask id
    rev, pos, size, hits = cache._rev, cache._pos, cache._size, cache._hits
    stored = set(rev)
    for mid, n in Counter(rev).items():
        require(n == 1, f"mask {mid} is stored {n} times")
    for i, mid in enumerate(rev):
        require(mid in pos, f"stored mask {mid} has no position")
        require(pos[mid] - cache._pos_offset == i, f"subtable at storage {i} has pos {pos[mid]}")
        n, s = sizes[mid], size[mid] if mid < len(size) else 0
        require(s == n > 0, f"subtable {i} has size {s} for {n} live flows")
    for mid, s in enumerate(size):
        require(mid in stored or s == 0 and mid not in hits,
                f"subtable of mask {mid} is out of storage with size {s}"
                f" and {hits.get(mid, 0)} hits")
    for mid, n in hits.items():
        require(mid in stored and n > 0, f"hit counts hold mask {mid} with {n} hits,"
                f" {'stored' if mid in stored else 'out of storage'}")
    require(sizes.keys() <= stored, "idle list holds a flow whose subtable is absent")
    last = list(cache._idle.values())
    require(all(a <= b for a, b in zip(last, last[1:])), "idle list is out of last-hit order")
    require(not last or cache._floor <= last[0],
            f"idle floor {cache._floor} is above the first last hit {last[:1]}")
    require(cache._floor <= cache._clock, f"idle floor {cache._floor} is above the clock")
    slots, resident, layout = cache._emc_slots, cache._resident, cache.table.acl.layout
    held = set(slots.values())
    require(not resident - held, "EMC resident set holds bits that no slot holds")
    require(not held - resident, "EMC resident set lacks bits that a slot holds")
    require(all(header_hash64(HeaderValue(layout, b)) % cache.emc_capacity == s
                for s, b in slots.items()), "EMC slot holds bits that hash to another slot")


class HitPath(enum.Enum):
    EMC = "emc"
    MFC = "mfc"
    SLOW = "slow"


@dataclass(frozen=True)
class ClassifyResult:
    action: Action
    path: HitPath
    emc_probes: int
    subtables_probed: int
    cost_units: float


def key_action(table: FlowTable, key_bits: int) -> Action:
    """The action of the flow with this key: the slow path's at the key's bits."""
    return slowpath_lookup(HeaderValue(table.acl.layout, key_bits), table.acl).action


def intern(table: FlowTable, mask_bits: int, key_bits: int, action: Action) -> int:
    """The id of megaflow (mask, key) in table; raise ValueError if key has another mask or action.

    `FlowTable.flow_ids` interns synthesized flows inline; this is the entry
    for any other (mask, key) pair.  A key interned before must come back
    with its mask, and with the action of its flow, `key_action`.
    """
    fid = table._flow_ids.setdefault(key_bits, len(table.mask_of))
    if fid == len(table.mask_of):
        mid = table.mask_ids.setdefault(mask_bits, len(table.mask_bits))
        if mid == len(table.mask_bits):
            table.mask_bits.append(mask_bits)
        table.mask_of.append(mid)
    elif (had := table.mask_bits[table.mask_of[fid]]) != mask_bits:
        raise ValueError(f"megaflow key {key_bits:#x} already has mask {had:#x}")
    elif (had := key_action(table, key_bits)) is not action:
        raise ValueError(f"megaflow {key_bits:#x}/{mask_bits:#x} already has action {had.value}")
    return fid


class SequentialCache(FlowCache):
    def _refresh(self, fid: int, now: float) -> None:
        del self._idle[fid]
        self._idle[fid] = now

    def _install(self, fid: int, now: float) -> bool:
        """Make flow fid live; return whether that created (or revived) its subtable."""
        mid = self.table.mask_of[fid]
        if mid >= len(self._size):
            self._size += [0] * (mid + 1 - len(self._size))
        created = not self._size[mid]
        if created:
            self._pos[mid] = len(self._rev) + self._pos_offset
            self._rev.append(mid)
        self._size[mid] += 1
        self._idle[fid] = now
        return created

    def mfc_lookup(self, h: HeaderValue, now: float) -> Optional[tuple[Action, int]]:
        """Probe subtables sequentially; on a hit, count it and refresh the entry."""
        self._advance(now)
        interned, mask_bits = self.table._flow_ids, self.table.mask_bits
        for probed, mid in enumerate(reversed(self._rev), start=1):
            fid = interned.get(h.bits & mask_bits[mid])
            if fid is not None and self.table.mask_of[fid] == mid and fid in self._idle:
                self._hits[mid] = self._hits.get(mid, 0) + 1
                self._refresh(fid, now)
                return slowpath_lookup(h, self.table.acl).action, probed
        return None

    def mfc_insert(self, key: int, mask: int, action: Action, now: float) -> tuple[bool, bool]:
        """Add an entry; returns (created_subtable, created_entry).

        A new mask creates a subtable at search index 0.  A duplicate
        (key, mask) only refreshes the entry's idle clock.
        """
        self._advance(now)
        fid = intern(self.table, mask, key, action)
        if fid in self._idle:
            self._refresh(fid, now)
            return False, False
        return self._install(fid, now), True

    def classify(self, h: HeaderValue, now: float) -> ClassifyResult:
        """Full pipeline for one packet: EMC, then MFC, then slow path.

        The EMC slot is `header_hash64(h) % capacity`, hashed afresh; it hits
        when it holds h's bits, and a hit reads h's action from the slow path.
        A fill also keeps the EMC's `resident` set, which this scan never
        reads, so that the cache's own invariants hold.
        """
        c = self.costs
        emc_probes = 1 if self.emc_enabled else 0
        slot = header_hash64(h) % self.emc_capacity
        if emc_probes and self._emc_slots.get(slot) == h.bits:
            action = slowpath_lookup(h, self.table.acl).action
            return ClassifyResult(action, HitPath.EMC, 1, 0, c.c_emc)
        hit = self.mfc_lookup(h, now)
        if hit is not None:
            action, probed = hit
            path, cost = HitPath.MFC, emc_probes * c.c_emc + probed * c.c_sub
        else:
            probed = self.subtable_count
            key, mask, action = synthesize(self, h)
            self.mfc_insert(key, mask, action, now)
            path, cost = HitPath.SLOW, emc_probes * c.c_emc + probed * c.c_sub + c.c_slow
        if emc_probes:
            self._resident.discard(self._emc_slots.get(slot))
            self._resident.add(h.bits)
            self._emc_slots[slot] = h.bits
        return ClassifyResult(action, path, emc_probes, probed, cost)


def megaflows_overlap(e1: tuple[int, int], e2: tuple[int, int]) -> bool:
    """True iff some header matches both (key bits, mask bits) entries.

    Two masked entries overlap exactly when their keys agree on every bit
    both masks examine.
    """
    (k1, m1), (k2, m2) = e1, e2
    return not (k1 ^ k2) & m1 & m2


def flows(table: FlowTable, fids: Iterable[int]) -> list[tuple[int, int, Action]]:
    """Each flow id's (key bits, mask bits, action), read back from the table."""
    keys, mask_bits, mask_of = list(table._flow_ids), table.mask_bits, table.mask_of
    return [(keys[fid], mask_bits[mask_of[fid]], key_action(table, keys[fid])) for fid in fids]


def flow(table: FlowTable, fid: int) -> tuple[int, int, Action]:
    """Flow id fid's (key bits, mask bits, action), read back from the table."""
    return flows(table, (fid,))[0]


def synthesize(cache: FlowCache, h: HeaderValue) -> tuple[int, int, Action]:
    """h's megaflow as (key bits, mask bits, action): its mask through the cache's table."""
    mask = cache.table.mask_bits[cache.table.mask_of[cache.flow_id(h)]]
    return h.bits & mask, mask, slowpath_lookup(h, cache.table.acl).action


def oracle_synthesize(h: HeaderValue, acl: Acl) -> tuple[int, int, Action]:
    """h's (key bits, mask bits, action) by `oracle_synth.o_synthesize`; five-tuple layouts only."""
    rules = [(dict(r.matches), r.action.value) for r in acl.rules]
    key, mask, action = o_synthesize(dict(h.items()), rules)
    return h.layout.pack(key), h.layout.pack(mask), Action(action)


def masks(cache: FlowCache) -> list[int]:
    """Mask bits of the subtables in search order."""
    return [cache.table.mask_bits[st.mask_id] for st in subtables(cache)]


def entries(cache: FlowCache) -> Iterator[tuple[int, int, Action]]:
    """Live megaflows as (key bits, mask bits, action), least recently hit first."""
    yield from flows(cache.table, cache._idle)


def search_index(cache: FlowCache, mask: int) -> int:
    """Search position (0 probed first) of the live subtable with these mask bits."""
    pos = cache._pos[cache.table.mask_ids[mask]]
    return cache.subtable_count - 1 - (pos - cache._pos_offset)


def expire(cache: FlowCache, now: float) -> tuple[list[tuple[int, int]], list[int]]:
    """`cache.expire(now)` with its flow ids as (key, mask) pairs and its mask ids as mask bits."""
    fids, mids = cache.expire(now)
    pairs = [f[:2] for f in flows(cache.table, fids)]
    return pairs, [cache.table.mask_bits[mid] for mid in mids]


def batch_masks(cache: FlowCache, res: BatchResult) -> BatchResult:
    """`res` with its created mask ids as mask bits."""
    return replace(res, created_masks=[cache.table.mask_bits[mid] for mid in res.created_masks])


def last_hits(cache: FlowCache) -> dict[tuple[int, int], float]:
    """Each live entry's (key, mask) and last hit, least recently hit first."""
    live = flows(cache.table, cache._idle)
    return {f[:2]: t for f, t in zip(live, cache._idle.values())}


def cache_state(cache: FlowCache):
    """Everything classification can change: subtables in order, EMC, live entries by last hit."""
    actions = {(k, m): a for k, m, a in entries(cache)}
    return (
        [(m, s.size, s.interval_hits) for m, s in zip(masks(cache), subtables(cache))],
        dict(cache._emc_slots),
        [(k, m, actions[k, m], t) for (k, m), t in last_hits(cache).items()],
    )
