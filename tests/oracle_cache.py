"""Sequential-scan reference for the flow cache's pricing.

`SequentialCache.classify` handles one packet the way a tuple-space search
does: probe the EMC, then every subtable in search order with the header
masked by that subtable's mask, then the slow path.  `FlowCache` finds the
matching entry through synthesis instead and charges the probe count this
scan would have; the differential tests compare the two.  The scan shares
the cache's storage, expiry and ranking, which other tests check.  It
probes and fills the EMC's slots itself, hashing each header afresh rather
than through the cache's slot memo.  It finds the entry at each subtable
by looking the masked header up in the table's interned keys and testing
whether that flow has the subtable's mask and is live, never by the
header's own flow id.  Its inserts go through `intern` and
`SequentialCache._install`, which add any (mask, key) pair the way the
cache's pricing loop adds a synthesized one inline.

The cache and its `FlowTable` hold megaflows as ints and report ids; the
helpers below map ids back to key and mask bits through the table, so tests
can state expectations as (key bits, mask bits) pairs, the one form of a
megaflow.  `oracle_synthesize` gives a five-tuple header's megaflow by the
independent per-field walk of `oracle_synth`, for tests that check the
table's own walk.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from oracle_synth import o_synthesize

from tsesim.flow_cache import BatchResult, FlowCache, FlowTable, Subtable
from tsesim.headers import HeaderLayout, HeaderValue, header_hash64
from tsesim.slowpath import Acl, Action


def packed_mask(layout: HeaderLayout, **fields: int) -> int:
    """Mask bits by field name; absent fields are fully wildcarded (0)."""
    return layout.pack(fields.get(name, 0) for name in layout.names)


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


def intern(table: FlowTable, mask_bits: int, key_bits: int, action: Action) -> int:
    """The id of megaflow (mask, key) in table; raise ValueError if key has another mask or action.

    `FlowTable.flow_ids` interns synthesized flows inline; this is the entry
    for any other (mask, key) pair.
    """
    fid = table._flow_ids.setdefault(key_bits, len(table.key_of))
    if fid == len(table.key_of):
        mid = table.mask_ids.setdefault(mask_bits, len(table.mask_bits))
        if mid == len(table.mask_bits):
            table.mask_bits.append(mask_bits)
        table.mask_of.append(mid)
        table.key_of.append(key_bits)
        table.action_of.append(action)
    elif (had := table.mask_bits[table.mask_of[fid]]) != mask_bits:
        raise ValueError(f"megaflow key {key_bits:#x} already has mask {had:#x}")
    elif (had := table.action_of[fid]) is not action:
        raise ValueError(f"megaflow {key_bits:#x}/{mask_bits:#x} already has action {had}")
    return fid


class SequentialCache(FlowCache):
    def _refresh(self, fid: int, now: float) -> None:
        self._idle[fid] = now
        self._idle.move_to_end(fid)

    def _install(self, fid: int, now: float) -> bool:
        """Make flow fid live; return whether that created (or revived) its subtable."""
        mid = self.table.mask_of[fid]
        st = self._sub.get(mid)
        if st is None:
            st = self._sub[mid] = Subtable(mid)
        created = not st.size
        if created:
            st.pos = len(self._rev) + self._pos_offset
            self._rev.append(st)
        st.size += 1
        self._idle[fid] = now
        return created

    def mfc_lookup(self, h: HeaderValue, now: float) -> Optional[tuple[Action, int]]:
        """Probe subtables sequentially; on a hit, count it and refresh the entry."""
        self._advance(now)
        interned, mask_bits = self.table._flow_ids, self.table.mask_bits
        for probed, st in enumerate(self.subtables(), start=1):
            m = mask_bits[st.mask_id]
            fid = interned.get(h.bits & m)
            if fid is not None and self.table.mask_of[fid] == st.mask_id and fid in self._idle:
                if not st.interval_hits:
                    self._hits.append(st)
                st.interval_hits += 1
                self._refresh(fid, now)
                return self.table.action_of[fid], probed
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
        when it holds h's bits, and a hit reads h's action from the table.
        A fill also keeps the EMC's `resident` set, which this scan never
        reads, so that the cache's own invariants hold.
        """
        c = self.costs
        emc_probes = 1 if self.emc.enabled else 0
        slot = header_hash64(h) % self.emc.capacity
        if emc_probes and self.emc.slots.get(slot) == h.bits:
            action = synthesize(self, h)[2]
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
            self.emc.resident.discard(self.emc.slots.get(slot))
            self.emc.resident.add(h.bits)
            self.emc.slots[slot] = h.bits
        return ClassifyResult(action, path, emc_probes, probed, cost)


def megaflows_overlap(e1: tuple[int, int], e2: tuple[int, int]) -> bool:
    """True iff some header matches both (key bits, mask bits) entries.

    Two masked entries overlap exactly when their keys agree on every bit
    both masks examine.
    """
    (k1, m1), (k2, m2) = e1, e2
    return not (k1 ^ k2) & m1 & m2


def flow(table: FlowTable, fid: int) -> tuple[int, int, Action]:
    """Flow id fid's (key bits, mask bits, action), read back from the table."""
    return table.key_of[fid], table.mask_bits[table.mask_of[fid]], table.action_of[fid]


def synthesize(cache: FlowCache, h: HeaderValue) -> tuple[int, int, Action]:
    """h's megaflow as (key bits, mask bits, action), through the cache's table."""
    return flow(cache.table, cache.flow_id(h))


def oracle_synthesize(h: HeaderValue, acl: Acl) -> tuple[int, int, Action]:
    """h's (key bits, mask bits, action) by `oracle_synth.o_synthesize`; five-tuple layouts only."""
    rules = [(dict(r.matches), r.action.value) for r in acl.rules]
    key, mask, action = o_synthesize(dict(h.items()), rules)
    return h.layout.pack(key), h.layout.pack(mask), Action(action)


def masks(cache: FlowCache) -> list[int]:
    """Mask bits of the subtables in search order."""
    return [cache.table.mask_bits[st.mask_id] for st in cache.subtables()]


def entries(cache: FlowCache) -> Iterator[tuple[int, int, Action]]:
    """Live megaflows as (key bits, mask bits, action), least recently hit first."""
    for fid in cache._idle:
        yield flow(cache.table, fid)


def search_index(cache: FlowCache, mask: int) -> int:
    """Search position (0 probed first) of the live subtable with these mask bits."""
    st = cache._sub[cache.table.mask_ids[mask]]
    return cache.subtable_count - 1 - (st.pos - cache._pos_offset)


def expire(cache: FlowCache, now: float) -> tuple[list[tuple[int, int]], list[int]]:
    """`cache.expire(now)` with its flow ids as (key, mask) pairs and its mask ids as mask bits."""
    fids, mids = cache.expire(now)
    pairs = [flow(cache.table, fid)[:2] for fid in fids]
    return pairs, [cache.table.mask_bits[mid] for mid in mids]


def batch_masks(cache: FlowCache, res: BatchResult) -> BatchResult:
    """`res` with its created mask ids as mask bits."""
    return replace(res, created_masks=[cache.table.mask_bits[mid] for mid in res.created_masks])


def last_hits(cache: FlowCache) -> dict[tuple[int, int], float]:
    """Each live entry's (key, mask) and last hit, least recently hit first."""
    return {flow(cache.table, fid)[:2]: t for fid, t in cache._idle.items()}


def cache_state(cache: FlowCache):
    """Everything classification can change: subtables in order, EMC, live entries by last hit."""
    actions = {(k, m): a for k, m, a in entries(cache)}
    return (
        [(m, s.size, s.interval_hits) for m, s in zip(masks(cache), cache.subtables())],
        dict(cache.emc.slots),
        [(k, m, actions[k, m], t) for (k, m), t in last_hits(cache).items()],
    )
