"""Sequential-scan reference for the flow cache's pricing.

`SequentialCache.classify` handles one packet the way a tuple-space search
does: probe the EMC, then every subtable in search order with the header
masked by that subtable's mask, then the slow path.  `FlowCache` finds the
matching entry through synthesis instead and charges the probe count this
scan would have; the differential tests compare the two.  The scan shares
the cache's storage, expiry and ranking, which other tests check.  It finds
the entry at each subtable by looking the masked header up in the table's
interned (mask, key) pairs and testing whether that flow is live, never by
the header's own flow id.

The cache and its `FlowTable` hold megaflows as ints and report ids; the
helpers below map ids back to `MaskedKey`/`HeaderMask` objects through the
table, so tests can state expectations in terms of keys and masks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from tsesim.flow_cache import BatchResult, FlowCache, FlowTable
from tsesim.headers import HeaderMask, HeaderValue, LayoutMismatch, MaskedKey, apply_mask
from tsesim.slowpath import Action, SynthesizedFlow


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


class SequentialCache(FlowCache):
    def mfc_lookup(self, h: HeaderValue, now: float) -> Optional[tuple[Action, int]]:
        """Probe subtables sequentially; on a hit, count it and refresh the entry."""
        self._advance(now)
        interned = self.table._flow_ids
        for probed, st in enumerate(self.subtables(), start=1):
            fid = interned.get((st.mask.bits, apply_mask(h, st.mask).bits))
            if fid is not None and fid in self._idle:
                self._hit(st, 1)
                self._refresh(fid, now)
                return self.table.action_of[fid], probed
        return None

    def mfc_insert(
        self, key: MaskedKey, mask: HeaderMask, action: Action, now: float
    ) -> tuple[bool, bool]:
        """Add an entry; returns (created_subtable, created_entry).

        A new mask creates a subtable at search index 0.  A duplicate
        (key, mask) only refreshes the entry's idle clock.
        """
        self._advance(now)
        fid = self.table.intern(mask.bits, key.bits, action)
        if fid in self._idle:
            self._refresh(fid, now)
            return False, False
        return self._install(fid, now), True

    def classify(self, h: HeaderValue, now: float) -> ClassifyResult:
        """Full pipeline for one packet: EMC, then MFC, then slow path."""
        c = self.costs
        emc_probes = 1 if self.emc.enabled else 0
        if emc_probes:
            action = self.emc.lookup(h)
            if action is not None:
                return ClassifyResult(action, HitPath.EMC, 1, 0, c.c_emc)
        hit = self.mfc_lookup(h, now)
        if hit is not None:
            action, probed = hit
            self.emc.insert(h, action)
            return ClassifyResult(
                action, HitPath.MFC, emc_probes, probed, emc_probes * c.c_emc + probed * c.c_sub
            )
        probed = self.subtable_count
        flow = synthesize(self, h)
        self.mfc_insert(flow.key, flow.mask, flow.action, now)
        self.emc.insert(h, flow.action)
        cost = emc_probes * c.c_emc + probed * c.c_sub + c.c_slow
        return ClassifyResult(flow.action, HitPath.SLOW, emc_probes, probed, cost)


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


def flow(table: FlowTable, fid: int) -> SynthesizedFlow:
    """Flow id fid's key, mask and action as objects, read back from the table."""
    key = MaskedKey(table.acl.layout, table.key_of[fid])
    return SynthesizedFlow(key, table.mask(table.mask_of[fid]), table.action_of[fid])


def synthesize(cache: FlowCache, h: HeaderValue) -> SynthesizedFlow:
    """h's megaflow as objects, through the cache's table."""
    return flow(cache.table, cache.flow_id(h))


def entries(cache: FlowCache) -> Iterator[tuple[MaskedKey, HeaderMask, Action]]:
    """Live megaflows, least recently hit first."""
    for fid in cache._idle:
        f = flow(cache.table, fid)
        yield f.key, f.mask, f.action


def search_index(cache: FlowCache, mask: HeaderMask) -> int:
    """Search position (0 probed first) of the live subtable with this mask."""
    st = cache._sub[cache.table.mask_ids[mask.bits]]
    return cache.subtable_count - 1 - (st.pos - cache._pos_offset)


def expire(
    cache: FlowCache, now: float
) -> tuple[list[tuple[MaskedKey, HeaderMask]], list[HeaderMask]]:
    """`cache.expire(now)` with its flow ids as (key, mask) pairs and its mask ids as masks."""
    fids, mids = cache.expire(now)
    pairs = [(f.key, f.mask) for f in (flow(cache.table, fid) for fid in fids)]
    return pairs, [cache.table.mask(mid) for mid in mids]


def batch_objects(cache: FlowCache, res: BatchResult) -> BatchResult:
    """`res` with its created mask ids as masks."""
    return replace(res, created_masks=[cache.table.mask(mid) for mid in res.created_masks])


def last_hits(cache: FlowCache) -> dict[tuple[MaskedKey, HeaderMask], float]:
    """Each live entry's (key, mask) and last hit, least recently hit first."""
    flows = {fid: flow(cache.table, fid) for fid in cache._idle}
    return {(flows[fid].key, flows[fid].mask): t for fid, t in cache._idle.items()}


def cache_state(cache: FlowCache):
    """Everything classification can change: subtables in order, EMC, live entries by last hit."""
    actions = {(k, m): a for k, m, a in entries(cache)}
    return (
        [(s.mask, s.size, s.interval_hits) for s in cache.subtables()],
        dict(cache.emc.slots),
        [(k, m, actions[k, m], t) for (k, m), t in last_hits(cache).items()],
    )
