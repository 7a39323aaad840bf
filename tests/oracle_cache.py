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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from tsesim.flow_cache import FlowCache
from tsesim.headers import HeaderMask, HeaderValue, MaskedKey, apply_mask
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
                st.interval_hits += 1
                self._refresh(fid, now)
                return self.table.flows[fid].action, probed
        return None

    def mfc_insert(
        self, key: MaskedKey, mask: HeaderMask, action: Action, now: float
    ) -> tuple[bool, bool]:
        """Add an entry; returns (created_subtable, created_entry).

        A new mask creates a subtable at search index 0.  A duplicate
        (key, mask) only refreshes the entry's idle clock.
        """
        self._advance(now)
        fid = self.table.intern(SynthesizedFlow(key, mask, action))
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
        flow = self.synthesize(h)
        self.mfc_insert(flow.key, flow.mask, flow.action, now)
        self.emc.insert(h, flow.action)
        cost = emc_probes * c.c_emc + probed * c.c_sub + c.c_slow
        return ClassifyResult(flow.action, HitPath.SLOW, emc_probes, probed, cost)


def last_hits(cache: FlowCache) -> dict[tuple[MaskedKey, HeaderMask], float]:
    """Each live entry's (key, mask) and last hit, least recently hit first."""
    flows = cache.table.flows
    return {(flows[fid].key, flows[fid].mask): t for fid, t in cache._idle.items()}


def cache_state(cache: FlowCache):
    """Everything classification can change: subtables in order, EMC, live entries by last hit."""
    actions = {(k, m): a for k, m, a in cache.entries()}
    return (
        [(s.mask, s.size, s.interval_hits) for s in cache.subtables()],
        dict(cache.emc.slots),
        [(k, m, actions[k, m], t) for (k, m), t in last_hits(cache).items()],
    )
