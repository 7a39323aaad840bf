"""Sequential-scan reference for the flow cache's pricing.

`SequentialCache.classify` handles one packet the way a tuple-space search
does: probe the EMC, then every subtable in search order with the header
masked by that subtable's mask, then the slow path.  `FlowCache` finds the
matching entry through synthesis instead and charges the probe count this
scan would have; the differential tests compare the two.  The scan shares
the cache's storage, expiry and ranking, which other tests check.
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
        for probed, st in enumerate(self.subtables(), start=1):
            entry = st.entries.get(apply_mask(h, st.mask))
            if entry is not None:
                st.interval_hits += 1
                self._refresh(entry, now)
                return entry.action, probed
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
        self._grow()
        mid = self.table.mask_of[fid]
        st = self._sub[mid]
        created = st is None
        if created:
            st = self._add_subtable(mid)
        entry = st.entries.get(key)
        if entry is not None:
            self._refresh(entry, now)
            return created, False
        self._add_entry(st, fid, now)
        return created, True

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


def cache_state(cache: FlowCache):
    """Everything classification can change: subtables in order, EMC, idle list."""
    return (
        [
            (
                s.mask,
                s.interval_hits,
                {k: (e.action, e.last_hit) for k, e in s.entries.items()},
            )
            for s in cache.subtables()
        ],
        dict(cache.emc.slots),
        cache.entry_count,
        [(e.key, st.mask, e.last_hit) for e, st in cache._idle.items()],
    )
