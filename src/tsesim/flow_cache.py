"""Two-layer flow cache: exact-match cache plus a ranked megaflow tuple space.

Packets are priced as a sequential tuple-space search would price them: try
the exact-match cache (EMC), then probe the megaflow cache's subtables in
search order (one subtable per distinct wildcard mask), and fall back to the
slow path, whose result is cached.  The matching entry is found through
synthesis rather than by scanning, and charged the scan's probe count: each
ACL's megaflows are interned as ints in a `FlowTable`, and a packet arrives
with its megaflow's id.  The one record of a live megaflow is its id in a
list kept in last-hit order: an install appends, a hit moves the id to the
end, and expiry takes entries idle for the timeout from the front.  Key,
mask and action are read from the table; a subtable keeps its mask id and a
count.  Results are ids: new subtables' mask ids from `classify_batch`,
expired flow ids and removed mask ids from `expire`.

Each rule is written once: the synthesis walk in `FlowTable.flow_ids`, and
the EMC probe, the EMC fill and the megaflow install in the one pricing
loop, `FlowCache._price_runs`, which makes no Python call per run.  An EMC
slot holds a header's bits, and an EMC hit is one lookup in the set of
them.  `expire` deletes the idle list's front up to the first entry still
young.

A cache keeps one subtable per mask id it has installed.  A subtable is live
while it holds a megaflow; `expire` takes an emptied one out of the search
order, and the next install of its mask revives it first in the order, as
a brand-new subtable enters.  Subtables are re-ranked by per-interval hit
counts at each `rebalance`.  A subtable goes on the cache's hit list when
its count leaves 0, so a rebalance costs O(hit subtables + subtables
renumbered): the unhit ones keep their relative order and only move down.
"""

from __future__ import annotations

import operator
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Iterable

from .headers import HeaderValue, header_hash64
from .slowpath import Acl, Action

Run = tuple[HeaderValue, int, int]  # (header, flow_id(header), count) of back-to-back packets


@dataclass(frozen=True)
class CostModel:
    """Per-probe cost units; calibration knobs, not measurements."""

    c_emc: float = 1.0
    c_sub: float = 1.0
    c_slow: float = 50.0


class EmcCache:
    """Fixed-size direct-mapped exact-match cache; a slot holds a header's bits.

    A header hits when its slot holds its own bits: when its bits are in
    `resident`, the set of bits the slots hold.  Only a fill needs the slot,
    `header_hash64(h) % capacity`, computed once per distinct header and
    kept in `_slot_of` under its bits, as a datapath carries one hash per
    packet.  The memo is per instance, as the slot depends on `capacity`.
    """

    def __init__(self, capacity: int = 8192, enabled: bool = True):
        if capacity < 1:
            raise ValueError("EMC capacity must be >= 1")
        self.capacity = capacity
        self.enabled = enabled
        self.slots: dict[int, int] = {}  # slot -> header bits
        self.resident: set[int] = set()  # the header bits the slots hold
        self._slot_of: dict[int, int] = {}  # header bits (of the ACL's layout) -> slot


class FlowTable:
    """One ACL's megaflows: an int id per distinct key and per mask, in first-sight order.

    The table holds ints only: mask id, key bits and action per flow id, and
    mask bits per mask id.  A key names one synthesized flow: the header at
    the key's bits lies in every flow with that key, and synthesized flows
    are disjoint or identical.
    Synthesis depends only on the ACL and the header, so all caches and runs
    on one ACL object share its table (`of`) and synthesize a header once.
    No output depends on the ids, so none depends on what was interned before.
    """

    def __init__(self, acl: Acl):
        self.acl = acl
        self.mask_of: list[int] = []  # mask id by flow id
        self.key_of: list[int] = []  # key bits by flow id
        self.action_of: list[Action] = []  # by flow id
        self.mask_bits: list[int] = []  # by mask id
        self.mask_ids: dict[int, int] = {}  # mask bits -> mask id
        self._flow_ids: dict[int, int] = {}  # key bits -> flow id
        self._of_header: dict[int, int] = {}  # header bits (of the ACL's layout) -> flow id

    @staticmethod
    def of(acl: Acl) -> FlowTable:
        """The ACL's table, kept in the ACL object as `functools.cached_property` keeps values."""
        table = vars(acl).get("_flow_table")
        if table is None:
            table = vars(acl)["_flow_table"] = FlowTable(acl)
        return table

    def flow_id(self, h: HeaderValue) -> int:
        fid = self._of_header.get(h.bits)
        return self.flow_ids((h,))[0] if fid is None else fid

    def flow_ids(self, headers: Iterable[HeaderValue]) -> list[int]:
        """Each header's megaflow id, by the synthesis walk on first sight only.

        The walk takes rules in descending priority and a rule's constrained
        fields in layout order: a matching field is un-wildcarded whole; a
        mismatching one un-wildcards its prefix up to and including the first
        differing bit and abandons the rule.  The first rule matched in full
        ends the walk (the catch-all with a deny).  Only examined bits enter
        the mask, so the megaflow is as broad as the rules permit; its key
        is `bits & mask`.  Fields are packed first field highest, so a rule's
        walk is one lookup: the highest bit of `diff` is the first mismatch,
        and the walk examined the rule's mask bits at or above it,
        `prefix[diff.bit_length()]`.
        """
        known, flow_ids, packed = self._of_header, self._flow_ids, self.acl.packed
        mask_ids, mask_bits, mask_of = self.mask_ids, self.mask_bits, self.mask_of
        key_of, action_of, ids = self.key_of, self.action_of, []
        for h in headers:
            fid = known.get(bits := h.bits)
            if fid is None:
                acc = 0
                for m, value, r, prefix in packed:
                    diff = (bits ^ value) & m
                    if not diff:
                        break
                    acc |= prefix[diff.bit_length()]
                fid = flow_ids.get(key := bits & (m := acc | m))
                if fid is None:
                    fid = flow_ids[key] = len(key_of)
                    if (mid := mask_ids.setdefault(m, len(mask_bits))) == len(mask_bits):
                        mask_bits.append(m)
                    mask_of.append(mid)
                    key_of.append(key)
                    action_of.append(r.action)
                known[bits] = fid
            ids.append(fid)
        return ids


def synthesize_megaflow(h: HeaderValue, acl: Acl) -> tuple[int, int, Action]:
    """The (key bits, mask bits, action) megaflow of a header, read from the ACL's table."""
    table = FlowTable.of(acl)
    fid = table.flow_id(h)
    return table.key_of[fid], table.mask_bits[table.mask_of[fid]], table.action_of[fid]


@dataclass(eq=False)
class Subtable:
    mask_id: int
    size: int = 0  # live megaflows with this mask
    interval_hits: int = 0
    # While live: index in FlowCache._rev plus the cache's position offset.
    pos: int = 0


_by_pos = operator.attrgetter("pos")
_by_hits = operator.attrgetter("interval_hits")


@dataclass(slots=True)
class BatchResult:
    """Aggregate of one batch of classifications (engine fast path)."""

    packets: int = 0
    total_cost: float = 0.0
    slow_path: int = 0
    mfc_hits: int = 0
    emc_hits: int = 0
    created_masks: list[int] = field(default_factory=list)  # mask ids of new or revived subtables


class FlowCache:
    """One classifier instance: EMC, megaflow tuple space, slow-path ACL.

    Megaflows expire after `idle_timeout` idle seconds, fixed at 10 s as in
    Open vSwitch.  An instance expects one mutator at a time; run distinct
    instances for parallel experiments.  A method given a time `now` earlier
    than one already given raises ValueError.
    """

    idle_timeout = 10.0

    def __init__(
        self,
        acl: Acl,
        *,
        emc_enabled: bool = True,
        emc_capacity: int = 8192,
        costs: CostModel = CostModel(),
    ):
        self.table = FlowTable.of(acl)
        self.emc = EmcCache(emc_capacity, emc_enabled)
        self.costs = costs
        # Search order is reversed in storage: the last element of _rev is
        # probed first, so creating a subtable is an O(1) append that leaves
        # every existing position untouched.  A subtable's storage index is
        # `st.pos - _pos_offset`: expire removes subtables and renumbers only
        # the storage prefix up to the highest one removed, and raises the
        # offset to shift everything above it.
        self._rev: list[Subtable] = []
        self._pos_offset = 0
        # Every subtable ever installed, by mask id; the dead ones (size 0)
        # are out of storage and have no hits, and an install revives them.
        self._sub: dict[int, Subtable] = {}
        # Subtables whose interval hits left 0 since the last rebalance; one
        # that expired and came back after its hits may be listed twice.
        self._hits: list[Subtable] = []
        # Flow id -> last hit of each live megaflow, in last-hit order, oldest
        # first: a `now` below `_clock`, the latest one, is rejected.
        self._idle: OrderedDict[int, float] = OrderedDict()
        self._clock = float("-inf")

    # -- views -------------------------------------------------------------

    def subtables(self) -> list[Subtable]:
        """Subtables in search order (index 0 probed first)."""
        return self._rev[::-1]

    @property
    def subtable_count(self) -> int:
        return len(self._rev)

    @property
    def entry_count(self) -> int:
        return len(self._idle)

    def flow_id(self, h: HeaderValue) -> int:
        """The flow id of h's megaflow, the middle of a `(header, flow_id, count)` run."""
        return self.table.flow_id(h)

    # -- core operations -----------------------------------------------------

    def _advance(self, now: float) -> None:
        """Raise ValueError if `now` is earlier than a time already stamped."""
        if now < self._clock:
            raise ValueError(f"time went backwards: {now} < {self._clock}")
        self._clock = now

    def expire(self, now: float) -> tuple[list[int], list[int]]:
        """Remove entries idle for >= idle_timeout; take emptied subtables out of the order.

        Returns (expired flow ids in last-hit order, mask ids of the removed
        subtables).  An emptied subtable leaves storage with its interval
        hits zeroed and stays in the mask-id index for an install to revive.
        Costs O(expired + 1): the idle list is in last-hit order, so expiry
        reads it from the front up to the first entry still young, then
        deletes the entries before it.  Only the storage prefix up to the
        highest removed subtable is renumbered; expired subtables have gone
        unhit, so they rank last and sit low in storage.
        """
        self._advance(now)
        removed_entries: list[int] = []
        removed_masks: list[int] = []
        idle, sub = self._idle, self._sub
        mask_of, timeout = self.table.mask_of, self.idle_timeout
        offset = self._pos_offset
        top = -1  # highest storage index of a removed subtable
        for fid, last_hit in idle.items():
            # Not `last_hit <= now - timeout`: the two round differently.
            if not (last_hit + timeout <= now):
                break
            st = sub[mask_of[fid]]
            st.size -= 1
            removed_entries.append(fid)
            if not st.size:
                st.interval_hits = 0
                removed_masks.append(st.mask_id)
                top = max(top, st.pos - offset)
        for fid in removed_entries:
            del idle[fid]
        if removed_masks:
            kept = [st for st in self._rev[: top + 1] if st.size]
            self._rev[: top + 1] = kept
            self._pos_offset = offset = offset + top + 1 - len(kept)
            for i, st in enumerate(kept, start=offset):
                st.pos = i
        return removed_entries, removed_masks

    def rebalance(self, now: float) -> None:
        """Reorder subtables by interval hits (descending, stable) and reset counts.

        Storage is the search order reversed, so the result is storage
        stably sorted by hits, ascending: the unhit subtables in their
        storage order, then the hit ones by hits, ties in storage order.
        Only the hit list is sorted.  The hit subtables cut storage into
        unhit runs, and run j moves down by exactly j, so raising the
        position offset by j for the longest run leaves its positions as
        they are; only the other runs and the hit subtables are renumbered.
        Costs O(hit subtables + subtables renumbered).
        """
        self._advance(now)
        hit = [st for st in dict.fromkeys(self._hits) if st.interval_hits]
        self._hits.clear()
        if not hit:
            return
        rev, offset = self._rev, self._pos_offset
        hit.sort(key=_by_pos)
        new: list[Subtable] = []
        runs = []  # (length, start, j): unhit run j is rev[start:start + length], if not empty
        start = 0
        for j, st in enumerate(hit):
            end = st.pos - offset
            if start < end:
                new += rev[start:end]
                runs.append((end - start, start, j))
            start = end + 1
        if start < len(rev):
            new += rev[start:]
            runs.append((len(rev) - start, start, len(hit)))
        keep = max(runs)[2] if runs else 0
        self._pos_offset = offset = offset + keep
        for length, start, j in runs:
            if j != keep:
                for i, st in enumerate(rev[start:start + length], start - j + offset):
                    st.pos = i
        hit.sort(key=_by_hits)
        for i, st in enumerate(hit, len(new) + offset):
            st.pos = i
            st.interval_hits = 0
        new += hit
        self._rev = new

    # -- engine fast paths ---------------------------------------------------
    #
    # The batch path prices every packet against the megaflow state at batch
    # start (a packet classified while a megaflow install is still in flight
    # misses too), then applies all mutations; EMC inserts stay immediate.
    # Results are found through the synthesis shortcut: with all entries
    # derived from one ACL, a header's matching entry is exactly the one its
    # own synthesis would produce, so looking the packet's flow id up in the
    # last-hit list replaces the sequential probe while charging the same
    # probe count the scan would have.

    def classify_batch(self, runs: Iterable[Run], now: float) -> BatchResult:
        """Price runs `(header, flow_id(header), count)` of back-to-back identical packets.

        `runs` is read once, so a one-shot iterator does, and a run costs
        O(1).  With the EMC on, its first packet is classified like a lone
        packet, which leaves the header in the EMC, so the other count - 1
        are EMC hits.  With the EMC off, every packet of the run sees what
        the first saw: an MFC hit repeats count times (count interval hits),
        and a miss repeats count times (the install is not visible within the
        batch) with one install.  A run is charged count x its per-packet
        price; with integer-valued cost knobs, as the defaults and every
        calibration in use are, that equals the per-packet sum exactly.
        """
        self._advance(now)
        return self._price_runs(runs, now)

    def warm(self, headers: Iterable[HeaderValue], now: float) -> None:
        """Classify each header as a batch of its own, discarding the price.

        For traffic before the run (the victim's first packets), which is not
        attacker load and so stays out of `classify_batch`.
        """
        self._advance(now)
        for h in headers:
            self._price_runs(((h, self.flow_id(h), 1),), now)

    def probe_cost(self, runs: Iterable[Run]) -> float:
        """Total cost of classifying the runs right now, without mutating any state."""
        return self._price_runs(runs, self._clock, probe=True).total_cost

    def _price_runs(self, runs: Iterable[Run], now: float, probe: bool = False) -> BatchResult:
        """The one pricing path, one loop with no call per run; with `probe`, change nothing.

        An EMC hit is `bits in resident`; a fill finds the slot (memo, then
        `header_hash64`) and swaps the slot's old occupant out of `resident`.
        An install revives or creates the flow's subtable first in the order.
        """
        c = self.costs
        emc = self.emc
        emc_on = emc.enabled
        slots, resident, slot_of, capacity = emc.slots, emc.resident, emc._slot_of, emc.capacity
        idle, sub, rev = self._idle, self._sub, self._rev
        mask_of = self.table.mask_of
        move_to_end = idle.move_to_end
        list_hit = self._hits.append
        c_emc, c_sub = c.c_emc, c.c_sub
        emc_probe = (1 if emc_on else 0) * c_emc
        miss_cost = emc_probe + len(rev) * c_sub + c.c_slow
        # A subtable's 1-based search position at batch start is base - st.pos.
        offset = self._pos_offset
        base = len(rev) + offset
        packets = emc_hits = mfc_hits = slow_path = 0
        cost = 0.0
        created: list[int] = []
        batch_new: set[int] = set()  # flow ids installed by this batch
        for h, fid, count in runs:
            packets += count
            if emc_on:
                if (bits := h.bits) in resident:
                    emc_hits += count
                    cost += count * c_emc
                    continue
                rest, count = count - 1, 1
            if fid in idle and fid not in batch_new:
                st = sub[mask_of[fid]]
                mfc_hits += count
                cost += count * (emc_probe + (base - st.pos) * c_sub)
                if probe:
                    continue
                if not st.interval_hits:
                    list_hit(st)
                st.interval_hits += count
                idle[fid] = now
                move_to_end(fid)
            else:
                slow_path += count
                cost += count * miss_cost
                if probe:
                    continue
                if fid not in batch_new:  # then it is not live either
                    batch_new.add(fid)
                    st = sub.get(mid := mask_of[fid])
                    if st is None:
                        st = sub[mid] = Subtable(mid)
                    if not st.size:
                        st.pos = len(rev) + offset
                        rev.append(st)
                        created.append(mid)
                    st.size += 1
                    idle[fid] = now
            if emc_on:
                slot = slot_of.get(bits)
                if slot is None:
                    slot = slot_of[bits] = header_hash64(h) % capacity
                resident.discard(slots.get(slot))
                resident.add(bits)
                slots[slot] = bits
                if rest:
                    emc_hits += rest
                    cost += rest * c_emc
        return BatchResult(packets, cost, slow_path, mfc_hits, emc_hits, created)

    def credit_hits(self, flow_ids: Iterable[int], packets: int, now: float) -> None:
        """Credit `packets` hits to each live flow, in order, and refresh it; skip dead ids."""
        self._advance(now)
        if packets <= 0:
            return
        idle, sub, mask_of, list_hit = self._idle, self._sub, self.table.mask_of, self._hits.append
        for fid in flow_ids:
            if fid in idle:
                st = sub[mask_of[fid]]
                if not st.interval_hits:
                    list_hit(st)
                st.interval_hits += packets
                idle[fid] = now
                idle.move_to_end(fid)

    # -- introspection ---------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if the cache's bookkeeping disagrees with its contents.

        Checks that stored positions match storage, the mask-id index holds
        every subtable in storage, each stored subtable's size is the count
        of its live flows in the idle list (and not 0), an indexed subtable
        out of storage is dead (size 0, no hits), every stored subtable with
        hits is on the hit list, last hits are non-decreasing along the idle
        list, the EMC's `resident` is the set of bits its slots hold, and
        each slot's bits hash to that slot.
        """

        def require(ok: bool, what: str) -> None:
            if not ok:
                raise AssertionError(what)

        sizes = Counter(self.table.mask_of[fid] for fid in self._idle)  # by mask id
        listed = set(self._hits)
        for i, st in enumerate(self._rev):
            require(st.pos - self._pos_offset == i, f"subtable at storage {i} has pos {st.pos}")
            require(self._sub.get(st.mask_id) is st, f"subtable {i} not indexed by its mask id")
            n = sizes[st.mask_id]
            require(st.size == n > 0, f"subtable {i} has size {st.size} for {n} live flows")
            require(not st.interval_hits or st in listed,
                    f"subtable {i} has hits but is not on the hit list")
        stored = set(self._rev)
        for st in self._sub.values():
            require(st in stored or st.size == st.interval_hits == 0,
                    f"subtable of mask {st.mask_id} is out of storage with size {st.size}"
                    f" and {st.interval_hits} hits")
        require(sizes.keys() <= {st.mask_id for st in stored},
                "idle list holds a flow whose subtable is absent")
        hits = list(self._idle.values())
        require(all(a <= b for a, b in zip(hits, hits[1:])), "idle list is out of last-hit order")
        emc, layout, held = self.emc, self.table.acl.layout, set(self.emc.slots.values())
        require(not emc.resident - held, "EMC resident set holds bits that no slot holds")
        require(not held - emc.resident, "EMC resident set lacks bits that a slot holds")
        require(all(header_hash64(HeaderValue(layout, b)) % emc.capacity == s
                    for s, b in emc.slots.items()), "EMC slot holds bits that hash to another slot")

    def snapshot_lines(self) -> list[str]:
        """Search-order dump: one line per subtable with mask, size and hits.

        The mask prints per field in layout order, each as hex of its width.
        """
        layout = self.table.acl.layout
        columns = [(layout.slot(f.name), f"0{(f.width + 3) // 4}x") for f in layout.fields]
        lines = []
        for i, st in enumerate(self.subtables()):
            bits = self.table.mask_bits[st.mask_id]
            hexmask = "/".join(format(bits >> shift & full, fmt) for (shift, full), fmt in columns)
            lines.append(f"#{i} mask={hexmask} entries={st.size} hits={st.interval_hits}")
        return lines
