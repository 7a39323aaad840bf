"""Two-layer flow cache: exact-match cache plus a ranked megaflow tuple space.

Packets are priced as a sequential tuple-space search would price them: try
the exact-match cache (EMC), then probe the megaflow cache's subtables in
search order (one subtable per distinct wildcard mask), and fall back to the
slow path, whose result is cached.  The matching entry is found through
synthesis rather than by scanning, and charged the scan's probe count: each
ACL's megaflows are interned as ints in a `FlowTable`, and a packet arrives
with its megaflow's id.  The one record of a live megaflow is its id in a
list kept in last-hit order: an install appends, a hit moves the id to the
end, and expiry takes entries idle for the timeout from the front.  A
flow's mask is read from the table, and a subtable's state from the
cache's columns indexed by mask id.  No flow's action is kept: pricing
counts probes and never reads one.  Results are ids: new subtables' mask
ids from `classify_batch`, expired flow ids and removed mask ids from
`expire`.

Each rule is written once: the synthesis walk in `FlowTable.flow_ids`, and
the EMC probe, the EMC fill and the megaflow install in the one pricing
loop, `FlowCache._price_runs`, which makes no Python call per run.  A batch
is counted, then priced: the loop tallies the counters of OVS's
`pmd-stats-show` (emc hits, megaflow hits, subtable lookups of the megaflow
hits, miss with success upcall), and the price is one linear function of
them.  An EMC slot holds a header's bits, and an EMC hit is one lookup in
the set of them.  `expire` deletes the idle list's front up to the first
entry still young.

A trace compiles to flow ids in one pass of `FlowTable.flow_ids`, whose
walk splits at the layout's last field.  Probe traces vary that field
fastest, so 94.1% of positions in the `dp`, `sp_dp` and `sip_sp_dp` traces
repeat the previous header in every field above it; a run of such headers
walks those fields once, and then tests only the rules still open on the
last field.  The table memoizes whole compiled traces, not headers.

Neither a subtable nor the EMC is a Python object of its own.  The cache
keeps subtable state in columns keyed by the table's dense mask ids, one
each for the stored order, the position, the live megaflow count and the
hits since the last rebalance, and the EMC as its slots, the set of bits
they hold and a slot memo.  The cache has no views of this state; the
tests' oracle (`tests/oracle_cache.py`) reads it and checks its invariants.
A subtable is live while it holds a megaflow; `expire` takes an emptied one
out of the search order and drops its hits, and the next install of its
mask puts it first in the order, as a brand-new subtable enters.
Subtables are re-ranked by per-interval hit counts at each `rebalance`.
Only masks hit since the last rebalance have a hit count, so those counts'
keys are the hit subtables; the unhit ones keep their relative order and
only move down.  A rebalance costs O(hit subtables) in C calls, O(log hit
subtables) Python steps per block of hit subtables stored side by side,
and O(subtables renumbered); it edits storage in place when that moves
few stored ids.
"""

from __future__ import annotations

from collections import OrderedDict
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


class FlowTable:
    """One ACL's megaflows: an int id per distinct key and per mask, in first-sight order.

    The table holds ints only: mask id per flow id, mask bits per mask id,
    and flow id per key bits, in `_flow_ids`, whose keys are in id order.  A
    key names one synthesized flow: the header at the key's bits lies in
    every flow with that key, and synthesized flows are disjoint or identical.
    Synthesis depends only on the ACL and the header, so all caches and runs
    on one ACL object share its table (`of`).  The table memoizes whole
    compiled traces (`trace_ids`), not headers: sweep cells share one trace
    object, so a sweep compiles its trace once, and a lone `flow_id` walks.
    No output depends on the ids, so none depends on what was interned before.
    """

    def __init__(self, acl: Acl):
        self.acl = acl
        self.mask_of: list[int] = []  # mask id by flow id
        self.mask_bits: list[int] = []  # by mask id
        self.mask_ids: dict[int, int] = {}  # mask bits -> mask id
        self._flow_ids: dict[int, int] = {}  # key bits -> flow id
        self._last = acl.layout.fields[-1].full_mask  # the last field's bits, the lowest
        # id of a trace's packet tuple -> (that tuple, its flow ids); holding
        # the tuple keeps its id from naming another object.
        self._traces: dict[int, tuple[tuple[HeaderValue, ...], list[int]]] = {}

    @staticmethod
    def of(acl: Acl) -> FlowTable:
        """The ACL's table, kept in the ACL object as `functools.cached_property` keeps values."""
        table = vars(acl).get("_flow_table")
        if table is None:
            table = vars(acl)["_flow_table"] = FlowTable(acl)
        return table

    def flow_id(self, h: HeaderValue) -> int:
        return self.flow_ids((h,))[0]

    def trace_ids(self, packets: tuple[HeaderValue, ...]) -> list[int]:
        """`flow_ids(packets)`, compiled once per packet tuple; callers must not mutate it."""
        compiled = self._traces.get(id(packets))
        if compiled is None:
            compiled = self._traces[id(packets)] = packets, self.flow_ids(packets)
        return compiled[1]

    def flow_ids(self, headers: Iterable[HeaderValue]) -> list[int]:
        """Each header's megaflow id, by the synthesis walk.

        The walk takes rules in descending priority and a rule's constrained
        fields in layout order: a matching field is un-wildcarded whole; a
        mismatching one un-wildcards its prefix up to and including the first
        differing bit and abandons the rule.  The first rule matched in full
        ends the walk (the catch-all with a deny).  Only examined bits enter
        the mask, so the megaflow is as broad as the rules permit; its key
        is `bits & mask`.  Fields are packed first field highest, so a rule's
        walk is one lookup: the highest bit of `diff` is the first mismatch,
        and the walk examined the rule's mask bits at or above it,
        `prefix[diff.bit_length()]`.  A walk that ends at a rule ORs the
        rule's `decided` into the prefixes it took; for a rule of the ACL,
        that is the rule's mask.

        The walk splits at the layout's last field.  The fields above it
        decide most of the walk, and a probe trace varies its last field
        fastest: in the `dp`, `sp_dp` and `sip_sp_dp` traces, 94.1% of
        positions repeat the previous header in every upper field.  The
        first header of such a run walks the ACL's rules; the second reduces
        them, once for the run, to the few whose last field is still to test
        (`_open_rules`), and it and the rest of the run walk only those.  A
        trace whose consecutive headers differ above the last field walks
        the ACL's rules at every position.
        """
        flow_ids, whole, last = self._flow_ids, self.acl.packed, self._last
        shift = last.bit_length()
        mask_ids, mask_bits, mask_of = self.mask_ids, self.mask_bits, self.mask_of
        ids, flows, masks = [], len(mask_of), len(mask_bits)
        upper, rules = -1, whole
        for h in headers:
            if (bits := h.bits) >> shift != upper:
                upper, rules = bits >> shift, whole
            elif rules is whole:
                rules = self._open_rules(bits)
            acc = 0
            for m, value, prefix, decided in rules:
                diff = (bits ^ value) & m
                if not diff:
                    break
                acc |= prefix[diff.bit_length()]
            if (fid := flow_ids.setdefault(bits & (m := acc | decided), flows)) == flows:
                flows += 1
                if (mid := mask_ids.setdefault(m, masks)) == masks:
                    masks += 1
                    mask_bits.append(m)
                mask_of.append(mid)
            ids.append(fid)
        return ids

    def _open_rules(self, bits: int) -> list[tuple[int, int, tuple[int, ...], int]]:
        """The ACL's rules as a header with these upper fields walks them, on its last field alone.

        A rule abandoned above the last field leaves only its prefix.  A rule
        whose upper fields all match is open: it is kept as its last-field
        mask and value, prefix and `decided`, which holds the prefixes
        of the rules abandoned before it, the upper masks of the open rules
        up to it and its own last-field mask.  The list ends at the first
        open rule without a last-field constraint, which every such header
        matches.
        """
        last, acc, rules = self._last, 0, []
        for m, value, prefix, _ in self.acl.packed:
            diff = (bits ^ value) & m
            if diff > last:
                acc |= prefix[diff.bit_length()]
                continue
            low = m & last
            acc |= m ^ low
            rules.append((low, value & last, prefix, acc | low))
            if not low:
                break
        return rules


def synthesize_megaflow(h: HeaderValue, acl: Acl) -> tuple[int, int, Action]:
    """h's (key bits, mask bits, action): its flow's mask and the first matching rule's action."""
    table = FlowTable.of(acl)
    mask = table.mask_bits[table.mask_of[table.flow_id(h)]]
    action = next(r.action for r, (m, v, *_) in zip(acl.rules, acl.packed) if h.bits & m == v)
    return h.bits & mask, mask, action


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
        if emc_capacity < 1:
            raise ValueError("EMC capacity must be >= 1")
        self.table = FlowTable.of(acl)
        self.costs = costs
        # The EMC, direct-mapped: a header hits when its slot holds its own
        # bits, that is when its bits are in _resident, the set of bits the
        # slots hold.  Only a fill needs the slot, `header_hash64(h) %
        # emc_capacity`, computed once per distinct header and kept in
        # _slot_of under its bits, as a datapath carries one hash per packet.
        self.emc_enabled = emc_enabled
        self.emc_capacity = emc_capacity
        self._emc_slots: dict[int, int] = {}  # slot -> header bits
        self._resident: set[int] = set()  # the header bits the slots hold
        self._slot_of: dict[int, int] = {}  # header bits -> slot
        # Subtable state, in columns keyed by mask id.  _rev holds the live
        # masks in search order reversed: its last mask is probed first, so
        # creating a subtable is an O(1) append that leaves every existing
        # position untouched.  A stored mask's storage index is
        # `_pos[mid] - _pos_offset`: expire removes masks and renumbers only
        # the storage prefix up to the highest one removed, and raises the
        # offset to shift everything above it.  A mask out of storage may
        # keep a stale _pos entry, which nothing reads.
        self._rev: list[int] = []
        self._pos: dict[int, int] = {}
        self._pos_offset = 0
        # Live megaflows by mask id, 0 out of storage; an install of a mask
        # id past its end grows it to the table's mask count.
        self._size: list[int] = []
        # Hits since the last rebalance, by mask id, of stored masks only:
        # its keys are the hit subtables.  expire pops a mask it empties.
        self._hits: dict[int, int] = {}
        # Flow id -> last hit of each live megaflow, in last-hit order, oldest
        # first: a `now` below `_clock`, the latest one, is rejected.
        self._idle: OrderedDict[int, float] = OrderedDict()
        self._clock = float("-inf")

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
        subtables).  An emptied subtable's mask leaves storage and the hit
        counts, with size 0 for an install to revive.
        Costs O(expired + 1): the idle list is in last-hit order, so expiry
        reads it from the front up to the first entry still young, then
        deletes the entries before it.  Only the storage prefix up to the
        highest removed mask is renumbered; expired subtables have gone
        unhit, so they rank last and sit low in storage.
        """
        self._advance(now)
        removed_entries: list[int] = []
        removed_masks: list[int] = []
        idle, size, hits = self._idle, self._size, self._hits
        mask_of, timeout = self.table.mask_of, self.idle_timeout
        for fid, last_hit in idle.items():
            # Not `last_hit <= now - timeout`: the two round differently.
            if not (last_hit + timeout <= now):
                break
            removed_entries.append(fid)
            size[mid := mask_of[fid]] -= 1
            if not size[mid]:
                hits.pop(mid, None)
                removed_masks.append(mid)
        for fid in removed_entries:
            del idle[fid]
        if removed_masks:
            rev, pos, offset = self._rev, self._pos, self._pos_offset
            top = max(map(pos.__getitem__, removed_masks)) - offset + 1  # prefix to renumber
            kept = list(filter(size.__getitem__, rev[:top]))
            rev[:top] = kept
            self._pos_offset = offset = offset + top - len(kept)
            pos.update(zip(kept, range(offset, offset + len(kept))))
        return removed_entries, removed_masks

    def rebalance(self, now: float) -> None:
        """Reorder subtables by interval hits (descending, stable) and reset counts.

        Storage is the search order reversed, so the result is storage
        stably sorted by hits, ascending: the unhit masks in their storage
        order, then the hit ones by hits, ties in storage order.  Only the
        hit masks are sorted.  They sit in blocks, maximal runs of hit masks
        stored side by side, found by galloping along the sorted hits; the
        blocks cut storage into unhit runs, and a run with j hit masks below
        it moves down by exactly j, so raising the position offset by j for
        the longest run leaves its positions as they are.  The unhit
        masks below that run, and those above it with the hit masks, are
        renumbered in one `dict.update` each.  Storage is edited in place,
        deleting blocks top first, when that moves no more stored ids than
        a rebuild copies (each unhit one twice: into a slice, then into the
        new list); otherwise it is rebuilt from its unhit runs.  Costs
        O(hit subtables) in C, O(blocks x log hit subtables) Python steps,
        and O(subtables renumbered).
        """
        self._advance(now)
        hits = self._hits
        if not hits:
            return
        rev, pos, offset = self._rev, self._pos, self._pos_offset
        hit = sorted(hits, key=pos.__getitem__)
        n, k = len(rev), len(hit)
        unhit = n - k
        blocks = []  # (a, b, c): hit[a:b] is a block with c unhit masks stored below it
        a = moved = 0
        while a < k:
            p = pos[hit[a]] - a  # the same for every hit in a's block, larger above it
            last, step = a, 1  # hit[last] is in the block; gallop, then bisect, for its end b
            while last + step < k and pos[hit[last + step]] - last - step == p:
                last, step = last + step, step + step
            b = min(last + step, k)
            while b - last > 1:
                mid = (last + b) // 2
                last, b = (mid, b) if pos[hit[mid]] - mid == p else (last, mid)
            blocks.append((a, b, c := p - offset))
            moved += unhit - c  # what deleting this block moves, the blocks above it gone
            a = b
        keep = lo = hi = below = 0  # the longest unhit run: hits below it, new span [lo, hi)
        for a, _, c in blocks + [(k, k, unhit)]:
            if below < c and c - below >= hi - lo:
                keep, lo, hi = a, below, c
            below = c
        if moved <= 2 * unhit:
            for a, b, c in reversed(blocks):
                del rev[c + a:c + b]
        else:
            new, start = [], 0
            for a, b, c in blocks:
                new += rev[start:c + a]
                start = c + b
            new += rev[start:]
            self._rev = rev = new
        hit.sort(key=hits.__getitem__)
        rev += hit
        self._pos_offset = offset = offset + keep
        pos.update(zip(rev[:lo], range(offset, offset + lo)))
        pos.update(zip(rev[hi:], range(offset + hi, offset + n)))
        hits.clear()

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
        batch) with one install.  The batch is counted, then priced: with n0
        the subtables at batch start, and subtable lookups the sum of the
        megaflow hits' 1-based search positions,

            total_cost = c_emc * (emc hits + [EMC on] * (megaflow hits + misses))
                       + c_sub * (subtable lookups + misses * n0)
                       + c_slow * misses

        which is the per-packet sum.  With whole-number cost knobs, as the
        defaults and every calibration in use are, each term is a whole
        number, exact in a float below 2**53, so the price does not depend
        on the order of summing.
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
        """What classifying each run alone right now would cost, summed; changes no state.

        Each run is priced on its own, against the cache as it stands at the
        call.  Within a run, the first packet fills the EMC for the rest, as
        in `classify_batch`; an EMC fill by an earlier run of the same probe
        is not seen.  So a probe of a header's run twice costs twice the
        probe of one, where `classify_batch` would price the second run as
        EMC hits.  The engine probes one run per victim flow.
        """
        return self._price_runs(runs, self._clock, probe=True).total_cost

    def _price_runs(self, runs: Iterable[Run], now: float, probe: bool = False) -> BatchResult:
        """The one pricing path, one loop with no call per run; with `probe`, change nothing.

        The loop only counts, in ints: EMC hits, megaflow hits, misses and
        subtable lookups (count x the search position at batch start, over
        the megaflow hits); `classify_batch` gives the price they make.  An
        EMC hit is `bits in resident`; a fill finds the slot (memo, then
        `header_hash64`) and swaps the slot's old occupant out of `resident`.
        An install revives or creates the flow's subtable first in the order.
        """
        emc_on, capacity = self.emc_enabled, self.emc_capacity
        slots, resident, slot_of = self._emc_slots, self._resident, self._slot_of
        idle, rev, pos, size, hits = self._idle, self._rev, self._pos, self._size, self._hits
        mask_of, mask_bits = self.table.mask_of, self.table.mask_bits
        move_to_end, hits_of = idle.move_to_end, hits.get
        # A stored mask's 1-based search position at batch start is base - pos[mid].
        n0, offset = len(rev), self._pos_offset
        base = n0 + offset
        emc_hits = mfc_hits = slow_path = lookups = 0
        created: list[int] = []
        batch_new: set[int] = set()  # flow ids installed by this batch
        for h, fid, count in runs:
            if emc_on:
                if (bits := h.bits) in resident:
                    emc_hits += count
                    continue
                emc_hits += count - 1  # the first packet fills the EMC for the rest
                count = 1
            if fid in idle and fid not in batch_new:
                mid = mask_of[fid]
                mfc_hits += count
                lookups += count * (base - pos[mid])
                if probe:
                    continue
                hits[mid] = hits_of(mid, 0) + count
                idle[fid] = now
                move_to_end(fid)
            else:
                slow_path += count
                if probe:
                    continue
                if fid not in batch_new:  # then it is not live either
                    batch_new.add(fid)
                    if (mid := mask_of[fid]) >= len(size):
                        size.extend([0] * (len(mask_bits) - len(size)))
                    if not size[mid]:
                        pos[mid] = len(rev) + offset
                        rev.append(mid)
                        created.append(mid)
                    size[mid] += 1
                    idle[fid] = now
            if emc_on:
                slot = slot_of.get(bits)
                if slot is None:
                    slot = slot_of[bits] = header_hash64(h) % capacity
                resident.discard(slots.get(slot))
                resident.add(bits)
                slots[slot] = bits
        packets, c = emc_hits + mfc_hits + slow_path, self.costs
        cost = (c.c_emc * (packets if emc_on else 0) + c.c_sub * (lookups + slow_path * n0)
                + c.c_slow * slow_path)
        return BatchResult(packets, cost, slow_path, mfc_hits, emc_hits, created)

    def credit_hits(self, flow_ids: Iterable[int], packets: int, now: float) -> None:
        """Credit `packets` hits to each live flow, in order, and refresh it; skip dead ids."""
        self._advance(now)
        if packets <= 0:
            return
        idle, mask_of, hits = self._idle, self.table.mask_of, self._hits
        hits_of = hits.get
        for fid in flow_ids:
            if fid in idle:
                mid = mask_of[fid]
                hits[mid] = hits_of(mid, 0) + packets
                idle[fid] = now
                idle.move_to_end(fid)
