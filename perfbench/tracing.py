"""Spans and counts recorded around calls into tsesim, from outside the package.

`Tracer.install()` replaces public functions and methods with wrappers and
`Tracer.restore()` puts the originals back.  A module-level function is
replaced where its caller looks it up: `flow_cache` imports
`synthesize_megaflow` and `header_hash64` by name, so those two are patched in
`tsesim.flow_cache`, not in the modules that define them.

A span wrapper (tick-level and coarser calls) records
[name, start, end, parent, run id] in memory.  A leaf wrapper, for calls made
once per packet or per synthesis-memo miss, adds its time to the innermost
open span instead, so memory stays bounded on million-packet runs.  With
`timed=False` only the counting hooks on `classify_batch` and `expire` are
installed, two extra Python calls per tick: that is how untraced runs still
get exact counts.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from workloads import attack, engine

from tsesim import flow_cache
from tsesim.flow_cache import FlowCache

# (owner, attribute, span name)
SPANS = (
    (attack, "build_trace", "attack.build_trace"),
    (engine, "MaskBatches", "engine.mask_batches"),
    (engine, "victim_cost_probe", "engine.victim_cost_probe"),
    (FlowCache, "classify_batch", "flow_cache.classify_batch"),
    (FlowCache, "expire", "flow_cache.expire"),
    (FlowCache, "rebalance", "flow_cache.rebalance"),
    (engine, "series_to_csv", "engine.export"),
    (engine, "metrics_to_lines", "engine.export"),
    (engine, "cachemap_to_csv", "engine.export"),
)
LEAVES = (
    (flow_cache, "synthesize_megaflow", "slowpath.synthesize_megaflow"),
    (flow_cache, "header_hash64", "headers.header_hash64"),
)
COUNTED = ("classify_batch", "expire")  # FlowCache methods hooked in untraced runs too


class Tracer:
    def __init__(self, timed: bool, run_id: int = 0):
        self.timed = timed
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or None, run id]
        self.leaf_time: dict[tuple, float] = defaultdict(float)  # (parent, name) -> s
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- counts taken from results ------------------------------------------

    def _after_classify_batch(self, cache, res) -> None:
        c = self.counts
        c["packets"] += res.packets
        c["emc_hits"] += res.emc_hits
        c["mfc_hits"] += res.mfc_hits
        c["slow_path"] += res.slow_path
        c["masks_created"] += len(res.created_masks)
        c["cost_units"] += res.total_cost
        c["subtables_peak"] = max(c["subtables_peak"], cache.subtable_count)

    def _after_expire(self, cache, res) -> None:
        self.counts["entries_expired"] += len(res[0])
        self.counts["masks_expired"] += len(res[1])

    def _after_rebalance(self, cache, res) -> None:
        self.counts["rebalances"] += 1
        self.counts["rebalance_subtables"] += cache.subtable_count

    # -- spans --------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Record one span around a block; spans opened inside it are its children."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _spanned(self, fn, name, after):
        def spanned(*args, **kwargs):
            with self.span(name):
                res = fn(*args, **kwargs)
            if after is not None:
                after(args[0], res)
            return res

        return spanned

    def _leaf(self, fn, name):
        leaf_time, counts, stack, clock = self.leaf_time, self.counts, self._stack, time.perf_counter
        calls = name + ".calls"

        def leaf(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leaf_time[(stack[-1] if stack else None, name)] += clock() - start
                counts[calls] += 1

        return leaf

    @staticmethod
    def _counting(fn, after):
        def counted(cache, *args, **kwargs):
            res = fn(cache, *args, **kwargs)
            after(cache, res)
            return res

        return counted

    # -- install / restore --------------------------------------------------

    def _patch(self, owner, attr, wrap, *args) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original, *args))

    def install(self) -> None:
        after = {
            "classify_batch": self._after_classify_batch,
            "expire": self._after_expire,
            "rebalance": self._after_rebalance,
        }
        if not self.timed:
            for attr in COUNTED:
                self._patch(FlowCache, attr, self._counting, after[attr])
            return
        for owner, attr, name in SPANS:
            self._patch(owner, attr, self._spanned, name, after.get(attr))
        for owner, attr, name in LEAVES:
            self._patch(owner, attr, self._leaf, name)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reports ------------------------------------------------------------

    def self_times(self, root: int) -> dict[str, float]:
        """Self time per span or leaf name over the subtree of span `root`.

        A span's self time is its duration minus its child spans and the leaf
        calls made directly inside it; the values sum to the root's duration.
        """
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][3] in inside:
                inside.add(i)
        out: dict[str, float] = defaultdict(float)
        for i in inside:
            name, start, end, parent, _ = self.spans[i]
            out[name] += end - start
            if i != root:
                out[self.spans[parent][0]] -= end - start
        for (parent, name), seconds in self.leaf_time.items():
            if parent in inside:
                out[name] += seconds
                out[self.spans[parent][0]] -= seconds
        return dict(out)

    def durations_ms(self, name: str) -> list[float]:
        return [(s[2] - s[1]) * 1000.0 for s in self.spans if s[0] == name]
