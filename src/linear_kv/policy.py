"""Line-guided progressive cache compression.

Compression runs at end-of-line synchronization points once the store has
filled its budget: split each layer's store into anchor / mid / recent
slices, score the mid slice of every kv head at once, evict exactly one
line's worth of the lowest-scoring entries per head, and leave one line of
headroom for the next line.

The default scorer softmaxes the logits the decoder computed at each step of
the current line over the mid-region keys only. Each key's saliency is its
mean attention mass under that softmax, so the scores form a probability
vector over eviction candidates. Keys the just-finished line did not look at
are the ones dropped before the next line starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import softmax_inplace
from .cache import VisualKVCache, drop_entries
from .errors import LinearKVError
from .grid import BudgetConfig, GridSpec


@dataclass(frozen=True)
class EvictionEvent:
    """One head's eviction at one line boundary, in raster positions."""

    line: int
    layer: int
    head: int
    evicted_positions: list[int]
    post_len: int


def saliency(guide_rows, mid_keys, scale: float | None = None) -> np.ndarray:
    """Mean attention mass each mid-region key receives from the guide rows.

    The softmax runs over the mid-region keys only, which makes the result a
    probability vector: elementwise in [0, 1] and summing to one regardless
    of how many guide rows vote. Leading axes batch: ``(h, rows, d)`` guides
    against ``(h, m, d)`` keys score ``h`` kv heads into ``(h, m)``.
    """
    guide = np.atleast_2d(np.asarray(guide_rows, dtype=np.float64))
    keys = np.atleast_2d(np.asarray(mid_keys, dtype=np.float64))
    if guide.shape[-2] == 0:
        raise LinearKVError("guide-queue-empty", "no guide queries to score with")
    if keys.shape[-2] == 0:
        raise LinearKVError("empty-mid-region", "no mid-region keys to score")
    if guide.shape[-1] != keys.shape[-1] or guide.shape[:-2] != keys.shape[:-2]:
        raise LinearKVError(
            "shape-mismatch", f"guide rows {guide.shape} vs mid keys {keys.shape}"
        )
    if scale is None:
        scale = 1.0 / math.sqrt(guide.shape[-1])
    if not (np.isfinite(guide).all() and np.isfinite(keys).all()):
        raise LinearKVError("non-finite-input", "guide rows or mid keys contain NaN or Inf")
    logits = (guide * scale) @ np.swapaxes(keys, -1, -2)
    return softmax_inplace(logits).mean(axis=-2)


def bottom_k(scores, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest scores, returned in ascending index order.

    Ties resolve to the smaller index; in store order that means the older
    raster position goes first. A 2-D input selects per row.
    """
    s = np.asarray(scores, dtype=np.float64)
    if k < 0:
        raise LinearKVError("negative-k", f"cannot select {k} entries")
    if k > s.shape[-1]:
        raise LinearKVError(
            "insufficient-mid-tokens", f"need {k} eviction candidates, have {s.shape[-1]}"
        )
    order = np.argsort(s, axis=-1, kind="stable")
    return np.sort(order[..., :k], axis=-1)


def should_compress(cfg: BudgetConfig, spec: GridSpec, line: int, head_len: int) -> bool:
    """True when the end of ``line`` (1-based) is a compression point.

    Never under a full budget, never before the store has filled, and never
    after the final line since nothing is generated next.
    """
    return cfg.rho < 1 and head_len >= cfg.budget and line < spec.height


class AttentionMassTracker:
    """Running attention mass received by each cached visual entry.

    Masses are raw sums from each entry's creation onward, with no age
    normalization, held per layer as ``(kv_heads, capacity)`` and shrunk in
    lockstep with the store on compaction.
    """

    def __init__(self, layers: int, kv_heads: int, capacity: int):
        # each slot is zeroed when its entry is appended
        self._mass = np.empty((layers, kv_heads, capacity))
        self._len = [0] * layers

    def add(self, layer: int, visual_mass: np.ndarray) -> None:
        n = self._len[layer]
        if visual_mass.shape != (self._mass.shape[1], n):
            raise LinearKVError(
                "mass-misaligned",
                f"mass row {visual_mass.shape} does not match the store "
                f"({self._mass.shape[1]}, {n}) of layer {layer}",
            )
        self._mass[layer, :, :n] += visual_mass

    def on_append(self, layer: int) -> None:
        n = self._len[layer]
        self._mass[layer, :, n] = 0.0
        self._len[layer] = n + 1

    def on_compact(self, layer: int, evict_idx) -> None:
        evict = np.asarray(evict_idx, dtype=np.int64)
        drop_entries((self._mass[layer],), self._len[layer], evict)
        self._len[layer] -= evict.shape[1]

    def mass(self, layer: int) -> np.ndarray:
        return self._mass[layer, :, : self._len[layer]]


class EvictionPolicy:
    """Owns per-stream scoring state and the end-of-line decision.

    The decoder feeds observations each step, one call per layer (the scaled
    logits, and attention rows when ``wants_attention`` is set), and calls
    :meth:`end_of_line` after each line's last append.
    """

    name = "?"
    wants_attention = False

    def bind(self, cache: VisualKVCache, spec: GridSpec, cfg: BudgetConfig, seed: int) -> None:
        self.cache = cache
        self.spec = spec
        self.cfg = cfg
        self.seed = seed

    def observe_logits(self, layer: int, position: int, logits: np.ndarray) -> None:
        """The ``(kv_heads, group, span)`` scaled logits of the step at
        ``position``, cond block first; the decoder softmaxes them in place."""

    # never called; perfbench/probes.py patches it by name
    def observe_queries(self, layer: int, position: int, queries) -> None:
        pass

    def observe_attention(self, layer: int, visual_mass: np.ndarray) -> None:
        pass

    def notify_append(self, layer: int) -> None:
        pass

    def end_of_line(self, cache: VisualKVCache, line: int) -> list[EvictionEvent] | None:
        """Compress when due; returns the eviction events, else None.

        A compression event runs over every layer: :meth:`select` must return
        one strictly increasing row of exactly one line's worth of store
        indices per kv head, drawn from the ``mid`` slice, and
        :meth:`shrink_state` lets scorers with per-entry state shrink in
        lockstep. Heads choose independently, so eviction sets differ across
        heads while every post-compaction length equals budget minus one line.
        """
        events = None
        if should_compress(self.cfg, self.spec, line, cache.visual_len(0, 0)):
            width = self.spec.width
            want = (cache.kv_heads, width)
            events = []
            for layer in range(cache.layers):
                mid = self.evictable_mid(cache, layer, line)
                evict = np.asarray(self.select(cache, line, layer, mid), dtype=np.int64)
                if evict.shape != want:
                    raise LinearKVError(
                        "eviction-size-mismatch",
                        f"selection shaped {evict.shape}, need {want}: exactly one line per "
                        f"kv head (layer {layer}, line {line})",
                    )
                positions = cache.compact(layer, mid, evict)
                self.shrink_state(layer, evict)
                post_len = cache.visual_len(layer, 0)
                events.extend(
                    EvictionEvent(line, layer, head, row, post_len)
                    for head, row in enumerate(positions.tolist())
                )
        self.line_boundary()
        return events

    def evictable_mid(self, cache: VisualKVCache, layer: int, line: int) -> slice:
        """The mid slice of ``layer`` at the end of ``line``, which must hold
        at least one line's worth of eviction candidates."""
        mid = cache.partition(layer, self.spec, self.cfg, line)
        if mid.stop - mid.start < self.spec.width:
            raise LinearKVError(
                "insufficient-mid-tokens",
                f"mid region holds {mid.stop - mid.start} entries, need {self.spec.width} "
                f"(layer {layer}, line {line})",
            )
        return mid

    def select(self, cache: VisualKVCache, line: int, layer: int, mid: slice) -> np.ndarray:
        """``(kv_heads, width)`` ascending store indices to evict from ``mid``."""
        raise NotImplementedError

    def shrink_state(self, layer: int, evict_idx) -> None:
        pass

    def line_boundary(self) -> None:
        pass


class FullCachePolicy(EvictionPolicy):
    """Reference behaviour: keep every entry, never compress."""

    name = "full"

    def end_of_line(self, cache, line):
        return None


class LineGuidedPolicy(EvictionPolicy):
    """Evict the mid-region keys least attended by the current line's queries."""

    name = "lineattn"

    def bind(self, cache, spec, cfg, seed):
        super().bind(cache, spec, cfg, seed)
        self.line_boundary()

    def observe_logits(self, layer, position, logits):
        width = self.spec.width
        if position % width == 0:
            # whether this line ends in a compression is known at its first
            # token: the store will hold one more line by then. The mid slice
            # is final too, since the line's appends land after its end
            line = position // width + 1
            if should_compress(self.cfg, self.spec, line, self.cache.visual_len(layer, 0) + width):
                mid = self.evictable_mid(self.cache, layer, line)
                self.mid[layer] = mid
                self.mass[layer] = np.zeros((self.cache.kv_heads, mid.stop - mid.start))
        mid = self.mid[layer]
        if mid is None:
            return
        cond = self.cache.cond_len
        probs = softmax_inplace(logits[:, :, cond + mid.start : cond + mid.stop].copy())
        # row by row in query order, the order saliency's mean adds them
        mass = self.mass[layer]
        for row in range(probs.shape[1]):
            mass += probs[:, row]
        self.rows[layer] += probs.shape[1]

    def select(self, cache, line, layer, mid):
        if mid != self.mid[layer]:
            raise LinearKVError(
                "line-not-scored",
                f"layer {layer} has no scores for line {line} over the mid slice {mid} "
                f"(scored: {self.mid[layer]})",
            )
        return mid.start + bottom_k(self.mass[layer] / self.rows[layer], self.spec.width)

    def line_boundary(self):
        layers = self.cache.layers
        self.mid = [None] * layers
        self.mass = [None] * layers
        self.rows = [0] * layers


class AccumulatedAttentionPolicy(EvictionPolicy):
    """Evict the mid-region entries with the least lifetime attention mass.

    The heavy-hitter (H2O) baseline; the ``attacc`` ablation arm runs it as
    the selection swap of the line-guided pipeline.
    """

    name = "h2o"
    wants_attention = True

    def bind(self, cache, spec, cfg, seed):
        super().bind(cache, spec, cfg, seed)
        self.tracker = AttentionMassTracker(cache.layers, cache.kv_heads, cache.capacity)

    def observe_attention(self, layer, visual_mass):
        self.tracker.add(layer, visual_mass)

    def notify_append(self, layer):
        self.tracker.on_append(layer)

    def select(self, cache, line, layer, mid):
        return mid.start + bottom_k(self.tracker.mass(layer)[:, mid], self.spec.width)

    def shrink_state(self, layer, evict_idx):
        self.tracker.on_compact(layer, evict_idx)
