"""Line-guided progressive cache compression.

Compression runs at end-of-line synchronization points once the store has
filled its budget: split each layer's store into anchor / mid / recent
slices, score the mid slice of every kv head at once, evict exactly one
line's worth of the lowest-scoring entries per head, and leave one line of
headroom for the next line.

The default scorer replays the queries collected while the current line was
generated against the mid-region keys. Each key's saliency is its mean
attention mass under a softmax restricted to the mid region, so the scores
form a probability vector over eviction candidates. Keys the just-finished
line did not look at are the ones dropped before the next line starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


class GuideQueue:
    """Queries of the line currently being generated, one dense block per layer.

    Each layer's block is ``(kv_heads, width * group, d)``: with grouped-query
    attention each kv head receives the rows of all query heads in its
    group, so one generated token fills ``group`` rows of every kv head. It
    holds at most one line of tokens and is cleared at every line boundary.
    """

    def __init__(self, layers: int, kv_heads: int, group: int, width: int, head_dim: int):
        self.group = group
        self.width = width
        self.rows = np.empty((layers, kv_heads, width * group, head_dim))
        self.tokens = [0] * layers

    def push(self, layer: int, queries) -> None:
        """Add one token's ``(kv_heads * group, d)`` query rows to ``layer``."""
        n = self.tokens[layer]
        if n == self.width:
            raise LinearKVError(
                "guide-queue-overflow", f"layer {layer} already holds {n} tokens, one line"
            )
        block = self.rows[layer]
        g = self.group
        block[:, n * g : (n + 1) * g] = np.reshape(queries, (block.shape[0], g, -1))
        self.tokens[layer] = n + 1

    def count(self, layer: int) -> int:
        return self.tokens[layer]

    def matrix(self, layer: int) -> np.ndarray:
        n = self.tokens[layer]
        if n == 0:
            raise LinearKVError("guide-queue-empty", f"layer {layer}")
        return self.rows[layer, :, : n * self.group]

    def clear(self) -> None:
        self.tokens = [0] * len(self.tokens)


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
    # one logits allocation for the whole scoring pass; the softmax runs
    # in place with the same operation order as softmax_rows
    logits = (guide * scale) @ np.swapaxes(keys, -1, -2)
    np.subtract(logits, logits.max(axis=-1, keepdims=True), out=logits)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits.mean(axis=-2)


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

    The decoder feeds observations each step, one call per layer (queries
    and/or attention rows, depending on the ``wants_*`` flags), and calls
    :meth:`end_of_line` after each line's last append.
    """

    name = "?"
    wants_queries = False
    wants_attention = False

    def bind(
        self,
        cache: VisualKVCache,
        group_size: int,
        spec: GridSpec,
        cfg: BudgetConfig,
        seed: int,
    ) -> None:
        self.cache = cache
        self.spec = spec
        self.cfg = cfg
        self.seed = seed

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
                mid = cache.partition(layer, self.spec, self.cfg, line)
                if mid.stop - mid.start < width:
                    raise LinearKVError(
                        "insufficient-mid-tokens",
                        f"mid region holds {mid.stop - mid.start} entries, need {width} "
                        f"(layer {layer}, line {line})",
                    )
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
    wants_queries = True

    def bind(self, cache, group_size, spec, cfg, seed):
        super().bind(cache, group_size, spec, cfg, seed)
        self.guide = GuideQueue(
            cache.layers, cache.kv_heads, group_size, spec.width, cache.head_dim
        )
        self.filling = [False] * cache.layers

    def observe_queries(self, layer, position, queries):
        # whether this line ends in a compression is known at its first
        # token: the store will hold one more line by then
        width = self.spec.width
        if position % width == 0:
            self.filling[layer] = should_compress(
                self.cfg, self.spec, position // width + 1,
                self.cache.visual_len(layer, 0) + width,
            )
        if self.filling[layer]:
            self.guide.push(layer, queries)

    def select(self, cache, line, layer, mid):
        scores = saliency(self.guide.matrix(layer), cache.keys(layer)[:, mid])
        return mid.start + bottom_k(scores, self.spec.width)

    def line_boundary(self):
        self.guide.clear()


class AccumulatedAttentionPolicy(EvictionPolicy):
    """Evict the mid-region entries with the least lifetime attention mass.

    The heavy-hitter (H2O) baseline; the ``attacc`` ablation arm runs it as
    the selection swap of the line-guided pipeline.
    """

    name = "h2o"
    wants_attention = True

    def bind(self, cache, group_size, spec, cfg, seed):
        super().bind(cache, group_size, spec, cfg, seed)
        self.tracker = AttentionMassTracker(cache.layers, cache.kv_heads, cache.capacity)

    def observe_attention(self, layer, visual_mass):
        self.tracker.add(layer, visual_mass)

    def notify_append(self, layer):
        self.tracker.on_append(layer)

    def select(self, cache, line, layer, mid):
        return mid.start + bottom_k(self.tracker.mass(layer)[:, mid], self.spec.width)

    def shrink_state(self, layer, evict_idx):
        self.tracker.on_compact(layer, evict_idx)
