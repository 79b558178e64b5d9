"""Line-guided progressive cache compression.

Compression runs at end-of-line synchronization points once the store has
filled its budget: score the mid slice of every kv head at once, evict
exactly one line's worth of the lowest-scoring entries per head, and leave
one line of headroom for the next line. The budget alone fixes which lines
compress and the one store slice they evict from (:class:`BudgetConfig`).

The default scorer reads the attention probabilities the decoder computed
at each step of the current line and renormalizes their mid-region columns,
which equals a softmax over the mid-region logits alone. Each key's
saliency is its mean mass under that distribution, so the scores form a
probability vector over eviction candidates. Keys the just-finished line
did not look at are the ones dropped before the next line starts.
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


class EvictionPolicy:
    """Owns per-stream scoring state and the end-of-line decision.

    The decoder hands every layer-step's attention probabilities to
    :meth:`observe_attention`, before that step's own entries are appended,
    and calls :meth:`end_of_line` after each line's last append.
    """

    name = "?"

    def bind(self, cache: VisualKVCache, spec: GridSpec, cfg: BudgetConfig, seed: int) -> None:
        self.cache = cache
        self.spec = spec
        self.cfg = cfg
        self.seed = seed
        self.lines = cfg.compression_lines(spec)

    def observe_attention(self, layer: int, probs: np.ndarray) -> None:
        """One step's ``(kv_heads, group, span)`` attention probabilities at
        ``layer``, cond block first; the decoder still reads them afterwards."""

    # never called; perfbench/probes.py patches them by name
    def observe_queries(self, layer: int, position: int, queries) -> None:
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
        if line in self.lines:
            want = (cache.kv_heads, self.spec.width)
            events = []
            for layer in range(cache.layers):
                mid = cache.partition(layer, self.spec, self.cfg, line)
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

    def bind(self, cache, spec, cfg, seed):
        super().bind(cache, spec, cfg, seed)
        # all of its keys are cached by the first token of a compressing line
        self.mid = cfg.evictable(spec) if self.lines else slice(0, 0)
        self.mass = np.empty((cache.layers, cache.kv_heads, self.mid.stop - self.mid.start))
        self.line_boundary()

    def observe_attention(self, layer, probs):
        # the step's position is the one after the layer's last append
        if (self.cache.last_position[layer] + 1) // self.spec.width + 1 not in self.lines:
            return
        mid, cond = self.mid, self.cache.cond_len
        p_mid = probs[:, :, cond + mid.start : cond + mid.stop]
        p_mid = p_mid / p_mid.sum(axis=-1, keepdims=True)
        # row by row in query order, the order saliency's mean adds them
        mass = self.mass[layer]
        for row in range(p_mid.shape[1]):
            mass += p_mid[:, row]
        self.rows[layer] += p_mid.shape[1]

    def select(self, cache, line, layer, mid):
        if not self.rows[layer] or mid != self.mid:
            raise LinearKVError(
                "line-not-scored",
                f"layer {layer}, line {line}: {self.rows[layer]} rows over {self.mid}, not {mid}",
            )
        return mid.start + bottom_k(self.mass[layer] / self.rows[layer], self.spec.width)

    def line_boundary(self):
        self.mass.fill(0.0)
        self.rows = [0] * self.cache.layers


class AccumulatedAttentionPolicy(EvictionPolicy):
    """Evict the mid-region entries with the least lifetime attention mass.

    The heavy-hitter (H2O) baseline; the ``attacc`` ablation arm runs it as
    the selection swap of the line-guided pipeline. ``mass`` holds raw sums
    since each entry's creation, aligned with the store; every slot past a
    store's length is zero, so an appended entry starts with none.
    """

    name = "h2o"

    def bind(self, cache, spec, cfg, seed):
        super().bind(cache, spec, cfg, seed)
        self.mass = np.zeros((cache.layers, cache.kv_heads, cache.capacity))

    def observe_attention(self, layer, probs):
        n, cond = self.cache.visual_len(layer, 0), self.cache.cond_len
        if probs.ndim != 3 or probs.shape[::2] != (self.cache.kv_heads, cond + n):
            raise LinearKVError(
                "mass-misaligned",
                f"attention {probs.shape} does not match the span "
                f"({self.cache.kv_heads}, group, {cond + n}) of layer {layer}",
            )
        self.mass[layer, :, :n] += probs[:, :, cond:].sum(axis=1)

    def select(self, cache, line, layer, mid):
        return mid.start + bottom_k(self.mass[layer, :, mid], self.spec.width)

    def shrink_state(self, layer, evict_idx):
        # the store has shrunk already; vacated slots must read zero again
        n = self.cache.visual_len(layer, 0)
        drop_entries((self.mass[layer],), n + evict_idx.shape[1], evict_idx)
        self.mass[layer, :, n:] = 0.0
