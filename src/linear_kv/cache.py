"""Dense per-layer visual KV store with raster positions and physical compaction.

Each layer owns one fixed-capacity block per array: keys and values of shape
``(kv_heads, cond_len + capacity, head_dim)`` and positions of shape
``(kv_heads, capacity)``, with one length shared by the layer's kv heads.
Heads may evict different entries, but every head evicts the same number,
so their lengths never diverge. The conditional block is the prefix of the
key and value arrays: before the first append, :meth:`VisualKVCache.span`
is exactly that block, and prefill writes it there. Nothing writes it
afterwards, since appends land after it and eviction indices count from its
end, so no index can reach it. Positions are original raster indices and stay
strictly increasing through any append/compact sequence. Every compression
finds the store exactly full, so the anchor / mid / recent split is one
fixed pair of slice bounds, the same for every layer, head and line.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, LinearKVError
from .grid import BudgetConfig, GridSpec

SNAPSHOT_SCHEMA = 1


def drop_entries(stores, stop: int, evict: np.ndarray) -> None:
    """Delete per-row store indices from every array in ``stores``, in place.

    Axis 1 of each array is the store axis, filled up to ``stop``. ``evict``
    holds one strictly increasing row of indices per kv head; the survivors
    keep their order and shift down over the gaps with one masked gather per
    array, starting at the first evicted index.
    """
    rows, k = evict.shape
    if k == 0:
        return
    start = int(evict[:, 0].min())
    keep = np.ones((rows, stop - start), dtype=bool)
    keep[np.arange(rows)[:, None], evict - start] = False
    shape = (rows, stop - start - k)
    for a in stores:
        # one statement, so each gathered copy is freed before the next
        a[:, start : stop - k] = a[:, start:stop][keep].reshape(*shape, *a.shape[2:])


class VisualKVCache:
    """Compacted key/value store for the visual tokens of one decode stream."""

    def __init__(
        self, layers: int, kv_heads: int, head_dim: int, cond_len: int, capacity: int
    ):
        self.layers = layers
        self.kv_heads = kv_heads
        self.head_dim = head_dim
        self.cond_len = cond_len
        self.capacity = capacity
        # one block per layer; nothing past a layer's length is ever read,
        # so the blocks start uninitialized
        block = (kv_heads, cond_len + capacity, head_dim)
        try:
            self._keys = [np.empty(block) for _ in range(layers)]
            self._values = [np.empty(block) for _ in range(layers)]
            self._positions = [
                np.empty((kv_heads, capacity), dtype=np.int64) for _ in range(layers)
            ]
        except MemoryError:
            raise ConfigError(
                "model-too-large",
                f"cannot allocate a cache of {layers} layers x {kv_heads} kv heads x "
                f"{cond_len + capacity} entries (a conditional length of {cond_len} plus "
                f"{capacity} visual) x {head_dim} dimensions",
            ) from None
        self._len = [0] * layers
        # last appended position per layer; every head receives it, so no
        # head holds a later one
        self.last_position = [-1] * layers

    def visual_len(self, layer: int, head: int) -> int:
        return self._len[layer]

    def positions(self, layer: int) -> np.ndarray:
        """Raster positions of one layer's entries, ``(kv_heads, n)``."""
        return self._positions[layer][:, : self._len[layer]]

    def span(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Keys and values a decode step attends over: conditional block then visual."""
        end = self.cond_len + self._len[layer]
        return self._keys[layer][:, :end], self._values[layer][:, :end]

    def append(self, layer: int, keys, values, position: int) -> None:
        """Append one entry per kv head (``keys``/``values`` are ``(kv_heads, d)``).

        Positions must strictly increase, and the store holds at most
        ``capacity`` entries: a policy that lets it outgrow its budget fails
        here instead of writing past the end.
        """
        n = self._len[layer]
        if position < 0:
            raise LinearKVError("position-out-of-grid", f"position {position} negative")
        if position <= self.last_position[layer]:
            raise LinearKVError(
                "position-regression", f"position {position} not after {self.last_position[layer]}"
            )
        if n == self.capacity:
            raise LinearKVError(
                "cache-full",
                f"layer {layer} already holds its capacity of {self.capacity} entries",
            )
        slot = self.cond_len + n
        self._keys[layer][:, slot] = keys
        self._values[layer][:, slot] = values
        self._positions[layer][:, n] = position
        self._len[layer] = n + 1
        self.last_position[layer] = position

    def partition(self, layer: int, spec: GridSpec, cfg: BudgetConfig, line: int) -> slice:
        """The evictable mid region of one layer at the end of ``line`` (1-based).

        A compression line finds the store exactly full, so this is always
        :meth:`BudgetConfig.evictable`. Positions increase along each row, so
        the entries either side of each bound prove the anchor / mid / recent
        split for every head.
        """
        n = self._len[layer]
        if line not in cfg.compression_lines(spec) or n != cfg.budget:
            raise LinearKVError(
                "compression-not-active",
                f"line {line} with {n} of {cfg.budget} entries is not a compression point",
            )
        mid = cfg.evictable(spec)
        lo, hi = mid.start, mid.stop
        cut = (line - cfg.protected_lines) * spec.width
        # the last anchor (if any), the first and last mid entries, the first recent one
        edges = self._positions[layer][:, [max(lo - 1, 0), lo, hi - 1, hi]]
        if ((edges < [cfg.n_init, cfg.n_init, cut, cut]) != [lo > 0, False, True, False]).any():
            raise LinearKVError(
                "region-mismatch", f"a kv head of layer {layer} straddles [{lo}:{hi}]"
            )
        return mid

    def compact(self, layer: int, mid: slice, evict) -> np.ndarray:
        """Physically remove store indices from one layer; returns their positions.

        ``evict`` holds one strictly increasing row of indices per kv head,
        every index inside the ``mid`` slice: anchors, the recent window and
        (structurally) the conditional block are not evictable.
        """
        evict = np.asarray(evict, dtype=np.int64)
        n = self._len[layer]
        if evict.ndim != 2 or evict.shape[0] != self.kv_heads:
            raise LinearKVError(
                "shape-mismatch",
                f"eviction indices {evict.shape}, need one row per {self.kv_heads} kv heads",
            )
        pos = self._positions[layer]
        if evict.shape[1] == 0:
            return evict
        if not (np.diff(evict, axis=1) > 0).all():
            raise LinearKVError(
                "protected-region-eviction", "eviction indices must be distinct and ascending"
            )
        lo, hi = max(mid.start, 0), min(mid.stop, n)
        if evict[:, 0].min() < lo or evict[:, -1].max() >= hi:
            raise LinearKVError(
                "protected-region-eviction",
                f"indices {evict.tolist()} are outside the mid region [{lo}, {hi})",
            )
        positions = np.take_along_axis(pos, evict, axis=1)
        c = self.cond_len
        drop_entries((self._keys[layer][:, c:], self._values[layer][:, c:], pos), n, evict)
        self._len[layer] = n - evict.shape[1]
        return positions

    def snapshot(self) -> dict:
        """JSON-ready cache state, laid out by :func:`snapshot_layout`."""
        return snapshot_layout(self.cond_len, map(self.positions, range(self.layers)))


def snapshot_layout(cond_len: int, rows) -> dict:
    """The JSON-ready state of a cache whose kv head ``h`` of layer ``l``
    holds the positions ``rows[l][h]``, a 1-D int array. Layout::

        {"schema": 1, "cond_len": C,
         "heads": {"<layer>:<head>": {"length": n, "positions": [...]}}}
    """
    heads = {}
    for layer, layer_rows in enumerate(rows):
        for head, row in enumerate(layer_rows):
            heads[f"{layer}:{head}"] = {"length": len(row), "positions": row.tolist()}
    return {"schema": SNAPSHOT_SCHEMA, "cond_len": cond_len, "heads": heads}
