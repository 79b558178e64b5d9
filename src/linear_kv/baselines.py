"""Comparison eviction policies sharing the end-of-line pipeline.

All baselines run through the same cadence, partition, and compaction as
the line-guided policy; only the selection rule differs. That keeps the
budget bound and the protected regions identical across every policy a
benchmark compares.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, LinearKVError
from .grid import BudgetConfig, GridSpec
from .policy import (
    AccumulatedAttentionPolicy,
    EvictionPolicy,
    FullCachePolicy,
    LineGuidedPolicy,
)


def random_evict(mid_idx, k: int, seed) -> np.ndarray:
    """``k`` distinct mid-region indices, uniform, deterministic per seed.

    ``seed`` may be an int or a ``numpy.random.SeedSequence``.
    """
    mid = np.asarray(mid_idx, dtype=np.int64)
    if k > mid.size:
        raise LinearKVError(
            "insufficient-mid-tokens", f"need {k} eviction candidates, have {mid.size}"
        )
    if k == 0:
        return np.empty(0, dtype=np.int64)
    rng = np.random.default_rng(seed)
    pick = rng.choice(mid.size, size=k, replace=False)
    return np.sort(mid[pick])


def streaming_retain(cfg: BudgetConfig, spec: GridSpec, line: int) -> np.ndarray:
    """Positions retained after the end-of-line compression, closed form.

    Sink tokens (positions below ``n_init``) plus the most recent
    ``budget - width - n_init`` positions. Depends only on configuration and
    the line number, never on key or query values. Under a full budget
    nothing is evicted, so every generated position is retained.
    """
    generated = line * spec.width
    if cfg.rho == 1:
        return np.arange(generated, dtype=np.int64)
    window = max(0, cfg.budget - spec.width - cfg.n_init)
    cutoff = generated - window
    sinks = np.arange(min(cfg.n_init, generated), dtype=np.int64)
    recent = np.arange(max(cutoff, cfg.n_init), generated, dtype=np.int64)
    return np.concatenate([sinks, recent])


class RandomPolicy(EvictionPolicy):
    """Uniform random mid-region eviction; the no-signal floor."""

    name = "random"

    def select(self, cache, line, layer, mid):
        mid_idx = np.arange(mid.start, mid.stop)
        return np.stack(
            [
                random_evict(
                    mid_idx,
                    self.spec.width,
                    np.random.SeedSequence([self.seed, line, layer, head]),
                )
                for head in range(cache.kv_heads)
            ]
        )


class StreamingPolicy(EvictionPolicy):
    """Sink plus recency window; ignores attention entirely.

    Evicting the oldest line of the mid region leaves exactly the sinks and
    the most recent positions that :func:`streaming_retain` names.
    """

    name = "streaming"

    def select(self, cache, line, layer, mid):
        oldest = np.arange(mid.start, mid.start + self.spec.width)
        return np.broadcast_to(oldest, (cache.kv_heads, oldest.size))


_POLICIES = {
    "lineattn": LineGuidedPolicy,
    "random": RandomPolicy,
    "streaming": StreamingPolicy,
    "h2o": AccumulatedAttentionPolicy,
    "full": FullCachePolicy,
}

POLICY_NAMES = tuple(_POLICIES)


def make_policy(name: str) -> EvictionPolicy:
    try:
        factory = _POLICIES[name]
    except KeyError:
        raise ConfigError(
            "unknown-policy", f"{name!r}; choose from {', '.join(POLICY_NAMES)}"
        ) from None
    return factory()
