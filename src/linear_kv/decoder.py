"""Seeded toy causal decoder generating raster-grid token streams.

The model is deliberately tiny and fully deterministic: fixed pseudo-random
weights, greedy argmax decoding, no positional encoding (order enters only
through causal cache growth and the stored raster indices). It exists to
exercise cache policies end to end under real attention arithmetic, not to
make images.

Step contract: a step attends over the conditional block plus the visual
entries already cached, then appends its own per-layer KV. The first step
therefore attends over exactly the conditional entries, and a step ``k``
tokens into a line after compression sees ``cond_len + budget - width + k``
entries.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .attention import softmax_inplace
from .cache import VisualKVCache
from .errors import ConfigError, LinearKVError
from .grid import BudgetConfig, GridSpec
from .policy import EvictionEvent, EvictionPolicy
from .trace import DecodeTrace, StepRecord

RNG_NAME = "numpy-pcg64"
WEIGHT_ORDER = "embed, per layer (wq, wk, wv, wo, w1, w2), unembed"


@dataclass(frozen=True)
class ModelConfig:
    """Toy decoder dimensions and the run seed.

    Weights are drawn from ``numpy.random.Generator(PCG64(seed))`` in a
    fixed order (embedding, then per layer the query/key/value/output
    projections and the two feed-forward matrices, then the unembedding),
    so a seed pins every parameter. The same seed also drives synthesized
    conditional tokens and the random policy's per-event streams.
    """

    layers: int = 4
    heads: int = 4
    kv_heads: int = 4
    head_dim: int = 32
    vocab: int = 256
    cond_len: int = 8
    seed: int = 0

    def __post_init__(self):
        if min(self.layers, self.heads, self.kv_heads, self.head_dim, self.vocab) < 1:
            raise ConfigError("model-config-invalid", "all dimensions must be positive")
        if self.heads % self.kv_heads:
            raise ConfigError(
                "model-config-invalid",
                f"heads {self.heads} not divisible by kv_heads {self.kv_heads}",
            )
        if self.cond_len < 1:
            raise ConfigError("model-config-invalid", "cond_len must be at least 1")
        if self.seed < 0:
            raise ConfigError("model-config-invalid", f"seed {self.seed} is negative")

    @property
    def model_dim(self) -> int:
        return self.heads * self.head_dim

    @property
    def group_size(self) -> int:
        return self.heads // self.kv_heads


@dataclass
class _LayerWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


@dataclass
class DecodeState:
    """Mutable cursor of one generation run."""

    spec: GridSpec
    cfg: BudgetConfig
    policy: EvictionPolicy
    cache: VisualKVCache
    cond_tokens: list[int]
    trace_attention: bool = False
    position: int = 0
    tokens: list[int] = field(default_factory=list)
    evictions: list[EvictionEvent] = field(default_factory=list)
    last_hidden: np.ndarray | None = None
    last_step: dict | None = None


def synth_condition(cfg: ModelConfig) -> list[int]:
    """Deterministic conditional ids for CLI runs; stream [seed, 1]."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    return rng.integers(0, cfg.vocab, size=cfg.cond_len).tolist()


class RasterDecoder:
    """Greedy decoder over a fixed random transformer."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        dim = cfg.model_dim
        qk = cfg.heads * cfg.head_dim
        kv = cfg.kv_heads * cfg.head_dim

        def draw(rows, cols):
            # scaled in place: no second weight-sized allocation per matrix
            w = rng.standard_normal((rows, cols))
            w /= math.sqrt(rows)
            return w

        try:
            self.embed = rng.standard_normal((cfg.vocab, dim))
            self.layers = [
                _LayerWeights(
                    wq=draw(dim, qk),
                    wk=draw(dim, kv),
                    wv=draw(dim, kv),
                    wo=draw(qk, dim),
                    w1=draw(dim, 2 * dim),
                    w2=draw(2 * dim, dim),
                )
                for _ in range(cfg.layers)
            ]
            self.unembed = draw(dim, cfg.vocab)
        except MemoryError:
            raise ConfigError(
                "model-too-large",
                f"cannot allocate the weights of {cfg.layers} layers, {cfg.heads} heads of "
                f"dimension {cfg.head_dim} and a vocabulary of {cfg.vocab}",
            ) from None
        self.scale = 1.0 / math.sqrt(cfg.head_dim)

    # -- setup ---------------------------------------------------------------

    def prefill(
        self,
        cond_tokens,
        spec: GridSpec,
        cfg: BudgetConfig,
        policy: EvictionPolicy,
        trace_attention: bool = False,
    ) -> DecodeState:
        """Process the conditional tokens causally and freeze their KV block."""
        cond = [int(t) for t in cond_tokens]
        if not cond:
            raise LinearKVError("empty-condition", "need at least one conditional token")
        if any(not 0 <= t < self.cfg.vocab for t in cond):
            raise ConfigError("token-out-of-vocab", f"ids must be in [0, {self.cfg.vocab})")
        mc = self.cfg
        block = (mc.layers, mc.kv_heads, len(cond), mc.head_dim)
        cond_k, cond_v = np.empty(block), np.empty(block)
        for j, tok in enumerate(cond):
            x = self.embed[tok]
            for li, lw in enumerate(self.layers):
                heads_out = np.zeros((mc.heads, 1, mc.head_dim))
                if j > 0:
                    # one matrix-vector product per query head, batched: each
                    # head's block is expanded from its kv head, which keeps
                    # the per-head arithmetic of an unbatched loop
                    q = (x @ lw.wq).reshape(mc.heads, mc.head_dim, 1)
                    kc = np.repeat(cond_k[li, :, :j], mc.group_size, axis=0)
                    vc = np.repeat(cond_v[li, :, :j], mc.group_size, axis=0)
                    probs = softmax_inplace((kc @ q).transpose(0, 2, 1) * self.scale)
                    heads_out = probs @ vc
                cond_k[li, :, j] = (x @ lw.wk).reshape(mc.kv_heads, mc.head_dim)
                cond_v[li, :, j] = (x @ lw.wv).reshape(mc.kv_heads, mc.head_dim)
                x = x + heads_out.reshape(-1) @ lw.wo
                x = x + np.tanh(x @ lw.w1) @ lw.w2
        capacity = cfg.budget if cfg.rho < 1 else spec.total
        cache = VisualKVCache(mc.layers, mc.kv_heads, mc.head_dim, len(cond), capacity)
        for li in range(mc.layers):
            cache.set_conditional(li, cond_k[li], cond_v[li])
        policy.bind(cache, spec, cfg, mc.seed)
        return DecodeState(
            spec=spec,
            cfg=cfg,
            policy=policy,
            cache=cache,
            cond_tokens=cond,
            trace_attention=trace_attention,
        )

    # -- decoding ------------------------------------------------------------

    def decode_step(self, state: DecodeState) -> int:
        """Emit one token and append one KV entry per layer/kv-head."""
        if state.position >= state.spec.total:
            raise LinearKVError(
                "generation-complete", f"all {state.spec.total} positions generated"
            )
        mc = self.cfg
        policy = state.policy
        cache = state.cache
        p = state.position
        cond_len = cache.cond_len
        span = cond_len + cache.visual_len(0, 0)
        prev = state.tokens[-1] if state.tokens else state.cond_tokens[-1]
        x = self.embed[prev]
        attn_trace = [] if state.trace_attention else None
        grouped = (mc.kv_heads, mc.group_size, mc.head_dim)
        for li, lw in enumerate(self.layers):
            q = (x @ lw.wq).reshape(mc.heads, mc.head_dim)
            k = (x @ lw.wk).reshape(mc.kv_heads, mc.head_dim)
            v = (x @ lw.wv).reshape(mc.kv_heads, mc.head_dim)
            keys, values = cache.span(li)
            # every query head of a kv head's group in one batched product
            logits = (q * self.scale).reshape(grouped) @ keys.transpose(0, 2, 1)
            policy.observe_logits(li, p, logits)
            probs = softmax_inplace(logits)
            heads_out = probs @ values
            if policy.wants_attention:
                policy.observe_attention(li, probs[:, :, cond_len:].sum(axis=1))
            if attn_trace is not None:
                positions = cache.positions(li).copy()
                attn_trace.append({"kv_positions": positions, "probs": probs.reshape(mc.heads, -1)})
            cache.append(li, k, v, p)
            policy.notify_append(li)
            x = x + heads_out.reshape(-1) @ lw.wo
            x = x + np.tanh(x @ lw.w1) @ lw.w2
        token = int(np.argmax(x @ self.unembed))
        state.tokens.append(token)
        state.last_hidden = x
        state.position = p + 1
        events = None
        if state.position % state.spec.width == 0:
            line = state.position // state.spec.width
            events = policy.end_of_line(cache, line)
            if events:
                state.evictions.extend(events)
        state.last_step = {
            "span": span,
            "visual_len": cache.visual_len(0, 0),
            "attn": attn_trace,
            "events": events,
        }
        return token

    def generate(
        self,
        cond_tokens,
        spec: GridSpec,
        cfg: BudgetConfig,
        policy: EvictionPolicy,
        trace_attention: bool = False,
    ) -> DecodeTrace:
        """Run the full raster scan and assemble the trace."""
        state = self.prefill(cond_tokens, spec, cfg, policy, trace_attention)
        mc = self.cfg
        header = {
            "config": {
                "height": spec.height,
                "width": spec.width,
                "rho": str(cfg.rho),
                "budget": cfg.budget,
                "n_init": cfg.n_init,
                "recent_lines": cfg.recent_lines,
                "policy": policy.name,
                "layers": mc.layers,
                "heads": mc.heads,
                "kv_heads": mc.kv_heads,
                "head_dim": mc.head_dim,
                "vocab": mc.vocab,
                "cond_len": len(state.cond_tokens),
                "seed": mc.seed,
                "trace_attention": trace_attention,
            },
            "rng": RNG_NAME,
            "weight_order": WEIGHT_ORDER,
        }
        steps: list[StepRecord] = []
        for i in range(spec.total):
            t0 = time.perf_counter_ns()
            token = self.decode_step(state)
            elapsed = time.perf_counter_ns() - t0
            info = state.last_step
            steps.append(
                StepRecord(
                    index=i,
                    line=i // spec.width + 1,
                    token=token,
                    span=info["span"],
                    visual_len=info["visual_len"],
                    step_ns=elapsed,
                    attn=info["attn"],
                )
            )
        return DecodeTrace(
            header=header,
            steps=steps,
            evictions=state.evictions,
            final_hidden=state.last_hidden.copy(),
            cache_snapshot=state.cache.snapshot(),
        )
