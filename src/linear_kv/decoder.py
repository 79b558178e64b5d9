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
from dataclasses import asdict, dataclass, field

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

    def step_record(self) -> StepRecord:
        """The trace record of the last step."""
        info, i = self.last_step, self.position - 1
        return StepRecord(
            i, i // self.spec.width + 1, self.tokens[-1], info["span"], info["visual_len"],
            info["step_ns"], info["attn"],
        )


def synth_condition(cfg: ModelConfig) -> list[int]:
    """Deterministic conditional ids for CLI runs; stream [seed, 1]."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    try:
        return rng.integers(0, cfg.vocab, size=cfg.cond_len).tolist()
    except MemoryError:
        raise ConfigError(
            "model-too-large", f"cannot allocate a conditional length of {cfg.cond_len} tokens"
        ) from None


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
        """Process the conditional tokens causally, writing their keys and
        values into the new cache's conditional block."""
        cond = [int(t) for t in cond_tokens]
        if not cond:
            raise LinearKVError("empty-condition", "need at least one conditional token")
        if any(not 0 <= t < self.cfg.vocab for t in cond):
            raise ConfigError("token-out-of-vocab", f"ids must be in [0, {self.cfg.vocab})")
        mc = self.cfg
        cache = VisualKVCache(mc.layers, mc.kv_heads, mc.head_dim, len(cond), cfg.budget)
        for j, tok in enumerate(cond):
            x = self.embed[tok]
            for li, lw in enumerate(self.layers):
                # before the first append, the span is this layer's conditional block
                keys, values = cache.span(li)
                heads_out = np.zeros((mc.heads, 1, mc.head_dim))
                if j > 0:
                    # one matrix-vector product per query head, batched: each
                    # head's block is expanded from its kv head, which keeps
                    # the per-head arithmetic of an unbatched loop
                    q = (x @ lw.wq).reshape(mc.heads, mc.head_dim, 1)
                    kc = np.repeat(keys[:, :j], mc.group_size, axis=0)
                    vc = np.repeat(values[:, :j], mc.group_size, axis=0)
                    probs = softmax_inplace((kc @ q).transpose(0, 2, 1) * self.scale)
                    heads_out = probs @ vc
                keys[:, j] = (x @ lw.wk).reshape(mc.kv_heads, mc.head_dim)
                values[:, j] = (x @ lw.wv).reshape(mc.kv_heads, mc.head_dim)
                x = x + heads_out.reshape(-1) @ lw.wo
                x = x + np.tanh(x @ lw.w1) @ lw.w2
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
        return self.decode_steps([state])[0]

    def decode_steps(self, states) -> list[int]:
        """Advance every stream on this decoder by one step; returns their tokens.

        Layer by layer, each group of weights (the query, key and value
        projections, then the output projection, then each feed-forward
        matrix, and last the unembedding) is applied to every stream's own
        ``(dim,)`` vector in turn, so after the first stream it is read from
        cache rather than memory. Attention, the policy's observation, the
        cache append and the end of line run per stream, on that stream's own
        cache and policy. Every product is the single-vector product of a
        one-stream step, so no stream's bits depend on the others.

        ``last_step["step_ns"]`` is the time of the sections that worked on
        that stream alone plus an equal share of the per-matrix sections;
        with one stream it is the step's wall time.
        """
        n = len(states)
        if len(set(map(id, states))) != n:
            raise LinearKVError("duplicate-stream", "a decode state advances once per step")
        for state in states:
            if state.position >= state.spec.total:
                raise LinearKVError(
                    "generation-complete", f"all {state.spec.total} positions generated"
                )
        if not n:
            return []
        mc = self.cfg
        grouped = (mc.kv_heads, mc.group_size, mc.head_dim)
        kv = (mc.kv_heads, mc.head_dim)
        clock = time.perf_counter_ns
        # a lone stream is charged the whole step, so it reads the clock twice
        several = n > 1
        own = [0] * n
        start = t = clock()
        # index loops over the streams, not comprehensions: in Python 3.11
        # each comprehension is a function call, and a step would make 20
        xs, spans, attn = [None] * n, [0] * n, [None] * n
        for j in range(n):
            state = states[j]
            xs[j] = self.embed[state.tokens[-1] if state.tokens else state.cond_tokens[-1]]
            spans[j] = state.cache.cond_len + state.cache.visual_len(0, 0)
            if state.trace_attention:
                attn[j] = []
        qkv, outs, hs = [None] * n, [None] * n, [None] * n
        for li, lw in enumerate(self.layers):
            for j in range(n):
                x = xs[j]
                qkv[j] = (x @ lw.wq, x @ lw.wk, x @ lw.wv)
            if several:
                t = clock()
            for j in range(n):
                state = states[j]
                q, k, v = qkv[j]
                keys, values = state.cache.span(li)
                # every query head of a kv head's group in one batched product
                logits = (q * self.scale).reshape(grouped) @ keys.transpose(0, 2, 1)
                probs = softmax_inplace(logits)
                state.policy.observe_attention(li, probs)
                outs[j] = probs @ values
                if attn[j] is not None:
                    attn[j].append(probs.reshape(mc.heads, -1))
                state.cache.append(li, k.reshape(kv), v.reshape(kv), state.position)
                if several:
                    now = clock()
                    own[j] += now - t
                    t = now
            for j in range(n):
                xs[j] = xs[j] + outs[j].reshape(-1) @ lw.wo
            for j in range(n):
                hs[j] = np.tanh(xs[j] @ lw.w1)
            for j in range(n):
                xs[j] = xs[j] + hs[j] @ lw.w2
        tokens = [0] * n
        for j in range(n):
            tokens[j] = int(np.argmax(xs[j] @ self.unembed))
        if several:
            t = clock()
        for j in range(n):
            state = states[j]
            cache = state.cache
            state.tokens.append(tokens[j])
            state.last_hidden = xs[j]
            state.position += 1
            events = None
            if state.position % state.spec.width == 0:
                line = state.position // state.spec.width
                events = state.policy.end_of_line(cache, line)
                if events:
                    state.evictions.extend(events)
            state.last_step = {
                "span": spans[j],
                "visual_len": cache.visual_len(0, 0),
                "attn": attn[j],
                "events": events,
            }
            if several:
                now = clock()
                own[j] += now - t
                t = now
        shared = (clock() - start - sum(own)) // n
        for j in range(n):
            states[j].last_step["step_ns"] = own[j] + shared
        return tokens

    def trace(self, state: DecodeState, steps: list[StepRecord]) -> DecodeTrace:
        """The trace of a finished stream, from its state and step records."""
        spec, cfg = state.spec, state.cfg
        config = {**asdict(spec), **asdict(cfg), **asdict(self.cfg)}
        config.update(
            rho=str(cfg.rho),
            cond_len=len(state.cond_tokens),
            policy=state.policy.name,
            trace_attention=state.trace_attention,
        )
        return DecodeTrace(
            header={"config": config, "rng": RNG_NAME, "weight_order": WEIGHT_ORDER},
            steps=steps,
            evictions=state.evictions,
            final_hidden=state.last_hidden.copy(),
            cache_snapshot=state.cache.snapshot(),
        )

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
        steps = []
        for _ in range(spec.total):
            self.decode_step(state)
            steps.append(state.step_record())
        return self.trace(state, steps)
