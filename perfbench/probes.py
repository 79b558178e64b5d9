"""Where the traced run puts its spans in linear_kv, and the per-layer
metrics it derives from them.

Span names are ``<module>.<call>``. Leaf calls inside a decode step
(softmax, cache append, policy observation) are spanned one call at a time,
which is what makes the traced run slower than the untraced one; the run
reports that cost as ``tracing.overhead_share``.
"""

from __future__ import annotations

import numpy as np

from tracer import Tracer, self_times

POLICIES = ("full", "lineattn", "h2o", "streaming", "random")
COMPRESSING = POLICIES[1:]

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    [("decoder.init_ms", "ms"), ("decoder.prefill_ms", "ms")]
    + [(f"decoder.self_s.{p}", "s") for p in POLICIES]
    + [("decoder.step_self_us.p50", "us"), ("attention.softmax_calls", "count")]
    + [(f"attention.softmax_s.{p}", "s") for p in POLICIES]
    + [(f"decoder.kv_bytes_read.{p}", "B-computed") for p in POLICIES]
    + [(f"cache.append_s.{p}", "s") for p in POLICIES]
    + [(f"cache.partition_s.{p}", "s") for p in COMPRESSING]
    + [(f"cache.compact_s.{p}", "s") for p in COMPRESSING]
    + [(f"cache.evicted_entries.{p}", "count") for p in COMPRESSING]
    + [(f"cache.peak_entries.{p}", "count") for p in POLICIES]
    + [(f"policy.observe_s.{p}", "s") for p in POLICIES]
    + [(f"policy.end_of_line_s.{p}", "s") for p in POLICIES]
    + [(f"policy.select_s.{p}", "s") for p in COMPRESSING]
    + [
        ("policy.saliency_s", "s"),
        ("policy.bottom_k_s", "s"),
        ("policy.guide_rows_pushed", "count"),
        ("policy.guide_rows_scored", "count"),
        ("policy.guide_useful_ratio", "ratio"),
        ("baselines.random_evict_s", "s"),
        ("baselines.streaming_retain_s", "s"),
        ("trace.dumps_s", "s"),
        ("trace.write_s", "s"),
        ("trace.bytes", "B"),
        ("trace.read_s", "s"),
        ("trace.canonical_body_s", "s"),
        ("analysis.allocation_s", "s"),
        ("analysis.interline_s", "s"),
        ("analysis.locality_s", "s"),
        ("analysis.summary_json_s", "s"),
        ("bench.generate_s", "s"),
        ("bench.summarize_s", "s"),
        ("bench.step_rows_s", "s"),
        ("bench.other_s", "s"),
        ("root.self_s", "s"),
        ("tracing.overhead_share", "share"),
    ]
)

# span name of each per-policy time metric family
_POLICY_SPANS = {
    "attention.softmax_s": "attention.softmax",
    "cache.append_s": "cache.append",
    "cache.partition_s": "cache.partition",
    "cache.compact_s": "cache.compact",
    "policy.observe_s": "policy.observe",
    "policy.end_of_line_s": "policy.end_of_line",
    "policy.select_s": "policy.select",
}
_TOTAL_SPANS = {
    "policy.saliency_s": "policy.saliency",
    "policy.bottom_k_s": "policy.bottom_k",
    "baselines.random_evict_s": "baselines.random_evict",
    "baselines.streaming_retain_s": "baselines.streaming_retain",
    "trace.dumps_s": "trace.dumps",
    "trace.write_s": "trace.write",
    "trace.read_s": "trace.read",
    "trace.canonical_body_s": "trace.canonical_body",
    "analysis.allocation_s": "analysis.write_allocation_csv",
    "analysis.interline_s": "analysis.write_interline_csv",
    "analysis.locality_s": "analysis.write_locality_csv",
    "analysis.summary_json_s": "analysis.write_summary_json",
    "bench.generate_s": "bench.generate",
    "bench.summarize_s": "bench.summarize",
    "bench.step_rows_s": "bench.step_rows",
}
ROOT_PREFIX = "op."


def install_module_probes(tracer: Tracer, lk) -> None:
    """Span the module functions that the instances call by global name."""
    tracer.patch(lk.decoder, "softmax_inplace", "attention.softmax")
    tracer.patch(
        lk.policy, "saliency", "policy.saliency",
        on_call=lambda a, k: tracer.count("policy.guide_rows_scored", len(a[0])),
    )
    tracer.patch(lk.policy, "bottom_k", "policy.bottom_k")
    tracer.patch(lk.baselines, "random_evict", "baselines.random_evict")
    tracer.patch(lk.baselines, "streaming_retain", "baselines.streaming_retain")
    tracer.patch(lk.bench, "summarize", "bench.summarize")
    tracer.patch(lk.bench, "step_rows", "bench.step_rows")


def instrument_decoder(tracer: Tracer, decoder) -> None:
    """Span a decoder's prefill and steps; once prefill has built the
    decode state, span its cache and policy too."""
    prefill = decoder.prefill

    def prefill_and_instrument(*args, **kwargs):
        state = prefill(*args, **kwargs)
        instrument_state(tracer, state)
        return state

    tracer.replace(decoder, "prefill", tracer.wrap(prefill_and_instrument, "decoder.prefill"))
    tracer.patch(decoder, "decode_step", "decoder.decode_step")


def instrument_state(tracer: Tracer, state) -> None:
    cache, policy = state.cache, state.policy
    tracer.patch(cache, "append", "cache.append")
    tracer.patch(cache, "partition", "cache.partition")
    tracer.patch(
        cache, "compact", "cache.compact",
        on_call=lambda a, k: tracer.count(f"cache.evicted_entries.{tracer.policy}", len(a[2])),
    )
    tracer.patch(
        policy, "observe_queries", "policy.observe",
        on_call=lambda a, k: tracer.count("policy.guide_rows_pushed", len(a[2])),
    )
    tracer.patch(policy, "observe_attention", "policy.observe")
    tracer.patch(policy, "notify_append", "policy.observe")
    tracer.patch(policy, "end_of_line", "policy.end_of_line")
    tracer.patch(policy, "select", "policy.select")


def install_sweep_probe(tracer: Tracer, lk) -> None:
    """Stand in for ``linear_kv.bench.RasterDecoder`` until the next restore,
    so the decoders ``run_sweep`` builds are spanned like the ones the
    benchmark builds itself. Each new decoder first drops the previous one's
    patches, which frees the finished decoder and its cache."""
    decoder_cls = lk.bench.RasterDecoder

    def make(model):
        tracer.restore(keep)
        with tracer.span("decoder.init"):
            decoder = decoder_cls(model)
        instrument_decoder(tracer, decoder)
        tracer.patch(
            decoder, "generate", "bench.generate",
            on_call=lambda a, k: tracer.begin_decode(a[3].name),
        )
        return decoder

    tracer.replace(lk.bench, "RasterDecoder", make)
    keep = tracer.patched


def layer_metrics(tracer: Tracer, rounds: int, computed: dict) -> dict[str, float]:
    """Per-layer metrics from the recorded spans.

    Times and counts are per round of the workload (one pass over its ops),
    averaged over ``rounds`` traced rounds. ``computed`` supplies the values
    that come from outputs rather than spans (kv bytes, peak entries, trace
    bytes, overhead share). Modules the workload never calls read zero.
    """
    a = tracer.arrays()
    names = np.array(tracer.names, dtype=str)[a["name_id"]]
    dur = (a["end"] - a["start"]) / 1e9
    own = self_times(a["parent"], a["start"], a["end"]) / 1e9
    policy_of_decode = np.array(
        [tracer.decode_policy[i] for i in range(len(tracer.decode_policy))] + [""]
    )
    policies = policy_of_decode[a["decode"]]  # decode -1 picks the trailing ""

    def total(name, values=dur, policy=None):
        mask = names == name
        if policy is not None:
            mask &= policies == policy
        return float(values[mask].sum()) / rounds

    def median(name, values):
        picked = values[names == name]
        return float(np.median(picked)) if picked.size else 0.0

    out = {
        "decoder.init_ms": median("decoder.init", dur) * 1e3,
        "decoder.prefill_ms": median("decoder.prefill", dur) * 1e3,
        "decoder.step_self_us.p50": median("decoder.decode_step", own) * 1e6,
        "attention.softmax_calls": float((names == "attention.softmax").sum()) / rounds,
    }
    for p in POLICIES:
        out[f"decoder.self_s.{p}"] = total("decoder.decode_step", own, p)
    for family, span in _POLICY_SPANS.items():
        for p in POLICIES:
            out[f"{family}.{p}"] = total(span, dur, p)
    for metric, span in _TOTAL_SPANS.items():
        out[metric] = total(span)
    for p in COMPRESSING:
        out[f"cache.evicted_entries.{p}"] = tracer.counts.get(f"cache.evicted_entries.{p}", 0) / rounds
    pushed = tracer.counts.get("policy.guide_rows_pushed", 0) / rounds
    scored = tracer.counts.get("policy.guide_rows_scored", 0) / rounds
    out["policy.guide_rows_pushed"] = pushed
    out["policy.guide_rows_scored"] = scored
    out["policy.guide_useful_ratio"] = scored / pushed if pushed else 0.0
    roots = np.char.startswith(names, ROOT_PREFIX)
    out["root.self_s"] = float(own[roots].sum()) / rounds
    out["bench.other_s"] = total("op.sweep", own)
    out.update(computed)
    return {name: float(out.get(name, 0.0)) for name, _ in PER_LAYER}
