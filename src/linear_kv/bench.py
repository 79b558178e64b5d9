"""Cost accounting and benchmark sweeps over recorded runs.

Every number here is derived from the trace alone. Per-step cost uses the
span the step actually attended over, so the compressed and full runs are
compared on identical terms; the analytic full-cache curve for the same
grid is the baseline for savings.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .baselines import make_policy
from .decoder import ModelConfig, RasterDecoder, synth_condition
from .errors import LinearKVError
from .grid import GridSpec, budget_from_ratio
from .trace import DecodeTrace, write_csv

BYTES_PER_SCALAR = {"fp16": 2, "fp32": 4}

STEP_COLUMNS = (
    "step", "policy", "rho", "entries", "bytes_fp16", "bytes_fp32", "flops_proxy", "step_ns"
)
SUMMARY_METRICS = (
    "peak_entries",
    "peak_bytes_fp16",
    "peak_bytes_fp32",
    "savings_vs_full",
    "mean_flops_per_step",
    "mean_flops_last_half",
    "total_step_ns",
    "steps_per_s",
    "throughput_ratio",
)


def _model_dims(trace: DecodeTrace):
    cfg = trace.config
    return cfg["layers"], cfg["heads"], cfg["kv_heads"], cfg["head_dim"], cfg["cond_len"]


def entries_per_step(trace: DecodeTrace) -> np.ndarray:
    """KV entries each step attended over, across all layers and kv heads."""
    layers, _, kv_heads, _, _ = _model_dims(trace)
    spans = np.array([s.span for s in trace.steps], dtype=np.int64)
    return layers * kv_heads * spans


def full_cache_entries(trace: DecodeTrace) -> np.ndarray:
    """The same accounting for an uncompressed run of equal length."""
    layers, _, kv_heads, _, cond = _model_dims(trace)
    spans = cond + np.arange(len(trace.steps), dtype=np.int64)
    return layers * kv_heads * spans


def flops_per_step(trace: DecodeTrace) -> np.ndarray:
    """Attention multiply-accumulate proxy: 2 * d * heads * layers * span."""
    layers, heads, _, head_dim, _ = _model_dims(trace)
    spans = np.array([s.span for s in trace.steps], dtype=np.int64)
    return 2 * layers * heads * head_dim * spans


def full_cache_flops(trace: DecodeTrace) -> np.ndarray:
    layers, heads, _, head_dim, cond = _model_dims(trace)
    spans = cond + np.arange(len(trace.steps), dtype=np.int64)
    return 2 * layers * heads * head_dim * spans


@dataclass(frozen=True)
class MemoryReport:
    peak_entries: int
    full_peak_entries: int
    savings: float

    def bytes_at_peak(self, fmt: str, head_dim: int) -> int:
        # keys and values both stored, hence the factor of two
        return self.peak_entries * 2 * head_dim * BYTES_PER_SCALAR[fmt]


def memory_report(trace: DecodeTrace) -> MemoryReport:
    entries = entries_per_step(trace)
    full = full_cache_entries(trace)
    peak = int(entries.max())
    full_peak = int(full.max())
    return MemoryReport(
        peak_entries=peak,
        full_peak_entries=full_peak,
        savings=1.0 - peak / full_peak,
    )


@dataclass(frozen=True)
class ThroughputSplit:
    first_ns: int
    second_ns: int
    ratio: float


def split_half_throughput(trace: DecodeTrace) -> ThroughputSplit:
    """Steps-per-second of the run's two halves and their ratio.

    A run whose per-step cost keeps growing slows down, pushing the ratio
    below one; a run with a bounded cache should hold close to one.
    """
    timings = [s.step_ns for s in trace.steps]
    if any(t is None for t in timings) or not timings:
        raise LinearKVError("trace-missing-timings", "run was recorded without timings")
    if len(timings) < 2:
        raise LinearKVError("shape-mismatch", "need at least two steps to split")
    half = len(timings) // 2
    first = int(sum(timings[:half]))
    second = int(sum(timings[half:]))
    first_rate = half / (first / 1e9)
    second_rate = (len(timings) - half) / (second / 1e9)
    return ThroughputSplit(first_ns=first, second_ns=second, ratio=second_rate / first_rate)


# -- sweep runner ------------------------------------------------------------


def _rho_slug(rho: Fraction) -> str:
    return f"{rho.numerator}-{rho.denominator}"


def step_rows(trace: DecodeTrace, policy: str, rho: Fraction):
    layers, _, kv_heads, head_dim, _ = _model_dims(trace)
    entries = entries_per_step(trace)
    flops = flops_per_step(trace)
    rows = []
    for i, step in enumerate(trace.steps):
        per_entry = 2 * head_dim
        rows.append(
            [
                i,
                policy,
                str(rho),
                int(entries[i]),
                int(entries[i]) * per_entry * BYTES_PER_SCALAR["fp16"],
                int(entries[i]) * per_entry * BYTES_PER_SCALAR["fp32"],
                int(flops[i]),
                step.step_ns if step.step_ns is not None else "",
            ]
        )
    return rows


def summarize(trace: DecodeTrace) -> dict[str, float]:
    report = memory_report(trace)
    head_dim = trace.config["head_dim"]
    flops = flops_per_step(trace)
    half = len(flops) // 2
    throughput = split_half_throughput(trace)
    total_ns = int(sum(s.step_ns for s in trace.steps))
    return {
        "peak_entries": report.peak_entries,
        "peak_bytes_fp16": report.bytes_at_peak("fp16", head_dim),
        "peak_bytes_fp32": report.bytes_at_peak("fp32", head_dim),
        "savings_vs_full": report.savings,
        "mean_flops_per_step": float(flops.mean()),
        "mean_flops_last_half": float(flops[half:].mean()),
        "total_step_ns": total_ns,
        "steps_per_s": len(flops) / (total_ns / 1e9),
        "throughput_ratio": throughput.ratio,
    }


def run_sweep(
    spec: GridSpec,
    rhos,
    policies,
    seeds,
    model: ModelConfig | None = None,
    out_dir: str = ".",
    n_init: int | None = None,
    recent_lines: int | None = None,
) -> str:
    """Run every distinct (policy, rho, seed) cell once, writing per-run step
    CSVs plus a long-format summary.csv. ``full`` always runs at rho one, so
    it is one cell whatever ``rhos`` holds. Each seed builds one decoder and
    one condition for all of its cells. Returns the summary path."""
    base = model if model is not None else ModelConfig()
    cells = {}
    for policy_name in policies:
        for rho in rhos:
            effective = Fraction(1) if policy_name == "full" else Fraction(rho)
            if (policy_name, effective) not in cells:
                cfg = budget_from_ratio(spec, effective, n_init=n_init, recent_lines=recent_lines)
                cells[policy_name, effective] = cfg
    seeds = list(dict.fromkeys(seeds))
    stats = {}
    for seed in seeds:
        mc = replace(base, seed=seed)
        decoder = RasterDecoder(mc)
        cond = synth_condition(mc)
        for (policy_name, rho), cfg in cells.items():
            trace = decoder.generate(cond, spec, cfg, make_policy(policy_name))
            name = f"steps_{policy_name}_{_rho_slug(rho)}_seed{seed}.csv"
            write_csv(os.path.join(out_dir, name), STEP_COLUMNS, step_rows(trace, policy_name, rho))
            stats[policy_name, rho, seed] = summarize(trace)
    summary_rows = [
        [policy_name, str(rho), seed, metric, stats[policy_name, rho, seed][metric]]
        for policy_name, rho in cells
        for seed in seeds
        for metric in SUMMARY_METRICS
    ]
    return write_csv(
        os.path.join(out_dir, "summary.csv"),
        ["policy", "rho", "seed", "metric", "value"],
        summary_rows,
    )
