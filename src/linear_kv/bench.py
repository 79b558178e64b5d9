"""Cost accounting and benchmark sweeps over recorded runs.

Every number here is derived from the trace alone. Each cost of a step is a
fixed per-span coefficient of the model times the span the step actually
attended over, so the compressed and full runs are compared on identical
terms; the spans of an uncompressed run of the same length, ``cond_len + i``
at step ``i``, are the baseline for savings.
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


def _costs(trace: DecodeTrace, full: bool = False) -> np.ndarray:
    """Each step's costs as a ``(steps, 4)`` int64 array, in the order of the
    ``entries .. flops_proxy`` step columns: the KV entries read across all
    layers and kv heads, their bytes in fp16 and fp32 (a key and a value of
    ``head_dim`` scalars per entry), and the attention multiply-accumulate
    proxy ``2 * head_dim * heads * layers``, each times the step's span.
    ``full`` takes the spans of an uncompressed run of equal length."""
    cfg = trace.config
    if full:
        spans = cfg["cond_len"] + np.arange(len(trace.steps), dtype=np.int64)
    else:
        spans = np.array([s.span for s in trace.steps], dtype=np.int64)
    entries = cfg["layers"] * cfg["kv_heads"]
    scalars = entries * 2 * cfg["head_dim"]
    flops = 2 * cfg["layers"] * cfg["heads"] * cfg["head_dim"]
    return np.outer(spans, [entries, scalars * 2, scalars * 4, flops])


def flops_per_step(trace: DecodeTrace) -> np.ndarray:
    """Attention multiply-accumulate proxy: 2 * d * heads * layers * span."""
    return _costs(trace)[:, 3]


def full_cache_flops(trace: DecodeTrace) -> np.ndarray:
    """The same proxy for an uncompressed run of equal length."""
    return _costs(trace, full=True)[:, 3]


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
    return [
        [i, policy, str(rho), *costs, "" if step.step_ns is None else step.step_ns]
        for i, (step, costs) in enumerate(zip(trace.steps, _costs(trace).tolist()))
    ]


def summarize(trace: DecodeTrace) -> dict[str, float]:
    costs = _costs(trace)
    peak_entries, peak_fp16, peak_fp32, _ = costs.max(axis=0).tolist()
    full_peak = int(_costs(trace, full=True)[:, 0].max())
    flops = costs[:, 3]
    throughput = split_half_throughput(trace)
    total_ns = throughput.first_ns + throughput.second_ns
    return {
        "peak_entries": peak_entries,
        "peak_bytes_fp16": peak_fp16,
        "peak_bytes_fp32": peak_fp32,
        "savings_vs_full": 1.0 - peak_entries / full_peak,
        "mean_flops_per_step": float(flops.mean()),
        "mean_flops_last_half": float(flops[len(flops) // 2 :].mean()),
        "total_step_ns": total_ns,
        "steps_per_s": len(flops) / (total_ns / 1e9),
        "throughput_ratio": throughput.ratio,
    }


def _sweep_seed(model: ModelConfig, spec: GridSpec, cells: dict) -> dict:
    """Decode every ``{(policy, rho): BudgetConfig}`` cell on one decoder in
    lockstep; returns each cell's step rows and summary. All of the cells'
    caches are held at once, and released, with the decoder, on return."""
    decoder = RasterDecoder(model)
    cond = synth_condition(model)
    states = [decoder.prefill(cond, spec, cfg, make_policy(p)) for (p, _), cfg in cells.items()]
    steps = [[] for _ in states]
    for _ in range(spec.total):
        decoder.decode_steps(states)
        for state, records in zip(states, steps):
            records.append(state.step_record())
    out = {}
    for (policy_name, rho), state, records in zip(cells, states, steps):
        trace = decoder.trace(state, records)
        out[policy_name, rho] = step_rows(trace, policy_name, rho), summarize(trace)
    return out


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
    one condition, prefills all of its cells and decodes them in lockstep
    (``RasterDecoder.decode_steps``), so every weight fetch serves each
    cell's step; one seed's decoder and caches are freed before the next
    seed's are built. Returns the summary path."""
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
        for (policy_name, rho), (rows, summary) in _sweep_seed(
            replace(base, seed=seed), spec, cells
        ).items():
            name = f"steps_{policy_name}_{_rho_slug(rho)}_seed{seed}.csv"
            write_csv(os.path.join(out_dir, name), STEP_COLUMNS, rows)
            stats[policy_name, rho, seed] = summary
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
