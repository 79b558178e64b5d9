"""The four workloads of the linear-kv benchmark and the metrics they report.

Each workload is a closed loop: one process, one thread, each op issued
when the previous one returns. A round is one pass over a workload's ops;
the run repeats rounds until the next one would end past ``--seconds``
(always at least one). Why each workload exists, and which module it
stresses, is in README.md next to this file.

End-to-end metrics come from a run without spans. ``--trace 1`` first runs
one round without spans (the baseline of ``tracing.overhead_share``), then
spans every call listed in probes.py and reports the per-layer metrics.
"""

from __future__ import annotations

import gc
import io
import os
import resource
import shutil
import statistics
import tempfile
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter, perf_counter_ns

import linear_kv as lk
import linear_kv.analysis
import linear_kv.bench
import linear_kv.cli
from linear_kv import DecodeTrace, GridSpec, ModelConfig, RasterDecoder
from linear_kv import budget_from_ratio, make_policy, synth_condition
from linear_kv.trace import StepRecord

import checks
import probes
from probes import POLICIES
from tracer import Tracer

END_TO_END = (
    [("setup_s", "s"), ("sweep_s", "s")]
    + [(f"steps_per_s.{p}", "1/s") for p in POLICIES]
    + [("peak_rss_mib", "MiB")]
)

SETUP_REPEATS = 15
# small cell for the untimed warm-up and the determinism check; its digests
# are the same on every workload that shares a model
WARMUP_GRID = "12x12"
WARMUP_RHO = Fraction(1, 2)
SWEEP_RHOS = ("1/4", "1/2")
SWEEP_POLICIES = ("lineattn", "h2o", "full")
ANALYZE_EMITTERS = (
    ("allocation.csv", linear_kv.analysis.write_allocation_csv),
    ("interline.csv", linear_kv.analysis.write_interline_csv),
    ("locality.csv", linear_kv.analysis.write_locality_csv),
    ("summary.json", linear_kv.analysis.write_summary_json),
)


@dataclass(frozen=True)
class Workload:
    """One workload; README.md says why it exists and what it stresses."""

    name: str
    kind: str  # "decode", "trace" or "sweep"
    grid: str
    rho: Fraction
    model: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("raster-64", "decode", "64x64", Fraction(11, 64)),
        Workload("narrow-16", "decode", "128x16", Fraction(1, 4)),
        Workload("trace-24", "trace", "24x24", Fraction(1, 4)),
        Workload("sweep-gqa", "sweep", "32x32", Fraction(1, 4), {"heads": 8, "kv_heads": 2}),
    )
}


def budget(spec: GridSpec, rho: Fraction, policy: str):
    return budget_from_ratio(spec, Fraction(1) if policy == "full" else rho)


class Run:
    """One benchmark run: its ops, their checks and the samples they yield."""

    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.model = ModelConfig(seed=seed, **workload.model)
        self.cond = synth_condition(self.model)
        self.spec = GridSpec.parse(workload.grid)
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.reset_samples()

    def reset_samples(self) -> None:
        self.steps_per_s = {p: [] for p in POLICIES}
        self.gap_ns: list[int] = []
        self.stall_ns: list[int] = []
        self.stage_s = defaultdict(list)
        self.kv_bytes = defaultdict(int)
        self.peak_entries: dict[str, int] = {}
        self.trace_bytes = 0

    # -- ops -----------------------------------------------------------------

    @contextmanager
    def op(self, kind: str):
        """Count one op; it fails when its body raises or reports a problem."""
        self.attempted += 1
        problems: list[str] = []
        try:
            yield problems
        except Exception:  # a failing op is counted, the run goes on
            problems.append(traceback.format_exc(limit=4).strip().replace("\n", " | "))
        if problems:
            self.failed += 1
            self.failures.extend(f"{kind}: {p}" for p in problems)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def decode(self, spec, cfg, policy, trace_attention=False):
        """One whole decode; returns the trace and the ``generate`` seconds."""
        gc.collect()
        tracer = self.tracer
        if tracer:
            tracer.begin_decode(policy)
            keep = tracer.patched
        with self.span("op.decode"):
            with self.span("decoder.init"):
                decoder = RasterDecoder(self.model)
            if tracer:
                probes.instrument_decoder(tracer, decoder)
            t0 = perf_counter()
            trace = decoder.generate(
                self.cond, spec, cfg, make_policy(policy), trace_attention=trace_attention
            )
            seconds = perf_counter() - t0
        if tracer:
            tracer.restore(keep)
        return trace, seconds

    def decode_lines(self, spec, cells) -> dict:
        """Whole decodes of several (policy, budget) cells on one decoder,
        taking one line of each in turn; returns ``{policy: (trace, seconds)}``.

        The machine's speed drifts over seconds. Interleaving by line spreads
        every policy's steps across the whole round, so a slow stretch slows
        all policies alike instead of one. A line is long enough that each
        policy's cache is warm again after its first few steps. The loop is
        ``generate``'s, with the same per-step timer; seconds are prefill
        plus steps.
        """
        gc.collect()
        tracer = self.tracer
        keep = tracer.patched if tracer else 0
        with self.span("decoder.init"):
            decoder = RasterDecoder(self.model)
        if tracer:
            probes.instrument_decoder(tracer, decoder)
        runs = {}
        for policy, cfg in cells:
            decode_id = tracer.begin_decode(policy) if tracer else -1
            with self.span("op.decode"):
                t0 = perf_counter_ns()
                state = decoder.prefill(self.cond, spec, cfg, make_policy(policy))
                runs[policy] = (state, decode_id, perf_counter_ns() - t0, [])
        width = spec.width
        for line in range(spec.height):
            for state, decode_id, _, records in runs.values():
                if tracer:
                    tracer.decode_id = decode_id
                with self.span("op.decode"):
                    for i in range(line * width, (line + 1) * width):
                        t0 = perf_counter_ns()
                        token = decoder.decode_step(state)
                        elapsed = perf_counter_ns() - t0
                        info = state.last_step
                        records.append(
                            StepRecord(i, line + 1, token, info["span"], info["visual_len"], elapsed)
                        )
        if tracer:
            tracer.restore(keep)
        out = {}
        for (policy, cfg), (state, _, prefill_ns, records) in zip(cells, runs.values()):
            header = {"config": {
                "height": spec.height, "width": spec.width, "rho": str(cfg.rho),
                "budget": cfg.budget, "policy": policy, "seed": self.model.seed,
            }}
            trace = DecodeTrace(
                header, records, state.evictions, state.last_hidden.copy(), state.cache.snapshot()
            )
            out[policy] = (trace, (prefill_ns + sum(r.step_ns for r in records)) / 1e9)
        return out

    def check_decode(self, problems, trace, spec, cfg, policy):
        """Output checks of one decode, its round trip and its digest."""
        problems += checks.decode_problems(trace, spec, cfg, self.model)
        path = os.path.join(self.workdir, "roundtrip.jsonl")
        trace.write(path)
        problems += checks.round_trip_problems(trace, DecodeTrace.read(path))
        key = f"{policy}@{spec.height}x{spec.width}/{cfg.rho}"
        digest = checks.behaviour_digest(trace)
        if self.digests.setdefault(key, digest) != digest:
            problems.append(f"{key}: tokens or evictions changed between decodes")

    def record_decode(self, trace, seconds, spec, cfg, policy) -> None:
        mc = self.model
        self.steps_per_s[policy].append(len(trace.steps) / seconds)
        spans = [s.span for s in trace.steps]
        # keys and values, read once per query head, 8-byte floats
        self.kv_bytes[policy] += sum(spans) * mc.layers * mc.heads * 2 * mc.head_dim * 8
        self.peak_entries[policy] = max(spans) * mc.layers * mc.kv_heads
        if policy == "lineattn":
            self.record_latency(
                [s.step_ns for s in trace.steps], spec, checks.compression_lines(spec, cfg)
            )

    def record_latency(self, step_ns, spec, evicting_lines) -> None:
        self.gap_ns.extend(step_ns)
        self.stall_ns.extend(step_ns[line * spec.width - 1] for line in evicting_lines)

    # -- rounds --------------------------------------------------------------

    def warm_up(self) -> None:
        """Untimed decodes of every policy on a small cell. ``lineattn`` is
        decoded twice more through ``generate``: the two must be
        byte-identical, and equal in behaviour to the interleaved decode."""
        spec = GridSpec.parse(WARMUP_GRID)
        self.decode_round(spec, WARMUP_RHO)
        cfg = budget(spec, WARMUP_RHO, "lineattn")
        with self.op("warm-up generate lineattn twice") as problems:
            first, _ = self.decode(spec, cfg, "lineattn")
            again, _ = self.decode(spec, cfg, "lineattn")
            if again.canonical_body() != first.canonical_body():
                problems.append("two decodes with one seed differ")
            self.check_decode(problems, first, spec, cfg, "lineattn")

    def setup_seconds(self) -> float:
        """Median time of building the decoder and prefilling the condition."""
        cfg = budget(self.spec, self.workload.rho, "lineattn")
        times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            t0 = perf_counter()
            RasterDecoder(self.model).prefill(self.cond, self.spec, cfg, make_policy("lineattn"))
            times.append(perf_counter() - t0)
        return statistics.median(times)

    def decode_round(self, spec=None, rho=None) -> float:
        """One interleaved decode of every policy; returns its seconds."""
        spec = spec or self.spec
        cells = [(p, budget(spec, rho or self.workload.rho, p)) for p in POLICIES]
        spent = 0.0
        with self.op(f"decode {'+'.join(POLICIES)}") as problems:
            for (policy, cfg), (trace, seconds) in zip(cells, self.decode_lines(spec, cells).values()):
                spent += seconds
                self.record_decode(trace, seconds, spec, cfg, policy)
                found = []
                self.check_decode(found, trace, spec, cfg, policy)
                problems += [f"{policy}: {p}" for p in found]
        return spent

    def trace_round(self) -> float:
        """The attention-traced decode, its round trip and ``analyze``, with
        a decode of every policy before the first two so that those samples
        spread over the round. Returns the seconds of the trace stages."""
        self.decode_round()
        spent = 0.0
        spec = self.spec
        cfg = budget(spec, self.workload.rho, "lineattn")
        trace = back = None
        with self.op("attention-traced decode") as problems:
            trace, seconds = self.decode(spec, cfg, "lineattn", trace_attention=True)
            spent += seconds
            problems += checks.decode_problems(trace, spec, cfg, self.model)
            if trace.steps[0].attn is None:
                problems.append("no attention rows recorded")
            key = f"lineattn@{spec.height}x{spec.width}/{cfg.rho}"
            if checks.behaviour_digest(trace) != self.digests.get(key):
                problems.append("attention tracing changed the tokens or evictions")
        if trace is None:
            return spent
        self.decode_round()
        with self.op("trace round trip") as problems:
            path = os.path.join(self.workdir, "trace.jsonl")
            tracer = self.tracer
            if tracer:
                keep = tracer.patched
                tracer.patch(trace, "write", "trace.write")
                tracer.patch(trace, "dumps", "trace.dumps")
            with self.span("op.trace_write"):
                t0 = perf_counter()
                trace.write(path)
                write_s = perf_counter() - t0
            if tracer:
                tracer.restore(keep)
            with self.span("op.trace_read"), self.span("trace.read"):
                t0 = perf_counter()
                back = DecodeTrace.read(path)
                read_s = perf_counter() - t0
            spent += write_s + read_s
            self.stage_s["trace_write_s"].append(write_s)
            self.stage_s["trace_read_s"].append(read_s)
            self.trace_bytes += os.path.getsize(path)
            with self.span("trace.canonical_body"):
                problems += checks.round_trip_problems(trace, back)
        if back is None:
            return spent
        with self.op("analyze") as problems:
            out = os.path.join(self.workdir, "analysis")
            with self.span("op.analyze"):
                t0 = perf_counter()
                for filename, emit in ANALYZE_EMITTERS:
                    with self.span(f"analysis.{emit.__name__}"):
                        emit(back, os.path.join(out, filename))
                analyze_s = perf_counter() - t0
            spent += analyze_s
            self.stage_s["analyze_s"].append(analyze_s)
            problems += checks.analyze_problems(out, back.config)
        return spent

    def sweep_round(self) -> float:
        """A decode of every policy on the sweep's model, then one ``bench``
        sweep; returns the seconds of the sweep. ``bench`` runs its cells
        policy by policy, so its own per-cell rates each cover a few
        seconds; the interleaved decode supplies ``steps_per_s`` instead."""
        mc = self.model
        seeds = [self.seed, self.seed + 1]
        self.decode_round()
        out = tempfile.mkdtemp(prefix="sweep-", dir=self.workdir)
        argv = [
            "bench", "--grid", self.workload.grid, "--rhos", ",".join(SWEEP_RHOS),
            "--policies", ",".join(SWEEP_POLICIES), "--seeds", ",".join(map(str, seeds)),
            "--heads", str(mc.heads), "--kv-heads", str(mc.kv_heads), "--out", out,
        ]
        seconds = 0.0
        with self.op("sweep") as problems:
            tracer = self.tracer
            if tracer:
                keep = tracer.patched
                probes.install_sweep_probe(tracer, lk)
            gc.collect()
            try:
                with self.span("op.sweep"), redirect_stdout(io.StringIO()):
                    t0 = perf_counter()
                    code = linear_kv.cli.main(argv)
                    seconds = perf_counter() - t0
            finally:
                if tracer:
                    tracer.restore(keep)
            if code != 0:
                problems.append(f"bench exited {code}")
            else:
                problems += self.record_sweep(out, seeds)
        shutil.rmtree(out, ignore_errors=True)
        return seconds

    def record_sweep(self, out, seeds) -> list[str]:
        spec, mc = self.spec, self.model
        budgets = {str(Fraction(r)): budget(spec, Fraction(r), "lineattn") for r in SWEEP_RHOS}
        budgets["1"] = budget(spec, Fraction(1), "full")
        problems, summary = checks.sweep_problems(
            out, spec, budgets, SWEEP_POLICIES, seeds, mc, linear_kv.bench.SUMMARY_METRICS
        )
        for row in summary:
            if row["metric"] == "mean_flops_per_step":
                # the flops proxy is 2 * layers * heads * d * span: 8 bytes each
                self.kv_bytes[row["policy"]] += 8 * float(row["value"]) * spec.total
        return problems

    def measure(self, round_fn, seconds: float) -> list[float]:
        """Rounds until the next one would end past ``seconds``; at least one.
        Returns each round's main-op seconds, which exclude the checks."""
        deadline = perf_counter() + seconds
        times = []
        while True:
            t0 = perf_counter()
            times.append(round_fn())
            if perf_counter() + (perf_counter() - t0) > deadline:
                return times


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(name: str, seed: int, seconds: float, traced: bool, out_dir: str) -> dict:
    """Run one workload; returns ops, metrics, digests and extra figures."""
    workload = WORKLOADS[name]
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir)
    r = Run(workload, seed, workdir)
    round_fn = {"decode": r.decode_round, "trace": r.trace_round, "sweep": r.sweep_round}[
        workload.kind
    ]
    gc.disable()  # collections happen between ops, never inside a timed call
    try:
        r.warm_up()
        r.reset_samples()
        setup_s = r.setup_seconds()
        extra = {}
        if traced:
            t0 = perf_counter()
            round_fn()
            left = seconds - (perf_counter() - t0)
            baseline = {p: statistics.median(v) for p, v in r.steps_per_s.items()}
            r.reset_samples()
            tracer = r.tracer = Tracer()
            probes.install_module_probes(tracer, lk)
            try:
                times = r.measure(round_fn, left)
            finally:
                tracer.restore()
                r.tracer = None
            rounds = len(times)
            computed = {
                "trace.bytes": r.trace_bytes / rounds,
                # extra decode time the spans cost, as a share of the untraced time
                "tracing.overhead_share": statistics.fmean(
                    baseline[p] / statistics.median(r.steps_per_s[p]) for p in POLICIES
                ) - 1.0,
            }
            for p in POLICIES:
                computed[f"decoder.kv_bytes_read.{p}"] = r.kv_bytes[p] / rounds
                computed[f"cache.peak_entries.{p}"] = r.peak_entries.get(p, 0)
            metrics = probes.layer_metrics(tracer, rounds, computed)
            units = dict(probes.PER_LAYER)
            extra["spans"] = tracer.dump(os.path.join(out_dir, f"spans-{name}-seed{seed}.npz"))
            extra["span_count"] = len(tracer.start)
        else:
            times = r.measure(round_fn, seconds)
            metrics = {
                "setup_s": setup_s,
                "sweep_s": statistics.median(times),
                "peak_rss_mib": peak_rss_mib(),
            }
            for p in POLICIES:
                metrics[f"steps_per_s.{p}"] = statistics.median(r.steps_per_s[p])
            units = dict(END_TO_END)
            # printed, not gated: they move up to a third between runs
            extra["lineattn.token_gap_ms.p50"] = statistics.median(r.gap_ns) / 1e6
            extra["lineattn.line_stall_ms.p50"] = statistics.median(r.stall_ns) / 1e6
            for stage, values in r.stage_s.items():
                extra[stage] = statistics.median(values)
            extra["samples"] = {
                "rounds": len(times),
                "decodes_per_policy": {p: len(v) for p, v in r.steps_per_s.items()},
                "token_gaps": len(r.gap_ns),
                "line_stalls": len(r.stall_ns),
                "setup_repeats": SETUP_REPEATS,
            }
    finally:
        gc.enable()
        shutil.rmtree(workdir, ignore_errors=True)
    extra["rounds"] = len(times)
    return {
        "attempted": r.attempted,
        "failed": r.failed,
        "failures": r.failures,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "digests": r.digests,
        "extra": extra,
    }
