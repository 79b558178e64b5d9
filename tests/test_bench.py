"""Cost-accounting checks: analytic oracles, a hand-timed synthetic trace,
and a small end-to-end sweep."""

import csv
import hashlib
import math
import os
import re
from fractions import Fraction

import pytest

from linear_kv import bench
from linear_kv.baselines import make_policy
from linear_kv.bench import (
    SUMMARY_METRICS,
    flops_per_step,
    run_sweep,
    split_half_throughput,
    step_rows,
    summarize,
)
from linear_kv.decoder import ModelConfig, RasterDecoder, synth_condition
from linear_kv.errors import LinearKVError
from linear_kv.grid import GridSpec, budget_from_ratio
from linear_kv.oracles import full_cache_flops_reference
from linear_kv.trace import DecodeTrace, StepRecord

SMALL = ModelConfig(layers=2, heads=2, kv_heads=2, head_dim=8, vocab=64, cond_len=4, seed=9)
GQA = ModelConfig(layers=2, heads=4, kv_heads=2, head_dim=8, vocab=64, cond_len=4, seed=9)


def run(height=4, width=4, rho=Fraction(1), policy="full", model=SMALL):
    spec = GridSpec(height, width)
    cfg = budget_from_ratio(spec, rho, n_init=width, recent_lines=1)
    dec = RasterDecoder(model)
    return dec.generate(synth_condition(model), spec, cfg, make_policy(policy))


def timed_trace(timings):
    config = {
        "layers": 1,
        "heads": 1,
        "kv_heads": 1,
        "head_dim": 4,
        "cond_len": 2,
        "height": 2,
        "width": len(timings) // 2,
    }
    steps = [
        StepRecord(index=i, line=1, token=0, span=2 + i, visual_len=i, step_ns=t)
        for i, t in enumerate(timings)
    ]
    return DecodeTrace(
        header={"schema": 1, "config": config},
        steps=steps,
        evictions=[],
        final_hidden=[0.0],
        cache_snapshot={},
    )


class TestFlops:
    def test_full_run_matches_closed_form(self):
        trace = run()
        total = int(flops_per_step(trace).sum())
        expected = full_cache_flops_reference(
            n_steps=16, cond_len=4, layers=2, heads=2, head_dim=8
        )
        assert total == expected

    def test_compressed_run_is_cheaper(self):
        full = int(flops_per_step(run(height=8, width=8)).sum())
        compressed = int(
            flops_per_step(run(height=8, width=8, rho=Fraction(1, 2), policy="lineattn")).sum()
        )
        assert compressed < full

    def test_spans_capped_by_budget(self):
        trace = run(height=8, width=8, rho=Fraction(1, 2), policy="lineattn")
        budget = trace.config["budget"]
        cond = trace.config["cond_len"]
        # the store is trimmed the moment it fills, so no step ever reads
        # a full budget's worth of visual entries
        assert max(s.span for s in trace.steps) == cond + budget - 1
        assert all(s.span <= cond + budget for s in trace.steps)


class TestEntries:
    def test_full_run_entry_curve(self):
        rows = step_rows(run(), "full", Fraction(1))
        layers, kv_heads, cond = 2, 2, 4
        assert len(rows) == 16
        for i, row in enumerate(rows):
            assert row[3] == layers * kv_heads * (cond + i)

    def test_full_run_has_no_savings(self):
        stats = summarize(run())
        assert stats["peak_entries"] == 2 * 2 * (4 + 15)
        assert stats["savings_vs_full"] == 0.0

    def test_compressed_run_saves(self):
        stats = summarize(run(height=8, width=8, rho=Fraction(1, 2), policy="lineattn"))
        assert 0.0 < stats["savings_vs_full"] < 1.0
        assert stats["peak_entries"] < summarize(run(height=8, width=8))["peak_entries"]

    def test_bytes_at_peak(self):
        stats = summarize(run())
        # keys and values, head_dim scalars each
        assert stats["peak_bytes_fp16"] == stats["peak_entries"] * 2 * 8 * 2
        assert stats["peak_bytes_fp32"] == stats["peak_entries"] * 2 * 8 * 4


class TestSplitHalf:
    def test_hand_timed_ratio(self):
        split = split_half_throughput(timed_trace([100, 100, 300, 300]))
        assert split.first_ns == 200
        assert split.second_ns == 600
        assert math.isclose(split.ratio, 1 / 3)

    def test_steady_run_ratio_is_one(self):
        split = split_half_throughput(timed_trace([50] * 10))
        assert math.isclose(split.ratio, 1.0)

    def test_odd_count_splits_short_first(self):
        split = split_half_throughput(timed_trace([100, 100, 100, 100, 100, 100][:5]))
        assert split.first_ns == 200
        assert split.second_ns == 300
        assert math.isclose(split.ratio, 1.0)

    def test_missing_timings_rejected(self):
        trace = timed_trace([100, 100])
        bare = DecodeTrace(
            header=trace.header,
            steps=[StepRecord(s.index, s.line, s.token, s.span, s.visual_len) for s in trace.steps],
            evictions=[],
            final_hidden=[0.0],
            cache_snapshot={},
        )
        with pytest.raises(LinearKVError, match="trace-missing-timings"):
            split_half_throughput(bare)

    def test_real_trace_has_timings(self):
        split = split_half_throughput(run())
        assert split.first_ns > 0 and split.second_ns > 0


class TestSweep:
    def test_outputs_and_columns(self, tmp_path):
        out = str(tmp_path)
        summary = run_sweep(
            GridSpec(8, 4),
            rhos=[Fraction(1, 2)],
            policies=["lineattn", "full"],
            seeds=[0, 1],
            model=SMALL,
            out_dir=out,
            recent_lines=1,
        )
        with open(summary) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["policy", "rho", "seed", "metric", "value"]
        cells = 2 * 2  # policies x seeds (one rho each)
        assert len(rows) - 1 == cells * len(SUMMARY_METRICS)
        policies = {r[1] for r in rows[1:]}
        assert policies == {"1/2", "1"}  # full runs at rho one regardless
        step_file = tmp_path / "steps_lineattn_1-2_seed0.csv"
        with open(step_file) as fh:
            head = next(csv.reader(fh))
        assert head == [
            "step", "policy", "rho", "entries", "bytes_fp16", "bytes_fp32",
            "flops_proxy", "step_ns",
        ]

    def test_each_distinct_cell_decodes_once(self, tmp_path, monkeypatch):
        built, decoded = [], []

        class CountingDecoder(RasterDecoder):
            def __init__(self, cfg):
                built.append(cfg.seed)
                super().__init__(cfg)

            def prefill(self, cond_tokens, spec, cfg, policy, trace_attention=False):
                decoded.append((policy.name, cfg.rho, self.cfg.seed))
                return super().prefill(cond_tokens, spec, cfg, policy, trace_attention)

        monkeypatch.setattr(bench, "RasterDecoder", CountingDecoder)
        summary = run_sweep(
            GridSpec(8, 4),
            rhos=[Fraction(1, 2), Fraction(3, 4)],
            policies=["lineattn", "full"],
            seeds=[0, 1],
            model=SMALL,
            out_dir=str(tmp_path),
            recent_lines=1,
        )
        assert built == [0, 1]
        assert len(decoded) == len(set(decoded)) == 6  # full runs once, at rho one
        with open(summary) as fh:
            keys = [tuple(r[:4]) for r in list(csv.reader(fh))[1:]]
        assert len(keys) == len(set(keys))
        cells = [
            (policy, rho, seed)
            for policy, rho in (("lineattn", "1/2"), ("lineattn", "3/4"), ("full", "1"))
            for seed in ("0", "1")
        ]
        assert keys == [(*cell, metric) for cell in cells for metric in SUMMARY_METRICS]

    def test_lockstep_cells_are_each_timed(self, tmp_path):
        # three cells of one seed share each step; each is charged its own
        # sections plus a third of the shared ones
        cells = [("lineattn", "1-2"), ("h2o", "1-2"), ("full", "1-1")]
        summary = run_sweep(
            GridSpec(8, 4),
            rhos=[Fraction(1, 2)],
            policies=["lineattn", "h2o", "full"],
            seeds=[3],
            model=GQA,
            out_dir=str(tmp_path),
            recent_lines=1,
        )
        for policy, slug in cells:
            with open(tmp_path / f"steps_{policy}_{slug}_seed3.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 32
            assert all(re.fullmatch(r"[1-9][0-9]*", row["step_ns"]) for row in rows)
        with open(summary) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * len(SUMMARY_METRICS)
        values = {(r["policy"], r["metric"]): float(r["value"]) for r in rows}
        for policy, _ in cells:
            assert values[policy, "total_step_ns"] > 0 and values[policy, "steps_per_s"] > 0
            assert math.isfinite(values[policy, "throughput_ratio"])

    def test_step_rows_match_oracle(self):
        # grouped-query attention, so entries (kv heads) and flops (query
        # heads) take different head counts
        trace = run(height=8, width=4, rho=Fraction(1, 2), policy="lineattn", model=GQA)
        rows = step_rows(trace, "lineattn", Fraction(1, 2))
        assert len(rows) == len(trace.steps)
        for i, (row, step) in enumerate(zip(rows, trace.steps)):
            entries = 2 * 2 * step.span
            assert row[:7] == [
                i, "lineattn", "1/2", entries, entries * 2 * 8 * 2, entries * 2 * 8 * 4,
                2 * 2 * 4 * 8 * step.span,
            ]
            assert row[7] == step.step_ns
        assert [row[6] for row in rows] == flops_per_step(trace).tolist()

    def test_summarize_metric_set(self):
        stats = summarize(run())
        assert set(stats) == set(SUMMARY_METRICS)
        assert stats["steps_per_s"] > 0


TIMING_METRICS = (b"total_step_ns", b"steps_per_s", b"throughput_ratio")


def _timing_free(name: str, data: bytes) -> bytes:
    """A ``bench`` output without its timings: the summary rows of the three
    timing metrics dropped, the step files' last column (``step_ns``) cut."""
    lines = data.splitlines(keepends=True)
    if name == "summary.csv":
        return b"".join(line for line in lines if line.split(b",")[3] not in TIMING_METRICS)
    return b"".join(re.sub(rb",[^,]*(?=\r\n$)", b"", line) for line in lines)


def test_sweep_outputs_match_pinned_digest(tmp_path):
    # recorded with the cost accounting that worked its per-span
    # coefficients out in each span function: a GQA model (4 query heads
    # over 2 kv heads), two compressing policies at two ratios and the full
    # cache, over two seeds
    run_sweep(
        GridSpec(8, 4),
        rhos=[Fraction(1, 2), Fraction(3, 4)],
        policies=["lineattn", "h2o", "full"],
        seeds=[0, 1],
        model=GQA,
        out_dir=str(tmp_path),
        recent_lines=1,
    )
    names = sorted(os.listdir(tmp_path))
    assert len(names) == 2 * 5 + 1  # (2 policies x 2 ratios + full) x seeds, and the summary
    digest = hashlib.sha256()
    for name in names:
        with open(tmp_path / name, "rb") as fh:
            digest.update(name.encode() + b"\0" + _timing_free(name, fh.read()))
    assert digest.hexdigest() == "307dd47a06b99da343f3152b6587e7628d1715a7947aeaf30e6b12161b865072"
