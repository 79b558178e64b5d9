"""Cost-accounting checks: analytic oracles, a hand-timed synthetic trace,
and a small end-to-end sweep."""

import csv
import math
from fractions import Fraction

import pytest

from linear_kv import bench
from linear_kv.baselines import make_policy
from linear_kv.bench import (
    SUMMARY_METRICS,
    entries_per_step,
    flops_per_step,
    full_cache_entries,
    memory_report,
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
        trace = run()
        entries = entries_per_step(trace)
        layers, kv_heads, cond = 2, 2, 4
        for i, value in enumerate(entries):
            assert value == layers * kv_heads * (cond + i)
        assert (entries == full_cache_entries(trace)).all()

    def test_memory_report_full_has_no_savings(self):
        report = memory_report(run())
        assert report.peak_entries == report.full_peak_entries
        assert report.savings == 0.0

    def test_memory_report_compressed_saves(self):
        report = memory_report(run(height=8, width=8, rho=Fraction(1, 2), policy="lineattn"))
        assert 0.0 < report.savings < 1.0
        assert report.peak_entries < report.full_peak_entries

    def test_bytes_at_peak(self):
        report = memory_report(run())
        # 2 scalars per entry pair member, head_dim wide
        assert report.bytes_at_peak("fp16", 8) == report.peak_entries * 2 * 8 * 2
        assert report.bytes_at_peak("fp32", 8) == report.peak_entries * 2 * 8 * 4


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

            def generate(self, cond_tokens, spec, cfg, policy, trace_attention=False):
                decoded.append((policy.name, cfg.rho, self.cfg.seed))
                return super().generate(cond_tokens, spec, cfg, policy, trace_attention)

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

    def test_step_rows_match_oracle(self):
        trace = run(height=8, width=4, rho=Fraction(1, 2), policy="lineattn")
        rows = step_rows(trace, "lineattn", Fraction(1, 2))
        flops = flops_per_step(trace)
        entries = entries_per_step(trace)
        for i, row in enumerate(rows):
            assert row[0] == i
            assert row[3] == int(entries[i])
            assert row[4] * 2 == row[5]  # fp32 doubles fp16
            assert row[6] == int(flops[i])

    def test_summarize_metric_set(self):
        stats = summarize(run())
        assert set(stats) == set(SUMMARY_METRICS)
        assert stats["steps_per_s"] > 0
