"""Tests of the benchmark's own logic (not of linear_kv).

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import linear_kv as lk
import checks
import probes
import workloads
from linear_kv import GridSpec
from tracer import Tracer, self_times

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] holds a [10, 40] and b [50, 70]; a holds c [15, 25]
    parent = [-1, 0, 0, 1]
    start = [0, 10, 50, 15]
    end = [100, 40, 70, 25]
    assert self_times(parent, start, end).tolist() == [50, 20, 20, 10]


def test_self_time_of_recorded_spans_adds_up_to_the_root():
    tracer = Tracer()
    inner = tracer.wrap(lambda: sum(range(1000)), "inner")
    with tracer.span("op.root"):
        for _ in range(3):
            inner()
    a = tracer.arrays()
    own = self_times(a["parent"], a["start"], a["end"])
    assert a["parent"].tolist() == [-1, 0, 0, 0]
    assert (own >= 0).all()
    assert own.sum() == a["end"][0] - a["start"][0]


def test_metric_names_and_units_are_well_formed_and_unique():
    metrics = workloads.END_TO_END + probes.PER_LAYER
    names = [n for n, _ in metrics]
    assert len(names) == len(set(names))
    for name, unit in metrics:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == workloads.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == probes.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _run(tmp_path):
    return workloads.Run(workloads.WORKLOADS["trace-24"], 0, str(tmp_path))


def test_forced_check_failure_counts_as_a_failed_op(tmp_path):
    run = _run(tmp_path)
    with run.op("fine") as problems:
        problems += []
    with run.op("fake") as problems:
        problems.append("forced failure")
    with run.op("raises"):
        raise ValueError("boom")
    assert (run.attempted, run.failed) == (3, 2)
    assert run.failures[0] == "fake: forced failure"
    assert "ValueError: boom" in run.failures[1]


def test_decode_checks_catch_a_tampered_eviction(tmp_path):
    run = _run(tmp_path)
    spec = GridSpec.parse(workloads.WARMUP_GRID)
    cfg = workloads.budget(spec, workloads.WARMUP_RHO, "lineattn")
    trace, _ = run.decode(spec, cfg, "lineattn")
    assert checks.decode_problems(trace, spec, cfg, run.model) == []
    first = trace.evictions[0]
    trace.evictions[0] = type(first)(
        first.line, first.layer, first.head, first.evicted_positions[1:], first.post_len + 1
    )
    assert checks.decode_problems(trace, spec, cfg, run.model)


def test_line_stalls_are_the_steps_that_close_evicting_lines(tmp_path):
    run = _run(tmp_path)
    spec = GridSpec(4, 3)
    run.record_latency(list(range(12)), spec, [2, 3])
    assert run.stall_ns == [5, 8]
    assert len(run.gap_ns) == 12


def test_tracer_restores_every_function_it_wrapped(tmp_path):
    modules = {
        (lk.decoder, "softmax_inplace"), (lk.policy, "saliency"), (lk.policy, "bottom_k"),
        (lk.baselines, "random_evict"), (lk.baselines, "streaming_retain"),
        (lk.bench, "summarize"), (lk.bench, "step_rows"), (lk.bench, "RasterDecoder"),
    }
    before = {(m, a): getattr(m, a) for m, a in modules}
    run = _run(tmp_path)
    tracer = run.tracer = Tracer()
    probes.install_module_probes(tracer, lk)
    probes.install_sweep_probe(tracer, lk)
    assert all(getattr(m, a) is not before[m, a] for m, a in modules)
    spec = GridSpec.parse(workloads.WARMUP_GRID)
    for policy in probes.POLICIES:
        cfg = workloads.budget(spec, workloads.WARMUP_RHO, policy)
        run.decode(spec, cfg, policy)
    decoder = lk.bench.RasterDecoder(run.model)
    state = decoder.prefill(run.cond, spec, cfg, lk.make_policy("lineattn"))
    tracer.restore()
    assert tracer.patched == 0
    assert all(getattr(m, a) is before[m, a] for m, a in modules)
    for obj in (decoder, state.cache, state.policy):
        assert not any(hasattr(v, "__wrapped__") for v in vars(obj).values())
    names = set(tracer.names)
    assert {"decoder.decode_step", "attention.softmax", "cache.compact",
            "policy.saliency", "baselines.random_evict"} <= names


def test_layer_metrics_split_time_by_policy_and_round(tmp_path):
    tracer = Tracer()
    step = tracer.wrap(lambda: None, "decoder.decode_step")
    for policy in ("full", "lineattn", "lineattn"):
        tracer.begin_decode(policy)
        with tracer.span("op.decode"):
            step()
    tracer.count("policy.guide_rows_pushed", 8)
    tracer.count("policy.guide_rows_scored", 2)
    out = probes.layer_metrics(tracer, rounds=2, computed={"trace.bytes": 5.0})
    a = tracer.arrays()
    dur = (a["end"] - a["start"]) / 1e9
    assert out["decoder.self_s.lineattn"] == pytest.approx((dur[3] + dur[5]) / 2)
    assert out["decoder.self_s.full"] == pytest.approx(dur[1] / 2)
    assert out["policy.guide_useful_ratio"] == 0.25
    assert out["trace.bytes"] == 5.0
    assert out["analysis.allocation_s"] == 0.0
    assert list(out) == [n for n, _ in probes.PER_LAYER]


def test_compression_lines_follow_the_cadence():
    spec = GridSpec(64, 64)
    cfg = lk.budget_from_ratio(spec, Fraction(11, 64))
    lines = checks.compression_lines(spec, cfg)
    assert lines[0] == 11 and lines[-1] == 63 and len(lines) == 53
    assert checks.compression_lines(spec, lk.budget_from_ratio(spec, Fraction(1))) == []


def test_digest_ignores_floats_but_not_tokens(tmp_path):
    run = _run(tmp_path)
    spec = GridSpec.parse(workloads.WARMUP_GRID)
    cfg = workloads.budget(spec, workloads.WARMUP_RHO, "h2o")
    trace, _ = run.decode(spec, cfg, "h2o")
    digest = checks.behaviour_digest(trace)
    trace.final_hidden = np.zeros_like(trace.final_hidden)
    assert checks.behaviour_digest(trace) == digest
    trace.steps[0].token += 1
    assert checks.behaviour_digest(trace) != digest
