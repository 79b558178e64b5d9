"""Trace serialization: round trips, record order, timing-free bodies."""

import base64
import json
import os
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linear_kv.baselines import make_policy
from linear_kv.cli import main
from linear_kv.decoder import ModelConfig, RasterDecoder, synth_condition
from linear_kv.errors import LinearKVError
from linear_kv.grid import GridSpec, budget_from_ratio
import linear_kv.trace as trace_module
from linear_kv.trace import (
    TRACE_SCHEMA, DecodeTrace, StepRecord, atomic_write, cached_positions,
)

MODEL = ModelConfig(layers=1, heads=2, kv_heads=1, head_dim=4, vocab=32, cond_len=3, seed=2)


def make_trace(trace_attention=False, height=4):
    # a 12-entry budget: every line from the third on evicts, the last excepted
    spec = GridSpec(height, 4)
    cfg = budget_from_ratio(spec, Fraction(3, height), n_init=4, recent_lines=1)
    decoder = RasterDecoder(MODEL)
    return decoder.generate(
        synth_condition(MODEL), spec, cfg, make_policy("lineattn"), trace_attention
    )


def _step_positions(trace):
    """Each step's ``(layers, kv_heads, span - cond_len)`` cached positions."""
    ends = np.cumsum([step.span - trace.config["cond_len"] for step in trace.steps])
    return np.split(cached_positions(trace), ends[:-1], axis=2)


class TestRoundTrip:
    def test_read_back_equals_original(self, tmp_path):
        trace = make_trace()
        path = trace.write(str(tmp_path / "t.jsonl"))
        loaded = DecodeTrace.read(path)
        assert loaded.header == trace.header
        assert loaded.canonical_body() == trace.canonical_body()
        np.testing.assert_array_equal(loaded.final_hidden, trace.final_hidden)
        assert loaded.cache_snapshot == trace.cache_snapshot

    def test_attention_rows_survive(self, tmp_path):
        trace = make_trace(trace_attention=True)
        path = trace.write(str(tmp_path / "t.jsonl"))
        loaded = DecodeTrace.read(path)
        assert len(loaded.steps) == len(trace.steps)
        for step, back in zip(trace.steps, loaded.steps):
            assert len(back.attn) == MODEL.layers
            for want, got in zip(step.attn, back.attn):
                assert got.dtype == np.float64
                assert got.shape == want.shape == (MODEL.heads, step.span)
                # bit-exact, not merely equal: compare the raw bytes
                assert got.tobytes() == want.tobytes()
        assert loaded.canonical_body() == trace.canonical_body()

    def test_attention_holds_only_probs(self, tmp_path):
        trace = make_trace(trace_attention=True)
        path = trace.write(str(tmp_path / "t.jsonl"))
        with open(path) as fh:
            rec = [json.loads(line) for line in fh][6]
        assert rec["record"] == "step"
        assert [sorted(layer) for layer in rec["attn"]] == [["probs"]] * MODEL.layers
        probs = np.frombuffer(base64.b64decode(rec["attn"][0]["probs"]), dtype="<f8")
        assert probs.size == MODEL.heads * rec["span"]
        np.testing.assert_array_equal(probs, trace.steps[5].attn[0].ravel())

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["lineattn", "h2o", "streaming", "random", "full"]),
        st.sampled_from([1, 2]),
        st.integers(5, 7),
        st.integers(2, 4),
        st.data(),
    )
    def test_replayed_positions_equal_the_live_cache(
        self, tmp_path_factory, policy, kv_heads, height, width, data
    ):
        mc = ModelConfig(
            layers=2, heads=2, kv_heads=kv_heads, head_dim=4, vocab=16, cond_len=2, seed=3
        )
        spec = GridSpec(height, width)
        n_init = data.draw(st.sampled_from([0, 1, width]), "n_init")
        recent_lines = data.draw(st.sampled_from([0, 1]), "recent_lines")
        fewest = 2 + -(-n_init // width)  # anchors, one protected line, one to evict
        kept = height if policy == "full" else data.draw(st.integers(fewest, height), "lines")
        cfg = budget_from_ratio(spec, Fraction(kept, height), n_init, recent_lines)
        decoder = RasterDecoder(mc)
        live, decode_step = [], decoder.decode_step

        def snapshot_then_step(state):
            # what each layer's cache holds as the step begins
            live.append(np.stack([state.cache.positions(li) for li in range(mc.layers)]))
            return decode_step(state)

        decoder.decode_step = snapshot_then_step  # generate calls it once per step
        trace = decoder.generate(
            synth_condition(mc), spec, cfg, make_policy(policy), trace_attention=True
        )
        assert len(live) == spec.total
        want = np.concatenate(live, axis=2)
        path = str(tmp_path_factory.mktemp("rebuild") / "t.jsonl")
        loaded = DecodeTrace.read(trace.write(path))
        for source in (trace, loaded):
            got = cached_positions(source)
            assert got.dtype == np.int64
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        # the last step's rows, plus its own append, minus the last line's
        # evictions, are the cache the run ended with
        last, rows = loaded.steps[-1], _step_positions(loaded)[-1]
        for layer in range(mc.layers):
            for head in range(kv_heads):
                row = [*rows[layer, head].tolist(), last.index]
                for ev in loaded.evictions:
                    if (ev.line, ev.layer, ev.head) == (height, layer, head):
                        row = [p for p in row if p not in ev.evicted_positions]
                cached = trace.cache_snapshot["heads"][f"{layer}:{head}"]["positions"]
                assert row == cached

    def test_header_light_trace_reads_back(self, tmp_path):
        # its header names no model, so the summary is not checked against a replay
        trace = _header_light_trace()
        loaded = DecodeTrace.read(trace.write(str(tmp_path / "t.jsonl")))
        assert loaded.dumps() == trace.dumps()
        assert loaded.cache_snapshot == trace.cache_snapshot

    def test_replay_rejects_a_missing_eviction(self):
        trace = make_trace()
        del trace.evictions[0]
        with pytest.raises(LinearKVError) as err:
            cached_positions(trace)
        assert err.value.code == "trace-corrupt"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record": "step", "i": 0}\n')
        with pytest.raises(LinearKVError) as err:
            DecodeTrace.read(str(path))
        assert err.value.code == "trace-missing-header"


class TestRecordOrder:
    def test_evictions_follow_their_line(self):
        trace = make_trace()
        kinds = []
        for rec in _records(trace):
            if rec["record"] == "step":
                kinds.append(("step", rec["i"]))
            elif rec["record"] == "eviction":
                kinds.append(("evict", rec["line"]))
        width = trace.config["width"]
        for pos, (kind, val) in enumerate(kinds):
            if kind == "evict":
                prev_kind, prev_val = kinds[pos - 1]
                if prev_kind == "step":
                    assert (prev_val + 1) // width == val

    def test_file_lines_are_json_objects(self, tmp_path):
        trace = make_trace()
        path = trace.write(str(tmp_path / "t.jsonl"))
        with open(path) as fh:
            lines = [json.loads(line) for line in fh]
        assert lines[0]["record"] == "header"
        assert lines[-1]["record"] == "summary"


class TestCanonicalBody:
    def test_strips_only_timing(self):
        trace = make_trace()
        body = trace.canonical_body().decode()
        assert "step_ns" not in body
        assert '"token"' in body

    def test_timings_do_not_affect_body(self):
        trace = make_trace()
        for step in trace.steps:
            step.step_ns = 123456789
        a = trace.canonical_body()
        for step in trace.steps:
            step.step_ns = 1
        assert trace.canonical_body() == a


def _reference_records(trace):
    """Every record as a dict with its payloads as base64 strings, the way
    traces were built before one encoder made the bytes."""
    yield {"record": "header", "schema": TRACE_SCHEMA, **trace.header}
    by_step = {}
    for ev in trace.evictions:
        by_step.setdefault(ev.line * trace.config["width"] - 1, []).append(ev)
    for step in trace.steps:
        rec = {
            "record": "step", "i": step.index, "line": step.line, "token": step.token,
            "span": step.span, "visual_len": step.visual_len, "step_ns": step.step_ns,
        }
        if step.attn is not None:
            rec["attn"] = [
                {"probs": base64.b64encode(np.asarray(p, "<f8").tobytes()).decode("ascii")}
                for p in step.attn
            ]
        yield rec
        for ev in by_step.get(step.index, ()):
            yield {"record": "eviction", **vars(ev)}
    summary = {"record": "summary"}
    if trace.final_hidden is not None:
        summary["final_hidden"] = np.asarray(trace.final_hidden).tolist()
    if trace.cache_snapshot is not None:
        summary["cache"] = trace.cache_snapshot
    yield summary


def _reference_bytes(trace, timing):
    """One ``json.dumps`` per record, timing fields kept or dropped."""
    out = []
    for rec in _reference_records(trace):
        if not timing:
            rec = {k: v for k, v in rec.items() if k != "step_ns"}
        out.append(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
    return "".join(out).encode()


def _mha_trace():
    mc = ModelConfig(layers=2, heads=2, kv_heads=2, head_dim=4, vocab=32, cond_len=3, seed=5)
    spec = GridSpec(5, 4)
    cfg = budget_from_ratio(spec, Fraction(3, 5), n_init=2, recent_lines=1)
    return RasterDecoder(mc).generate(
        synth_condition(mc), spec, cfg, make_policy("h2o"), trace_attention=True
    )


def _untimed_trace():
    trace = make_trace(trace_attention=True)
    for step in trace.steps:
        step.step_ns = None
    return trace


def _header_light_trace():
    # a header that names no model, as benchmark harnesses build by hand
    run = make_trace()
    cfg = run.config
    header = {"config": {k: cfg[k] for k in ("height", "width", "rho", "budget", "policy", "seed")}}
    steps = [StepRecord(s.index, s.line, s.token, s.span, s.visual_len, s.step_ns) for s in run.steps]
    return DecodeTrace(header, steps, run.evictions, run.final_hidden, run.cache_snapshot)


ENCODER_CASES = {
    "untraced-gqa": make_trace,
    "traced-gqa": lambda: make_trace(trace_attention=True),
    "traced-mha": _mha_trace,
    "untimed": _untimed_trace,
    "header-light": _header_light_trace,
}


class TestEncoder:
    @pytest.mark.parametrize("case", sorted(ENCODER_CASES))
    def test_bytes_equal_one_json_dumps_per_record(self, tmp_path, case):
        trace = ENCODER_CASES[case]()
        timed = _reference_bytes(trace, timing=True)
        assert trace.dumps().encode() == timed
        with open(trace.write(str(tmp_path / "t.jsonl")), "rb") as fh:
            assert fh.read() == timed
        assert trace.canonical_body() == _reference_bytes(trace, timing=False)

    def test_memory_of_the_24x24_traced_trace(self, tmp_path):
        mc = ModelConfig(seed=1)
        spec = GridSpec(24, 24)
        cfg = budget_from_ratio(spec, Fraction(1, 4))
        trace = RasterDecoder(mc).generate(
            synth_condition(mc), spec, cfg, make_policy("lineattn"), trace_attention=True
        )
        path = str(tmp_path / "t.jsonl")
        tracemalloc.start()
        try:
            trace.write(path)
            _, write_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            body = trace.canonical_body()
            _, body_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the file is about 12 MB; write holds one record at a time, and the
        # body's buffer becomes the body
        assert os.path.getsize(path) > 10 * 2**20
        assert write_peak < 2**20
        assert body_peak - before <= 1.5 * len(body)


class TestAtomicWrite:
    @pytest.mark.parametrize("existing", [True, False], ids=["existing", "new"])
    def test_a_stream_that_fails_part_way(self, tmp_path, existing):
        target = tmp_path / "t.jsonl"
        if existing:
            target.write_bytes(b"old bytes\n")

        def chunks():
            yield b"x" * 100_000  # past the write buffer, so the temp file has it
            raise OSError(28, "No space left on device")

        with pytest.raises(LinearKVError) as err:
            atomic_write(str(target), chunks())
        assert err.value.code == "io-error"
        assert "No space left on device" in str(err.value)
        assert os.listdir(tmp_path) == (["t.jsonl"] if existing else [])
        if existing:
            assert target.read_bytes() == b"old bytes\n"


def _records(trace):
    return [json.loads(line) for line in trace.dumps().splitlines()]


def _read_records(tmp_path, records):
    path = tmp_path / "t.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    return DecodeTrace.read(str(path))


def _expect(code, tmp_path, records):
    with pytest.raises(LinearKVError) as err:
        _read_records(tmp_path, records)
    assert err.value.code == code
    return str(err.value)


def _expect_corrupt_line(tmp_path, capsys, records, lineno):
    """``read`` rejects the records at ``lineno``, and ``analyze`` of the same
    file exits 2 with that one error line and no traceback."""
    message = _expect("trace-corrupt", tmp_path, records)
    assert f".jsonl:{lineno}: " in message
    argv = ["analyze", "--trace", str(tmp_path / "t.jsonl"), "--out", str(tmp_path / "a")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    return message


class TestRejectedFiles:
    def test_schema_1_is_rejected(self, tmp_path):
        # schema 1 stored the attention arrays as JSON number lists
        trace = make_trace(trace_attention=True)
        records = _records(trace)
        records[0]["schema"] = 1
        positions = _step_positions(trace)
        for rec in records:
            if rec["record"] == "step":
                attn = zip(positions[rec["i"]], trace.steps[rec["i"]].attn)
                rec["attn"] = [{"kv_positions": kv.tolist(), "probs": p.tolist()} for kv, p in attn]
        _expect("trace-schema-mismatch", tmp_path, records)

    def test_reversed_and_cut_steps(self, tmp_path):
        records = _records(make_trace())
        steps = [r for r in records if r["record"] == "step"]
        _expect("trace-corrupt", tmp_path, [records[0], *steps[::-1][:5], records[-1]])

    def test_skipped_step_index(self, tmp_path):
        records = _records(make_trace())
        del records[4]  # step 3
        message = _expect("trace-corrupt", tmp_path, records)
        assert ":5: step 4" in message

    def test_step_on_the_wrong_line(self, tmp_path):
        records = _records(make_trace())
        assert records[6]["i"] == 5
        records[6]["line"] = 1
        _expect("trace-corrupt", tmp_path, records)

    def test_missing_last_line(self, tmp_path):
        records = [r for r in _records(make_trace()) if r.get("line") != 4]
        message = _expect("trace-corrupt", tmp_path, records)
        assert "12 steps, expected 16" in message

    def test_eviction_before_its_line_ends(self, tmp_path):
        records = _records(make_trace())
        at = next(i for i, r in enumerate(records) if r["record"] == "eviction")
        records[at - 1], records[at] = records[at], records[at - 1]
        _expect("trace-corrupt", tmp_path, records)

    def test_missing_summary(self, tmp_path):
        _expect("trace-corrupt", tmp_path, _records(make_trace())[:-1])

    @pytest.mark.parametrize("payload", ["not base64!", base64.b64encode(b"\0" * 8).decode()])
    def test_bad_attention_payload(self, tmp_path, payload):
        records = _records(make_trace(trace_attention=True))
        records[3]["attn"][0]["probs"] = payload
        message = _expect("trace-corrupt", tmp_path, records)
        assert ":4: " in message

    def test_schema_2_is_rejected(self, tmp_path):
        # schema 2 stored every step's kv_positions next to its probs
        trace = make_trace(trace_attention=True)
        records = _records(trace)
        records[0]["schema"] = 2
        positions = _step_positions(trace)
        for rec in records:
            if rec["record"] == "step":
                kv = positions[rec["i"]][0]
                rec["attn"][0]["kv_positions"] = base64.b64encode(kv.tobytes()).decode()
        _expect("trace-schema-mismatch", tmp_path, records)

    # untraced traces are replayed as well, since their header names the model
    @pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
    @pytest.mark.parametrize(
        "edit", ["uncached", "evicted", "negative", "twice", "unsorted", "layer", "head"]
    )
    def test_eviction_the_cache_cannot_apply(self, tmp_path, edit, traced):
        records = _records(make_trace(traced, height=6))
        at, *later = [i for i, r in enumerate(records) if r["record"] == "eviction"]
        ev = records[at]
        assert ev["line"] == 3 and len(ev["evicted_positions"]) == 4
        if edit == "uncached":
            ev["evicted_positions"][-1] = 12  # step 12 has not run yet
        elif edit == "evicted":
            # increasing, inside the row's range, but gone since line 3
            first, at = ev["evicted_positions"][0], later[0]
            ev = records[at]
            ev["evicted_positions"][0] = first
            assert first not in _step_positions(make_trace(height=6))[12]
            assert ev["evicted_positions"] == sorted(set(ev["evicted_positions"]))
        elif edit == "negative":
            ev["evicted_positions"][0] = -1
        elif edit == "twice":
            ev["evicted_positions"][1] = ev["evicted_positions"][0]
        elif edit == "unsorted":
            ev["evicted_positions"][:2] = ev["evicted_positions"][1::-1]
        else:
            ev[edit] = MODEL.layers if edit == "layer" else MODEL.kv_heads
        message = _expect("trace-corrupt", tmp_path, records)
        assert f":{at + 1}: " in message

    @pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
    def test_post_len_disagrees_with_the_rebuilt_row(self, tmp_path, traced):
        records = _records(make_trace(traced))
        at = next(i for i, r in enumerate(records) if r["record"] == "eviction")
        records[at]["post_len"] += 1
        assert f":{at + 1}: " in _expect("trace-corrupt", tmp_path, records)

    @pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
    @pytest.mark.parametrize("edit", ["drop-eviction", "span"])
    def test_span_disagrees_with_the_rebuilt_row(self, tmp_path, edit, traced):
        records = _records(make_trace(traced))
        at = next(i for i, r in enumerate(records) if r["record"] == "eviction")
        if edit == "span":
            at += 3
            records[at]["span"] += 1
        else:
            # without the eviction the next step's span no longer matches the cache
            del records[at]
        assert records[at]["record"] == "step"
        message = _expect("trace-corrupt", tmp_path, records)
        assert f":{at + 1}: ValueError: span leaves" in message

    @pytest.mark.parametrize(
        "n_init",
        [None, "2", 2.0, True, -1, 17, 10**12],
        ids=["missing", "text", "float", "bool", "negative", "past-the-grid", "huge"],
    )
    def test_bad_header_n_init(self, tmp_path, n_init):
        records = _records(make_trace())
        if n_init is None:
            del records[0]["config"]["n_init"]
        else:
            records[0]["config"]["n_init"] = n_init
        assert ":1: " in _expect("trace-corrupt", tmp_path, records)

    @pytest.mark.parametrize("drop", [0, 5])
    def test_attention_on_some_steps_only(self, tmp_path, drop):
        records = _records(make_trace(trace_attention=True))
        assert records[drop + 1]["i"] == drop
        del records[drop + 1]["attn"]
        message = _expect("trace-corrupt", tmp_path, records)
        assert "attention on some steps" in message

    @pytest.mark.parametrize("retype", [float, lambda value: True], ids=["float", "bool"])
    @pytest.mark.parametrize(
        "kind, key",
        [("step", k) for k in ("i", "line", "token", "span", "visual_len", "step_ns")]
        + [("eviction", k) for k in ("line", "layer", "head", "post_len", "evicted_positions")],
    )
    def test_non_integer_fields(self, tmp_path, kind, key, retype):
        records = _records(make_trace(trace_attention=True))
        at = max(i for i, r in enumerate(records) if r["record"] == kind)
        rec = records[at]
        if key == "evicted_positions":
            rec[key][0] = retype(rec[key][0])
        else:
            rec[key] = retype(rec[key])
        message = _expect("trace-corrupt", tmp_path, records)
        assert f":{at + 1}: " in message

    @pytest.mark.parametrize(
        "edit", ["bogus", "second-header", "summary-mid-file", "summary-twice"]
    )
    def test_record_out_of_order(self, tmp_path, capsys, edit):
        records = _records(make_trace())
        assert records[4]["i"] == 3
        at = 5  # just after step 3
        if edit == "bogus":
            records.insert(at, {"record": "bogus"})
        elif edit == "second-header":
            records.insert(at, records[0])
        elif edit == "summary-mid-file":
            records.insert(at, records.pop())
        else:
            at = len(records)
            records.append(records[-1])
        _expect_corrupt_line(tmp_path, capsys, records, at + 1)

    # checked once the step's line has applied its evictions: at the next
    # step, or at the summary for the last one
    @pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
    @pytest.mark.parametrize("edit", ["step-2", "before-eviction", "last-step"])
    def test_visual_len_disagrees_with_the_rebuilt_row(self, tmp_path, capsys, edit, traced):
        records = _records(make_trace(traced))
        steps = [i for i, r in enumerate(records) if r["record"] == "step"]
        if edit == "step-2":
            at = steps[2]
            assert records[at]["visual_len"] == 3
            records[at]["visual_len"] = 999
        elif edit == "before-eviction":
            # the length the line's last step held before its line evicted
            at = next(i for i, r in enumerate(records) if r["record"] == "eviction") - 1
            records[at]["visual_len"] += len(records[at + 1]["evicted_positions"])
        else:
            at = steps[-1]
            records[at]["visual_len"] += 1
        message = _expect_corrupt_line(tmp_path, capsys, records, at + 1)
        assert f"step {records[at]['i']} visual_len {records[at]['visual_len']}" in message

    @pytest.mark.parametrize("edit", ["row", "cond-len", "float-length", "final-hidden"])
    def test_summary_disagrees_with_the_replay(self, tmp_path, capsys, edit):
        records = _records(make_trace())
        summary = records[-1]
        heads = summary["cache"]["heads"]
        if edit == "row":
            heads["0:0"] = {"length": 5, "positions": [0, 1, 2, 3, 99]}
        elif edit == "cond-len":
            summary["cache"]["cond_len"] += 1
        elif edit == "float-length":
            heads["0:0"]["length"] = float(heads["0:0"]["length"])
        else:
            summary["final_hidden"] = [1.0]
        _expect_corrupt_line(tmp_path, capsys, records, len(records))

    @pytest.mark.parametrize(
        "drop, named",
        [(("final_hidden", "cache"), "final_hidden and cache"),
         (("final_hidden",), "final_hidden"), (("cache",), "cache")],
        ids=["both", "final-hidden", "cache"],
    )
    def test_summary_without_its_fields(self, tmp_path, capsys, drop, named):
        # a header that names the model promises the summary generate writes
        records = _records(make_trace())
        for key in drop:
            del records[-1][key]
        if len(drop) == 2:
            assert records[-1] == {"record": "summary"}
        message = _expect_corrupt_line(tmp_path, capsys, records, len(records))
        assert message.endswith(f"summary lacks {named}")

    def test_header_light_summary_may_be_bare(self, tmp_path):
        records = _records(_header_light_trace())
        records[-1] = {"record": "summary"}
        loaded = _read_records(tmp_path, records)
        assert loaded.final_hidden is None and loaded.cache_snapshot is None

    def test_untimed_steps_read_back(self, tmp_path):
        trace = make_trace()
        for step in trace.steps:
            step.step_ns = None
        loaded = DecodeTrace.read(trace.write(str(tmp_path / "t.jsonl")))
        assert loaded.dumps() == trace.dumps()

    def test_truncated_file_names_the_line(self, tmp_path):
        lines = make_trace(trace_attention=True).dumps().splitlines(keepends=True)
        path = tmp_path / "t.jsonl"
        path.write_text("".join(lines[:6]) + lines[6][: len(lines[6]) // 2])
        with pytest.raises(LinearKVError) as err:
            DecodeTrace.read(str(path))
        assert err.value.code == "trace-corrupt"
        assert ":7: " in str(err.value)

    def test_out_of_range_number_in_the_summary(self, tmp_path):
        records = _records(make_trace())
        records[-1]["final_hidden"] = [10**400]
        message = _expect("trace-corrupt", tmp_path, records)
        assert f":{len(records)}: OverflowError" in message

    def test_missing_file(self, tmp_path):
        with pytest.raises(LinearKVError) as err:
            DecodeTrace.read(str(tmp_path / "absent.jsonl"))
        assert err.value.code == "io-error"


def test_readme_trace_format_names_the_schema():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        section = fh.read().split("## Trace format", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"JSON lines, schema (\d+)", section) == [str(TRACE_SCHEMA)]
    # and so does the example header of the module docstring
    assert re.findall(r'"schema": (\d+)', trace_module.__doc__) == [str(TRACE_SCHEMA)]
