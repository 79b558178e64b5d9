"""Trace serialization: round trips, record order, timing-free bodies."""

import base64
import json
import os
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linear_kv.baselines import make_policy
from linear_kv.decoder import ModelConfig, RasterDecoder, synth_condition
from linear_kv.errors import LinearKVError
from linear_kv.grid import GridSpec, budget_from_ratio
import linear_kv.trace as trace_module
from linear_kv.trace import TRACE_SCHEMA, DecodeTrace

MODEL = ModelConfig(layers=1, heads=2, kv_heads=1, head_dim=4, vocab=32, cond_len=3, seed=2)


def make_trace(trace_attention=False):
    spec = GridSpec(4, 4)
    cfg = budget_from_ratio(spec, Fraction(3, 4), n_init=4, recent_lines=1)
    decoder = RasterDecoder(MODEL)
    return decoder.generate(
        synth_condition(MODEL), spec, cfg, make_policy("lineattn"), trace_attention
    )


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
            for rec, got in zip(step.attn, back.attn):
                for key, dtype in (("kv_positions", np.int64), ("probs", np.float64)):
                    want = np.asarray(rec[key])
                    assert got[key].dtype == dtype
                    assert got[key].shape == want.shape
                    # bit-exact, not merely equal: compare the raw bytes
                    assert got[key].tobytes() == want.astype(dtype).tobytes()
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
        np.testing.assert_array_equal(probs, trace.steps[5].attn[0]["probs"].ravel())

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["lineattn", "h2o", "streaming", "random", "full"]),
        st.sampled_from([1, 2]),
        st.integers(5, 7),
        st.integers(2, 4),
        st.data(),
    )
    def test_rebuilt_positions_equal_the_recorded_ones(
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
        trace = RasterDecoder(mc).generate(
            synth_condition(mc), spec, cfg, make_policy(policy), trace_attention=True
        )
        path = str(tmp_path_factory.mktemp("rebuild") / "t.jsonl")
        loaded = DecodeTrace.read(trace.write(path))
        for step, back in zip(trace.steps, loaded.steps):
            for rec, got in zip(step.attn, back.attn):
                assert got["kv_positions"].dtype == np.int64
                assert got["kv_positions"].shape == rec["kv_positions"].shape
                assert got["kv_positions"].tobytes() == rec["kv_positions"].tobytes()
        # the last step's rows, plus its own append, minus the last line's
        # evictions, are the cache the run ended with
        last = loaded.steps[-1]
        for layer in range(mc.layers):
            for head in range(kv_heads):
                row = [*last.attn[layer]["kv_positions"][head].tolist(), last.index]
                for ev in loaded.evictions:
                    if (ev.line, ev.layer, ev.head) == (height, layer, head):
                        row = [p for p in row if p not in ev.evicted_positions]
                cached = trace.cache_snapshot["heads"][f"{layer}:{head}"]["positions"]
                assert row == cached

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
        for rec in trace.records():
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


class TestRejectedFiles:
    def test_schema_1_is_rejected(self, tmp_path):
        # schema 1 stored the attention arrays as JSON number lists
        trace = make_trace(trace_attention=True)
        records = _records(trace)
        records[0]["schema"] = 1
        for rec in records:
            if rec["record"] == "step":
                attn = trace.steps[rec["i"]].attn
                rec["attn"] = [{k: v.tolist() for k, v in layer.items()} for layer in attn]
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
        for rec in records:
            if rec["record"] == "step":
                kv = trace.steps[rec["i"]].attn[0]["kv_positions"]
                rec["attn"][0]["kv_positions"] = base64.b64encode(kv.tobytes()).decode()
        _expect("trace-schema-mismatch", tmp_path, records)

    @pytest.mark.parametrize("edit", ["uncached", "negative", "twice", "unsorted", "layer", "head"])
    def test_eviction_the_cache_cannot_apply(self, tmp_path, edit):
        records = _records(make_trace(trace_attention=True))
        at = next(i for i, r in enumerate(records) if r["record"] == "eviction")
        ev = records[at]
        assert ev["line"] == 3 and len(ev["evicted_positions"]) == 4
        if edit == "uncached":
            ev["evicted_positions"][-1] = 12  # step 12 has not run yet
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

    def test_post_len_disagrees_with_the_rebuilt_row(self, tmp_path):
        records = _records(make_trace(trace_attention=True))
        at = next(i for i, r in enumerate(records) if r["record"] == "eviction")
        records[at]["post_len"] += 1
        assert f":{at + 1}: " in _expect("trace-corrupt", tmp_path, records)

    def test_span_disagrees_with_the_rebuilt_row(self, tmp_path):
        records = _records(make_trace(trace_attention=True))
        at = next(i for i, r in enumerate(records) if r["record"] == "eviction")
        # drop the eviction: the next step's span no longer matches the cache
        del records[at]
        assert f":{at + 1}: " in _expect("trace-corrupt", tmp_path, records)

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
