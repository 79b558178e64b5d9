"""Trace serialization: round trips, record order, timing-free bodies."""

import base64
import json
from fractions import Fraction

import numpy as np
import pytest

from linear_kv.baselines import make_policy
from linear_kv.decoder import ModelConfig, RasterDecoder, synth_condition
from linear_kv.errors import LinearKVError
from linear_kv.grid import GridSpec, budget_from_ratio
from linear_kv.trace import DecodeTrace

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

    def test_attention_is_binary_with_shapes_from_the_header(self, tmp_path):
        trace = make_trace(trace_attention=True)
        path = trace.write(str(tmp_path / "t.jsonl"))
        with open(path) as fh:
            rec = [json.loads(line) for line in fh][6]
        assert rec["record"] == "step"
        layer = rec["attn"][0]
        kv = np.frombuffer(base64.b64decode(layer["kv_positions"]), dtype="<i8")
        probs = np.frombuffer(base64.b64decode(layer["probs"]), dtype="<f8")
        assert kv.size == MODEL.kv_heads * (rec["span"] - MODEL.cond_len)
        assert probs.size == MODEL.heads * rec["span"]
        np.testing.assert_array_equal(kv, trace.steps[5].attn[0]["kv_positions"].ravel())

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

    @pytest.mark.parametrize("edit", ["beyond", "negative", "unsorted"])
    def test_bad_kv_positions(self, tmp_path, edit):
        records = _records(make_trace(trace_attention=True))
        rec = records[7]
        assert rec["i"] == 6
        kv = np.frombuffer(base64.b64decode(rec["attn"][0]["kv_positions"]), "<i8").copy()
        if edit == "beyond":
            kv[-1] = 6
        elif edit == "negative":
            kv[0] = -1
        else:
            kv[[0, 1]] = kv[[1, 0]]
        rec["attn"][0]["kv_positions"] = base64.b64encode(kv.tobytes()).decode()
        message = _expect("trace-corrupt", tmp_path, records)
        assert ":8: " in message

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
