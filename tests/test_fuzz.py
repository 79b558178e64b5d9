"""Fuzzing the input parsers: whatever the bytes, the only exception is a
coded ``LinearKVError``."""

import dataclasses
import json
import os
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from linear_kv.baselines import make_policy
from linear_kv.config import RunConfig, parse_config_text
from linear_kv.decoder import ModelConfig, RasterDecoder, synth_condition
from linear_kv.errors import LinearKVError
from linear_kv.grid import GridSpec, budget_from_ratio
from linear_kv.trace import DecodeTrace

CONFIG_KEYS = [f.name for f in dataclasses.fields(RunConfig)]

config_lines = st.lists(
    st.one_of(
        st.text(max_size=40),
        st.builds(
            lambda key, value: f"{key}={value}",
            st.sampled_from(CONFIG_KEYS),
            st.one_of(
                st.text(max_size=12),
                st.integers(-(10**12), 10**12).map(str),
                st.builds(lambda a, b: f"{a}/{b}", st.integers(-9, 99), st.integers(-9, 99)),
                st.builds(lambda h, w: f"{h}x{w}", st.integers(-2, 10**12), st.integers(-2, 10**12)),
            ),
        ),
    ),
    max_size=8,
).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), config_lines))
def test_config_text_raises_only_coded_errors(text):
    try:
        values = parse_config_text(text)
        dataclasses.replace(RunConfig(), **values).resolve()
    except LinearKVError:
        pass


@pytest.fixture(scope="module")
def trace_bytes(tmp_path_factory):
    mc = ModelConfig(layers=1, heads=2, kv_heads=1, head_dim=4, vocab=16, cond_len=2, seed=1)
    spec = GridSpec(4, 4)
    trace = RasterDecoder(mc).generate(
        synth_condition(mc), spec, budget_from_ratio(spec, Fraction(3, 4)),
        make_policy("lineattn"), trace_attention=True,
    )
    assert trace.evictions
    path = str(tmp_path_factory.mktemp("fuzz") / "trace.jsonl")
    trace.write(path)
    with open(path, "rb") as fh:
        return path, fh.read()


def _read(path, data):
    with open(path, "wb") as fh:
        fh.write(data)
    try:
        DecodeTrace.read(path)
    except LinearKVError:
        pass


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_damaged_trace_raises_only_coded_errors(trace_bytes, data):
    path, original = trace_bytes
    at = data.draw(st.integers(0, len(original) - 1))
    if data.draw(st.booleans()):
        damaged = original[:at]
    else:
        damaged = original[:at] + bytes([data.draw(st.integers(0, 255))]) + original[at + 1 :]
    _read(path + ".damaged", damaged)


# edge values first, so they are drawn often; 10**400 overflows a float64
json_values = st.sampled_from([10**400, -1, 0, 2**63, "", [], {}]) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data(), json_values)
def test_edited_record_raises_only_coded_errors(trace_bytes, data, value):
    path, original = trace_bytes
    records = [json.loads(line) for line in original.splitlines()]
    # pick the kind first, so the one header and summary are drawn as often as steps
    kind = data.draw(st.sampled_from(["header", "config", "step", "eviction", "summary"]))
    rec = data.draw(st.sampled_from(
        [r for r in records if r["record"] == kind.replace("config", "header")]
    ))
    if kind == "config":
        rec = rec["config"]
    rec[data.draw(st.sampled_from(sorted(rec)))] = value
    text = "".join(json.dumps(r) + "\n" for r in records)
    _read(path + ".edited", text.encode())


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=512))
def test_arbitrary_bytes_raise_only_coded_errors(tmp_path_factory, data):
    path = os.path.join(tmp_path_factory.getbasetemp(), "arbitrary.jsonl")
    _read(path, data)
