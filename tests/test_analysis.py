"""Attention-analysis checks against hand-computed traces.

The synthetic trace below is small enough that every expected number was
worked out with pencil and paper; the decoder-backed tests then confirm the
same functions hold their invariants on real runs.
"""

import csv
import hashlib
import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linear_kv.analysis as analysis
from linear_kv.analysis import (
    interline_table,
    locality_profiles,
    write_all,
    write_allocation_csv,
    write_interline_csv,
    write_locality_csv,
    write_summary_json,
)
from linear_kv.baselines import make_policy
from linear_kv.decoder import ModelConfig, RasterDecoder, synth_condition
from linear_kv.errors import LinearKVError
from linear_kv.grid import GridSpec, budget_from_ratio
from linear_kv.policy import EvictionEvent
from linear_kv.trace import DecodeTrace, StepRecord, cached_positions


# step, line, cached positions, attention row (conditional entry first)
SYNTHETIC_ROWS = [
    (0, 1, [], [1.0]),
    (1, 1, [0], [0.5, 0.5]),
    (2, 2, [0, 1], [0.2, 0.3, 0.5]),
    (3, 2, [0, 1, 2], [0.1, 0.5, 0.3, 0.1]),
    (4, 3, [1, 2, 3], [0.25, 0.25, 0.4, 0.1]),
    (5, 3, [1, 2, 3, 4], [0.2, 0.35, 0.15, 0.2, 0.1]),
]


def synthetic_trace(cond_len=1, scale=1.0):
    """Six-step 3x2 run with one head, one layer, and one mid eviction.

    Position 0 is dropped before line 3 starts, so the line-2/line-3
    comparison exercises the zero-fill path. ``scale`` multiplies every
    attention row, so anything but 1 leaves them unnormalized.
    """
    config = {
        "height": 3,
        "width": 2,
        "cond_len": cond_len,
        "layers": 1,
        "heads": 1,
        "kv_heads": 1,
        "n_init": 1,
    }
    steps = [
        StepRecord(
            index=index,
            line=line,
            token=index,
            span=1 + len(kv),
            visual_len=len(kv),
            attn=[scale * np.array([row])],
        )
        for index, line, kv, row in SYNTHETIC_ROWS
    ]
    return DecodeTrace(
        header={"schema": 1, "config": config},
        steps=steps,
        evictions=[EvictionEvent(2, 0, 0, [0], 3)],
        final_hidden=[0.0],
        cache_snapshot={},
    )


def real_trace(height=4, width=4, rho=Fraction(3, 4), policy="lineattn", seed=5, kv_heads=1):
    spec = GridSpec(height, width)
    cfg = budget_from_ratio(spec, rho, n_init=width, recent_lines=1)
    mc = ModelConfig(
        layers=2, heads=2, kv_heads=kv_heads, head_dim=8, vocab=64, cond_len=4, seed=seed
    )
    dec = RasterDecoder(mc)
    return dec.generate(
        synth_condition(mc), spec, cfg, make_policy(policy), trace_attention=True
    )


EMITTERS = (
    ("allocation.csv", write_allocation_csv),
    ("interline.csv", write_interline_csv),
    ("locality.csv", write_locality_csv),
    ("summary.json", write_summary_json),
)


class TestPositions:
    def test_replay_gives_the_hand_written_rows(self):
        want = [p for _, _, kv, _ in SYNTHETIC_ROWS for p in kv]
        assert cached_positions(synthetic_trace()).tolist() == [[want]]


class TestInterline:
    def test_hand_computed_cosine(self):
        # line 2 mean masses on {0, 1}: (0.4, 0.4)
        # line 3 mean masses, position 0 evicted: (0.0, 0.3)
        # cosine = 0.12 / (sqrt(0.32) * 0.3) = 1/sqrt(2)
        table = interline_table(synthetic_trace())
        assert table.shape == (1, 1, 2)
        assert math.isclose(table[0, 0, 1], 1 / math.sqrt(2), abs_tol=1e-12)

    def test_first_line_has_empty_support(self):
        assert interline_table(synthetic_trace())[0, 0, 0] == 0.0

    def test_requires_attention(self):
        trace = real_trace()
        stripped = DecodeTrace(
            header=trace.header,
            steps=[
                StepRecord(s.index, s.line, s.token, s.span, s.visual_len)
                for s in trace.steps
            ],
            evictions=trace.evictions,
            final_hidden=trace.final_hidden,
            cache_snapshot=trace.cache_snapshot,
        )
        for table in (interline_table, locality_profiles):
            with pytest.raises(LinearKVError, match="trace-missing-attention"):
                table(stripped)

    def test_real_trace_values_in_unit_interval(self):
        trace = real_trace()
        cfg = trace.config
        table = interline_table(trace)
        assert table.shape == (cfg["layers"], cfg["heads"], cfg["height"] - 1)
        assert ((table >= 0.0) & (table <= 1.0 + 1e-12)).all()

    @pytest.mark.parametrize("kv_heads", [2, 1], ids=["mha", "gqa"])
    def test_survives_round_trip(self, tmp_path, kv_heads):
        trace = real_trace(kv_heads=kv_heads)
        loaded = DecodeTrace.read(trace.write(str(tmp_path / "run.jsonl")))
        np.testing.assert_array_equal(interline_table(loaded), interline_table(trace))
        for name, emit in EMITTERS:
            written = [emit(source, str(tmp_path / f"{label}-{name}"))
                       for label, source in (("memory", trace), ("file", loaded))]
            with open(written[0], "rb") as memory, open(written[1], "rb") as file:
                assert memory.read() == file.read(), name


class TestLocality:
    def test_hand_computed_buckets(self):
        profile = locality_profiles(synthetic_trace())[0, 0]
        assert math.isclose(profile.anchor_mass, 1.3, abs_tol=1e-12)
        expected = {1: 0.8, 2: 0.9, 3: 0.4, 4: 0.35}
        assert set(profile.distance_mass) == set(expected)
        for dist, mass in expected.items():
            assert math.isclose(profile.distance_mass[dist], mass, abs_tol=1e-12)
        assert math.isclose(profile.total_visual_mass, 3.75, abs_tol=1e-12)

    def test_buckets_partition_visual_mass(self):
        trace = real_trace(policy="streaming")
        profiles = locality_profiles(trace)
        assert len(profiles) == trace.config["layers"] * trace.config["heads"]
        for p in profiles.values():
            assert math.isclose(
                p.anchor_mass + sum(p.distance_mass.values()),
                p.total_visual_mass,
                abs_tol=1e-9,
            )

    def test_distances_are_positive_raster_offsets(self):
        trace = real_trace()
        total = trace.config["height"] * trace.config["width"]
        for p in locality_profiles(trace).values():
            assert all(1 <= d < total for d in p.distance_mass)


class TestEmitters:
    def test_hand_computed_allocation(self, tmp_path):
        path = write_allocation_csv(synthetic_trace(), str(tmp_path / "alloc.csv"))
        with open(path) as fh:
            rows = list(csv.reader(fh))[1:]
        # each line's mean conditional mass over its two steps; step 0
        # attends over the conditional entry alone
        for row, cond_mass in zip(rows, (0.75, 0.15, 0.225)):
            assert math.isclose(float(row[3]), cond_mass, abs_tol=1e-12)
            assert math.isclose(float(row[4]), 1 - cond_mass, abs_tol=1e-12)

    def test_allocation_rejects_unnormalized_rows(self, tmp_path):
        with pytest.raises(LinearKVError, match="non-normalized-attention"):
            write_allocation_csv(synthetic_trace(scale=1.1), str(tmp_path / "alloc.csv"))

    def test_allocation_rejects_a_cond_len_past_a_row(self, tmp_path):
        # the first row holds one entry, so two conditional entries cannot fit
        with pytest.raises(LinearKVError, match="shape-mismatch"):
            write_allocation_csv(synthetic_trace(cond_len=2), str(tmp_path / "alloc.csv"))

    @given(
        weights=st.lists(st.floats(0.01, 10.0), min_size=2, max_size=12),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_allocation_split_is_exhaustive(self, tmp_path_factory, weights, data):
        row = np.array(weights) / sum(weights)
        cond_len = data.draw(st.integers(1, len(weights) - 1))
        # one line of two steps that attend over the same normalized row
        config = {"height": 1, "width": 2, "cond_len": cond_len, "layers": 1, "heads": 1}
        steps = [StepRecord(i, 1, 0, row.size, 0, attn=[row[None]]) for i in range(2)]
        trace = DecodeTrace({"config": config}, steps)
        path = str(tmp_path_factory.mktemp("alloc") / "alloc.csv")
        with open(write_allocation_csv(trace, path)) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2
        cond_mass, visual_mass = map(float, rows[1][3:])
        assert math.isclose(cond_mass, row[:cond_len].sum(), abs_tol=1e-9)
        assert math.isclose(cond_mass + visual_mass, 1.0, abs_tol=1e-9)

    def test_allocation_csv(self, tmp_path):
        trace = real_trace()
        path = str(tmp_path / "alloc.csv")
        write_allocation_csv(trace, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        cfg = trace.config
        assert rows[0] == ["layer", "head", "line", "cond_mass", "visual_mass"]
        assert len(rows) - 1 == cfg["layers"] * cfg["heads"] * cfg["height"]
        for row in rows[1:]:
            cond_mass, visual_mass = float(row[3]), float(row[4])
            assert 0.0 <= cond_mass <= 1.0
            assert math.isclose(cond_mass + visual_mass, 1.0, abs_tol=1e-9)

    def test_interline_csv(self, tmp_path):
        trace = real_trace()
        path = str(tmp_path / "sim.csv")
        write_interline_csv(trace, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        cfg = trace.config
        assert rows[0] == ["layer", "head", "line", "cosine"]
        assert len(rows) - 1 == cfg["layers"] * cfg["heads"] * (cfg["height"] - 1)
        # spot-check one row against the table itself
        layer, head, line, value = rows[1]
        assert float(value) == interline_table(trace)[int(layer), int(head), int(line) - 1]

    def test_locality_csv(self, tmp_path):
        trace = real_trace()
        path = str(tmp_path / "loc.csv")
        write_locality_csv(trace, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["layer", "head", "bucket", "mass"]
        anchors = [r for r in rows[1:] if r[2] == "anchor"]
        assert len(anchors) == trace.config["layers"] * trace.config["heads"]

    def test_summary_json(self, tmp_path):
        trace = real_trace()
        path = str(tmp_path / "summary.json")
        write_summary_json(trace, path)
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["similarity_measure"] == "cosine"
        assert 0.0 < payload["mean_cond_mass"] < 1.0
        assert payload["config"]["policy"] == "lineattn"


# sha256 of the four ``analyze`` outputs. The first two cases were recorded
# with the per-position loop implementation that preceded the array
# emitters: both decode an 8x8 grid at rho 5/8 with evictions on lines 5-7,
# so later lines attend over caches with holes; ``n_init=3`` puts the anchor
# boundary inside a line. The third, recorded before the whole-layer table
# builders, runs ``streaming`` without anchors on a 12x6 grid at rho 1/2, so
# every line from 6 on evicts and no step has an anchor bucket to fill.
PINNED = {
    "lineattn-mha": (
        ModelConfig(layers=2, heads=2, kv_heads=2, head_dim=8, vocab=64, cond_len=4, seed=11),
        "lineattn",
        3,
        (8, 8, Fraction(5, 8), [5, 6, 7]),
        {
            "allocation.csv": "fc7830e0ab3ae3208e6dda67a7551cd0f3f042c2e3290b27fdb7abff68b787fd",
            "interline.csv": "fff9620fdd59b04372021c079554f63286cf653d30158d8319cb6d99c3c39bbe",
            "locality.csv": "7752759ab12e8dd4ada7cefe1526dffaaa15915f18ea2fe23f0af926d37a54dc",
            "summary.json": "83e50c5377a4b94004e19b4f95a13f8bcb06b33e8976e3033a3a5d136aa35b54",
        },
    ),
    "h2o-gqa": (
        ModelConfig(layers=2, heads=4, kv_heads=2, head_dim=8, vocab=64, cond_len=4, seed=11),
        "h2o",
        None,
        (8, 8, Fraction(5, 8), [5, 6, 7]),
        {
            "allocation.csv": "16f9bf03e4c048612a900905954eb8086a218392da6db462607fc670d76089d3",
            "interline.csv": "aa2edb9e46024e3a46c7cd65a9bdee4240cd1451fe9247f06dceaeabe8f9b2b5",
            "locality.csv": "82ca77d56309e1d7a425f194f596a4194ed62d0893af36539330f7bd500a55f4",
            "summary.json": "a1e718d91e52ee257b22d91d9d01fa27dc443aa00c2c70c1cbc260bce3ca51a8",
        },
    ),
    "streaming-no-anchors": (
        ModelConfig(layers=2, heads=4, kv_heads=2, head_dim=8, vocab=64, cond_len=4, seed=11),
        "streaming",
        0,
        (12, 6, Fraction(1, 2), [6, 7, 8, 9, 10, 11]),
        {
            "allocation.csv": "bf856cf09dbcd197f6f7cf7e2889db1e34a5a267302e15939b8defed27b025a9",
            "interline.csv": "7690fe3d1c613cd45c507627ae43edccf52b304a2cea0e59e23c9ed2ef0716e4",
            "locality.csv": "250ed9619c104d78c267a144827112f5acbdae5def0b113bf5a79b0a0c951fa9",
            "summary.json": "01cfd6e485dc4e361045104cafc4c570b7f07a826caa85ab6adf97a331c46c1d",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_outputs_match_pinned_digests(tmp_path, case):
    mc, policy, n_init, (height, width, rho, lines), digests = PINNED[case]
    spec = GridSpec(height, width)
    cfg = budget_from_ratio(spec, rho, n_init=n_init)
    trace = RasterDecoder(mc).generate(
        synth_condition(mc), spec, cfg, make_policy(policy), trace_attention=True
    )
    assert sorted({e.line for e in trace.evictions}) == lines
    loaded = DecodeTrace.read(trace.write(str(tmp_path / "trace.jsonl")))
    for name, emit in EMITTERS:
        for label, source in (("memory", trace), ("file", loaded)):
            path = emit(source, os.path.join(str(tmp_path), f"{label}-{name}"))
            with open(path, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digests[name], (label, name)
    # what `analyze` writes, every table built once
    paths = write_all(loaded, str(tmp_path / "all"))
    assert [os.path.basename(p) for p in paths] == [name for name, _ in EMITTERS]
    for path in paths:
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digests[os.path.basename(path)]


def test_write_all_builds_each_table_once(tmp_path, monkeypatch):
    calls = []
    names = ("_cond_masses", "cached_positions", "_interline_table", "_locality_profiles")
    for name in names:
        real = getattr(analysis, name)

        def counted(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(analysis, name, counted)
    write_all(real_trace(), str(tmp_path))
    # one eviction replay serves both position tables
    assert sorted(calls) == sorted(names)
