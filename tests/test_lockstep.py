"""Lockstep decoding: several streams advanced together on one decoder.

``RasterDecoder.decode_steps`` applies each weight matrix to every stream's
own vector in turn, so each stream must behave exactly as it does alone:
the golden cases stepped together keep their pinned digests, and their
final hidden states and attention rows are bit-equal to one-stream runs.
"""

import types
from fractions import Fraction

import numpy as np
import pytest
from test_golden import CASES, GOLDEN, RHO, SPEC, behaviour_digest, decode

import linear_kv.decoder as decoder_module
from linear_kv import GridSpec, ModelConfig, RasterDecoder, budget_from_ratio
from linear_kv import make_policy, synth_condition
from linear_kv.errors import LinearKVError

SMALL = ModelConfig(layers=2, heads=4, kv_heads=2, head_dim=8, vocab=64, cond_len=4, seed=5)


def lockstep(decoder, cases, trace_attention=False):
    """Decode every ``(spec, cfg, policy)`` case to its end in one lockstep."""
    cond = synth_condition(decoder.cfg)
    states = [
        decoder.prefill(cond, spec, cfg, make_policy(policy), trace_attention)
        for spec, cfg, policy in cases
    ]
    steps = [[] for _ in states]
    for _ in range(cases[0][0].total):
        decoder.decode_steps(states)
        for state, records in zip(states, steps):
            records.append(state.step_record())
    return [decoder.trace(state, records) for state, records in zip(states, steps)]


def golden_group(model):
    return [name for name in sorted(CASES) if CASES[name][0] == model]


@pytest.mark.parametrize("streams", [7, 2], ids=["mha-7", "gqa-2"])
def test_golden_cases_stepped_together(streams):
    model = CASES["lineattn" if streams == 7 else "lineattn-gqa"][0]
    names = golden_group(model)
    assert len(names) == streams
    cases = [
        (SPEC, budget_from_ratio(SPEC, RHO, **CASES[name][2]), CASES[name][1]) for name in names
    ]
    traces = lockstep(RasterDecoder(model), cases)
    for name, trace in zip(names, traces):
        assert behaviour_digest(trace) == GOLDEN[name][0], name
        alone = decode(name)
        assert trace.final_hidden.tobytes() == alone.final_hidden.tobytes(), name
        assert trace.canonical_body() == alone.canonical_body(), name


def test_traced_streams_attention_rows_bit_equal():
    spec = GridSpec(8, 8)
    cases = [
        (spec, budget_from_ratio(spec, Fraction(3, 8)), "lineattn"),
        (spec, budget_from_ratio(spec, Fraction(1)), "full"),
    ]
    decoder = RasterDecoder(SMALL)
    together = lockstep(decoder, cases, trace_attention=True)
    for (spec, cfg, policy), trace in zip(cases, together):
        alone = decoder.generate(
            synth_condition(SMALL), spec, cfg, make_policy(policy), trace_attention=True
        )
        for a, b in zip(trace.steps, alone.steps):
            assert len(a.attn) == SMALL.layers
            assert all(x.tobytes() == y.tobytes() for x, y in zip(a.attn, b.attn))
        assert trace.canonical_body() == alone.canonical_body()


def test_decode_step_is_the_one_stream_case(monkeypatch):
    decoder = RasterDecoder(SMALL)
    spec = GridSpec(4, 4)
    state = decoder.prefill([1, 2], spec, budget_from_ratio(spec, Fraction(1)), make_policy("full"))
    calls = []
    steps = decoder.decode_steps
    monkeypatch.setattr(decoder, "decode_steps", lambda states: calls.append(states) or steps(states))
    token = decoder.decode_step(state)
    assert calls == [[state]] and state.tokens == [token]


class TestStepTime:
    """The per-stream timing rule, on a clock that ticks once per reading."""

    @pytest.fixture
    def clock(self, monkeypatch):
        clock = types.SimpleNamespace(now=0, reads=[])

        def read():
            clock.now += 1
            clock.reads.append(clock.now)
            return clock.now

        monkeypatch.setattr(decoder_module, "time", types.SimpleNamespace(perf_counter_ns=read))
        return clock

    def states(self, policies):
        decoder = RasterDecoder(SMALL)
        spec = GridSpec(8, 8)
        states = [
            decoder.prefill([1, 2], spec, budget_from_ratio(spec, Fraction(3, 8)), make_policy(p))
            for p in policies
        ]
        return decoder, states

    def test_one_stream_is_the_wall_time(self, clock):
        decoder, (state,) = self.states(["lineattn"])
        for _ in range(32):
            clock.reads.clear()
            decoder.decode_step(state)
            assert state.last_step["step_ns"] == clock.reads[-1] - clock.reads[0]

    def test_own_sections_are_charged_to_their_stream(self, clock):
        decoder, states = self.states(["lineattn", "h2o", "lineattn"])
        slow = states[1].policy
        observe = slow.observe_attention

        def slow_observe(layer, probs):
            clock.now += 1000
            observe(layer, probs)

        slow.observe_attention = slow_observe
        for _ in range(32):
            clock.reads.clear()
            decoder.decode_steps(states)
            fast, charged, other = (s.last_step["step_ns"] for s in states)
            assert fast == other and charged - fast == 1000 * SMALL.layers
            wall = clock.reads[-1] - clock.reads[0]
            # the shared sections' time splits evenly, up to its remainder
            assert 0 <= wall - (fast + charged + other) < len(states)


class TestRejectedStreams:
    def test_a_finished_stream_stops_the_whole_step(self):
        decoder = RasterDecoder(SMALL)
        spec = GridSpec(2, 2)
        cfg = budget_from_ratio(spec, Fraction(1))
        done, fresh = (decoder.prefill([1], spec, cfg, make_policy("full")) for _ in range(2))
        for _ in range(spec.total):
            decoder.decode_step(done)
        with pytest.raises(LinearKVError) as err:
            decoder.decode_steps([fresh, done])
        assert err.value.code == "generation-complete"
        assert fresh.position == 0 and fresh.cache.visual_len(0, 0) == 0

    def test_one_state_twice(self):
        decoder = RasterDecoder(SMALL)
        spec = GridSpec(2, 2)
        state = decoder.prefill([1], spec, budget_from_ratio(spec, Fraction(1)), make_policy("full"))
        with pytest.raises(LinearKVError) as err:
            decoder.decode_steps([state, state])
        assert err.value.code == "duplicate-stream"
        assert state.position == 0

    def test_no_streams(self):
        assert RasterDecoder(SMALL).decode_steps([]) == []


def test_streams_stepped_together_keep_their_hidden_states():
    # streams on different budgets and policies, evicting at different lines
    decoder = RasterDecoder(SMALL)
    spec = GridSpec(8, 8)
    cases = [(spec, budget_from_ratio(spec, Fraction(r)), p)
             for p, r in (("random", "1/2"), ("streaming", "3/4"), ("h2o", "3/8"))]
    for (spec, cfg, policy), trace in zip(cases, lockstep(decoder, cases)):
        alone = decoder.generate(synth_condition(SMALL), spec, cfg, make_policy(policy))
        np.testing.assert_array_equal(trace.final_hidden, alone.final_hidden)
        assert trace.canonical_body() == alone.canonical_body()
