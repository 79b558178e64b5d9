"""Golden behaviour digests: tokens, evictions and final hidden states.

Each case decodes an 8x8 grid at rho 5/8 on a 2-layer, head_dim 8 model.
At that cell the mid region (positions ``[n_init, budget - protected
lines * width)``) is wider than one line, so the selection rule decides
what is evicted and every policy leaves its own digest; at cells whose mid
region is exactly one line wide all policies would agree.

A digest is the sha256 of the generated tokens plus every eviction's
``(line, layer, head, positions)``. Floats stay out of it because BLAS
summation order may change; the final hidden state is compared by
tolerance instead. The pinned values were recorded before the per-layer
store refactor, so a change to the cache, decoder or policies that alters
behaviour shows up here.
"""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from linear_kv import GridSpec, ModelConfig, RasterDecoder, budget_from_ratio
from linear_kv import make_policy, synth_condition

MHA = ModelConfig(layers=2, heads=2, kv_heads=2, head_dim=8, vocab=64, cond_len=4, seed=11)
GQA = ModelConfig(layers=2, heads=4, kv_heads=2, head_dim=8, vocab=64, cond_len=4, seed=11)
SPEC = GridSpec(8, 8)
RHO = Fraction(5, 8)

CASES = {
    "lineattn": (MHA, "lineattn", {}),
    "h2o": (MHA, "h2o", {}),
    "streaming": (MHA, "streaming", {}),
    "random": (MHA, "random", {}),
    "lineattn-gqa": (GQA, "lineattn", {}),
    "h2o-gqa": (GQA, "h2o", {}),
    "lineattn-n_init-0": (MHA, "lineattn", {"n_init": 0}),
    "lineattn-n_init-3": (MHA, "lineattn", {"n_init": 3}),
    "lineattn-recent-0": (MHA, "lineattn", {"recent_lines": 0}),
}

GOLDEN = {
    "lineattn": (
        "48f2f5dfa1f85e9d5346d3fc49749cd5864c54c5e5cfc83ed49d02f501ee2fba",
        [
            -0.512434233834, 1.490728668525, -0.403515794737, 0.751620463948,
            1.201842379868, -1.985187749911, -2.204343845999, 0.231013060898,
            -0.355066758858, 1.876837301045, 0.233978523280, 0.206425087502,
            2.331211814814, 0.722525956165, 2.648322604554, 1.083413551099,
        ],
    ),
    "h2o": (
        "772802bff27e2049ea608ddea4e3a429383610c9e2405b72d5e6b3d9966f601e",
        [
            -1.427381624611, 1.299490097904, -0.256518208078, 0.783305977772,
            -0.408624889868, -3.792747083348, -3.142290588252, 1.506284698029,
            0.765259973973, 0.596033191757, 1.565507037711, -0.569128041257,
            -1.292485477351, -1.158735289986, 2.493924594308, 1.708662937835,
        ],
    ),
    "streaming": (
        "68a0aaa7c8b65255302615ef946aa7c4e3a33b851f6a91ac92c178820d23a004",
        [
            -1.697692023006, 2.127638638797, -0.230529354699, 0.854177671079,
            -0.323516534448, -3.546005614514, -2.991981938227, 1.117905854422,
            0.786499140851, 0.620075297765, 1.465317377222, -0.063504157978,
            -1.290393155151, -0.776691902586, 2.741443409310, 1.700088684640,
        ],
    ),
    "random": (
        "713279630240d9557d0c4fd260fa30aee2aec11518a8b6fa7b67a2f25d8d0b12",
        [
            -0.518819018047, 1.560867817749, -0.536865454917, 0.962331877230,
            1.370149637336, -2.007246944915, -2.387157883327, 0.232435640580,
            -0.383594060487, 1.954745783520, 0.201929570844, 0.129151923827,
            2.218450171086, 0.628114982511, 2.929069057714, 1.044057557790,
        ],
    ),
    "lineattn-gqa": (
        "bf31eeb43bc302319779541ff492622a871f5d3ecb33347326cccf6e244feb15",
        [
            -0.567548416301, 0.800559582884, 1.356839649813, -0.657367202376,
            -0.329419485656, -0.740335462439, 0.477969849465, -0.444611259177,
            1.410208453751, -3.049691904990, 2.274508445818, -0.701684884221,
            0.986523038252, 1.458593664208, -0.045542002859, -0.540815867407,
            1.706104921588, -0.177062728589, -0.684476262649, 1.937179060145,
            -0.710898823768, -0.374865876701, 0.783552505198, 0.374479518288,
            -2.357785316053, 0.363165424174, -1.809973352452, -0.888833445755,
            -0.531144909150, 1.336067346357, 1.104092984576, 0.757799292172,
        ],
    ),
    "h2o-gqa": (
        "0c0f183ddf5e09dbd57cc4b04b2db9349065a8687f7096a47b61eefd9db90887",
        [
            -0.207488851146, -2.057860868191, 0.792570795405, -0.039020539659,
            1.705986206504, -0.105570696106, 1.412162956551, 0.960480977425,
            -1.057681906641, -0.134306317429, 0.282388603399, 1.091278295618,
            -3.116942653763, 4.294538035576, 0.943362107333, -1.214030352017,
            2.921271610468, 1.307646732805, -4.325341207435, 1.929861164209,
            2.284449952900, -1.637494107510, 0.448903095534, 0.470449996904,
            1.306519855010, 0.527503044905, 3.826864233630, 0.423273876492,
            -0.452364071454, -0.162511813427, 1.930104411191, 1.920252443516,
        ],
    ),
    "lineattn-n_init-0": (
        "7f8a00ddda73de51a6e840e8d18c6d352184f58512fd7fb9881aa7b90b2bdd46",
        [
            -0.422404122196, -0.579570890537, 1.171931915228, -0.282536454126,
            -0.370837211116, 0.703507414583, 0.547738425190, -1.849375463221,
            0.313104188313, -0.665215906421, 2.480316528450, -0.657082478822,
            -0.997115554724, -0.957916899923, 0.107589530478, 0.314522780499,
        ],
    ),
    "lineattn-n_init-3": (
        "631fc5ebaa7df500cc5d77520162351f6750dff0c85f5cac5d3d20368ac48a96",
        [
            -1.068432426310, 3.180392202140, -1.830686989208, -2.902431412430,
            0.820937133589, -2.655087460241, -2.147918867598, 0.746271623954,
            -1.803085396366, 3.527044023608, -1.973558957620, 0.924951212822,
            2.588262753042, 0.471138335861, 2.096200056725, -0.041838287187,
        ],
    ),
    "lineattn-recent-0": (
        "d80b95971a78204a5077193b678292b7d1b06976c9302fa1caede05cfd45b2d3",
        [
            -0.151235122025, -0.394221530908, 0.470284383700, 0.410816722181,
            -0.481720693612, 0.038520463649, -0.649137234560, -1.241953065503,
            0.144089174738, 0.621097997184, 2.267856119192, -0.649065657880,
            -1.257753506159, -1.375785372158, 1.206793640851, 0.181536982253,
        ],
    ),
}


def behaviour_digest(trace) -> str:
    payload = {
        "tokens": [s.token for s in trace.steps],
        "evictions": [
            [e.line, e.layer, e.head, [int(p) for p in e.evicted_positions]]
            for e in trace.evictions
        ],
    }
    text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def decode(name):
    model, policy, regions = CASES[name]
    cfg = budget_from_ratio(SPEC, RHO, **regions)
    return RasterDecoder(model).generate(synth_condition(model), SPEC, cfg, make_policy(policy))


@pytest.mark.parametrize("name", sorted(CASES))
def test_digest_and_final_hidden_match(name):
    trace = decode(name)
    digest, hidden = GOLDEN[name]
    model = CASES[name][0]
    # events at the ends of lines 5, 6 and 7, one per (layer, kv head)
    assert len(trace.evictions) == 3 * model.layers * model.kv_heads
    assert all(len(e.evicted_positions) == SPEC.width for e in trace.evictions)
    assert behaviour_digest(trace) == digest
    np.testing.assert_allclose(trace.final_hidden, hidden, rtol=0, atol=1e-9)


def test_pinned_digests_tell_the_cases_apart():
    digests = [digest for digest, _ in GOLDEN.values()]
    assert len(set(digests)) == len(digests)
