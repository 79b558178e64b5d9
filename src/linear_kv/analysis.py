"""Attention analyses over recorded traces.

Three views of where attention mass goes during a run: the conditional
versus visual split per step, the cosine overlap between adjacent lines'
attention on their shared prefix, and a raster-distance histogram. All of
them consume traces recorded with attention enabled; runs without it raise
``trace-missing-attention``. Each view is one pass over the per-(step,
layer) attention arrays; the public single-value functions read the same
tables the file emitters write.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import LinearKVError
from .trace import DecodeTrace, atomic_write, write_csv

SIMILARITY_MEASURE = "cosine"
NORMALIZATION_TOLERANCE = 1e-5


@dataclass(frozen=True)
class Allocation:
    """Mass split of one attention row over conditional vs visual entries."""

    cond_mass: float
    visual_mass: float
    cond_mean: float
    visual_mean: float


def _checked_cond_mass(probs: np.ndarray, cond_len: int) -> np.ndarray:
    """Conditional mass of each row of ``probs`` ``(rows, span)``, after
    checking that every row is normalized."""
    totals = probs.sum(axis=1)
    bad = np.abs(totals - 1.0) > NORMALIZATION_TOLERANCE
    if bad.any():
        raise LinearKVError(
            "non-normalized-attention", f"row sums to {totals[bad][0]}, expected 1"
        )
    if not 1 <= cond_len <= probs.shape[1]:
        raise LinearKVError("shape-mismatch", f"cond_len {cond_len} vs row of {probs.shape[1]}")
    return probs[:, :cond_len].sum(axis=1)


def attention_allocation(row, cond_len: int) -> Allocation:
    """Split one normalized attention row at the conditional boundary.

    ``cond_mean`` and ``visual_mean`` are per-token averages within each
    block; an empty visual block (the very first step) has mean zero.
    """
    r = np.asarray(row, dtype=np.float64)
    cond_mass = float(_checked_cond_mass(r[None], cond_len)[0])
    visual_mass = 1.0 - cond_mass
    visual_count = r.size - cond_len
    return Allocation(
        cond_mass=cond_mass,
        visual_mass=visual_mass,
        cond_mean=cond_mass / cond_len,
        visual_mean=visual_mass / visual_count if visual_count else 0.0,
    )


def _attention(trace: DecodeTrace):
    """Every (layer, step), layer by layer, with the step's attention in that
    layer: the cached positions with one row per query head ``(heads,
    visual)``, and the probabilities ``(heads, span)``."""
    if not trace.steps or trace.steps[0].attn is None:
        raise LinearKVError(
            "trace-missing-attention", "run was not recorded with attention enabled"
        )
    cfg = trace.config
    group = cfg["heads"] // cfg["kv_heads"]
    for layer in range(cfg["layers"]):
        for step in trace.steps:
            rec = step.attn[layer]
            positions = np.repeat(np.asarray(rec["kv_positions"], dtype=np.int64), group, axis=0)
            yield layer, step, positions, np.asarray(rec["probs"], dtype=np.float64)


def _cond_masses(trace: DecodeTrace) -> np.ndarray:
    """Conditional mass of every attention row, ``(steps, layers, heads)``."""
    cfg = trace.config
    out = np.empty((len(trace.steps), cfg["layers"], cfg["heads"]))
    for layer, step, _, probs in _attention(trace):
        out[step.index, layer] = _checked_cond_mass(probs, cfg["cond_len"])
    return out


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    return float(a @ b / denom) if denom else 0.0


def _interline_table(trace: DecodeTrace) -> np.ndarray:
    """Cosine of every (layer, head, line) with the next line,
    ``(layers, heads, height - 1)``. A line's attention mass is summed per
    raster position in one ``(heads, height * width)`` array; the previous
    line's mean stays live until its cosines with this line are taken."""
    cfg = trace.config
    width, cond, heads = cfg["width"], cfg["cond_len"], cfg["heads"]
    out = np.zeros((cfg["layers"], heads, cfg["height"] - 1))
    head_rows = np.arange(heads)[:, None]
    for layer, step, positions, probs in _attention(trace):
        if step.index % width == 0:
            # the shared support: every entry cached when the line began
            support = [row[row < step.index] for row in positions]
            acc = np.zeros((heads, cfg["height"] * width))
        acc[head_rows, positions] += probs[:, cond:]
        if step.index % width == width - 1:
            mean = acc / width
            if step.line > 1:
                for head, keys in enumerate(prev_support):
                    out[layer, head, step.line - 2] = _cosine(prev[head, keys], mean[head, keys])
            prev_support, prev = support, mean
    return out


def interline_similarity(trace: DecodeTrace, layer: int, head: int, line: int) -> float:
    """Cosine overlap of two adjacent lines' mean attention on their prefix.

    The shared support is every position below ``(line - 1) * width``: the
    entries that already existed when ``line`` began. Each line's vector is
    its mean attention mass per shared position across the line's steps,
    with zero where an entry was evicted before the later line ran.
    Nonnegative by construction; zero when the supports ended up disjoint.
    """
    if not 1 <= line < trace.config["height"]:
        raise LinearKVError("line-out-of-range", f"need lines {line} and {line + 1} on the grid")
    return float(_interline_table(trace)[layer, head, line - 1])


@dataclass(frozen=True)
class LocalityProfile:
    """Visual attention mass split into the anchor bucket and exact raster
    distances (query position minus key position, always at least one)."""

    anchor_mass: float
    distance_mass: dict[int, float]
    total_visual_mass: float


def _locality_profiles(trace: DecodeTrace) -> dict[tuple[int, int], LocalityProfile]:
    """The locality profile of every (layer, head), layer by layer."""
    cfg = trace.config
    layers, heads, cond, n_init = cfg["layers"], cfg["heads"], cfg["cond_len"], cfg["n_init"]
    anchor = np.zeros((layers, heads))
    total = np.zeros((layers, heads))
    mass = np.zeros((layers, heads, cfg["height"] * cfg["width"]))
    seen = np.zeros(mass.shape, dtype=bool)
    for layer, step, positions, probs in _attention(trace):
        if positions.shape[1] == 0:
            continue
        visual = probs[:, cond:]
        total[layer] += visual.sum(axis=1)
        # positions are sorted, so each row's anchors are a prefix of it
        for head, count in enumerate(np.count_nonzero(positions < n_init, axis=1).tolist()):
            anchor[layer, head] += visual[head, :count].sum()
        rows, cols = np.nonzero(positions >= n_init)
        dist = step.index - positions[rows, cols]
        mass[layer, rows, dist] += visual[rows, cols]
        seen[layer, rows, dist] = True
    profiles = {}
    for layer, head in np.ndindex(layers, heads):
        dists = np.flatnonzero(seen[layer, head])
        by_dist = dict(zip(dists.tolist(), mass[layer, head, dists].tolist()))
        profiles[layer, head] = LocalityProfile(
            anchor[layer, head].item(), by_dist, total[layer, head].item()
        )
    return profiles


def locality_profile(trace: DecodeTrace, layer: int, head: int) -> LocalityProfile:
    """Aggregate one head's visual attention by raster distance.

    Keys below ``n_init`` land in the anchor bucket, everything else in the
    exact-distance histogram; the buckets partition the visual mass.
    """
    return _locality_profiles(trace)[layer, head]


# -- file emitters -----------------------------------------------------------


def write_allocation_csv(trace: DecodeTrace, path: str) -> str:
    """One row per (layer, head, line): mean cond/visual mass over the line."""
    cfg = trace.config
    width = cfg["width"]
    by_line = _cond_masses(trace).reshape(cfg["height"], width, cfg["layers"], cfg["heads"])
    rows = []
    for layer, head, line in np.ndindex(cfg["layers"], cfg["heads"], cfg["height"]):
        masses = by_line[line, :, layer, head].tolist()
        visual = [1.0 - m for m in masses]
        rows.append([layer, head, line + 1, sum(masses) / width, sum(visual) / width])
    header = ["layer", "head", "line", "cond_mass", "visual_mass"]
    return write_csv(path, header, rows, lineterminator="\n")


def write_interline_csv(trace: DecodeTrace, path: str) -> str:
    """One row per (layer, head, line) with the cosine to the next line."""
    table = _interline_table(trace)
    rows = [
        [layer, head, line + 1, table[layer, head, line].item()]
        for layer, head, line in np.ndindex(table.shape)
    ]
    header = ["layer", "head", "line", SIMILARITY_MEASURE]
    return write_csv(path, header, rows, lineterminator="\n")


def write_locality_csv(trace: DecodeTrace, path: str) -> str:
    """One row per (layer, head, bucket); buckets are 'anchor' or a distance."""
    rows = []
    for (layer, head), profile in _locality_profiles(trace).items():
        rows.append([layer, head, "anchor", profile.anchor_mass])
        for dist in sorted(profile.distance_mass):
            rows.append([layer, head, str(dist), profile.distance_mass[dist]])
    return write_csv(path, ["layer", "head", "bucket", "mass"], rows, lineterminator="\n")


def write_summary_json(trace: DecodeTrace, path: str) -> str:
    """Aggregate allocation/similarity numbers plus the measure metadata."""
    cond_masses = _cond_masses(trace).ravel().tolist()
    sims = _interline_table(trace).ravel().tolist()
    payload = {
        "similarity_measure": SIMILARITY_MEASURE,
        "config": trace.config,
        "mean_cond_mass": sum(cond_masses) / len(cond_masses),
        "mean_interline_similarity": sum(sims) / len(sims) if sims else None,
    }
    return atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
