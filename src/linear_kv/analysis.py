"""Attention analyses over recorded traces.

Three views of where attention mass goes during a run: the conditional
versus visual split per step, the cosine overlap between adjacent lines'
attention on their shared prefix, and a raster-distance histogram. All of
them consume traces recorded with attention enabled; runs without it raise
``trace-missing-attention``. Each view works on one layer at a time, over
the visual entries of all its steps laid side by side in step order. Sums
per raster position are ``np.bincount`` calls, which add their terms in
the order a per-step loop would, and sums within one attention row stay
contiguous ``.sum()`` calls, so the outputs match a per-step loop bit for
bit. The public single-value functions read the same tables the file
emitters write.
"""

from __future__ import annotations

import json
import math
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


def _check_normalized(totals: np.ndarray) -> None:
    bad = np.abs(totals - 1.0) > NORMALIZATION_TOLERANCE
    if bad.any():
        raise LinearKVError(
            "non-normalized-attention", f"row sums to {totals[bad][0]}, expected 1"
        )


def attention_allocation(row, cond_len: int) -> Allocation:
    """Split one normalized attention row at the conditional boundary.

    ``cond_mean`` and ``visual_mean`` are per-token averages within each
    block; an empty visual block (the very first step) has mean zero.
    """
    r = np.asarray(row, dtype=np.float64)
    _check_normalized(r.sum(keepdims=True))
    if not 1 <= cond_len <= r.size:
        raise LinearKVError("shape-mismatch", f"cond_len {cond_len} vs row of {r.size}")
    cond_mass = float(r[:cond_len].sum())
    visual_mass = 1.0 - cond_mass
    visual_count = r.size - cond_len
    return Allocation(
        cond_mass=cond_mass,
        visual_mass=visual_mass,
        cond_mean=cond_mass / cond_len,
        visual_mean=visual_mass / visual_count if visual_count else 0.0,
    )


@dataclass(frozen=True)
class _LayerAttention:
    """One layer's attention over a whole run. ``probs`` keeps each step's
    ``(heads, span)`` array; the visual entries of every step stand side by
    side in step order, one row per query head: their probabilities and
    cached positions ``(heads, entries)`` and the step of each entry
    ``(entries,)``. Step ``s`` owns entries ``start[s] : start[s] + count[s]``."""

    probs: list
    visual: np.ndarray
    positions: np.ndarray
    step: np.ndarray
    start: np.ndarray
    count: np.ndarray


def _layer_attention(trace: DecodeTrace, layer: int) -> _LayerAttention:
    if not trace.steps or trace.steps[0].attn is None:
        raise LinearKVError(
            "trace-missing-attention", "run was not recorded with attention enabled"
        )
    cfg = trace.config
    cond = cfg["cond_len"]
    probs = [np.asarray(s.attn[layer]["probs"], dtype=np.float64) for s in trace.steps]
    count = np.array([p.shape[1] for p in probs]) - cond
    if not 1 <= cond <= cond + count.min():
        raise LinearKVError("shape-mismatch", f"cond_len {cond} vs row of {cond + count.min()}")
    kv = [np.asarray(s.attn[layer]["kv_positions"], dtype=np.int64) for s in trace.steps]
    visual = np.concatenate([p[:, cond:] for p in probs], axis=1)
    positions = np.repeat(np.concatenate(kv, axis=1), cfg["heads"] // cfg["kv_heads"], axis=0)
    if positions.shape != visual.shape:
        raise LinearKVError(
            "shape-mismatch", f"positions {positions.shape} vs visual attention {visual.shape}"
        )
    step = np.repeat(np.arange(len(probs)), count)
    return _LayerAttention(probs, visual, positions, step, np.cumsum(count) - count, count)


def _bins(index: np.ndarray, shape: tuple, weights=None) -> np.ndarray:
    """``np.bincount`` of flat ``index`` into an array of ``shape``. It adds
    the weights in the order given, so with entries in step order every bin
    sums its terms in the order a per-step ``+=`` would."""
    return np.bincount(index, weights, minlength=math.prod(shape)).reshape(shape)


def _cond_masses(trace: DecodeTrace) -> np.ndarray:
    """Conditional mass of every attention row, ``(steps, layers, heads)``,
    after checking that every row is normalized."""
    cfg = trace.config
    cond = cfg["cond_len"]
    out = np.empty((len(trace.steps), cfg["layers"], cfg["heads"]))
    for layer in range(cfg["layers"]):
        att = _layer_attention(trace, layer)
        _check_normalized(np.array([p.sum(axis=1) for p in att.probs]))
        out[:, layer] = np.stack([p[:, :cond] for p in att.probs]).sum(axis=2)
    return out


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    return float(a @ b / denom) if denom else 0.0


def _interline_table(trace: DecodeTrace) -> np.ndarray:
    """Cosine of every (layer, head, line) with the next line,
    ``(layers, heads, height - 1)``. Each line's mean attention mass per
    raster position is one ``(heads, height, height * width)`` count over
    the layer's entries."""
    cfg = trace.config
    height, width, heads = cfg["height"], cfg["width"], cfg["heads"]
    cells = height * width
    out = np.zeros((cfg["layers"], heads, height - 1))
    for layer in range(cfg["layers"]):
        att = _layer_attention(trace, layer)
        line = att.step // width
        index = ((np.arange(heads)[:, None] * height + line) * cells + att.positions).ravel()
        mean = _bins(index, (heads, height, cells), att.visual.ravel()) / width
        for prev in range(height - 1):
            # the shared support: every entry cached when the earlier line began
            first = prev * width
            at = att.start[first]
            support = att.positions[:, at : at + att.count[first]]
            for head, keys in enumerate(support):
                out[layer, head, prev] = _cosine(mean[head, prev, keys], mean[head, prev + 1, keys])
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
    heads, n_init, steps = cfg["heads"], cfg["n_init"], len(trace.steps)
    cells = cfg["height"] * cfg["width"]
    head_offset = np.arange(heads)[:, None]
    profiles = {}
    for layer in range(cfg["layers"]):
        att = _layer_attention(trace, layer)
        is_anchor = att.positions < n_init
        anchor_count = _bins((att.step + steps * head_offset)[is_anchor], (heads, steps))
        # positions are sorted, so each row's anchors are a prefix of its
        # step's entries; each prefix is summed as one contiguous run (a
        # C-ordered gather keeps it the reduction's inner loop), and the
        # steps are then accumulated in order
        sums = np.zeros((steps, heads))
        full = (anchor_count == n_init).all(axis=0)
        prefix = att.start[full][:, None] + np.arange(n_init)
        sums[full] = np.take(att.visual, prefix, axis=1).sum(axis=2).T
        for step in np.flatnonzero(~full).tolist():
            at = att.start[step]
            for head, count in enumerate(anchor_count[:, step].tolist()):
                sums[step, head] = att.visual[head, at : at + count].sum()
        anchor = np.cumsum(sums, axis=0)[-1]
        total = att.visual.sum(axis=1)
        # anchors add zero to distance 0, a bin no other entry reaches
        dist = np.where(is_anchor, 0, att.step - att.positions)
        index = (dist + cells * head_offset).ravel()
        mass = _bins(index, (heads, cells), np.where(is_anchor, 0.0, att.visual).ravel())
        seen = _bins(index, (heads, cells), ~is_anchor.ravel()) > 0
        for head in range(heads):
            dists = np.flatnonzero(seen[head])
            by_dist = dict(zip(dists.tolist(), mass[head, dists].tolist()))
            profiles[layer, head] = LocalityProfile(
                anchor[head].item(), by_dist, total[head].item()
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
