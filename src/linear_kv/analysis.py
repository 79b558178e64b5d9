"""Attention analyses over recorded traces.

Three views of where attention mass goes during a run: the conditional
versus visual split per step, the cosine overlap between adjacent lines'
attention on their shared prefix, and a raster-distance histogram. All of
them consume traces recorded with attention enabled; runs without it raise
``trace-missing-attention``. Attention is stored as probabilities only;
the two position views share one ``cached_positions`` replay per
``analyze``. Each view works on one layer at a time, over the visual entries
of all its steps laid side by side in step order. Sums per raster position
are ``np.bincount`` calls, which add their terms in the order a per-step
loop would, and sums within one attention row stay contiguous ``.sum()``
calls, so the outputs match a per-step loop bit for bit. The public table
functions build exactly what the file emitters write.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import LinearKVError
from .trace import DecodeTrace, atomic_write, cached_positions, write_csv

SIMILARITY_MEASURE = "cosine"
NORMALIZATION_TOLERANCE = 1e-5


@dataclass(frozen=True)
class _LayerAttention:
    """One layer's visual attention over a whole run, every step's entries
    side by side in step order: probabilities and cached positions, one row
    per query head ``(heads, entries)``, and the step of each entry
    ``(entries,)``. Step ``s`` owns entries ``start[s] : start[s] + count[s]``."""

    visual: np.ndarray
    positions: np.ndarray
    step: np.ndarray
    start: np.ndarray
    count: np.ndarray


def _layer_probs(trace: DecodeTrace, layer: int) -> list:
    """Each step's ``(heads, span)`` attention rows of one layer, once every
    row is known to cover the conditional block."""
    if not trace.steps or trace.steps[0].attn is None:
        message = "run was not recorded with attention enabled"
        raise LinearKVError("trace-missing-attention", message)
    cond = trace.config["cond_len"]
    probs = [np.asarray(s.attn[layer], dtype=np.float64) for s in trace.steps]
    shortest = min(p.shape[1] for p in probs)
    if not 1 <= cond <= shortest:
        raise LinearKVError("shape-mismatch", f"cond_len {cond} vs row of {shortest}")
    return probs


def _layer_attention(trace: DecodeTrace, layer: int, kv: np.ndarray) -> _LayerAttention:
    """``kv`` is the layer's ``(kv_heads, entries)`` :func:`cached_positions`."""
    cfg = trace.config
    cond = cfg["cond_len"]
    probs = _layer_probs(trace, layer)
    count = np.array([p.shape[1] for p in probs]) - cond
    visual = np.concatenate([p[:, cond:] for p in probs], axis=1)
    positions = np.repeat(kv, cfg["heads"] // cfg["kv_heads"], axis=0)
    if positions.shape != visual.shape:
        message = f"positions {positions.shape} vs visual attention {visual.shape}"
        raise LinearKVError("shape-mismatch", message)
    step = np.repeat(np.arange(len(probs)), count)
    return _LayerAttention(visual, positions, step, np.cumsum(count) - count, count)


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
        probs = _layer_probs(trace, layer)
        totals = np.array([p.sum(axis=1) for p in probs])
        bad = np.abs(totals - 1.0) > NORMALIZATION_TOLERANCE
        if bad.any():
            message = f"row sums to {totals[bad][0]}, expected 1"
            raise LinearKVError("non-normalized-attention", message)
        out[:, layer] = np.stack([p[:, :cond] for p in probs]).sum(axis=2)
    return out


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    return float(a @ b / denom) if denom else 0.0


def interline_table(trace: DecodeTrace) -> np.ndarray:
    """Cosine overlap of adjacent lines' attention on their shared prefix,
    ``(layers, heads, height - 1)``; ``[layer, head, l - 1]`` compares lines
    ``l`` and ``l + 1``.

    The shared support is every position below ``(l - 1) * width``: the
    entries that already existed when ``l`` began. Each line's vector is its
    mean attention mass per shared position across the line's steps, with
    zero where an entry was evicted before the later line ran. Nonnegative
    by construction; zero when the supports ended up disjoint. Each line's
    means are one ``(heads, height, height * width)`` count over the layer.
    """
    return _interline_table(trace, cached_positions(trace))


def _interline_table(trace: DecodeTrace, kv_positions: np.ndarray) -> np.ndarray:
    cfg = trace.config
    height, width, heads = cfg["height"], cfg["width"], cfg["heads"]
    cells = height * width
    out = np.zeros((cfg["layers"], heads, height - 1))
    for layer in range(cfg["layers"]):
        att = _layer_attention(trace, layer, kv_positions[layer])
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


@dataclass(frozen=True)
class LocalityProfile:
    """Visual attention mass split into the anchor bucket and exact raster
    distances (query position minus key position, always at least one)."""

    anchor_mass: float
    distance_mass: dict[int, float]
    total_visual_mass: float


def locality_profiles(trace: DecodeTrace) -> dict[tuple[int, int], LocalityProfile]:
    """Every (layer, head)'s visual attention aggregated by raster distance.

    Keys below ``n_init`` land in the anchor bucket, everything else in the
    exact-distance histogram; the buckets partition the visual mass.
    """
    return _locality_profiles(trace, cached_positions(trace))


def _locality_profiles(trace: DecodeTrace, kv_positions: np.ndarray) -> dict:
    cfg = trace.config
    heads, n_init, steps = cfg["heads"], cfg["n_init"], len(trace.steps)
    cells = cfg["height"] * cfg["width"]
    head_offset = np.arange(heads)[:, None]
    profiles = {}
    for layer in range(cfg["layers"]):
        att = _layer_attention(trace, layer, kv_positions[layer])
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


# -- file emitters -----------------------------------------------------------


def _allocation_csv(cfg: dict, cond_masses: np.ndarray, path: str) -> str:
    width = cfg["width"]
    by_line = cond_masses.reshape(cfg["height"], width, cfg["layers"], cfg["heads"])
    rows = []
    for layer, head, line in np.ndindex(cfg["layers"], cfg["heads"], cfg["height"]):
        masses = by_line[line, :, layer, head].tolist()
        visual = [1.0 - m for m in masses]
        rows.append([layer, head, line + 1, sum(masses) / width, sum(visual) / width])
    header = ["layer", "head", "line", "cond_mass", "visual_mass"]
    return write_csv(path, header, rows, lineterminator="\n")


def _interline_csv(table: np.ndarray, path: str) -> str:
    rows = [
        [layer, head, line + 1, table[layer, head, line].item()]
        for layer, head, line in np.ndindex(table.shape)
    ]
    header = ["layer", "head", "line", SIMILARITY_MEASURE]
    return write_csv(path, header, rows, lineterminator="\n")


def _summary_json(cfg: dict, cond_masses: np.ndarray, table: np.ndarray, path: str) -> str:
    masses = cond_masses.ravel().tolist()
    sims = table.ravel().tolist()
    payload = {
        "similarity_measure": SIMILARITY_MEASURE,
        "config": cfg,
        "mean_cond_mass": sum(masses) / len(masses),
        "mean_interline_similarity": sum(sims) / len(sims) if sims else None,
    }
    return atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _locality_csv(profiles: dict, path: str) -> str:
    rows = []
    for (layer, head), profile in profiles.items():
        rows.append([layer, head, "anchor", profile.anchor_mass])
        for dist in sorted(profile.distance_mass):
            rows.append([layer, head, str(dist), profile.distance_mass[dist]])
    return write_csv(path, ["layer", "head", "bucket", "mass"], rows, lineterminator="\n")


def write_allocation_csv(trace: DecodeTrace, path: str) -> str:
    """One row per (layer, head, line): mean cond/visual mass over the line."""
    return _allocation_csv(trace.config, _cond_masses(trace), path)


def write_interline_csv(trace: DecodeTrace, path: str) -> str:
    """One row per (layer, head, line) with the cosine to the next line."""
    return _interline_csv(interline_table(trace), path)


def write_locality_csv(trace: DecodeTrace, path: str) -> str:
    """One row per (layer, head, bucket); buckets are 'anchor' or a distance."""
    return _locality_csv(locality_profiles(trace), path)


def write_summary_json(trace: DecodeTrace, path: str) -> str:
    """Aggregate allocation/similarity numbers plus the measure metadata."""
    return _summary_json(trace.config, _cond_masses(trace), interline_table(trace), path)


def write_all(trace: DecodeTrace, out: str) -> list[str]:
    """The four emitters' files under ``out``, byte for byte, building the
    eviction replay and each table once for all of them."""
    cfg, masses, kv = trace.config, _cond_masses(trace), cached_positions(trace)
    table = _interline_table(trace, kv)
    return [
        _allocation_csv(cfg, masses, os.path.join(out, "allocation.csv")),
        _interline_csv(table, os.path.join(out, "interline.csv")),
        _locality_csv(_locality_profiles(trace, kv), os.path.join(out, "locality.csv")),
        _summary_json(cfg, masses, table, os.path.join(out, "summary.json")),
    ]
