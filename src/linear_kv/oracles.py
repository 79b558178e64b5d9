"""Brute-force reference implementations for cross-checking the kernels.

Everything here is written with plain Python loops and ``math.exp`` so the
checks stay independent of the numpy code paths they validate. The test
suite runs its equivalence sweeps against these functions.
"""

from __future__ import annotations

import math


def softmax_rows_reference(rows):
    """Per-row softmax via explicit loops; max-subtracted like the kernel."""
    out = []
    for row in rows:
        top = max(row)
        exps = [math.exp(v - top) for v in row]
        total = sum(exps)
        out.append([e / total for e in exps])
    return out


def attention_reference(q, keys, values, scale):
    """Single-query attention via elementwise dot products."""
    logits = []
    for krow in keys:
        acc = 0.0
        for a, b in zip(q, krow):
            acc += a * b
        logits.append(acc * scale)
    probs = softmax_rows_reference([logits])[0]
    width = len(values[0])
    out = [0.0] * width
    for p, vrow in zip(probs, values):
        for j in range(width):
            out[j] += p * vrow[j]
    return out


def saliency_reference(guide_rows, mid_keys, scale):
    """Per-query softmax over the mid keys, then the mean across queries."""
    m = len(mid_keys)
    total = [0.0] * m
    for q in guide_rows:
        logits = []
        for krow in mid_keys:
            acc = 0.0
            for a, b in zip(q, krow):
                acc += a * b
            logits.append(acc * scale)
        probs = softmax_rows_reference([logits])[0]
        for j in range(m):
            total[j] += probs[j]
    n = len(guide_rows)
    return [t / n for t in total]


def bottom_k_reference(scores, k):
    """Full sort by (score, index); ties resolve to the smaller index."""
    order = sorted(range(len(scores)), key=lambda i: (scores[i], i))
    return sorted(order[:k])


def streaming_retained_reference(n_init, budget, width, line):
    """Sink tokens plus the most recent budget-minus-one-line window.

    Enumerates every generated position and keeps it if it is a sink or
    among the ``budget - width - n_init`` most recent, mirroring the
    post-compression state at the end of ``line`` (1-based).
    """
    generated = list(range(line * width))
    window = max(0, budget - width - n_init)
    non_sink = [p for p in generated if p >= n_init]
    recent = non_sink[len(non_sink) - window :] if window else []
    kept = {p for p in generated if p < n_init} | set(recent)
    return sorted(kept)


def compression_lines_reference(height, width, budget, compressing=True):
    """Lines (1-based) whose end triggers a compression event.

    Simulates per-line growth by ``width`` and shrink-back to
    ``budget - width`` whenever the store has filled and another line still
    follows.
    """
    lines = []
    length = 0
    for line in range(1, height + 1):
        length += width
        if compressing and length >= budget and line < height:
            lines.append(line)
            length = budget - width
    return lines


def mid_region_reference(positions, n_init, cut):
    """Per head row of raster ``positions``, the slice between the anchors
    (below ``n_init``) and the recent lines (from ``cut`` on), by counting."""
    regions = []
    for row in positions:
        anchors = below_cut = 0
        for p in row:
            anchors += p < n_init
            below_cut += p < cut
        regions.append(slice(anchors, below_cut))
    return regions


def full_cache_flops_reference(n_steps, cond_len, layers, heads, head_dim):
    """Total attention flops proxy for an uncompressed run.

    Step ``i`` (0-based) attends over ``cond_len + i`` entries in every
    layer/head before its own KV is appended.
    """
    return sum(
        2 * layers * heads * head_dim * (cond_len + i) for i in range(n_steps)
    )
