"""Numerically stable dense attention kernels.

Matrices are plain row-major float64 numpy arrays. :func:`softmax_rows` is
the package's reference normalizer; the decode and eviction hot loops run
the identical operation order through :func:`softmax_inplace` or in-place
kernels of their own, so attention numbers agree bitwise wherever they are
recomputed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import LinearKVError


def _require_finite(a: np.ndarray, context: str) -> None:
    if not np.isfinite(a).all():
        raise LinearKVError("non-finite-input", f"{context} contains NaN or Inf")


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction.

    Subtracting the row maximum before exponentiating keeps the result exact
    for constant rows and prevents overflow for logits anywhere in the
    float64 range. Accepts a 1-D vector or a 2-D matrix and preserves the
    input's rank.

    Raises ``empty-softmax-domain`` when there are zero columns: a softmax
    over an empty domain has no well-defined value.
    """
    a = np.asarray(m, dtype=np.float64)
    squeeze = a.ndim == 1
    if squeeze:
        a = a[None, :]
    if a.ndim != 2:
        raise LinearKVError("shape-mismatch", f"expected 1-D or 2-D input, got shape {a.shape}")
    if a.shape[1] == 0:
        raise LinearKVError("empty-softmax-domain", "cannot normalize over zero columns")
    _require_finite(a, "softmax input")
    shifted = a - a.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)
    return out[0] if squeeze else out


def softmax_inplace(a: np.ndarray) -> np.ndarray:
    """Overwrite a float64 array with its softmax along the last axis.

    Same operation order as :func:`softmax_rows` (max subtraction, exp,
    normalize), so the two agree bitwise row for row; this one skips
    validation and returns its input, which is what the per-layer decode
    step needs. The last axis must be non-empty.
    """
    np.subtract(a, a.max(axis=-1, keepdims=True), out=a)
    np.exp(a, out=a)
    a /= a.sum(axis=-1, keepdims=True)
    return a


def attention(q, keys, values, scale: float | None = None) -> np.ndarray:
    """Scaled dot-product attention of query rows over a key/value store.

    ``scale`` defaults to ``1 / sqrt(d)`` where ``d`` is the key width. The
    output is a convex combination of value rows, one output row per query
    row; a 1-D query returns a 1-D output.

    Raises ``empty-cache`` when there are no keys and ``shape-mismatch``
    when query/key widths or key/value row counts disagree.
    """
    qa = np.asarray(q, dtype=np.float64)
    ka = np.asarray(keys, dtype=np.float64)
    va = np.asarray(values, dtype=np.float64)
    squeeze = qa.ndim == 1
    if squeeze:
        qa = qa[None, :]
    if qa.ndim != 2 or ka.ndim != 2 or va.ndim != 2:
        raise LinearKVError(
            "shape-mismatch",
            f"q/K/V must be matrices, got shapes {qa.shape}, {ka.shape}, {va.shape}",
        )
    if ka.shape[0] == 0:
        raise LinearKVError("empty-cache", "no keys to attend over")
    if qa.shape[1] != ka.shape[1] or ka.shape[0] != va.shape[0]:
        raise LinearKVError(
            "shape-mismatch",
            f"incompatible shapes: q {qa.shape}, K {ka.shape}, V {va.shape}",
        )
    _require_finite(qa, "query")
    _require_finite(ka, "keys")
    _require_finite(va, "values")
    if scale is None:
        scale = 1.0 / math.sqrt(qa.shape[1])
    probs = softmax_rows(qa @ ka.T * scale)
    out = probs @ va
    return out[0] if squeeze else out
