"""Numerically stable softmax kernels.

Matrices are plain row-major float64 numpy arrays. :func:`softmax_rows` is
the package's reference normalizer; the decode and eviction hot loops run
the identical operation order through :func:`softmax_inplace` or in-place
kernels of their own, so attention numbers agree bitwise wherever they are
recomputed.
"""

from __future__ import annotations

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

