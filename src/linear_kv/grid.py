"""Grid geometry and cache-budget arithmetic.

The visual token stream is a raster scan of ``height`` lines of ``width``
tokens. Budgets are expressed as an exact fraction of the total token count
and must land on a whole number of lines, because compression always evicts
one line's worth of entries at a line boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError

DEFAULT_RECENT_LINES = 2


@dataclass(frozen=True)
class GridSpec:
    """2-D view of the token sequence: ``height`` raster lines of ``width``."""

    height: int
    width: int

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ConfigError(
                "grid-degenerate", f"grid must be at least 1x1, got {self.height}x{self.width}"
            )

    @property
    def total(self) -> int:
        return self.height * self.width

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        """Parse ``"HxW"`` (case-insensitive separator)."""
        parts = text.lower().split("x")
        try:
            height, width = (int(p) for p in parts)
        except ValueError:
            raise ConfigError("grid-parse", f"expected HxW, got {text!r}") from None
        return cls(height, width)


@dataclass(frozen=True)
class BudgetConfig:
    """Cache budget plus the protected-region widths.

    ``budget`` caps the visual entries cached per head. The first ``n_init``
    raster positions (anchors) and the last ``recent_lines`` lines, counting
    the line just finished, are never evicted; the just-finished line is
    kept even at ``recent_lines=0``. Construction does not validate; call
    :meth:`validate` or build through :func:`budget_from_ratio` before
    driving a pipeline with it.
    """

    rho: Fraction
    budget: int
    n_init: int
    recent_lines: int

    @property
    def protected_lines(self) -> int:
        # the line whose queries guide an eviction is always kept, so
        # recent_lines=0 still leaves a one-line buffer
        return max(self.recent_lines, 1)

    def compression_lines(self, spec: GridSpec) -> range:
        """Lines (1-based) whose end compresses: from the first line that fills
        the budget up to the last but one. None under a full budget."""
        return range(self.budget // spec.width, spec.height) if self.rho < 1 else range(0)

    def evictable(self, spec: GridSpec) -> slice:
        """Store indices every compression evicts from. The store gains one
        line per line and sheds one per compression, so each compression finds
        it exactly full: the ``n_init`` anchors, this mid region, then the
        last ``protected_lines`` lines."""
        mid = slice(self.n_init, self.budget - self.protected_lines * spec.width)
        if mid.stop - mid.start < spec.width:
            raise ConfigError(
                "insufficient-mid-tokens",
                f"mid region holds {max(mid.stop - mid.start, 0)} entries, need {spec.width}",
            )
        return mid

    def validate(self, spec: GridSpec) -> "BudgetConfig":
        if not 0 < self.rho <= 1:
            raise ConfigError("rho-out-of-range", f"rho must be in (0, 1], got {self.rho}")
        if self.budget != self.rho * spec.total:
            raise ConfigError(
                "budget-not-line-aligned",
                f"budget {self.budget} does not equal rho*N = {self.rho * spec.total}",
            )
        if self.budget % spec.width:
            raise _misaligned(spec, self.rho)
        if self.n_init < 0 or self.recent_lines < 0:
            raise ConfigError(
                "region-negative",
                f"n_init={self.n_init}, recent_lines={self.recent_lines}",
            )
        if self.rho < 1:
            needed = self.n_init + (self.protected_lines + 1) * spec.width
            if self.budget < needed:
                raise ConfigError(
                    "budget-infeasible",
                    f"budget {self.budget} cannot hold {self.n_init} anchors plus "
                    f"{self.protected_lines + 1} protected lines and still evict a full "
                    f"line; need at least {needed}",
                )
        return self


def _misaligned(spec: GridSpec, rho: Fraction) -> ConfigError:
    # the valid ratios are k / height for k in 1..height; name the two around rho
    lines = rho * spec.height
    near = ", ".join(
        str(Fraction(k, spec.height))
        for k in sorted({math.floor(lines), math.ceil(lines)})
        if 1 <= k <= spec.height
    )
    return ConfigError(
        "budget-not-line-aligned",
        f"rho={rho} over a {spec.height}x{spec.width} grid is not a whole number of "
        f"{spec.width}-token lines; nearest valid ratios: {near}",
    )


def budget_from_ratio(
    spec: GridSpec,
    rho,
    n_init: int | None = None,
    recent_lines: int | None = None,
) -> BudgetConfig:
    """Resolve a keep ratio into a validated :class:`BudgetConfig`.

    Defaults: one full anchor line, and two recent lines reduced (never
    below one) when the budget is too small to protect two lines and still
    leave a line's worth of eviction candidates. Explicit values are
    validated strictly with no clamping.
    """
    rho = Fraction(rho)
    if not 0 < rho <= 1:
        raise ConfigError("rho-out-of-range", f"rho must be in (0, 1], got {rho}")
    exact = rho * spec.total
    if exact.denominator != 1 or exact.numerator % spec.width:
        raise _misaligned(spec, rho)
    budget = int(exact)
    if n_init is None:
        n_init = spec.width
    if recent_lines is None:
        if rho == 1:
            recent_lines = DEFAULT_RECENT_LINES
        else:
            recent_lines = min(DEFAULT_RECENT_LINES, (budget - n_init) // spec.width - 1)
            if recent_lines < 1:
                raise ConfigError(
                    "budget-infeasible",
                    f"budget {budget} cannot hold {n_init} anchors, one recent line "
                    f"and one line of eviction candidates",
                )
    return BudgetConfig(rho, budget, n_init, recent_lines).validate(spec)
