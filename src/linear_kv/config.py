"""Run configuration: one flat record, readable from key=value files.

The same record backs the CLI flags, so precedence is simply flags over
file over defaults. ``resolve`` turns the raw strings into the typed grid,
budget, and model objects the decoder consumes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

from .baselines import POLICY_NAMES
from .decoder import ModelConfig
from .errors import ConfigError, LinearKVError
from .grid import BudgetConfig, GridSpec, budget_from_ratio
from .trace import atomic_write

_MODEL_DEFAULTS = ModelConfig()


@dataclass
class RunConfig:
    grid: str = "8x8"
    rho: str = "3/8"
    policy: str = "lineattn"
    n_init: int | None = None
    recent_lines: int | None = None
    layers: int = _MODEL_DEFAULTS.layers
    heads: int = _MODEL_DEFAULTS.heads
    kv_heads: int = _MODEL_DEFAULTS.kv_heads
    head_dim: int = _MODEL_DEFAULTS.head_dim
    vocab: int = _MODEL_DEFAULTS.vocab
    cond_len: int = _MODEL_DEFAULTS.cond_len
    seed: int = 0
    trace_attention: bool = False
    out: str | None = None

    def resolve(self) -> tuple[GridSpec, BudgetConfig, ModelConfig]:
        if self.policy not in POLICY_NAMES:
            raise ConfigError(
                "unknown-policy",
                f"{self.policy!r}; known: {', '.join(sorted(POLICY_NAMES))}",
            )
        spec = GridSpec.parse(self.grid)
        try:
            rho = Fraction(self.rho)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError("value-parse", f"rho {self.rho!r}: {exc}") from None
        if self.policy == "full":
            rho = Fraction(1)
        cfg = budget_from_ratio(
            spec, rho, n_init=self.n_init, recent_lines=self.recent_lines
        )
        return spec, cfg, self.model()

    def model(self) -> ModelConfig:
        names = (f.name for f in dataclasses.fields(ModelConfig))
        return ModelConfig(**{name: getattr(self, name) for name in names})


# each key parses as the kind its annotation names: "int | None" as int
KINDS = {f.name: f.type.split(" | ")[0] for f in dataclasses.fields(RunConfig)}


def _parse_value(key: str, text: str):
    if KINDS[key] == "int":
        try:
            return int(text)
        except ValueError:
            raise ConfigError("value-parse", f"{key}={text!r} is not an integer") from None
    if KINDS[key] == "bool":
        if text not in ("true", "false"):
            raise ConfigError("value-parse", f"{key}={text!r}; use true or false")
        return text == "true"
    return text


def parse_config_text(text: str) -> dict:
    """Parse key=value lines; # starts a comment, blank lines are skipped."""
    values = {}
    unknown = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("value-parse", f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KINDS:
            unknown.append(key)
            continue
        values[key] = _parse_value(key, value)
    if unknown:
        raise ConfigError("unknown-config-keys", ", ".join(sorted(unknown)))
    return values


def dump_config(cfg: RunConfig) -> str:
    lines = []
    for f in dataclasses.fields(RunConfig):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name}={value}")
    return "\n".join(lines) + "\n"


def load_config(path: str, overrides: dict | None = None, refuse=()) -> RunConfig:
    """File values under explicit overrides (flags beat the file); no key in ``refuse``."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise LinearKVError("io-error", f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError("value-parse", f"{path} is not UTF-8 text: {exc.reason}") from None
    values = parse_config_text(text)
    if refused := sorted(set(values).intersection(refuse)):
        raise ConfigError("refused-config-keys", f"{path} may not set {', '.join(refused)}")
    values.update(overrides or {})
    return dataclasses.replace(RunConfig(), **values)


def save_config(cfg: RunConfig, path: str) -> str:
    return atomic_write(path, dump_config(cfg))
