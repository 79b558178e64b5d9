"""Config file parsing, precedence, and resolution."""

from fractions import Fraction

import pytest

from linear_kv.config import (
    KINDS,
    RunConfig,
    dump_config,
    load_config,
    parse_config_text,
    save_config,
)
from linear_kv.errors import ConfigError


class TestParsing:
    def test_basic_keys(self):
        values = parse_config_text("grid=4x4\nrho=1/2\nseed=7\n")
        assert values == {"grid": "4x4", "rho": "1/2", "seed": 7}

    def test_comments_and_blanks(self):
        text = "# a full run\n\ngrid=4x4  # inline note\n\npolicy=full\n"
        assert parse_config_text(text) == {"grid": "4x4", "policy": "full"}

    @pytest.mark.parametrize("key", [k for k, kind in KINDS.items() if kind == "bool"])
    def test_booleans(self, key):
        assert parse_config_text(f"{key}=true\n") == {key: True}
        assert parse_config_text(f"{key}=false\n") == {key: False}
        with pytest.raises(ConfigError, match="value-parse"):
            parse_config_text(f"{key}=yes\n")

    def test_unknown_keys_listed(self):
        with pytest.raises(ConfigError, match="unknown-config-keys.*zeta.*zulu"):
            parse_config_text("zulu=1\ngrid=4x4\nzeta=2\n")

    @pytest.mark.parametrize("key", [k for k, kind in KINDS.items() if kind == "int"])
    def test_bad_int(self, key):
        with pytest.raises(ConfigError, match=f"value-parse: {key}='abc' is not an integer"):
            parse_config_text(f"{key}=abc\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="value-parse"):
            parse_config_text("grid 4x4\n")


class TestPrecedence:
    def test_flags_beat_file(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("grid=4x4\nseed=3\npolicy=random\n")
        cfg = load_config(str(path), overrides={"seed": 9})
        assert cfg.seed == 9
        assert cfg.grid == "4x4"
        assert cfg.policy == "random"

    def test_file_beats_defaults(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("layers=1\n")
        cfg = load_config(str(path))
        assert cfg.layers == 1
        assert cfg.grid == RunConfig().grid

    def test_round_trip_identity(self, tmp_path):
        cfg = RunConfig(grid="6x4", rho="1/2", policy="streaming", n_init=2,
                        recent_lines=1, seed=11, trace_attention=True)
        path = save_config(cfg, str(tmp_path / "run.txt"))
        assert load_config(path) == cfg

    def test_defaults_round_trip(self, tmp_path):
        cfg = RunConfig()
        path = save_config(cfg, str(tmp_path / "run.txt"))
        assert load_config(path) == cfg

    def test_dump_skips_unset_optionals(self):
        text = dump_config(RunConfig())
        assert "n_init" not in text
        assert "out" not in text


class TestResolve:
    def test_default_resolution(self):
        spec, cfg, model = RunConfig().resolve()
        assert (spec.height, spec.width) == (8, 8)
        assert cfg.budget == 24
        assert model.layers == 4

    def test_full_policy_forces_whole_ratio(self):
        spec, cfg, _ = RunConfig(rho="1/2", policy="full").resolve()
        assert cfg.rho == Fraction(1)
        assert cfg.budget == spec.total

    def test_unknown_policy(self):
        with pytest.raises(ConfigError, match="unknown-policy"):
            RunConfig(policy="lru").resolve()

    def test_bad_rho_string(self):
        with pytest.raises(ConfigError, match="value-parse"):
            RunConfig(rho="half").resolve()

    def test_explicit_regions_pass_through(self):
        _, cfg, _ = RunConfig(grid="8x8", rho="1/2", n_init=4, recent_lines=2).resolve()
        assert cfg.n_init == 4
        assert cfg.recent_lines == 2
