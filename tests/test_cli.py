"""End-to-end command-line runs in temporary directories."""

import argparse
import base64
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

import linear_kv
from linear_kv.cli import _run_config, build_parser, main
from linear_kv.config import RunConfig, load_config, save_config
from linear_kv.decoder import ModelConfig
from linear_kv.grid import BudgetConfig, GridSpec
from linear_kv.trace import DecodeTrace

SMALL = [
    "--grid", "6x4", "--rho", "1/2", "--n-init", "2", "--recent-lines", "1",
    "--layers", "1", "--heads", "2", "--kv-heads", "1", "--head-dim", "8",
    "--cond-len", "4",
]
# bench takes no single-run ratio: its own --rhos replace it
SWEEP = [f for f in SMALL if f not in ("--rho", "1/2")]


def test_generate_writes_trace_and_config(tmp_path):
    out = str(tmp_path / "run")
    code = main(["generate", *SMALL, "--out", out])
    assert code == 0
    trace = DecodeTrace.read(os.path.join(out, "trace.jsonl"))
    assert len(trace.steps) == 24
    assert trace.config["policy"] == "lineattn"
    classes = (GridSpec, BudgetConfig, ModelConfig)
    declared = {f.name for c in classes for f in dataclasses.fields(c)}
    assert set(trace.config) == declared | {"policy", "trace_attention"}
    saved = open(os.path.join(out, "run_config.txt")).read()
    assert "grid=6x4" in saved
    assert "rho=1/2" in saved


def test_generate_uses_env_out(tmp_path, monkeypatch):
    out = str(tmp_path / "from_env")
    monkeypatch.setenv("LINEAR_KV_OUT", out)
    assert main(["generate", *SMALL]) == 0
    assert os.path.exists(os.path.join(out, "trace.jsonl"))


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "run.txt"
    cfg_path.write_text(
        "grid=6x4\nrho=1/2\nn_init=2\nrecent_lines=1\n"
        "layers=1\nheads=2\nkv_heads=1\nhead_dim=8\ncond_len=4\npolicy=random\n"
    )
    out = str(tmp_path / "out")
    code = main(["generate", "--config", str(cfg_path), "--policy", "streaming",
                 "--out", out])
    assert code == 0
    trace = DecodeTrace.read(os.path.join(out, "trace.jsonl"))
    assert trace.config["policy"] == "streaming"


def test_infeasible_budget_is_usage_error(tmp_path, capsys):
    code = main(["generate", "--grid", "4x4", "--rho", "1/2", "--out", str(tmp_path)])
    assert code == 2
    assert "budget-infeasible" in capsys.readouterr().err


def test_negative_region_is_usage_error(tmp_path, capsys):
    code = main(["generate", *SMALL, "--n-init", "-1", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: region-negative")


def test_unknown_flag_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--wat", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_bench_writes_summary(tmp_path):
    out = str(tmp_path)
    code = main([
        "bench", *SWEEP, "--out", out,
        "--rhos", "1/2", "--policies", "lineattn,full", "--seeds", "0,1",
    ])
    assert code == 0
    with open(os.path.join(out, "summary.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["policy", "rho", "seed", "metric", "value"]
    assert os.path.exists(os.path.join(out, "steps_lineattn_1-2_seed0.csv"))
    assert os.path.exists(os.path.join(out, "steps_full_1-1_seed1.csv"))


def test_bench_rejects_unknown_policy(tmp_path, capsys):
    code = main(["bench", *SWEEP, "--out", str(tmp_path), "--policies", "lru"])
    assert code == 2
    assert "unknown-policy" in capsys.readouterr().err


def test_bench_ignores_the_single_run_rho(tmp_path):
    # 6x4 has no line-aligned 3/8 (the single-run default); the sweep's own
    # --rhos are the only ratios it validates
    code = main(["bench", *SWEEP, "--out", str(tmp_path), "--rhos", "1/2"])
    assert code == 0
    assert os.path.exists(os.path.join(str(tmp_path), "steps_lineattn_1-2_seed0.csv"))


@pytest.mark.parametrize(
    "flag", [["--policy", "h2o"], ["--rho", "1/8"], ["--trace-attention"]],
    ids=["policy", "rho", "trace-attention"],
)
def test_bench_refuses_single_run_flags(tmp_path, capsys, flag):
    # --policies and --rhos choose what a sweep runs; a single-run flag
    # next to them would be silently ignored
    with pytest.raises(SystemExit) as exc:
        main(["bench", *SWEEP, "--out", str(tmp_path), "--rhos", "1/2", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_bench_refuses_single_run_config_keys(tmp_path, capsys):
    # the file-side twin of the refused flags
    path = tmp_path / "sweep.cfg"
    path.write_text("grid=6x4\npolicy=h2o\nrho=1/8\ntrace_attention=true\n")
    out = tmp_path / "out"
    code = main(["bench", *SWEEP, "--config", str(path), "--out", str(out), "--rhos", "1/2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "refused-config-keys" in err
    assert "policy, rho, trace_attention" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,value", [("--rhos", "1/2,abc"), ("--rhos", "1/0"), ("--seeds", "0,x")]
)
def test_bench_bad_list_is_usage_error(tmp_path, capsys, flag, value):
    code = main(["bench", *SWEEP, "--out", str(tmp_path), flag, value])
    assert code == 2
    assert "value-parse" in capsys.readouterr().err


def test_analyze_outputs(tmp_path):
    out = str(tmp_path / "run")
    assert main(["generate", *SMALL, "--trace-attention", "--out", out]) == 0
    adir = str(tmp_path / "analysis")
    code = main(["analyze", "--trace", os.path.join(out, "trace.jsonl"), "--out", adir])
    assert code == 0
    for name in ("allocation.csv", "interline.csv", "locality.csv", "summary.json"):
        assert os.path.exists(os.path.join(adir, name))
    with open(os.path.join(adir, "summary.json")) as fh:
        assert json.load(fh)["similarity_measure"] == "cosine"


def test_analyze_without_attention_fails(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["generate", *SMALL, "--out", out]) == 0
    code = main(["analyze", "--trace", os.path.join(out, "trace.jsonl"),
                 "--out", str(tmp_path / "a")])
    assert code == 2
    assert "trace-missing-attention" in capsys.readouterr().err


def _traced_run(tmp_path):
    out = str(tmp_path / "run")
    assert main(["generate", *SMALL, "--trace-attention", "--out", out]) == 0
    return os.path.join(out, "trace.jsonl")


def _edit_probs(path, payload):
    with open(path) as fh:
        lines = fh.readlines()
    rec = json.loads(lines[2])
    rec["attn"][0]["probs"] = payload(rec["attn"][0]["probs"])
    lines[2] = json.dumps(rec) + "\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


def _truncate(path):
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text[: len(text) // 2])


def _bad_base64(path):
    _edit_probs(path, lambda old: "@" + old[1:])


def _short_payload(path):
    _edit_probs(path, lambda old: base64.b64encode(base64.b64decode(old)[8:]).decode())


def _huge_n_init(path):
    # an anchor count the grid cannot hold, far past any allocation
    with open(path) as fh:
        lines = fh.readlines()
    header = json.loads(lines[0])
    header["config"]["n_init"] = 10**12
    lines[0] = json.dumps(header) + "\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


@pytest.mark.parametrize("damage", [_truncate, _bad_base64, _short_payload, _huge_n_init])
def test_analyze_corrupt_trace_is_usage_error(tmp_path, capsys, damage):
    path = _traced_run(tmp_path)
    damage(path)
    code = main(["analyze", "--trace", path, "--out", str(tmp_path / "a")])
    assert code == 2
    assert "trace-corrupt" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "generate"])
def test_missing_input_is_io_error(tmp_path, capsys, command):
    missing = str(tmp_path / "absent")
    if command == "analyze":
        argv = ["analyze", "--trace", missing, "--out", str(tmp_path / "a")]
    else:
        argv = ["generate", "--config", missing, "--out", str(tmp_path / "a")]
    assert main(argv) == 2
    assert "io-error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "generate"])
def test_out_under_a_regular_file_is_io_error(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    out = str(blocker / "sub")
    if command == "analyze":
        argv = ["analyze", "--trace", _traced_run(tmp_path), "--out", out]
    else:
        argv = ["generate", *SMALL, "--out", out]
    assert main(argv) == 2
    assert "io-error" in capsys.readouterr().err
    assert blocker.read_text() == "x"


def test_ablate_arms(tmp_path):
    out = str(tmp_path)
    assert main(["ablate", *SMALL, "--out", out]) == 0
    with open(os.path.join(out, "ablate_summary.csv")) as fh:
        rows = list(csv.reader(fh))
    arms = [r[0] for r in rows[1:]]
    assert arms == ["base", "disable-init", "disable-rec", "disable-mid", "attacc"]
    by_arm = {r[0]: r for r in rows[1:]}
    assert by_arm["disable-mid"][1] == "streaming"
    assert by_arm["attacc"][1] == "h2o"
    assert by_arm["disable-init"][2] == "0"
    assert by_arm["disable-rec"][3] == "0"
    for arm in arms:
        assert os.path.exists(os.path.join(out, f"trace_{arm}.jsonl"))


# -- coded errors instead of tracebacks -------------------------------------


def _non_utf8_config(tmp_path):
    path = tmp_path / "run.txt"
    path.write_bytes(b"\xff\xfe")
    return ["generate", "--config", str(path)]


def _deeply_nested_trace(tmp_path):
    path = tmp_path / "deep.jsonl"
    path.write_text("[" * 100_000 + "\n")
    return ["analyze", "--trace", str(path)]


@pytest.mark.parametrize(
    "argv, code",
    [
        (lambda tmp: ["generate", *SMALL, "--seed", "-1"], "model-config-invalid"),
        (lambda tmp: ["bench", *SWEEP, "--rhos", "1/2", "--seeds", "-1"], "model-config-invalid"),
        (_non_utf8_config, "value-parse"),
        (_deeply_nested_trace, "trace-corrupt"),
    ],
    ids=["generate-negative-seed", "bench-negative-seed", "non-utf8-config", "nested-trace"],
)
def test_bad_input_is_a_coded_error(tmp_path, capsys, argv, code):
    assert main([*argv(tmp_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"error: {code}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_non_utf8_config_names_the_file(tmp_path, capsys):
    argv = _non_utf8_config(tmp_path)
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert str(tmp_path / "run.txt") in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["generate", *SMALL, "--rho", "1/5"], "budget-not-line-aligned"),
        (["bench", *SWEEP, "--rhos", "2"], "rho-out-of-range"),
        (["analyze", "--trace", "{tmp}/absent.jsonl"], "io-error"),
        (["ablate", *SMALL, "--grid", "0x4"], "grid-degenerate"),
    ],
    ids=["generate", "bench", "analyze", "ablate"],
)
def test_exit_code_contract(tmp_path, capsys, argv, code):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {code}")


@pytest.mark.parametrize(
    "argv", [["oracle"], ["generate", "--policy", "attacc"]], ids=["oracle", "attacc"]
)
def test_removed_names_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
RUN_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def _subcommands():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_readme_names_exactly_the_subcommands():
    with open(README) as fh:
        named = set(re.findall(r"^linear-kv (\S+)", fh.read(), flags=re.MULTILINE))
    assert named == set(_subcommands())


@pytest.mark.parametrize(
    "command, own, single_run",
    [
        ("generate", set(), set()),
        ("bench", {"rhos", "policies", "seeds"}, {"policy", "rho", "trace_attention"}),
        ("ablate", set(), set()),
    ],
    ids=["generate", "bench", "ablate"],
)
def test_config_flags_are_the_run_config_fields(command, own, single_run):
    dests = {a.dest for a in _subcommands()[command]._actions} - {"help"}
    assert dests - own == (RUN_CONFIG_FIELDS - single_run) | {"config"}


# a value other than the default for every RunConfig field
NON_DEFAULT = {
    "grid": "6x4", "rho": "1/2", "policy": "streaming", "n_init": 2, "recent_lines": 1,
    "layers": 1, "heads": 2, "kv_heads": 1, "head_dim": 8, "vocab": 50, "cond_len": 4,
    "seed": 3, "trace_attention": True, "out": "elsewhere",
}


@pytest.mark.parametrize("name", sorted(RUN_CONFIG_FIELDS))
def test_each_setting_reads_alike_from_flag_file_and_saved_config(tmp_path, name):
    value = NON_DEFAULT[name]
    want = dataclasses.replace(RunConfig(), **{name: value})
    assert want != RunConfig()
    argv = ["generate", "--" + name.replace("_", "-")] + ([] if value is True else [str(value)])
    from_flag = _run_config(build_parser().parse_args(argv))
    path = tmp_path / "run.txt"
    path.write_text(f"{name}={'true' if value is True else value}\n")
    saved = save_config(want, str(tmp_path / "run_config.txt"))
    assert from_flag == load_config(str(path)) == load_config(saved) == want


def test_readme_lists_exactly_the_run_config_fields():
    with open(README) as fh:
        text = fh.read()
    shared = text.split("Shared flags:", 1)[1].split("Flags beat", 1)[0]
    flags = {flag.replace("-", "_") for flag in re.findall(r"`--([\w-]+)", shared)}
    assert flags == RUN_CONFIG_FIELDS | {"config"}
    section = text.split("## Config files", 1)[1].split("\n## ", 1)[0]
    keys = section.split("Keys mirror the flags (", 1)[1].split(")", 1)[0]
    assert set(re.findall(r"`(\w+)`", keys)) == RUN_CONFIG_FIELDS


def test_readme_layout_names_exactly_the_modules():
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "README.md")) as fh:
        layout = fh.read().split("## Layout", 1)[1].split("```")[1]
    named = re.findall(r"^  (\w+\.py) ", layout, flags=re.MULTILINE)
    package = os.listdir(os.path.join(root, "src", "linear_kv"))
    modules = {f for f in package if f.endswith(".py")} - {"__init__.py", "__main__.py"}
    assert sorted(named) == sorted(modules)


def _read_all(directory):
    texts = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name)) as fh:
                texts.append(fh.read())
    return "\n".join(texts)


def test_every_error_code_is_tested():
    here = os.path.dirname(__file__)
    source = _read_all(os.path.join(here, os.pardir, "src", "linear_kv"))
    codes = set(re.findall(r"(?:LinearKVError|ConfigError)\(\s*\"([\w-]+)\"", source))
    tests = _read_all(here)
    # the code opens a string, or follows a space or colon inside one
    untested = [c for c in codes if not re.search(rf"[\"' ]{c}(?![\w-])", tests)]
    # a call split over lines is found too
    assert "budget-infeasible" in codes
    assert sorted(untested) == []


# the address-space limit makes an oversized allocation fail at once; without
# it the allocation may succeed lazily and then exhaust the machine
_UNDER_2_GIB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from linear_kv.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--vocab", "1000000000000"], "vocabulary of 1000000000000"),
        (["--head-dim", "100000000"], "dimension 100000000"),
        (["--grid", "100000x100000", "--rho", "1"], "10000000008 entries"),
        (
            ["--cond-len", "3000000", "--layers", "1", "--grid", "4x4", "--rho", "1"],
            "conditional length of 3000000 ",
        ),
        (["--cond-len", "1000000000"], "conditional length of 1000000000 "),
    ],
    ids=["vocab", "head-dim", "cache", "cond-block", "condition"],
)
def test_model_too_large_is_a_coded_error(tmp_path, flags, named):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(linear_kv.__file__))}
    proc = subprocess.run(
        [sys.executable, "-c", _UNDER_2_GIB, "generate", *flags, "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: model-too-large")
    assert named in proc.stderr
