"""Command-line front end.

Subcommands: generate one traced run, sweep benchmark cells, analyze a
recorded trace, and run the ablation arms. Exit codes: 0 on success, 2
for configuration, input or usage problems.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from fractions import Fraction

from . import analysis, bench
from .baselines import POLICY_NAMES, make_policy
from .config import KINDS, RunConfig, load_config, save_config
from .decoder import RasterDecoder, synth_condition
from .errors import ConfigError, LinearKVError
from .grid import GridSpec
from .trace import DecodeTrace, write_csv

OUT_ENV = "LINEAR_KV_OUT"

# what a field's name and kind cannot say
_FLAG_EXTRAS = {
    "grid": {"help": "grid as HxW, e.g. 8x8"},
    "rho": {"help": "keep ratio as a fraction, e.g. 3/8 or 1"},
    "policy": {"choices": sorted(POLICY_NAMES)},
    "out": {"help": f"output directory (default ${OUT_ENV} or ./out)"},
}


# settings of a single run that a sweep's own flags replace
_SINGLE_RUN = ("policy", "rho", "trace_attention")


def _add_config_flags(p: argparse.ArgumentParser, omit=()):
    p.add_argument("--config", help="key=value file; explicit flags win over it")
    for name, kind in KINDS.items():
        if name in omit:
            continue
        flag = "--" + name.replace("_", "-")
        if kind == "bool":
            p.add_argument(flag, action="store_true", default=None)
        else:
            p.add_argument(flag, type=int if kind == "int" else None, **_FLAG_EXTRAS.get(name, {}))


def _run_config(args) -> RunConfig:
    overrides = {n: v for n in KINDS if (v := getattr(args, n, None)) is not None}
    if args.config:
        # a file may not set what the command has no flag for
        return load_config(args.config, overrides, [n for n in KINDS if n not in vars(args)])
    return replace(RunConfig(), **overrides)


def _out_dir(out: str | None) -> str:
    return out or os.environ.get(OUT_ENV) or "out"


def _generate(cfg: RunConfig) -> DecodeTrace:
    spec, budget, model = cfg.resolve()
    decoder = RasterDecoder(model)
    return decoder.generate(
        synth_condition(model),
        spec,
        budget,
        make_policy(cfg.policy),
        trace_attention=bool(cfg.trace_attention),
    )


def cmd_generate(args) -> int:
    cfg = _run_config(args)
    out = _out_dir(cfg.out)
    trace = _generate(cfg)
    path = os.path.join(out, "trace.jsonl")
    trace.write(path)
    save_config(cfg, os.path.join(out, "run_config.txt"))
    print(
        f"wrote {path}: {len(trace.steps)} steps, "
        f"{len(trace.evictions)} evictions, policy {cfg.policy}"
    )
    return 0


def _parse_list(flag: str, text: str, parse) -> list:
    try:
        return [parse(item) for item in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError("value-parse", f"--{flag} {text!r}: {exc}") from None


def cmd_bench(args) -> int:
    cfg = _run_config(args)
    out = _out_dir(cfg.out)
    # only the grid, the model and the budget shape come from the run
    # configuration; the sweep's own flags replace the single-run settings
    spec = GridSpec.parse(cfg.grid)
    rhos = _parse_list("rhos", args.rhos, Fraction)
    policies = args.policies.split(",")
    for name in policies:
        if name not in POLICY_NAMES:
            raise ConfigError("unknown-policy", name)
    seeds = _parse_list("seeds", args.seeds, int)
    summary = bench.run_sweep(
        spec,
        rhos,
        policies,
        seeds,
        model=cfg.model(),
        out_dir=out,
        n_init=cfg.n_init,
        recent_lines=cfg.recent_lines,
    )
    print(f"wrote {summary}")
    return 0


def cmd_analyze(args) -> int:
    trace = DecodeTrace.read(args.trace)
    for p in analysis.write_all(trace, _out_dir(args.out)):
        print(f"wrote {p}")
    return 0


_ABLATIONS = {
    "base": {"policy": "lineattn"},
    "disable-init": {"policy": "lineattn", "n_init": 0},
    "disable-rec": {"policy": "lineattn", "recent_lines": 0},
    "disable-mid": {"policy": "streaming"},
    "attacc": {"policy": "h2o"},
}

ABLATION_ARMS = tuple(_ABLATIONS)


def _ablation_config(cfg: RunConfig, arm: str) -> RunConfig:
    return replace(cfg, **_ABLATIONS[arm])


def cmd_ablate(args) -> int:
    cfg = _run_config(args)
    out = _out_dir(cfg.out)
    rows = []
    for arm in ABLATION_ARMS:
        arm_cfg = _ablation_config(cfg, arm)
        trace = _generate(arm_cfg)
        trace.write(os.path.join(out, f"trace_{arm}.jsonl"))
        stats = bench.summarize(trace)
        rows.append(
            [
                arm,
                arm_cfg.policy,
                trace.config["n_init"],
                trace.config["recent_lines"],
                len(trace.evictions),
                stats["peak_entries"],
                stats["mean_flops_per_step"],
            ]
        )
    path = write_csv(
        os.path.join(out, "ablate_summary.csv"),
        ["arm", "policy", "n_init", "recent_lines", "evictions",
         "peak_entries", "mean_flops_per_step"],
        rows,
    )
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linear-kv",
        description="line-granular KV cache compression for raster decoding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="run one decode and record its trace")
    _add_config_flags(p)
    p.set_defaults(func=cmd_generate)

    # no abbreviations, or the single-run --rho would pass for --rhos
    p = sub.add_parser("bench", help="sweep policies x ratios x seeds", allow_abbrev=False)
    _add_config_flags(p, omit=_SINGLE_RUN)
    p.add_argument("--rhos", default="3/8", help="comma-separated ratios")
    p.add_argument("--policies", default="lineattn,full", help="comma-separated names")
    p.add_argument("--seeds", default="0", help="comma-separated integers")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("analyze", help="attention analyses over a recorded trace")
    p.add_argument("--trace", required=True, help="trace.jsonl from generate")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("ablate", help="run the ablation arms on one setting")
    _add_config_flags(p)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LinearKVError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
