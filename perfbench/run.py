#!/usr/bin/env python3
"""Benchmark entry point for linear-kv.

    python3 perfbench/run.py --workload raster-64 --seed 1 --seconds 27 --trace 0

Run from the repository root. The package is imported from ``src/`` of the
same checkout, never from an installed copy; without it the run exits 2.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``). The lines before it give the
provenance, the behaviour digests and the figures that are not metrics.
"""

import os

# BLAS and OpenMP read these once, when numpy loads, so they are set first
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SEED_RESULTS = HERE / "results" / "seed-commit.json"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, help="raster-64, narrow-16, trace-24 or sweep-gqa")
    p.add_argument("--seed", type=int, default=1, help="workload seed (default 1, held out: 7)")
    p.add_argument("--seconds", type=float, default=27.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: span every layer call and report per-layer metrics")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """Import linear_kv from this checkout's src/, or return None."""
    if not (SRC / "linear_kv" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import linear_kv

    if Path(linear_kv.__file__).resolve().parent != SRC / "linear_kv":
        return None
    return linear_kv


def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance() -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "linear_kv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def compare_digests(workload: str, seed: int, digests: dict) -> dict:
    """Which digests equal those recorded at the seed commit."""
    if not SEED_RESULTS.is_file():
        return {"recorded": False}
    with open(SEED_RESULTS) as fh:
        recorded = json.load(fh).get("digests", {}).get(workload, {}).get(str(seed), {})
    same = sorted(k for k, v in digests.items() if recorded.get(k) == v)
    differ = sorted(k for k, v in digests.items() if k in recorded and recorded[k] != v)
    return {"recorded": bool(recorded), "same": len(same), "differ": differ}


def main(argv=None) -> int:
    args = parse_args(argv)
    if import_package() is None:
        print(f"error: no linear_kv package under {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    info = provenance()
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), str(OUT))
    match = compare_digests(args.workload, args.seed, result["digests"])
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": info, "digest_match": match, **result}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print("provenance " + json.dumps(info, sort_keys=True))
    print("digests " + json.dumps(result["digests"], sort_keys=True))
    print("digests vs seed commit " + json.dumps(match, sort_keys=True))
    print("extra " + json.dumps(result["extra"], sort_keys=True))
    for failure in result["failures"][:20]:
        print(f"FAILED {failure}")
    print(f"ops attempted {result['attempted']} failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
