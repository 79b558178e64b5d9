"""Output checks and behaviour digests.

Every check returns a list of problems, empty when the output is right. The
checks read what the package produced (traces, files, CSVs); they never
patch it. A digest hashes the generated tokens and the evicted positions,
and no floats, so it survives a change of BLAS summation order.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

# documented columns of the ``analyze`` outputs (see linear_kv.analysis)
ANALYZE_COLUMNS = {
    "allocation.csv": ["layer", "head", "line", "cond_mass", "visual_mass"],
    "interline.csv": ["layer", "head", "line", "cosine"],
    "locality.csv": ["layer", "head", "bucket", "mass"],
}
SUMMARY_KEYS = {
    "similarity_measure",
    "config",
    "mean_cond_mass",
    "mean_interline_similarity",
}
STEP_CSV_COLUMNS = [
    "step", "policy", "rho", "entries", "bytes_fp16", "bytes_fp32", "flops_proxy", "step_ns",
]


def compression_lines(spec, cfg) -> list[int]:
    """Lines whose end evicts: from the first fill through the second-to-last.

    Written out here rather than imported, so the check does not share code
    with the cadence it checks.
    """
    if cfg.rho >= 1:
        return []
    return list(range(cfg.budget // spec.width, spec.height))


def behaviour_digest(trace) -> str:
    """sha256 of the tokens and every eviction's (line, layer, head, positions)."""
    payload = {
        "tokens": [s.token for s in trace.steps],
        "evictions": [
            [e.line, e.layer, e.head, [int(p) for p in e.evicted_positions]]
            for e in trace.evictions
        ],
    }
    text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def decode_problems(trace, spec, cfg, model) -> list[str]:
    """Budget bound, cadence, eviction size and full-cache spans of one decode."""
    problems = []
    steps = trace.steps
    if len(steps) != spec.total:
        return [f"{len(steps)} steps, expected {spec.total}"]
    if any(not 0 <= s.token < model.vocab for s in steps):
        problems.append("token outside the vocabulary")
    events = trace.evictions
    if cfg.rho >= 1:
        want = [model.cond_len + i for i in range(spec.total)]
        if [s.span for s in steps] != want:
            problems.append("full-cache spans differ from cond_len + i")
        if events:
            problems.append(f"full-cache decode evicted {len(events)} times")
        return problems
    width = spec.width
    peak = max(s.visual_len for s in steps)
    if peak > cfg.budget:
        problems.append(f"visual_len reached {peak} > budget {cfg.budget}")
    lines = sorted({e.line for e in events})
    if lines != compression_lines(spec, cfg):
        problems.append(f"eviction lines {lines[:3]}.. break the cadence")
    per_event = model.layers * model.kv_heads
    if len(events) != per_event * len(lines):
        problems.append(f"{len(events)} events for {len(lines)} lines x {per_event} heads")
    bad = [
        e for e in events
        if len(e.evicted_positions) != width or e.post_len != cfg.budget - width
    ]
    if bad:
        e = bad[0]
        problems.append(
            f"line {e.line} layer {e.layer} head {e.head} evicted "
            f"{len(e.evicted_positions)} leaving {e.post_len}"
        )
    if any(p < cfg.n_init for e in events for p in e.evicted_positions):
        problems.append("an anchor position was evicted")
    return problems


def round_trip_problems(original, read_back) -> list[str]:
    if read_back.canonical_body() != original.canonical_body():
        return ["trace read back differs from the trace written"]
    return []


def _floats(rows, columns, name) -> list[str]:
    for row in rows:
        for col in columns:
            try:
                value = float(row[col])
            except (TypeError, ValueError):
                return [f"{name}: {col}={row[col]!r} is not a number"]
            if not math.isfinite(value):
                return [f"{name}: {col} is not finite"]
    return []


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


def analyze_problems(out_dir: str, config: dict) -> list[str]:
    """The four ``analyze`` outputs parse with their documented columns."""
    problems = []
    layers, heads, height = config["layers"], config["heads"], config["height"]
    expected_rows = {
        "allocation.csv": layers * heads * height,
        "interline.csv": layers * heads * (height - 1),
    }
    for name, columns in ANALYZE_COLUMNS.items():
        header, rows = _read_csv(os.path.join(out_dir, name))
        if header != columns:
            problems.append(f"{name}: columns {header} != {columns}")
            continue
        want = expected_rows.get(name)
        if want is not None and len(rows) != want:
            problems.append(f"{name}: {len(rows)} rows, expected {want}")
        if name == "locality.csv":
            anchors = sum(r["bucket"] == "anchor" for r in rows)
            if anchors != layers * heads:
                problems.append(f"locality.csv: {anchors} anchor rows")
            problems += _floats(rows, ["layer", "head", "mass"], name)
        else:
            problems += _floats(rows, columns, name)
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    if set(summary) != SUMMARY_KEYS:
        problems.append(f"summary.json keys {sorted(summary)}")
    elif not 0.0 <= summary["mean_cond_mass"] <= 1.0:
        problems.append("summary.json mean_cond_mass outside [0, 1]")
    return problems


def sweep_problems(out_dir, spec, budgets, policies, seeds, model, summary_metrics):
    """``bench`` wrote every cell's summary rows and a full step CSV.

    ``budgets`` maps each ratio string of the sweep (``"1"`` for ``full``)
    to its BudgetConfig. Returns the problems and the parsed summary rows.
    """
    problems = []
    header, rows = _read_csv(os.path.join(out_dir, "summary.csv"))
    if header != ["policy", "rho", "seed", "metric", "value"]:
        return [f"summary.csv columns {header}"], []
    cells = {}
    for r in rows:
        cells.setdefault((r["policy"], r["rho"], int(r["seed"])), set()).add(r["metric"])
    problems += _floats(rows, ["value"], "summary.csv")
    for policy in policies:
        for rho, cfg in budgets.items():
            if (policy == "full") != (rho == "1"):
                continue
            for seed in seeds:
                if cells.get((policy, rho, seed)) != set(summary_metrics):
                    problems.append(f"summary.csv lacks {policy} {rho} seed {seed}")
                slug = rho.replace("/", "-") if "/" in rho else f"{rho}-1"
                name = f"steps_{policy}_{slug}_seed{seed}.csv"
                path = os.path.join(out_dir, name)
                if not os.path.exists(path):
                    problems.append(f"missing {name}")
                    continue
                header, srows = _read_csv(path)
                if header != STEP_CSV_COLUMNS or len(srows) != spec.total:
                    problems.append(f"{name}: bad header or {len(srows)} rows")
                    continue
                per_span = model.layers * model.kv_heads
                entries = [int(r["entries"]) for r in srows]
                if cfg.rho >= 1:
                    want = [per_span * (model.cond_len + i) for i in range(spec.total)]
                    if entries != want:
                        problems.append(f"{name}: full-cache spans differ from cond_len + i")
                elif max(entries) > per_span * (model.cond_len + cfg.budget):
                    problems.append(f"{name}: span beyond cond_len + budget")
    return problems, rows
