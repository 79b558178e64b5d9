"""Decode traces: in-memory records plus the versioned JSON-lines layout.

File layout, one JSON object per line, in chronological order::

    {"record": "header", "schema": 2, "config": {...}, "rng": "numpy-pcg64"}
    {"record": "step", "i": 0, "line": 1, "token": 17, "span": 8,
     "visual_len": 1, "step_ns": 52100, "attn": [...]?}
    {"record": "eviction", "line": 3, "layer": 0, "head": 0,
     "evicted_positions": [...], "post_len": 16}
    {"record": "summary", "final_hidden": [...], "cache": {...}}

Steps are numbered consecutively from 0, step ``i`` lies on line
``i // width + 1``, and a trace holds exactly ``height * width`` of them.
Eviction records follow their line's last step. ``step_ns`` is the only
timing field anywhere in the file; :meth:`DecodeTrace.canonical_body` drops
it so byte comparison between runs ignores wall-clock noise. Headers carry
no clock data at all.

``attn`` holds one ``{"kv_positions", "probs"}`` object per layer. Each
value is the base64 text of a little-endian array whose shape follows from
the header config and the step's ``span``: ``kv_positions`` is ``<i8`` of
shape ``(kv_heads, span - cond_len)``, each row ascending and below ``i``;
``probs`` is ``<f8`` of shape ``(heads, span)``. Schema 1, which stored the
same values as JSON number lists, is rejected.
"""

from __future__ import annotations

import base64
import csv
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import LinearKVError
from .policy import EvictionEvent

TRACE_SCHEMA = 2
TIMING_FIELDS = ("step_ns",)


def atomic_write(path: str, text: str) -> str:
    """Write ``text`` through a temp file in the target directory and a
    rename, creating the directory; any OS failure raises ``io-error``."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise LinearKVError("io-error", f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
    return path


def write_csv(path: str, header, rows, lineterminator: str = "\r\n") -> str:
    """Atomically write a header row plus ``rows`` as CSV."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=lineterminator)
    writer.writerow(header)
    writer.writerows(rows)
    return atomic_write(path, buf.getvalue())


@dataclass
class StepRecord:
    """One decode step. ``span`` counts the entries attended per head
    (conditional plus visual, before this step's append); ``visual_len`` is
    the per-head store length after the append and any compression.
    ``attn``, when recorded, holds per layer ``kv_positions``
    ``(kv_heads, span - cond_len)`` and ``probs`` ``(heads, span)``."""

    index: int
    line: int
    token: int
    span: int
    visual_len: int
    step_ns: int | None = None
    attn: list | None = None


def _encode(values, dtype: str) -> str:
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


def _decode(text: str, dtype: str, shape: tuple[int, int]) -> np.ndarray:
    raw = base64.b64decode(text, validate=True)
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"{len(raw)}-byte payload does not fill shape {shape}")
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def _attn_to_json(attn):
    return [
        {
            "kv_positions": _encode(rec["kv_positions"], "<i8"),
            "probs": _encode(rec["probs"], "<f8"),
        }
        for rec in attn
    ]


def _attn_from_json(attn, config: dict, span: int, index: int):
    if len(attn) != config["layers"]:
        raise ValueError(f"attention for {len(attn)} layers, expected {config['layers']}")
    visual = (config["kv_heads"], span - config["cond_len"])
    out = []
    for rec in attn:
        positions = _decode(rec["kv_positions"], "<i8", visual)
        # analysis indexes by these positions and takes the anchors as a prefix
        if (np.diff(positions, prepend=-1, append=index) <= 0).any():
            raise ValueError(f"kv_positions are not increasing positions in [0, {index})")
        probs = _decode(rec["probs"], "<f8", (config["heads"], span))
        out.append({"kv_positions": positions, "probs": probs})
    return out


@dataclass
class DecodeTrace:
    """Everything one generation run produced, reproducible from its header."""

    header: dict
    steps: list[StepRecord] = field(default_factory=list)
    evictions: list[EvictionEvent] = field(default_factory=list)
    final_hidden: np.ndarray | None = None
    cache_snapshot: dict | None = None

    @property
    def config(self) -> dict:
        return self.header["config"]

    def records(self):
        """All records as dicts, in file order."""
        yield {"record": "header", "schema": TRACE_SCHEMA, **self.header}
        by_line: dict[int, list[EvictionEvent]] = {}
        for ev in self.evictions:
            by_line.setdefault(ev.line, []).append(ev)
        width = self.config["width"]
        for step in self.steps:
            rec = {
                "record": "step",
                "i": step.index,
                "line": step.line,
                "token": step.token,
                "span": step.span,
                "visual_len": step.visual_len,
                "step_ns": step.step_ns,
            }
            if step.attn is not None:
                rec["attn"] = _attn_to_json(step.attn)
            yield rec
            if (step.index + 1) % width == 0:
                for ev in by_line.get(step.line, ()):
                    yield {"record": "eviction", **vars(ev)}
        summary = {"record": "summary"}
        if self.final_hidden is not None:
            summary["final_hidden"] = np.asarray(self.final_hidden).tolist()
        if self.cache_snapshot is not None:
            summary["cache"] = self.cache_snapshot
        yield summary

    def dumps(self) -> str:
        return "".join(
            json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
            for rec in self.records()
        )

    def canonical_body(self) -> bytes:
        """Serialized records with every timing field removed."""
        lines = []
        for rec in self.records():
            clean = {k: v for k, v in rec.items() if k not in TIMING_FIELDS}
            lines.append(json.dumps(clean, sort_keys=True, separators=(",", ":")))
        return ("\n".join(lines) + "\n").encode()

    def write(self, path: str) -> str:
        """Atomic write: temp file in the target directory, then rename."""
        return atomic_write(path, self.dumps())

    @classmethod
    def read(cls, path: str) -> "DecodeTrace":
        """Parse and validate a trace file. A file that cannot be opened
        raises ``io-error``; malformed JSON, payloads or record order raise
        ``trace-corrupt`` with the offending line number."""
        try:
            fh = open(path, "rb")
        except OSError as exc:
            raise LinearKVError("io-error", f"cannot read {path}: {exc.strerror}") from None
        header, summary, steps, evictions, lineno = None, None, [], [], 0

        def corrupt(message):
            return LinearKVError("trace-corrupt", f"{path}:{lineno}: {message}")

        with fh:
            for lineno, raw in enumerate(fh, start=1):
                if not raw.strip():
                    continue
                try:
                    rec = json.loads(raw)
                    kind = rec["record"]
                    if header is None:
                        if kind != "header":
                            raise LinearKVError("trace-missing-header", path)
                        if rec.get("schema") != TRACE_SCHEMA:
                            message = f"schema {rec.get('schema')} != {TRACE_SCHEMA}"
                            raise LinearKVError("trace-schema-mismatch", message)
                        header = {k: v for k, v in rec.items() if k not in ("record", "schema")}
                        config = header["config"]
                        width, total = config["width"], config["height"] * config["width"]
                    elif kind == "step":
                        i, line, span = rec["i"], rec["line"], rec["span"]
                        if i != len(steps) or i >= total or line != i // width + 1:
                            raise corrupt(f"step {i} on line {line} out of order")
                        attn = rec.get("attn")
                        if attn is not None:
                            attn = _attn_from_json(attn, config, span, i)
                        steps.append(StepRecord(
                            i, line, rec["token"], span, rec["visual_len"], rec.get("step_ns"), attn
                        ))
                    elif kind == "eviction":
                        ev = EvictionEvent(
                            rec["line"], rec["layer"], rec["head"],
                            list(rec["evicted_positions"]), rec["post_len"],
                        )
                        if len(steps) != ev.line * width:
                            raise corrupt(f"eviction of line {ev.line} out of order")
                        evictions.append(ev)
                    elif kind == "summary":
                        summary = rec
                        hidden = rec.get("final_hidden")
                        final_hidden = None if hidden is None else np.asarray(hidden, np.float64)
                except (ValueError, KeyError, TypeError, ArithmeticError, RecursionError) as exc:
                    raise corrupt(f"{type(exc).__name__}: {exc}") from None
        if header is None:
            raise LinearKVError("trace-missing-header", path)
        if len(steps) != total:
            raise corrupt(f"{len(steps)} steps, expected {total}")
        if summary is None:
            raise corrupt("no summary record")
        return cls(header, steps, evictions, final_hidden, summary.get("cache"))
