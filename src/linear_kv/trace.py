"""Decode traces: in-memory records plus the versioned JSON-lines layout.

File layout, one JSON object per line, in chronological order::

    {"record": "header", "schema": 3, "config": {...}, "rng": "numpy-pcg64"}
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

``attn`` holds one ``{"probs"}`` object per layer: the base64 text of a
little-endian ``<f8`` array of shape ``(heads, span)``, its shape following
from the header config and the step's ``span``. The cached positions each
row attends over are not stored: the cache at step ``i`` holds positions
``0 .. i-1`` minus every position an eviction record has named, so
:meth:`DecodeTrace.read` rebuilds each step's ``kv_positions`` of shape
``(kv_heads, span - cond_len)`` from the eviction records as it reads them.
Schemas 1 and 2, which stored the positions of every step, are rejected.
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

TRACE_SCHEMA = 3
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
    ``(kv_heads, span - cond_len)`` and ``probs`` ``(heads, span)``; a trace
    file stores only ``probs``."""

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
    return [{"probs": _encode(rec["probs"], "<f8")} for rec in attn]


def _int(value, what: str, nullable: bool = False):
    """``value`` if it is an integer (``bool`` is not), else ``ValueError``."""
    if type(value) is int or (nullable and value is None):
        return value
    raise ValueError(f"{what} {value!r} is not an integer")


class _CachedPositions:
    """The raster positions each (layer, kv head) holds while a trace is read:
    every step hands out a copy of the live rows and then appends its own
    index; an eviction record removes its positions from one row."""

    def __init__(self, config: dict):
        layers, heads, kv_heads = config["layers"], config["heads"], config["kv_heads"]
        if not 1 <= _int(kv_heads, "kv_heads") <= heads or heads % kv_heads:
            raise ValueError(f"kv_heads {kv_heads} does not divide heads {heads}")
        total = config["height"] * config["width"]
        self.rows = np.empty((layers, kv_heads, total), dtype=np.int64)
        self.lens = np.zeros((layers, kv_heads), dtype=np.int64)

    def step(self, index: int, visual: int) -> np.ndarray:
        """The ``(layers, kv_heads, visual)`` rows step ``index`` attends over."""
        if (self.lens != visual).any():
            held = sorted(set(self.lens.ravel().tolist()))
            raise ValueError(f"span leaves {visual} visual entries, the cache holds {held}")
        rows = self.rows[:, :, :visual].copy()
        self.rows[:, :, visual] = index
        self.lens += 1
        return rows

    def evict(self, ev: EvictionEvent) -> None:
        layers, kv_heads = self.lens.shape
        if not (0 <= ev.layer < layers and 0 <= ev.head < kv_heads):
            raise ValueError(f"layer {ev.layer} head {ev.head} outside {layers}x{kv_heads}")
        n = self.lens[ev.layer, ev.head]
        row = self.rows[ev.layer, ev.head, :n]
        evicted = np.array(ev.evicted_positions, dtype=np.int64)
        keep = ~np.isin(row, evicted)
        # strictly increasing means distinct, so every one must be cached
        if (np.diff(evicted) <= 0).any() or n - keep.sum() != evicted.size:
            raise ValueError("evicted positions are not increasing cached positions")
        if n - evicted.size != ev.post_len:
            raise ValueError(f"{n - evicted.size} entries left, post_len {ev.post_len}")
        self.rows[ev.layer, ev.head, : ev.post_len] = row[keep]
        self.lens[ev.layer, ev.head] = ev.post_len


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
        raises ``io-error``; malformed JSON, payloads or record order, and
        eviction records or spans that disagree with the rebuilt cache, raise
        ``trace-corrupt`` with the offending line number."""
        try:
            fh = open(path, "rb")
        except OSError as exc:
            raise LinearKVError("io-error", f"cannot read {path}: {exc.strerror}") from None
        header, summary, steps, evictions, lineno = None, None, [], [], 0
        cached = None

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
                        i, line, span = (_int(rec[k], k) for k in ("i", "line", "span"))
                        if i != len(steps) or i >= total or line != i // width + 1:
                            raise corrupt(f"step {i} on line {line} out of order")
                        attn = rec.get("attn")
                        if attn is not None:
                            if len(attn) != config["layers"]:
                                raise ValueError(
                                    f"attention for {len(attn)} layers, expected {config['layers']}"
                                )
                            if i == 0:
                                cached = _CachedPositions(config)
                        if (attn is None) != (cached is None):
                            raise corrupt("attention on some steps and not on others")
                        if attn is not None:
                            positions = cached.step(i, span - config["cond_len"])
                            shape = (config["heads"], span)
                            attn = [
                                {"kv_positions": kv, "probs": _decode(layer["probs"], "<f8", shape)}
                                for kv, layer in zip(positions, attn)
                            ]
                        steps.append(StepRecord(
                            i, line, _int(rec["token"], "token"), span,
                            _int(rec["visual_len"], "visual_len"),
                            _int(rec.get("step_ns"), "step_ns", nullable=True), attn,
                        ))
                    elif kind == "eviction":
                        positions = rec["evicted_positions"]
                        if type(positions) is not list:
                            raise ValueError(f"evicted_positions {positions!r} is not a list")
                        ev = EvictionEvent(
                            *(_int(rec[k], k) for k in ("line", "layer", "head")),
                            [_int(p, "evicted position") for p in positions],
                            _int(rec["post_len"], "post_len"),
                        )
                        if len(steps) != ev.line * width:
                            raise corrupt(f"eviction of line {ev.line} out of order")
                        if cached is not None:
                            cached.evict(ev)
                        evictions.append(ev)
                    elif kind == "summary":
                        summary = rec
                        hidden = rec.get("final_hidden")
                        final_hidden = None if hidden is None else np.asarray(hidden, np.float64)
                except (
                    ValueError, KeyError, TypeError, ArithmeticError, RecursionError, MemoryError
                ) as exc:
                    raise corrupt(f"{type(exc).__name__}: {exc}") from None
        if header is None:
            raise LinearKVError("trace-missing-header", path)
        if len(steps) != total:
            raise corrupt(f"{len(steps)} steps, expected {total}")
        if summary is None:
            raise corrupt("no summary record")
        return cls(header, steps, evictions, final_hidden, summary.get("cache"))
