"""Decode traces: in-memory records plus the versioned JSON-lines layout.

File layout, one JSON object per line, in chronological order::

    {"record": "header", "schema": 3, "config": {...}, "rng": "numpy-pcg64"}
    {"record": "step", "i": 0, "line": 1, "token": 17, "span": 8,
     "visual_len": 1, "step_ns": 52100, "attn": [...]?}
    {"record": "eviction", "line": 3, "layer": 0, "head": 0,
     "evicted_positions": [...], "post_len": 16}
    {"record": "summary", "final_hidden": [...], "cache": {...}}

The header comes first and the summary last, once each. Steps are numbered
consecutively from 0, step ``i`` lies on line ``i // width + 1``, and a trace
holds exactly ``height * width`` of them; eviction records follow their line's
last step. ``step_ns`` is the only timing field anywhere in the file. Headers
carry no clock data at all.

One encoder, :meth:`DecodeTrace.lines`, makes every byte: each record's
line, its keys sorted. :meth:`DecodeTrace.write` streams the lines record
by record into the temp file, so the whole file never sits in memory, and
:meth:`DecodeTrace.canonical_body` is the file's bytes minus the
``step_ns`` fields, so byte comparison between runs ignores wall-clock
noise.

``attn`` holds one ``{"probs"}`` object per layer: the base64 text of a
little-endian ``<f8`` array of shape ``(heads, span)``, its shape following
from the header config and the step's ``span``. The positions each row
attends over are stored nowhere, in memory or on disk: the cache at step
``i`` holds ``0 .. i-1`` minus every position an eviction record named.
:meth:`DecodeTrace.read` replays the records over the spans to validate
them, and :func:`cached_positions` replays them to hand the positions out.
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

from .cache import snapshot_layout
from .errors import LinearKVError
from .policy import EvictionEvent

TRACE_SCHEMA = 3
TIMING_FIELDS = ("step_ns",)
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def atomic_write(path: str, content) -> str:
    """Write ``content``, a ``str`` or an iterable of ``bytes`` chunks written
    one by one, through a temp file in the target directory and a rename,
    creating the directory; any OS failure raises ``io-error`` and leaves
    the target as it was."""
    directory = os.path.dirname(os.path.abspath(path))
    chunks = [content.encode()] if isinstance(content, str) else content
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
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
    ``attn``, when recorded, holds one ``(heads, span)`` array of attention
    probabilities per layer; :func:`cached_positions` supplies the positions
    they attend over."""

    index: int
    line: int
    token: int
    span: int
    visual_len: int
    step_ns: int | None = None
    attn: list | None = None


def _encode(probs) -> bytes:
    return base64.b64encode(np.ascontiguousarray(probs, dtype="<f8"))


def _decode(text: str, shape: tuple[int, int]) -> np.ndarray:
    raw = base64.b64decode(text, validate=True)
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"{len(raw)}-byte payload does not fill shape {shape}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def _int(value, what: str, nullable: bool = False):
    """``value`` if it is an integer (``bool`` is not), else ``ValueError``."""
    if type(value) is int or (nullable and value is None):
        return value
    raise ValueError(f"{what} {value!r} is not an integer")


class _CachedPositions:
    """The raster positions each (layer, kv head) holds while a run is
    replayed: every step attends over the live rows and then appends its
    own index; an eviction record removes its positions from one row."""

    def __init__(self, config: dict):
        layers, heads, kv_heads = config["layers"], config["heads"], config["kv_heads"]
        if not 1 <= _int(kv_heads, "kv_heads") <= heads or heads % kv_heads:
            raise ValueError(f"kv_heads {kv_heads} does not divide heads {heads}")
        total = config["height"] * config["width"]
        self.rows = np.empty((layers, kv_heads, total), dtype=np.int64)
        self.lens = np.zeros((layers, kv_heads), dtype=np.int64)

    def step(self, index: int, visual: int) -> np.ndarray:
        """The ``(layers, kv_heads, visual)`` rows step ``index`` attends over,
        as a view that the next eviction overwrites."""
        if (self.lens != visual).any():
            held = sorted(set(self.lens.ravel().tolist()))
            raise ValueError(f"span leaves {visual} visual entries, the cache holds {held}")
        rows = self.rows[:, :, :visual]
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
        # a replayed row is sorted, so each cached position is found where it
        # would be inserted; the bound check comes first and guards an empty row
        at = np.searchsorted(row, evicted)
        if (np.diff(evicted) <= 0).any() or (at >= n).any() or (row[at] != evicted).any():
            raise ValueError("evicted positions are not increasing cached positions")
        if n - evicted.size != ev.post_len:
            raise ValueError(f"{n - evicted.size} entries left, post_len {ev.post_len}")
        self.rows[ev.layer, ev.head, : ev.post_len] = np.delete(row, at)
        self.lens[ev.layer, ev.head] = ev.post_len

    def snapshot(self, cond_len: int) -> dict:
        """The replayed cache in :meth:`VisualKVCache.snapshot`'s layout."""
        rows = ([row[:n] for row, n in zip(*layer)] for layer in zip(self.rows, self.lens))
        return snapshot_layout(cond_len, rows)


def _by_last_step(evictions, width: int) -> dict[int, list[EvictionEvent]]:
    """Eviction records keyed by the index of their line's last step."""
    by_step: dict[int, list[EvictionEvent]] = {}
    for ev in evictions:
        by_step.setdefault(ev.line * width - 1, []).append(ev)
    return by_step


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

    def lines(self, timing: bool = True):
        """Each record's line of the file as ASCII bytes, newline included,
        in file order; ``timing=False`` leaves out the :data:`TIMING_FIELDS`.
        A step's base64 payloads are spliced in as bytes: ``"attn"`` sorts
        before every other key, and base64 text needs no JSON escaping."""

        def line(rec: dict) -> bytes:
            if not timing:
                rec = {k: v for k, v in rec.items() if k not in TIMING_FIELDS}
            return _JSON.encode(rec).encode() + b"\n"

        yield line({"record": "header", "schema": TRACE_SCHEMA, **self.header})
        by_step = _by_last_step(self.evictions, self.config["width"])
        for step in self.steps:
            scalars = line({
                "record": "step",
                "i": step.index,
                "line": step.line,
                "token": step.token,
                "span": step.span,
                "visual_len": step.visual_len,
                "step_ns": step.step_ns,
            })
            if step.attn is None:
                yield scalars
            else:
                # one payload per layer, and a model has at least one layer
                probs = b'"},{"probs":"'.join([_encode(p) for p in step.attn])
                yield b'{"attn":[{"probs":"%s"}],%s' % (probs, scalars[1:])
            for ev in by_step.get(step.index, ()):
                yield line({"record": "eviction", **vars(ev)})
        summary = {"record": "summary"}
        if self.final_hidden is not None:
            summary["final_hidden"] = np.asarray(self.final_hidden).tolist()
        if self.cache_snapshot is not None:
            summary["cache"] = self.cache_snapshot
        yield line(summary)

    def dumps(self) -> str:
        return b"".join(self.lines()).decode("ascii")

    def canonical_body(self) -> bytes:
        """The file's bytes without the timing fields, built in one buffer
        that its result takes over."""
        buf = io.BytesIO()
        buf.writelines(self.lines(timing=False))
        return buf.getvalue()

    def write(self, path: str) -> str:
        """Atomic write, streamed record by record into a temp file in the
        target directory, then renamed."""
        return atomic_write(path, self.lines())

    @classmethod
    def read(cls, path: str) -> "DecodeTrace":
        """Parse and validate a trace file. A file that cannot be opened
        raises ``io-error``; malformed JSON, payloads or record order, and
        eviction records, spans, visual lengths or a summary that disagree
        with the rebuilt cache, raise ``trace-corrupt`` with the offending
        line number."""
        try:
            fh = open(path, "rb")
        except OSError as exc:
            raise LinearKVError("io-error", f"cannot read {path}: {exc.strerror}") from None
        header, summary, steps, evictions, lineno = None, None, [], [], 0
        cached = traced = None
        step_line = 0  # the line of the last step read

        def corrupt(message, at=None):
            return LinearKVError("trace-corrupt", f"{path}:{at or lineno}: {message}")

        def check_visual_len(held):
            # the last step's store length, once its line's evictions are applied
            if steps and np.any(held != steps[-1].visual_len):
                held = sorted(set(np.ravel(held).tolist()))
                message = f"step {len(steps) - 1} visual_len {steps[-1].visual_len}"
                raise corrupt(f"{message}, the cache holds {held}", step_line)

        with fh:
            for lineno, raw in enumerate(fh, start=1):
                if not raw.strip():
                    continue
                try:
                    rec = json.loads(raw)
                    kind = rec["record"]
                    if summary is not None:
                        raise corrupt(f"{kind!r} record after the summary")
                    if header is None:
                        if kind != "header":
                            raise LinearKVError("trace-missing-header", path)
                        if rec.get("schema") != TRACE_SCHEMA:
                            message = f"schema {rec.get('schema')} != {TRACE_SCHEMA}"
                            raise LinearKVError("trace-schema-mismatch", message)
                        header = {k: v for k, v in rec.items() if k not in ("record", "schema")}
                        config = header["config"]
                        width, total = config["width"], config["height"] * config["width"]
                        # headers that name no model, as in hand-built traces, skip the replay
                        if "layers" in config:
                            if not 0 <= _int(config["n_init"], "n_init") <= total:
                                raise ValueError(f"n_init {config['n_init']} outside [0, {total}]")
                            cached = _CachedPositions(config)
                    elif kind == "step":
                        i, line, span = (_int(rec[k], k) for k in ("i", "line", "span"))
                        if i != len(steps) or i >= total or line != i // width + 1:
                            raise corrupt(f"step {i} on line {line} out of order")
                        attn = rec.get("attn")
                        if i == 0:
                            traced = attn is not None
                        if (attn is not None) != traced:
                            raise corrupt("attention on some steps and not on others")
                        if cached is not None:
                            cached.step(i, span - config["cond_len"])
                            check_visual_len(span - config["cond_len"])
                        if attn is not None:
                            if len(attn) != config["layers"]:
                                raise ValueError(
                                    f"attention for {len(attn)} layers, expected {config['layers']}"
                                )
                            shape = (config["heads"], span)
                            attn = [_decode(layer["probs"], shape) for layer in attn]
                        steps.append(StepRecord(
                            i, line, _int(rec["token"], "token"), span,
                            _int(rec["visual_len"], "visual_len"),
                            _int(rec.get("step_ns"), "step_ns", nullable=True), attn,
                        ))
                        step_line = lineno
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
                        if len(steps) != total:
                            raise corrupt(f"{len(steps)} steps, expected {total}")
                        hidden = rec.get("final_hidden")
                        final_hidden = None if hidden is None else np.asarray(hidden, np.float64)
                        if cached is not None:
                            check_visual_len(cached.lens)
                            missing = [k for k in ("final_hidden", "cache") if rec.get(k) is None]
                            if missing:
                                raise corrupt(f"summary lacks {' and '.join(missing)}")
                            # compared as bytes, so that no float or bool passes for an int
                            snapshot = _JSON.encode(cached.snapshot(config["cond_len"]))
                            if _JSON.encode(rec["cache"]) != snapshot:
                                raise corrupt("cache snapshot disagrees with the replayed cache")
                            want = (config["heads"] * config["head_dim"],)
                            if final_hidden.shape != want:
                                shape = final_hidden.shape
                                raise corrupt(f"final_hidden of shape {shape}, not {want}")
                        summary = rec
                    else:
                        raise corrupt(f"unexpected {kind!r} record")
                except (
                    ValueError, KeyError, TypeError, ArithmeticError, RecursionError, MemoryError
                ) as exc:
                    raise corrupt(f"{type(exc).__name__}: {exc}") from None
        if header is None:
            raise LinearKVError("trace-missing-header", path)
        if summary is None:
            raise corrupt("no summary record")
        return cls(header, steps, evictions, final_hidden, summary.get("cache"))


def cached_positions(trace: DecodeTrace) -> np.ndarray:
    """The cached positions every step attended over, ``(layers, kv_heads,
    entries)``: each step's ``span - cond_len`` visual entries side by side
    in step order, rebuilt by replaying the eviction records over the spans.
    A trace whose records the replay cannot apply raises ``trace-corrupt``."""
    cfg = trace.config
    counts = [step.span - cfg["cond_len"] for step in trace.steps]
    by_step, at = _by_last_step(trace.evictions, cfg["width"]), 0
    try:
        cached = _CachedPositions(cfg)
        out = np.empty((cfg["layers"], cfg["kv_heads"], sum(counts)), dtype=np.int64)
        for step, count in zip(trace.steps, counts):
            out[:, :, at : at + count] = cached.step(step.index, count)
            at += count
            for ev in by_step.get(step.index, ()):
                cached.evict(ev)
    except ValueError as exc:
        raise LinearKVError("trace-corrupt", str(exc)) from None
    return out
