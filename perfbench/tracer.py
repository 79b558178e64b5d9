"""In-memory span recorder that instruments linear_kv from the outside.

A span is one call: a name, a start and end (``perf_counter_ns``), the span
that was open when it started (its parent, ``-1`` for a root) and the id of
the decode it belongs to (``-1`` outside any decode). Spans are appended to
flat integer arrays so a traced 64x64 round (about a million spans) stays a
few tens of MiB, and they are written out once, when the run ends.

Instrumentation replaces an attribute with a wrapper that records a span
around the original call. :meth:`Tracer.patch` works on module functions
(``linear_kv.policy.saliency``) and on the instances the benchmark holds
(a decoder, its policy, ``state.cache``); :meth:`Tracer.restore` puts every
replaced attribute back, newest first. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np


def self_times(parent, start, end) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other; their durations can simply be summed.
    """
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


class Tracer:
    """Spans, per-name counters and the patches that produce them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.decode = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = {}
        self.decode_policy: dict[int, str] = {}
        self.decode_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording -----------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.decode.append(self.decode_id)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: int) -> None:
        t1 = perf_counter_ns()
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        idx = self._open(self._nid(name))
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, t0)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    @property
    def policy(self) -> str | None:
        """Policy of the decode in progress, if any."""
        return self.decode_policy.get(self.decode_id)

    def begin_decode(self, policy: str) -> int:
        """Start a new decode id; spans opened from now on carry it."""
        self.decode_id = len(self.decode_policy)
        self.decode_policy[self.decode_id] = policy
        return self.decode_id

    def wrap(self, fn, name: str, on_call=None):
        """``fn`` with a span named ``name`` around every call.

        ``on_call(args, kwargs)`` runs before the span opens, so a hook that
        starts a decode tags the span it precedes.
        """
        nid = self._nid(name)

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = self._open(nid)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, t0)

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def replace(self, obj, attr: str, value) -> None:
        """Set ``obj.attr`` to ``value`` until :meth:`restore`."""
        owned = attr in vars(obj)
        self._patches.append((obj, attr, getattr(obj, attr), owned))
        setattr(obj, attr, value)

    def patch(self, obj, attr: str, name: str, on_call=None) -> None:
        """Wrap ``obj.attr`` in a span named ``name`` until :meth:`restore`."""
        self.replace(obj, attr, self.wrap(getattr(obj, attr), name, on_call))

    def restore(self, keep: int = 0) -> None:
        """Undo every patch made after the first ``keep``, newest first."""
        while len(self._patches) > keep:
            obj, attr, original, owned = self._patches.pop()
            if owned:
                setattr(obj, attr, original)
            else:
                # an instance attribute shadowing a class method: drop it
                delattr(obj, attr)

    @property
    def patched(self) -> int:
        return len(self._patches)

    # -- export --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "decode": np.frombuffer(self.decode, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def dump(self, path: str) -> str:
        """Write every span, the name table and the decode policies."""
        policies = [self.decode_policy[i] for i in range(len(self.decode_policy))]
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            decode_policy=np.array(policies, dtype=str),
            **self.arrays(),
        )
        return path
