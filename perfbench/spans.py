"""Span tracer that wraps nconvex's public functions from outside the package.

A span is (name, start, end, parent).  Spans live in flat arrays while the
benchmark runs and are written out once at the end.  A layer's self time is
its span time minus the time of the spans nested directly inside it, so the
self times of one pass add up to the pass's wall time.

Patching is by identity: a wrapped function is replaced under every name
that any loaded ``nconvex`` module binds it to (``hessian_batch`` lives in
``discretize``, ``solver`` and ``barriers``), and everything is restored on
exit.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder plus per-span hooks for counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.t0 = _clock()

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(_clock())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.end[idx] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` wrapped in a span.

        ``hook(args, result)`` sees each successful call; when it returns
        something other than None, the caller gets that in place of the result.
        """

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] = self.errors.get(name, 0) + 1
                raise
            finally:
                self._close(idx)
            if hook is not None:
                replaced = hook(args, result)
                if replaced is not None:
                    return replaced
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ---------------------------------------------------------

    def patch_function(self, fn, name: str, hook=None):
        """Replace ``fn`` under every name a loaded nconvex module binds it to."""
        wrapper = self.wrap(name, fn, hook)
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "nconvex" or modname.startswith("nconvex.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
                    hits += 1
        if hits == 0:
            raise LookupError(f"no nconvex module binds {name}")

    def patch_method(self, cls, attr: str, name: str, hook=None):
        fn = cls.__dict__[attr]
        self._undo.append((cls, attr, fn))
        setattr(cls, attr, self.wrap(name, fn, hook))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self, root: int):
        """Self time, call count and span durations per name, for span ``root``
        and every span nested in it."""
        stop = root + 1
        while stop < len(self.start) and self.start[stop] < self.end[root]:
            stop += 1
        child = {}
        for idx in range(root + 1, stop):
            par = self.parent[idx]
            child[par] = child.get(par, 0.0) + self.end[idx] - self.start[idx]
        self_t: dict[str, float] = {}
        calls: dict[str, int] = {}
        durations: dict[str, list] = {}
        for idx in range(root, stop):
            nm = self.names[self.name[idx]]
            dur = self.end[idx] - self.start[idx]
            self_t[nm] = self_t.get(nm, 0.0) + dur - child.get(idx, 0.0)
            calls[nm] = calls.get(nm, 0) + 1
            durations.setdefault(nm, []).append(dur)
        return self_t, calls, durations

    def dump(self, path):
        """Write every span as gzipped JSON parallel arrays (seconds from start)."""
        payload = {
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "start": [s - self.t0 for s in self.start],
            "end": [e - self.t0 for e in self.end],
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh)
