"""Span tracer that times sillkoop's layers from outside the package.

`Tracer.install` wraps every public function of the loaded sillkoop
modules (each function named in a module's ``__all__``, plus the
``cli.cmd_*`` handlers) and rebinds the wrapper wherever a sillkoop
module refers to the original: module globals and dispatch tables such as
the CLI's command map.  Internal calls therefore go through the wrappers
too, so a span opened inside another span records it as its parent.

Spans live in memory as ``[name, start, end, parent, work]`` rows, where
work is None or a dict of counts, and the caller writes them out after the
run; nothing goes into any command's ``--out`` directory, and the wrapped
functions return exactly what the originals return.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

import numpy as np


def _sigmoid_elems(args, kwargs, result):
    return {"elems": int(np.size(args[0] if args else kwargs["z"]))}


def _completion_size(args, kwargs, result):
    given = (args[0] if args else kwargs["d"]).n_logistic
    return {"n_out": result.n_logistic, "n_new": result.n_logistic - given}


# Work recorded on a span besides its time: the elements a sigmoid call
# evaluates, and the logistics a join completion returns and adds.
_WORK = {
    "dictionary.stable_sigmoid": _sigmoid_elems,
    "dictionary.join_completion": _completion_size,
}


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        work = _WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if work is not None:
                self.spans[idx][4] = work(args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "sillkoop") -> list:
        """Wrap the package's public functions; returns the span names."""
        mods = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        wrappers = {}
        names_out = []
        for mod in mods:
            layer = mod.__name__.rsplit(".", 1)[-1]
            names = list(getattr(mod, "__all__", ()))
            if layer == "cli":
                names += [n for n in vars(mod) if n.startswith("cmd_")]
            for attr in names:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
                    names_out.append(f"{layer}.{attr}")
        tables = [vars(mod) for mod in mods]
        tables += [v for t in list(tables) for v in t.values() if isinstance(v, dict)]
        for table in tables:
            for key, val in list(table.items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    table[key] = hit[1]
                    self._patched.append((table, key, val))
        return sorted(names_out)

    def uninstall(self) -> None:
        """Put every original function back where install found it."""
        for table, key, val in reversed(self._patched):
            table[key] = val
        self._patched.clear()


def summarize(spans, offset: int = 0) -> dict:
    """Per-name totals over a slice of spans that begins at index offset.

    Returns ``{name: {"calls", "self_s", "total_s", "work": {count: n},
    "children": {name: n}}}``.
    Self time is a span's duration minus the durations of its direct
    children; the code is single-threaded, so children never overlap.
    Parents outside the slice are ignored.
    """
    n = len(spans)
    start = np.fromiter((s[1] for s in spans), float, n)
    end = np.fromiter((s[2] for s in spans), float, n)
    parent = np.fromiter((s[3] - offset for s in spans), int, n)
    parent[parent < 0] = -1
    dur = end - start
    child = np.zeros(n)
    inside = parent >= 0
    np.add.at(child, parent[inside], dur[inside])
    self_time = dur - child
    out = {}
    for i, s in enumerate(spans):
        rec = out.setdefault(
            s[0], {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": {}, "children": {}}
        )
        rec["calls"] += 1
        rec["self_s"] += float(self_time[i])
        rec["total_s"] += float(dur[i])
        for key, val in (s[4] or {}).items():
            rec["work"][key] = rec["work"].get(key, 0) + val
        if parent[i] >= 0:
            kids = out[spans[parent[i]][0]]["children"]
            kids[s[0]] = kids.get(s[0], 0) + 1
    return out
