"""Spans around the public functions of towerbounds, recorded from outside.

``Tracer.install`` replaces every public function of the traced modules on
each module attribute through which callers look it up (so
``density.sieve_primes`` and ``arith.sieve_primes`` both get the wrapper of
``arith.sieve_primes``); ``uninstall`` puts the originals back.  No file
under ``src/`` changes.

A span is (id, name, start_ns, end_ns, parent, op, thread, size).  Spans stay
in a list in memory and are written out once, at the end of a run.  A span
opened on a worker thread with nothing open on that thread takes the span
open on the main thread as its parent, so kernel calls made from the
density thread pool hang under their scan.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time

MODULES = ("arith", "curve", "cyclotomic", "series", "tower", "bounds", "density",
           "catalog", "cli")
KEYS = ("id", "name", "start", "end", "parent", "op", "thread", "size")

# Size recorded with a span, from (args, result): the prime for the kernels
# (bucketed by decade), the number of primes a sieve returned, the
# subcommand of a cli call.
_SIZE = {
    "curve.count_points": lambda a, r: a[1],
    "density.count_mod": lambda a, r: a[1],
    "arith.sieve_primes": lambda a, r: len(r.primes),
    "cli.main": lambda a, r: a[0][0] if a and a[0] else None,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.get_ident()
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name: str, fn):
        size_of = _SIZE.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                size = None
                if size_of is not None:
                    try:
                        size = size_of(args, result)
                    except (AttributeError, IndexError, TypeError):
                        size = None
                tracer.spans.append((sid, name, start, end, parent, tracer.op,
                                     threading.get_ident(), size))

        return traced

    def install(self) -> None:
        """Wrap every public towerbounds function on every traced module and
        on the package itself."""
        mods = [importlib.import_module(f"towerbounds.{m}") for m in MODULES]
        mods.append(importlib.import_module("towerbounds"))
        wrappers: dict[int, object] = {}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("towerbounds.")):
                    continue
                origin = obj.__module__.rsplit(".", 1)[1]
                if origin not in MODULES:
                    continue
                w = wrappers.get(id(obj))
                if w is None:
                    w = wrappers[id(obj)] = self.wrap(f"{origin}.{obj.__name__}", obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def begin_op(self, op: int) -> None:
        """Open the ``bench.op`` span of one workload op on the main thread."""
        self.op = op
        self._main_stack.append(next(self._ids))
        self._op_start = time.perf_counter_ns()

    def end_op(self) -> None:
        end = time.perf_counter_ns()
        self.spans.append((self._main_stack.pop(), "bench.op", self._op_start, end, None,
                           self.op, self._main, None))
        self.op = None

    def adopt(self, spans) -> None:
        """Take spans written by a traced child process, renumbered, with the
        child's root spans hung under the open op."""
        parent = self._main_stack[-1] if self._main_stack else None
        remap = {s[0]: next(self._ids) for s in spans}
        for sid, name, start, end, par, _op, thread, size in spans:
            self.spans.append((remap[sid], name, start, end,
                               remap.get(par, parent), self.op, thread, size))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(KEYS, s))) + "\n")


def load(path) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)[k] for k in KEYS) for line in fh if line.strip()]


def union_ns(intervals) -> int:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class SpanIndex:
    """Spans grouped by name and by parent, for self times and ratios."""

    def __init__(self, spans):
        self.spans = spans
        self.by_name: dict[str, list[tuple]] = {}
        self.children: dict[int, list[tuple]] = {}
        for s in spans:
            self.by_name.setdefault(s[1], []).append(s)
            self.children.setdefault(s[4], []).append(s)

    def named(self, name: str) -> list[tuple]:
        return self.by_name.get(name, [])

    def descendants(self, span) -> list[tuple]:
        out, todo = [], list(self.children.get(span[0], []))
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(self.children.get(s[0], []))
        return out

    def self_ns(self, span, exclude=lambda name: True) -> int:
        """Duration minus the time covered by descendants whose names pass
        ``exclude``."""
        covered = union_ns((s[2], s[3]) for s in self.descendants(span) if exclude(s[1]))
        return span[3] - span[2] - covered
