"""In-memory span recorder and the wrappers that feed it from outside.

A span is ``[name, start_ns, end_ns, parent, job]``: ``parent`` is the
index of the span that was open when this one started (-1 at top level)
and ``job`` the id of the enclosing ``run_workload``/``run_multicore``
call (0 outside any job).  Wrappers are installed around entry points of
the simulator (module functions, class attributes, the ctypes kernel
symbol) by :meth:`Recorder.install` and removed by
:meth:`Recorder.uninstall`, which puts every original object back.
Nothing under ``src/`` is edited: the recorder patches live attributes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

_now = time.perf_counter_ns


@dataclass(frozen=True)
class Target:
    """One entry point to wrap.

    ``where`` is ``"module:function"`` or ``"module:Class.method"``, or a
    zero-argument callable returning ``[(owner, attribute)]`` pairs (for
    objects that only exist at run time, such as the loaded kernel).
    ``before(rec, args, kwargs)`` runs before the call and its return
    value is handed to ``after(rec, state, args, kwargs, result)``, which
    runs after a successful call.  ``job`` marks the span as one job;
    ``iterator`` times each ``next()`` of the returned iterator instead
    of the call itself.
    """

    name: str
    layer: str
    where: str | Callable
    before: Callable | None = None
    after: Callable | None = None
    job: bool = False
    iterator: bool = False


class _TimedIterator:
    """Iterator proxy that records one span per ``next()``."""

    __slots__ = ("_rec", "_name", "_it")

    def __init__(self, rec: "Recorder", name: str, it) -> None:
        self._rec, self._name, self._it = rec, name, iter(it)

    def __iter__(self):
        return self

    def __next__(self):
        i = self._rec.open(self._name)
        try:
            return next(self._it)
        finally:
            self._rec.close(i)


class Recorder:
    """Spans and boundary counts of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.failed_jobs: set[int] = set()
        self._stack: list[int] = []
        self._job = 0
        self._next_job = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0, parent, self._job])
        i = len(self.spans) - 1
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = _now()
        self._stack.pop()

    def fail_job(self) -> None:
        """Count the current job as failed (raised, fell back, ...)."""
        if self._job:
            self.failed_jobs.add(self._job)

    def reset(self) -> None:
        """Forget recorded spans and counts (wrappers stay installed)."""
        self.spans = []
        self.counts = Counter()
        self.failed_jobs = set()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, target: Target, fn):
        rec = self
        name, before, after = target.name, target.before, target.after

        if target.iterator:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return _TimedIterator(rec, name, fn(*args, **kwargs))
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_job = rec._job
            if target.job:
                rec._next_job += 1
                rec._job = rec._next_job
            state = before(rec, args, kwargs) if before else None
            i = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if target.job:
                    rec.fail_job()
                raise
            finally:
                rec.close(i)
                rec._job = outer_job
            if after is not None:
                after(rec, state, args, kwargs, result)
            return result
        return wrapper

    def install(self, targets) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        for target in targets:
            for owner, attr, original in _locate(target.where):
                setattr(owner, attr, self._wrap(target, original))
                self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _locate(where) -> list[tuple[object, str, object]]:
    """``(owner, attribute, original)`` for every binding of ``where``.

    A module-level function is also patched wherever another ``repro``
    module imported it by name (``from m import f``), since those
    bindings are what the callers actually look up.
    """
    if callable(where):
        return [(owner, attr, getattr(owner, attr))
                for owner, attr in where()]
    module_name, _, path = where.partition(":")
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        owner = getattr(module, cls_name)
        return [(owner, attr, owner.__dict__[attr])]
    original = getattr(module, path)
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                found.append((mod, attr, original))
    return found


# ---------------------------------------------------------------------------
# Span arithmetic.

def self_times(spans: list[list]) -> list[int]:
    """Self time (ns) of each span: its duration minus its children's."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def top_level_ns(spans: list[list]) -> int:
    """Wall time covered by spans that have no parent."""
    return sum(s[2] - s[1] for s in spans if s[3] < 0)


def has_ancestor(spans: list[list], i: int, name: str) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False
