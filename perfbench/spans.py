"""In-memory span recorder and the patching that puts it around every public
function of the magicstar modules.

A span is (name, start, end, parent, pass id).  Spans are appended to flat
arrays while a pass runs and written out once, when the pass ends, so the
recorder allocates no Python object per call beyond the arrays' growth.
Self time of a span is its duration minus the time covered by its direct
children; calls in one process never overlap, so children do not overlap
either and that covered time is the sum of their durations.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional

# Modules whose public functions and methods are traced, in import order.
MODULES = ("linalg", "roots", "star", "clifford", "ep", "octonion", "talgebra", "cli")


class SpanRecorder:
    """Append-only span store for one pass of one process."""

    def __init__(self, pass_id: int, clock: Callable[[], float] = time.perf_counter):
        self.pass_id = pass_id
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # counts observed at the same boundaries as the spans: name -> key -> value
        self.counts: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_idx.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def add_count(self, name: str, key: str, value: float) -> None:
        self.counts[name][key] += value

    def wrap(self, name: str, fn: Callable, observer: Optional[Callable] = None) -> Callable:
        nid = self.name_id(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if observer is not None:
                for key, value in observer(args, kwargs, result).items():
                    self.add_count(name, key, value)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- results ----------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per-span self time: duration minus the direct children's durations."""
        n = len(self.start)
        covered = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        return [end[i] - start[i] - covered[i] for i in range(n)]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """name -> {calls, total_s, self_s, plus any observed counts}."""
        out: Dict[str, Dict[str, float]] = {}
        selfs = self.self_times()
        for i, s in enumerate(selfs):
            name = self.names[self.name_idx[i]]
            row = out.get(name)
            if row is None:
                row = out[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            row["calls"] += 1
            row["total_s"] += self.end[i] - self.start[i]
            row["self_s"] += s
        for name, extra in self.counts.items():
            out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}).update(extra)
        return out

    def write(self, path: str) -> None:
        """One JSON header line, then one tab-separated line per span:
        index, name, start, end, parent index (-1 for a root), pass id."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"pass": self.pass_id, "spans": len(self.start),
                                 "columns": ["index", "name", "start", "end", "parent", "pass"]}))
            fh.write("\n")
            names, pid = self.names, self.pass_id
            for i in range(len(self.start)):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    i, names[self.name_idx[i]], self.start[i], self.end[i], self.parent[i], pid))


def public_callables(module) -> Iterable[tuple]:
    """(qualified name, owner, attribute, original) for each public function
    defined in ``module`` and each public method of its public classes.

    Generator functions and properties are skipped: a span around them would
    cover only the creation of the generator, not the work.
    """
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            if issubclass(obj, BaseException):
                continue
            for mname, raw in sorted(vars(obj).items()):
                if mname.startswith("_"):
                    continue
                fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                    yield "%s.%s.%s" % (short, attr, mname), obj, mname, raw
        elif callable(obj) and not inspect.isgeneratorfunction(obj):
            yield "%s.%s" % (short, attr), module, attr, obj


def install(recorder: SpanRecorder, modules: Dict[str, object],
            observers: Optional[Dict[str, Callable]] = None) -> List[str]:
    """Wrap every public callable of ``modules`` and rebind the wrapper under
    every name, in every one of ``modules``, that referred to the original.

    Returns the traced names.  The program's source is not modified; only
    the in-process module and class attributes are.
    """
    observers = observers or {}
    mods = list(modules.values())
    traced = []
    for module in mods:
        for name, owner, attr, raw in list(public_callables(module)):
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(recorder.wrap(name, raw.__func__, observers.get(name)))
                setattr(owner, attr, wrapped)
                traced.append(name)
                continue
            wrapped = recorder.wrap(name, raw, observers.get(name))
            setattr(owner, attr, wrapped)
            if owner is module:
                for other in mods:
                    for alias, value in list(vars(other).items()):
                        if value is raw:
                            setattr(other, alias, wrapped)
            traced.append(name)
    return traced
