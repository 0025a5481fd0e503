"""Spans around the public functions of ``minfact``, installed from outside.

Each function in ``SPANNED`` is replaced, at every module that holds a
reference to it, by a wrapper that records a span: name, start, end and the
index of the enclosing span.  Calls made inside a module go through its
globals, so they are caught as well.  Only the functions the per-layer
metrics name are spanned: a wrapper costs time on every call, and a public
helper left unspanned is charged to its caller's self time, where it
belongs (``intermediate`` is part of what ``validate`` costs).  CPython's
cyclic collector is recorded as ``runtime.gc`` spans through
``gc.callbacks``.  Spans stay in memory until ``summary`` or ``dump`` reads
them after the run.

A few functions also feed counters computed from their inputs and outputs
(parking probes, braid moves, chains emitted); that work is recorded as
``trace.hooks`` spans so it does not land in any layer's self time.  A
function that no longer exists is never called, so it records zero calls.
"""

from __future__ import annotations

import bisect
import functools
import gc
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter
from types import GeneratorType

from measure import self_times

SPANNED = {
    "perms": ("precedes",),
    "chains": ("validate", "enumerate_sigma"),
    "parking": ("park", "residue", "normalize"),
    "action": ("apply_permutation", "sort_chain"),
    "surjection": ("gamma", "section", "verify"),
    "cli": ("run",),
}


def inversions(seq) -> int:
    """Number of pairs l < m with seq[l] > seq[m]."""
    seen: list = []
    count = 0
    for x in reversed(seq):
        count += bisect.bisect_left(seen, x)
        bisect.insort(seen, x)
    return count


def park_probes(args, result) -> int:
    """Spaces probed by all cars: the cyclic distance from each car's entry
    point to the space it took."""
    inp = args[0]
    return sum((s - e - 1) % inp.n + 1 for e, s in zip(inp.entries, result.spaces))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent_of = array("i")
        self.start_of = array("d")
        self.end_of = array("d")
        self.stack = [-1]
        self.calls: list[int] = []
        self.counters = {
            "chains.chains_emitted": 0,
            "parking.probes": 0,
            "action.braid_moves": 0,
        }
        self.hook_failures = 0
        self._patched: list[tuple[object, str, object]] = []
        self._hooks = {
            "chains.enumerate_sigma": self._count_chains,
            "parking.park": self._count_park,
            "action.apply_permutation": self._count_braid_moves,
        }
        self._gc_id = self._name_id("runtime.gc")
        self._hook_id = self._name_id("trace.hooks")
        self._emit_id = self._name_id("chains.enumerate_sigma")
        self._gc_open = -1

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        idx = len(self.name_of)
        self.name_of.append(nid)
        self.parent_of.append(self.stack[-1])
        self.start_of.append(0.0)
        self.end_of.append(0.0)
        return idx

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer, functions in SPANNED.items():
            try:
                mod = importlib.import_module(f"minfact.{layer}")
            except ImportError:
                continue
            for attr in functions:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        sites = [m for name, m in sys.modules.items()
                 if name == "minfact" or name.startswith("minfact.")]
        for mod in sites:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        hook = self._hooks.get(name)
        stack, start_of, end_of, calls = self.stack, self.start_of, self.end_of, self.calls
        open_span, wrap_gen = self._open, self._wrap_gen

        def wrapper(*args, **kwargs):
            idx = open_span(nid)
            calls[nid] += 1
            stack.append(idx)
            start_of[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end_of[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                self._run_hook(hook, args, result)
            if isinstance(result, GeneratorType):
                return wrap_gen(nid, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _wrap_gen(self, nid: int, gen):
        # each resume of a generator is a span of the function that made it
        stack, start_of, end_of = self.stack, self.start_of, self.end_of
        while True:
            idx = self._open(nid)
            stack.append(idx)
            start_of[idx] = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                end_of[idx] = perf_counter()
                stack.pop()
            if nid == self._emit_id:
                self.counters["chains.chains_emitted"] += 1
            yield item

    def _run_hook(self, hook, args, result) -> None:
        idx = self._open(self._hook_id)
        self.start_of[idx] = perf_counter()
        try:
            hook(args, result)
        except (AttributeError, TypeError, IndexError, ValueError):
            self.hook_failures += 1
        self.end_of[idx] = perf_counter()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_open = self._open(self._gc_id)
            self.calls[self._gc_id] += 1
            self.start_of[self._gc_open] = perf_counter()
        elif self._gc_open >= 0:
            self.end_of[self._gc_open] = perf_counter()
            self._gc_open = -1

    # -- counters computed from inputs and outputs ----------------------

    def _count_chains(self, args, result) -> None:
        if isinstance(result, (list, tuple)):
            self.counters["chains.chains_emitted"] += len(result)

    def _count_park(self, args, result) -> None:
        self.counters["parking.probes"] += park_probes(args, result)

    def _count_braid_moves(self, args, result) -> None:
        self.counters["action.braid_moves"] += inversions(args[1].images)

    # -- results --------------------------------------------------------

    def spans(self) -> list[tuple[int, float, float, int]]:
        return list(zip(self.name_of, self.start_of, self.end_of, self.parent_of))

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus the counters."""
        spans = self.spans()
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for (nid, start, end, _), s in zip(spans, self_times(spans)):
            total[nid] += end - start
            own[nid] += s
        layers = {
            name: {"calls": self.calls[nid], "total_s": total[nid], "self_s": own[nid]}
            for nid, name in enumerate(self.names)
        }
        return {
            "layers": layers,
            "counters": dict(self.counters),
            "spans": len(spans),
            "hook_failures": self.hook_failures,
        }

    def dump(self, path: str) -> None:
        """Write a header line with the span names, then every span as one
        JSON line ``[name index, start, end, parent index]``."""
        with open(path, "w") as out:
            out.write(json.dumps({"names": self.names, "fields": ["name", "start", "end", "parent"]}))
            out.write("\n")
            for nid, start, end, parent in self.spans():
                out.write(f"[{nid},{start!r},{end!r},{parent}]\n")
