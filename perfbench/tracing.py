"""In-memory span tracing around the public calls into each polyconj layer.

The tracer never edits the package: it swaps every public function of the
traced modules for a wrapper in each module namespace that holds it (the
defining module and every module that imported the name), so calls that go
through a module global are recorded, and restores the originals on
``uninstall``.  Spans are kept in a list and written out once at the end.

A span is ``[name, start, end, parent_index, op_id]``.  A span's self time is
its duration minus the durations of its direct children; calls never overlap
because the benchmark runs one client in one thread.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from contextlib import contextmanager

# Module whose public functions are traced -> layer name used in span names.
LAYER_MODULES = {
    "polyconj.cli": "cli",
    "polyconj.formats": "formats",
    "polyconj.reductions": "reductions",
    "polyconj.conjugacy": "conjugacy",
    "polyconj.group": "group",
    "polyconj.tssp": "tssp",
}
# The brute referees live in reductions and tssp, but all their work is the
# _search scan, so they form the "search" layer.
SEARCH_FUNCTIONS = ("solve_ssp_brute", "solve_sspprime_brute", "solve_tssp_brute")

LAYERS = ("cli", "formats", "reductions", "conjugacy", "group", "tssp", "search")
FORWARD_HOPS = ("ssp_to_sspprime", "sspprime_to_tssp", "tssp_to_conjugacy")


def span_name(module: str, func: str) -> str:
    layer = "search" if func in SEARCH_FUNCTIONS else LAYER_MODULES[module]
    return f"{layer}.{func}"


def instance_bits(obj) -> int:
    """Storage size in bits of an instance: per integer, binary digits of
    its magnitude plus a sign bit, counting 0 as one digit."""
    if hasattr(obj, "coefficients"):
        ints = (*obj.coefficients, obj.target)
    else:
        ints = (*obj.u, *obj.v)
    return sum((abs(k).bit_length() or 1) + 1 for k in ints)


class Tracer:
    """Records spans while ``recording`` is set, and exact counts while
    ``counting`` is set as well."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.recording = False
        self.counting = False
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for modname in LAYER_MODULES:
            module = sys.modules[modname]
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == modname
                ):
                    wrappers[fn] = self._wrap(fn, span_name(modname, attr))
        for modname in [m for m in sys.modules if m == "polyconj" or m.startswith("polyconj.")]:
            module = sys.modules[modname]
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code (an op or a check), when recording."""
        if not self.recording:
            yield
            return
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if self.counting:
                self._count(name, args, result)
            return result

        return traced

    def _add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _count(self, name: str, args: tuple, result) -> None:
        """Work counts taken at the layer boundary from arguments and results."""
        layer, func = name.split(".", 1)
        if name == "cli.run":
            self._add(f"cli.exit_{result}", 1)
        elif name == "formats.parse_instance":
            self._add("formats.bytes_read", len(args[0].encode()))
        elif name == "conjugacy.reachable_g1_values":
            self._add("conjugacy.sweep_states", sum(len(s.table) for s in result.stages))
            self._add("conjugacy.sweeps", 1)
        elif name == "conjugacy.search_conjugator":
            self._add("conjugacy.searches", 1)
        elif name == "tssp.build_dp":
            self._add("tssp.states", result.total_marks)
            self._add("tssp.rows", result.n)
        elif layer == "search":
            base = 3 if func == "solve_sspprime_brute" else 2
            self._add("search.candidates", base ** args[0].n)
        elif layer == "reductions" and func in FORWARD_HOPS:
            self._add("reductions.bits_in", instance_bits(args[0]))
            self._add("reductions.bits_out", instance_bits(result))
        elif name == "group.conjugate":
            self.counts["group.h"] = max(self.counts.get("group.h", 0), args[0].hirsch)

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def roots(self) -> list[int]:
        """Index of the outermost span above each span."""
        root: list[int] = []
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            root.append(i if parent < 0 else root[parent])
        return root

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
