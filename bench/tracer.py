"""Outside-in tracing of the torlink package, from the benchmark's own files.

Every public function of the package's modules is wrapped, and the wrapper
is bound in place of the original wherever a torlink module binds that same
object (found by identity), so calls that cross modules are seen too. Only
public names are read; the package's private memos are never touched.

A span is (name, start, end, parent). Spans are kept in flat arrays while
the workload runs and are written out, with the per-function summary, when
it ends. A function's self time is its span time minus the time covered by
its child spans. Besides calls and self time, the wrapper keeps two result
counts per function: how many calls returned True, and the total length of
the lists and tuples returned.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

LAYERS = ("graph6", "graphs", "canonical", "containment", "oracles", "torus", "search", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.trues: list[int] = []
        self.items: list[int] = []
        self._open: list[int] = []

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        self.trues.append(0)
        self.items.append(0)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        trues, items, open_spans = self.trues, self.items, self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(fid)
            span_parent.append(open_spans[-1] if open_spans else -1)
            span_end.append(0)
            open_spans.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                open_spans.pop()
            if result is True:
                trues[fid] += 1
            elif isinstance(result, (list, tuple)):
                items[fid] += len(result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap each public function of each layer module of the package."""
        modules = [package] + [
            getattr(package, layer) for layer in LAYERS if hasattr(package, layer)
        ]
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = getattr(package, layer, None)
            if module is None:
                continue
            for attr in dir(module):
                if attr.startswith("_"):
                    continue
                obj = getattr(module, attr)
                if (
                    callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__
                ):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for module in modules:
            for attr in dir(module):
                if attr.startswith("_"):
                    continue
                replacement = wrapped.get(id(getattr(module, attr)))
                if replacement is not None:
                    setattr(module, attr, replacement)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-function calls, self seconds and result counts."""
        n = len(self.span_name)
        child_ns = array("q", bytes(8 * n))
        self_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        name, parent = self.span_name, self.span_parent
        start, end = self.span_start, self.span_end
        for i in range(n - 1, -1, -1):
            dur = end[i] - start[i]
            fid = name[i]
            calls[fid] += 1
            self_ns[fid] += dur - child_ns[i]
            p = parent[i]
            if p >= 0:
                child_ns[p] += dur
        return {
            fname: {
                "calls": calls[fid],
                "self_s": self_ns[fid] / 1e9,
                "trues": self.trues[fid],
                "items": self.items[fid],
            }
            for fid, fname in enumerate(self.names)
        }

    def write(self, path, summary) -> None:
        """Spans as four arrays, in the header's byte order, after a JSON
        header line."""
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "byteorder": sys.byteorder,
            "arrays": ["name:i32", "parent:i32", "start_ns:i64", "end_ns:i64"],
            "summary": summary,
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(f)
