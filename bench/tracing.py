"""Outside-in span tracer for the quiddity package.

The tracer replaces every module-level binding of a few public functions
across the loaded ``quiddity.*`` modules with a wrapper that records one span
per call: (name, start, end, parent, returned-non-None).  Spans stay in memory
until the run ends.  Nothing inside the package is edited; a function that a
module calls through another name (a private helper, a method) is seen only
where it reaches one of the wrapped bindings.

Worker processes forked by the package inherit the wrappers but their spans
stay in the worker; none of the traced functions runs in a worker today (the
pool maps the private shard kernel only).
"""

from __future__ import annotations

import functools
import sys
import time

# span name -> (home module, public attribute)
TRACED = {
    "cli.main": ("quiddity.cli", "main"),
    "solve.enumerate": ("quiddity.solve", "enumerate_quiddities"),
    "core.canonical": ("quiddity.core", "canonical_coeffs"),
    "solve.decompose": ("quiddity.solve", "find_decomposition"),
    "solve.irreducible": ("quiddity.solve", "is_irreducible"),
    "core.verify": ("quiddity.core", "is_quiddity"),
    "even.search": ("quiddity.even", "search_evenly_irreducible"),
}

NAME, START, END, PARENT, HIT = range(5)


class Tracer:
    """Collects spans as [name, start, end, parent index, hit] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                rec[HIT] = result is not None
                return result
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every binding of each traced function.  Raises when a traced
        name is gone, so a refactor cannot silently drop a layer."""
        import quiddity.cli  # noqa: F401  loads every module the CLI reaches

        wrappers = {}
        for name, (module_name, attr) in TRACED.items():
            fn = getattr(sys.modules.get(module_name), attr, None)
            if not callable(fn):
                raise RuntimeError(f"traced function {module_name}.{attr} no longer exists")
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "quiddity" or module_name.startswith("quiddity.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, hit in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{int(hit)}\n")


def load(path) -> list[list]:
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            name, start, end, parent, hit = line.rstrip("\n").split("\t")
            spans.append([name, float(start), float(end), int(parent), hit == "1"])
    return spans


def aggregate(spans) -> list[dict]:
    """Per-layer totals for each ``cli.main`` root span, in call order.

    For every span name: calls, hits (calls that returned something other
    than None), busy time (spans not nested in a span of the same name), self
    time (duration minus the time its direct children cover) and
    serialize_calls (calls made directly by ``cli.main``, which for
    ``core.canonical`` are the ``canonical`` fields of the output lines).
    """
    child_time = [0.0] * len(spans)
    root_of = [-1] * len(spans)
    for i, (name, start, end, parent, _hit) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            root_of[i] = root_of[parent]
        else:
            root_of[i] = i
    per_root: dict[int, dict] = {}
    for i, (name, start, end, parent, hit) in enumerate(spans):
        layers = per_root.setdefault(root_of[i], {})
        agg = layers.setdefault(
            name, {"calls": 0, "hits": 0, "busy_s": 0.0, "self_s": 0.0, "serialize_calls": 0}
        )
        agg["calls"] += 1
        agg["hits"] += hit
        agg["self_s"] += (end - start) - child_time[i]
        if not _nested_in_same(spans, i):
            agg["busy_s"] += end - start
        if parent >= 0 and spans[parent][NAME] == "cli.main":
            agg["serialize_calls"] += 1
    return [per_root[r] for r in sorted(per_root) if spans[r][NAME] == "cli.main"]


def _nested_in_same(spans, i) -> bool:
    name, parent = spans[i][NAME], spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
