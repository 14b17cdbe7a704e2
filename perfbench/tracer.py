"""In-memory spans around calls into pnoether's public functions.

``install`` wraps each traced function at every place a caller looks it up:
a function is replaced in every loaded ``pnoether`` module that holds it
(``graded`` imports ``RowSpace`` and ``solve`` by name; ``serre`` and ``cli``
import ``expand`` by name), and a method is replaced on its class and on
every subclass that overrides it.  A span is (name, start, end, parent,
query id), kept in flat arrays; self time is a span's duration minus the
time its direct child spans cover.  Hooks add counters at the same
boundaries, so ratios are measured where the work happens.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.query_id = -1
        self.counters: Counter = Counter()
        self.sites: list[str] = []

    def wrap(self, fn, label: str, hook=None):
        if label not in self.names:
            self.names.append(label)
        nid = self.names.index(label)
        names, parents, queries = self.name, self.parent, self.query
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            queries.append(tracer.query_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def inside(self, label: str) -> bool:
        """Whether a span named ``label`` is open."""
        nid = self.names.index(label) if label in self.names else -1
        return any(self.name[i] == nid for i in self.stack)

    def summary(self) -> dict:
        """Calls and self seconds per span name."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = {label: {"calls": 0, "self_s": 0.0} for label in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["self_s"] += self.end[i] - self.start[i] - covered[i]
        return out

    def busy_s(self, label: str) -> float:
        """Seconds inside spans named ``label``, nested ones counted once."""
        if label not in self.names:
            return 0.0
        nid = self.names.index(label)
        total = 0.0
        for i in range(len(self.start)):
            if self.name[i] != nid:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != nid:
                p = self.parent[p]
            if p < 0:
                total += self.end[i] - self.start[i]
        return total

    def write(self, path) -> None:
        """Write the spans: one JSON header line naming the arrays, then the
        raw arrays (span name index, parent index, query id, start, end) in
        machine byte order."""
        arrays = (self.name, self.parent, self.query, self.start, self.end)
        header = {"names": self.names, "count": len(self.start),
                  "arrays": [["name", "H"], ["parent", "i"], ["query", "i"],
                             ["start", "d"], ["end", "d"]],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in arrays:
                arr.tofile(fh)


# ---------------------------------------------------------------------------
# what is traced


def _on_run_ss(tracer, args, result):
    tracer.counters["serre.steps"] += len(result.log)
    tracer.counters["serre.survivors"] += len(result.surviving_fiber_generators)
    tracer.counters["serre.final_ideal_gens"] += len(result.killed_base_ideal)


def _on_solve(tracer, args, result):
    tracer.counters["linalg.solve.hits"] += result is not None


def _on_add(tracer, args, result):
    tracer.counters["linalg.RowSpace.add.accepted"] += bool(result)


def _on_quotient(tracer, args, result):
    tracer.counters["graded.QuotientTruncAlgebra.ideal_gens_spanned"] += sum(
        1 for x in args[0].ideal_gens if not x.is_zero)


def _on_words(tracer, args, result):
    tracer.counters["steenrod.admissible_words.words_out"] += len(result)
    if tracer.inside("em.em_product_presentation"):
        tracer.counters["em.words_enumerated"] += len(result)


def _on_em(tracer, args, result):
    tracer.counters["em.generators_out"] += len(result.generators)


def _on_expand(tracer, args, result):
    tracer.counters["graded.basis_total"] += sum(result.dims())


FUNCTIONS = (
    # (module, attribute, span name, hook)
    ("cli", "main", "cli.main", None),
    ("serre", "run_ss", "serre.run_ss", _on_run_ss),
    ("serre", "annihilator_profile", "serre.annihilator_profile", None),
    ("linalg", "solve", "linalg.solve", _on_solve),
    ("graded", "expand", "graded.expand", _on_expand),
    ("steenrod", "admissible_words", "steenrod.admissible_words", _on_words),
    ("steenrod", "adem_reduce", "steenrod.adem_reduce", None),
    ("em", "em_product_presentation", "em.em_product_presentation", _on_em),
    ("unstable", "krull_degree", "unstable.krull_degree", None),
    ("unstable", "tbar", "unstable.tbar", None),
    ("unstable", "expr_dims", "unstable.expr_dims", None),
)

METHODS = (
    # (module, class, method, span name, hook)
    ("graded", "TruncAlgebra", "product", "graded.TruncAlgebra.product", None),
    ("graded", "TruncAlgebra", "act", "graded.TruncAlgebra.act", None),
    ("graded", "QuotientTruncAlgebra", "__init__",
     "graded.QuotientTruncAlgebra", _on_quotient),
    ("linalg", "RowSpace", "add", "linalg.RowSpace.add", _on_add),
    ("linalg", "RowSpace", "reduce", "linalg.RowSpace.reduce", None),
)


def _package_modules():
    return [(name, mod) for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == "pnoether" or name.startswith("pnoether."))]


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def install(tracer: Tracer) -> None:
    """Wrap every traced function and method; record each rebound site."""
    modules = _package_modules()
    for mod_name, attr, label, hook in FUNCTIONS:
        original = getattr(sys.modules[f"pnoether.{mod_name}"], attr)
        wrapped = tracer.wrap(original, label, hook)
        for name, mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    tracer.sites.append(f"{name}.{key}")
    for mod_name, cls_name, method, label, hook in METHODS:
        base = getattr(sys.modules[f"pnoether.{mod_name}"], cls_name)
        for cls in _subclasses(base):
            if method in vars(cls):
                setattr(cls, method, tracer.wrap(vars(cls)[method], label, hook))
                tracer.sites.append(f"{cls.__module__}.{cls.__qualname__}.{method}")


def adem_cache_entries(steenrod) -> int:
    """Entries held by the Adem reducers' memo tables (lru caches and
    module-level cache dicts)."""
    total = 0
    for key, value in vars(steenrod).items():
        info = getattr(value, "cache_info", None)
        if callable(info):
            total += info().currsize
        elif isinstance(value, dict) and key.upper().endswith("_CACHE"):
            total += len(value)
    return total
