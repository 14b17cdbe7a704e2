"""One benchmark child process: set up pnoether, then run one pass.

    python3 -I worker.py ROOT setup
    python3 -I worker.py ROOT plain|traced QUERIES [PAYLOADS] [SPANS]

Set-up imports pnoether from ``ROOT/src``, builds the CLI parser (through
``cli.main(["--version"])``) and loads the built-in catalog, then prints
``ready``; a set-up process then prints its timings of the reference task.
A pass runs the query list in the JSON file QUERIES (see ``workloads.py``)
in order and prints one JSON line: per query its id, seconds, payload digest
and status, plus the pass's total query time, its timings of the reference
task (see ``reference``) and peak resident memory.  With PAYLOADS the
payloads go to that file for the oracles; a traced pass adds per-span and
counter totals and writes its spans to SPANS.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
import traceback


def setup(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import pnoether
    from pnoether import catalog, cli
    if not os.path.abspath(pnoether.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"pnoether imported from {pnoether.__file__}, not {src}")
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main(["--version"])
        except SystemExit as exc:
            if exc.code not in (0, None):
                raise
    catalog.load_catalog()


class Runner:
    """Executes queries; the timed part of each excludes payload rendering."""

    def __init__(self):
        from pnoether import cli, graded, serre, steenrod, em
        self.cli, self.graded, self.serre = cli, graded, serre
        self.steenrod, self.em = steenrod, em
        self.sweep_algebras: dict = {}

    def run(self, q: dict):
        """Returns (seconds, status, payload text); status "ok" or an error."""
        kind = q["kind"]
        if kind == "cli":
            buf = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(q["argv"])
            seconds = time.perf_counter() - start
            return seconds, "ok" if code == 0 else f"exit {code}", buf.getvalue()
        if kind == "fibration":
            start = time.perf_counter()
            result = self.serre.run_ss(
                self._fibration_spec(q["bound"], q["base"]))
            seconds = time.perf_counter() - start
            return seconds, "ok", json.dumps(result.to_jsonable(), sort_keys=True)
        start = time.perf_counter()
        pairs = self._sweep(q["p"], [tuple(op) for op in q["letters"]])
        seconds = time.perf_counter() - start
        rows = [[d, i, sorted(lhs.data.items()), sorted(rhs.data.items())]
                for d, i, lhs, rhs in pairs]
        return seconds, "ok", json.dumps(rows)

    def _fibration_spec(self, bound: int, desc: dict):
        graded, em = self.graded, self.em
        gens = [graded.GeneratorSpec(n, d) for n, d in desc["generators"]]
        action = {tuple(k.split()): v for k, v in desc["action"].items()}
        base = graded.FreeCommPresentation(2, gens, action)
        k1 = em.EMSpec(em.CyclicClass(1), 1)
        return self.serre.FibrationSpec(2, base, em.EMProduct((k1, k1)),
                                        desc["transgression"], bound)

    def _sweep(self, p: int, letters: list) -> list:
        """Each composite against its Adem reduction, on every basis element
        of the sweep algebra below the bound."""
        alg = self.sweep_algebras.get(p)
        if alg is None:
            alg = self.sweep_algebras[p] = self._sweep_algebra(p)
        degree = sum(self.graded.op_degree(p, op) for op in letters)
        reduced = self.steenrod.adem_reduce(p, letters)
        out = []
        for d in range(alg.bound - degree + 1):
            for i in range(alg.dim(d)):
                x = alg.element(d, i)
                lhs = x
                for op in reversed(letters):
                    lhs = alg.act(op, lhs)
                rhs = alg.zero()
                for w in reduced.words():
                    rhs = rhs + alg.act_word(w, x).scale(reduced.terms[w])
                out.append((d, i, lhs, rhs))
        return out

    def _sweep_algebra(self, p: int):
        from workloads import SWEEPS
        graded = self.graded
        bound = next(b for q, b, _ in SWEEPS if q == p)
        if p == 2:
            gens = [graded.GeneratorSpec(f"x{i}", 1) for i in (1, 2, 3)]
            return graded.expand(graded.FreeCommPresentation(2, gens), bound)
        gens = [graded.GeneratorSpec("x1", 1, "exterior", (1, "y1")),
                graded.GeneratorSpec("x2", 1, "exterior", (1, "y2")),
                graded.GeneratorSpec("y1", 2), graded.GeneratorSpec("y2", 2)]
        action = {("y1", "beta"): "0", ("y2", "beta"): "0"}
        return graded.expand(graded.FreeCommPresentation(p, gens, action), bound)


def trace_terms(report_text: str) -> int:
    """Summands printed in a krull report's trace."""
    trace = json.loads(report_text).get("payload", {}).get("trace", [])
    return sum(0 if s == "0" else s.count(" + ") + 1 for s in trace)


# Seconds of query time between two timings of the reference task, and the
# timings a set-up process takes after it is ready.
REFERENCE_EVERY_S = 0.25
SETUP_REFERENCES = 3


def reference() -> float:
    """Seconds of a fixed pure-Python task (about 20 ms) shaped like the
    library's inner loops: tuple building, sorting, hashing and dict updates
    of monomial-like keys.  It imports nothing from pnoether, so the
    benchmark can measure the host's current speed with it between queries
    (see ``run.py``); the library's speed does not change it."""
    start = time.perf_counter()
    rng = random.Random(1)
    rows = sorted(tuple(rng.randrange(100) for _ in range(6))
                  for _ in range(6000))
    set(rows)
    keys = [(i, j) for i in range(8) for j in range(8) if (i * 7 + j) % 3]
    product: dict = {}
    for a in keys:
        for b in keys:
            k = (a[0] + b[0], a[1] + b[1])
            product[k] = product.get(k, 0) ^ 1
    return time.perf_counter() - start


def run_pass(mode: str, queries: list, payload_path, span_path):
    runner = Runner()
    tracer = None
    if mode == "traced":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    records, payloads = [], {}
    refs, since_ref = [[0, reference()]], 0.0
    extra = {"cli.out_bytes": 0, "unstable.trace_terms": 0}
    for q in queries:
        if tracer is not None:
            tracer.query_id = q["id"]
        try:
            seconds, status, text = runner.run(q)
        except Exception:  # a failing query is recorded and the pass goes on
            seconds, text = 0.0, ""
            status = traceback.format_exc(limit=3).strip().splitlines()[-1]
        since_ref += seconds
        if since_ref >= REFERENCE_EVERY_S:
            refs.append([len(records) + 1, reference()])
            since_ref = 0.0
        records.append([q["id"], seconds,
                        hashlib.sha256(text.encode()).hexdigest(), status])
        if payload_path:
            payloads[q["id"]] = text
        if tracer is not None and q["kind"] == "cli":
            extra["cli.out_bytes"] += len(text.encode())
            if q["argv"][0] == "krull" and status == "ok":
                extra["unstable.trace_terms"] += trace_terms(text)
    out = {"wall_s": sum(r[1] for r in records), "reference_s": refs,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "queries": records}
    if payload_path:
        with open(payload_path, "w", encoding="utf-8") as fh:
            json.dump(payloads, fh)
    if tracer is not None:
        from pnoether import steenrod
        counters = dict(tracer.counters, **extra)
        counters["steenrod.adem_cache.entries"] = \
            tracing.adem_cache_entries(steenrod)
        out["trace"] = {"spans": tracer.summary(), "counters": counters,
                        "run_ss_busy_s": tracer.busy_s("serre.run_ss"),
                        "span_count": len(tracer.start), "sites": tracer.sites}
        if span_path:
            tracer.write(span_path)
    return out


def main(argv) -> int:
    root, mode = argv[1], argv[2]
    setup(root)
    print("ready", flush=True)
    if mode == "setup":
        refs = [reference() for _ in range(SETUP_REFERENCES)]
        print(json.dumps({"reference_s": refs}), flush=True)
        return 0
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    with open(argv[3], encoding="utf-8") as fh:
        queries = json.load(fh)
    payload_path = argv[4] if len(argv) > 4 and argv[4] != "-" else None
    span_path = argv[5] if len(argv) > 5 else None
    result = run_pass(mode, queries, payload_path, span_path)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
