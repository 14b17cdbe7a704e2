"""pnoether benchmark: seeded workloads, oracle-checked, timed in fresh
interpreters.

    python3 perfbench/run.py --workload cover|fibration|words --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --roadmap

Run from the root of a source tree (pnoether is imported from ``src``).  A
workload run

1. times set-up ``SETUP_SAMPLES`` times, each in a fresh interpreter;
2. runs passes over the seeded query list, one fresh interpreter per pass and
   never two processes at once, for about ``--seconds``: a pass starts only
   if it should end in time, after at least ``MIN_PASSES`` (with
   ``--trace 1`` untraced and traced passes alternate, at least one each);
3. checks the first pass's answers with the oracles in ``oracles.py`` and
   every later pass's answers against the first by payload digest;
4. prints a readable report, then one JSON line with ``correct``,
   ``attempted``, ``failed`` and the metrics (end-to-end with ``--trace 0``,
   per-layer with ``--trace 1``).

End-to-end timings are seconds at a reference host speed: each pass times a
fixed pure-Python task between its queries, and each query's seconds are
scaled by how fast that task ran around it (see ``host_scales``).  The
readable report prints every timing as measured too.

``attempted`` is the number of queries in the list and ``failed`` the number
of them that fail a check in any pass, so both depend on the workload and
the seed only, not on how many passes fit into ``--seconds``.
``correct`` is false when a query raises or exits non-zero, when a digest
differs between passes, or when an answer disagrees with its oracle in a way
other than the two defects the roadmap lists under "Fix first"; those two
are counted in ``failed`` and ``fail_rate`` but do not clear ``correct``.
``--roadmap`` re-times the roadmap's single-query baselines, each query in
its own fresh interpreter, and prints their medians and quartiles.
Scratch files go to ``.perfbench-out/`` under the root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import oracles
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_SAMPLES = 15
# Seconds of worker.reference() at the host speed the timings are scaled to,
# a fixed figure within the range of its timings on the 2-vCPU machine of
# BASELINES.md (median 0.029 s, tenth percentile 0.019 s), and how many of
# its timings, the nearest to a query, set that query's scale.
REFERENCE_S = 0.025
NEAREST_REFERENCES = 3
MIN_PASSES = 3
ROADMAP_REPEATS = 5
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """A run that cannot produce a result."""


def spawn(args: list, timeout: float):
    """Run one worker; returns (seconds from spawn to its "ready" line, its
    last stdout line parsed as JSON or None)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-I", WORKER, ROOT] + args,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {args[0]} exceeded {timeout:.0f} s")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {args[0]} failed (exit {proc.returncode}): "
                         f"{err.strip().splitlines()[-1:] or ready}")
    lines = out.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


# ---------------------------------------------------------------------------
# statistics


def quantile_summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def tail_rank(n: int) -> tuple:
    """(percentile, nearest-rank index) of the highest whole percentile with
    at least ten of the n > 10 samples beyond it."""
    pct = 100 * (n - 10) // n
    return pct, max(0, math.ceil(pct * n / 100) - 1)


# ---------------------------------------------------------------------------
# one workload run


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    os.makedirs(OUT, exist_ok=True)
    queries = workloads.build(name, seed)
    query_file = os.path.join(OUT, f"queries-{name}.json")
    with open(query_file, "w", encoding="utf-8") as fh:
        json.dump(queries, fh)
    payload_file = os.path.join(OUT, f"payloads-{name}.json")
    span_file = os.path.join(OUT, f"spans-{name}.bin")
    deadline = time.perf_counter() + CHILD_TIMEOUT_S

    setup = [spawn(["setup"], deadline - time.perf_counter())
             for _ in range(SETUP_SAMPLES)]
    passes = []
    start = time.perf_counter()
    # Past the minimum, one more pass of the mean length must fit.
    while len(passes) < (2 if trace else MIN_PASSES) or \
            (time.perf_counter() - start) * (len(passes) + 1) / len(passes) \
            <= seconds:
        mode = "traced" if trace and len(passes) % 2 else "plain"
        args = [mode, query_file, payload_file if not passes else "-"]
        if mode == "traced" and not any(p["mode"] == "traced" for p in passes):
            args.append(span_file)
        _, result = spawn(args, deadline - time.perf_counter())
        result["mode"] = mode
        passes.append(result)

    with open(payload_file, encoding="utf-8") as fh:
        payloads = {int(k): v for k, v in json.load(fh).items()}
    return {"queries": queries, "setup": setup, "passes": passes,
            "verdicts": judge(queries, payloads, passes),
            "sweep": sweep_tally(queries, payloads)}


def judge(queries: list, payloads: dict, passes: list) -> dict:
    """Per query: None (passed) or (detail, known defect or None), from the
    oracles on the first pass and digests on the later ones."""
    with open(os.path.join(ROOT, "src", "pnoether", "data", "catalog.json"),
              encoding="utf-8") as fh:
        catalog = json.load(fh)["entries"]
    first = {r[0]: r for r in passes[0]["queries"]}
    verdicts = {}
    for q in queries:
        status = first[q["id"]][3]
        if status != "ok":
            verdicts[q["id"]] = (status, None)
            continue
        try:
            verdicts[q["id"]] = oracles.check(
                q, json.loads(payloads[q["id"]]), catalog)
        except (ValueError, KeyError, TypeError, IndexError,
                AttributeError) as exc:
            verdicts[q["id"]] = (f"answer unreadable by the oracle: {exc!r}",
                                 None)
    for later in passes[1:]:
        for qid, _s, digest, status in later["queries"]:
            if digest != first[qid][2] or status != first[qid][3]:
                verdicts[qid] = ("answer differs between passes", None)
    return verdicts


def sweep_tally(queries: list, payloads: dict) -> dict:
    """Per prime: (differing, total) basis-element checks of the sweep."""
    tally: dict = {}
    for q in queries:
        if q.get("oracle") == "sweep" and payloads[q["id"]]:
            rows = json.loads(payloads[q["id"]])
            differ, total = tally.get(q["p"], (0, 0))
            tally[q["p"]] = (differ + sum(1 for r in rows if r[2] != r[3]),
                             total + len(rows))
    return tally



# ---------------------------------------------------------------------------
# metrics


def host_scales(p: dict) -> list:
    """Per query of the pass: REFERENCE_S over the median of the
    NEAREST_REFERENCES timings of the reference task taken nearest to it.

    The host is shared and its speed drifts, by up to half over minutes and
    by a tenth from second to second, far more than the work of a query
    does.  A query's seconds times its scale are seconds at the reference
    speed, which compare across runs; a change to pnoether does not change
    the reference task's time, so it moves the scaled times in full."""
    refs = p["reference_s"]
    scales = []
    for i in range(len(p["queries"])):
        near = sorted(refs, key=lambda r: abs(r[0] - i - 0.5))
        scales.append(REFERENCE_S / statistics.median(
            seconds for _, seconds in near[:NEAREST_REFERENCES]))
    return scales


def query_medians(passes: list, scaled: bool = True) -> list:
    """Each query's median seconds over the passes, sorted; scaled to the
    reference speed unless ``scaled`` is false.  A pass lasts a few seconds,
    so the medians of a run draw on all of its passes."""
    times: dict = {}
    for p in passes:
        scales = host_scales(p) if scaled else [1.0] * len(p["queries"])
        for (qid, seconds, _digest, _status), scale in zip(p["queries"],
                                                            scales):
            times.setdefault(qid, []).append(seconds * scale)
    return sorted(statistics.median(t) for t in times.values())


def timings(run: dict, passes: list, rank: int, scaled: bool) -> dict:
    """The four timing metrics of a run, scaled to the reference speed (a
    set-up sample by the reference timings of its own process) or as
    measured."""
    times = query_medians(passes, scaled)
    setup = [seconds * (REFERENCE_S / statistics.median(out["reference_s"])
                        if scaled else 1.0)
             for seconds, out in run["setup"]]
    return {"setup_s": statistics.median(setup), "wall_s": sum(times),
            "query_p50_s": statistics.median(times),
            "query_tail_s": times[rank]}


def end_to_end(run: dict) -> tuple:
    plain = [p for p in run["passes"] if p["mode"] == "plain"]
    n = len(run["queries"])
    pct, rank = tail_rank(n)
    raw = timings(run, plain, rank, scaled=False)
    metrics = {k: (v, "s") for k, v in
               timings(run, plain, rank, scaled=True).items()}
    metrics["peak_rss_mb"] = (
        statistics.median(p["maxrss_kb"] for p in plain) / 1024, "MB")
    notes = {
        "setup_s": f"median of {len(run['setup'])} spawns",
        "wall_s": f"sum over {n} queries of their median over {len(plain)} "
                  "passes",
        "query_p50_s": f"median over {n} queries of their median over "
                       f"{len(plain)} passes",
        "query_tail_s": f"p{pct} over {n} queries of their median over "
                        f"{len(plain)} passes",
    }
    notes = {k: f"{v}; {raw[k]:.6f} s as measured" for k, v in notes.items()}
    notes["peak_rss_mb"] = "ru_maxrss of the pass process, median over passes"
    return metrics, notes


LAYER_SPANS = (
    # (span name, fields reported as "<span name>.<field>")
    ("serre.run_ss", ("calls", "self_s")),
    ("graded.TruncAlgebra.product", ("calls", "self_s")),
    ("linalg.solve", ("calls", "self_s")),
    ("graded.QuotientTruncAlgebra", ("builds", "self_s")),
    ("linalg.RowSpace.add", ("calls",)),
    ("serre.annihilator_profile", ("calls", "self_s")),
    ("steenrod.admissible_words", ("calls", "self_s")),
    ("em.em_product_presentation", ("calls", "self_s")),
    ("steenrod.adem_reduce", ("calls", "self_s")),
    ("graded.TruncAlgebra.act", ("calls", "self_s")),
    ("unstable.krull_degree", ("calls", "self_s")),
    ("unstable.tbar", ("calls",)),
    ("unstable.expr_dims", ("calls", "self_s")),
    ("cli.main", ("self_s",)),
    ("graded.expand", ("calls", "self_s")),
)

COUNTERS = ("serre.steps", "serre.survivors",
            "graded.QuotientTruncAlgebra.ideal_gens_spanned",
            "steenrod.admissible_words.words_out", "em.generators_out",
            "steenrod.adem_cache.entries", "unstable.trace_terms",
            "cli.out_bytes", "graded.basis_total")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics_of(trace: dict) -> dict:
    spans, counters = trace["spans"], trace["counters"]
    empty = {"calls": 0, "self_s": 0.0}
    out = {}
    for span, fields in LAYER_SPANS:
        row = spans.get(span, empty)
        for field in fields:
            out[f"{span}.{field}"] = row["self_s" if field == "self_s" else "calls"]
    for key in COUNTERS:
        out[key] = counters.get(key, 0)
    out["serre.run_ss.busy_s"] = trace["run_ss_busy_s"]
    solve = spans.get("linalg.solve", empty)["calls"]
    out["linalg.solve.hit_ratio"] = _ratio(counters.get("linalg.solve.hits", 0),
                                           solve)
    out["graded.ideal_reuse_ratio"] = _ratio(
        counters.get("serre.final_ideal_gens", 0),
        counters.get("graded.QuotientTruncAlgebra.ideal_gens_spanned", 0))
    adds = spans.get("linalg.RowSpace.add", empty)["calls"]
    out["linalg.RowSpace.add.accept_ratio"] = _ratio(
        counters.get("linalg.RowSpace.add.accepted", 0), adds)
    out["linalg.RowSpace.self_s"] = (
        spans.get("linalg.RowSpace.add", empty)["self_s"]
        + spans.get("linalg.RowSpace.reduce", empty)["self_s"])
    out["em.keep_ratio"] = _ratio(counters.get("em.generators_out", 0),
                                  counters.get("em.words_enumerated", 0))
    out["trace.spans"] = trace["span_count"]
    return out


def per_layer(run: dict) -> dict:
    traced = [p for p in run["passes"] if p["mode"] == "traced"]
    plain = [p for p in run["passes"] if p["mode"] == "plain"]
    rows = [layer_metrics_of(p["trace"]) for p in traced]
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    traced_wall = sum(query_medians(traced, scaled=False))
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - sum(
        query_medians(plain, scaled=False))
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("out_bytes"):
        return "B"
    return "count"


# ---------------------------------------------------------------------------
# reporting


def report(name: str, seed: int, run: dict, trace: bool) -> dict:
    n = len(run["queries"])
    failing = {qid: v for qid, v in run["verdicts"].items() if v}
    unknown = {qid: v for qid, v in failing.items() if v[1] is None}
    e2e, notes = end_to_end(run)
    print(f"pnoether benchmark: workload {name}, seed {seed}, "
          f"{len(run['passes'])} passes of {n} queries")
    for key, (value, unit) in e2e.items():
        print(f"  {key:<14} {value:12.6f} {unit:<5} ({notes[key]})")
    print(f"  {'fail_rate':<14} {len(failing) / n:12.6f} ratio "
          f"({len(failing)} of {n} queries fail their oracle)")
    by_defect: dict = {}
    for qid, (detail, defect) in sorted(failing.items()):
        by_defect.setdefault(defect or "unexpected", []).append((qid, detail))
    for defect, items in sorted(by_defect.items()):
        print(f"    {len(items)} x {defect}; e.g. query {items[0][0]}: "
              f"{items[0][1]}")
    for p, (differ, total) in sorted(run["sweep"].items()):
        print(f"    sweep at p={p}: {differ} of {total} Adem-vs-action checks "
              "differ")
    if trace:
        layers = per_layer(run)
        print("  per-layer (traced passes; self time excludes child spans):")
        for key in sorted(layers):
            print(f"    {key:<50} {layers[key]:>16.6f} {unit_of(key)}")
        sites = run["passes"][1]["trace"]["sites"]
        print(f"  wrapped at {len(sites)} sites: {', '.join(sites)}")
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    return {"correct": not unknown, "attempted": n, "failed": len(failing),
            "metrics": metrics}


# ---------------------------------------------------------------------------
# roadmap baselines


def roadmap() -> dict:
    """Each single-query baseline of the roadmap, in a fresh interpreter per
    repeat: seconds of the query alone (set-up excluded)."""
    os.makedirs(OUT, exist_ok=True)
    out = {}
    for label, query in workloads.ROADMAP:
        query_file = os.path.join(OUT, "queries-roadmap.json")
        with open(query_file, "w", encoding="utf-8") as fh:
            json.dump([dict(query, id=0)], fh)
        times = []
        for _ in range(ROADMAP_REPEATS):
            _, result = spawn(["plain", query_file], CHILD_TIMEOUT_S)
            _id, seconds, _digest, status = result["queries"][0]
            if status != "ok":
                raise BenchError(f"{label}: {status}")
            times.append(seconds)
        out[label] = quantile_summary(times)
        s = out[label]
        print(f"  {label:<46} median {s['median']:.3f} s  "
              f"q1 {s['q1']:.3f}  q3 {s['q3']:.3f}  (n={s['n']})", flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--roadmap", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pnoether", "__init__.py")):
        print(f"no pnoether sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.roadmap:
            result = {"roadmap": roadmap()}
        elif args.workload:
            run = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
            result = report(args.workload, args.seed, run, bool(args.trace))
        else:
            parser.error("give --workload or --roadmap")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
