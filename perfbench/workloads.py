"""Seeded query lists for the three benchmark workloads.

A query is a JSON-able dict with an ``id`` and a ``kind``:

* ``cli``: ``argv`` for ``pnoether.cli.main``; exit code 0 is expected;
* ``fibration``: ``serre.run_ss`` on the BSO(3)x BSO(3)-type fibration
  described by ``base`` at ``bound``;
* ``sweep``: one Adem-vs-action comparison of the composite ``letters`` at
  prime ``p`` over every basis element of that prime's sweep algebra.

Extra keys (``oracle``, ``expr``, ...) carry what the oracles need.  Each
workload's bounds are a fixed band, so every order statistic of the query
times lands on a query of the same size whatever the seed.  The seed draws
the order of the cover and fibration lists, the names and order of the
fibration's base generators, and the adem words and module expressions of
``words``, whose list keeps a fixed order of kinds (em tables first) so that
its peak memory does not depend on the seed.  The library only ever sees the
generated inputs.  This module imports nothing from pnoether, so the parent
process stays free of the library.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("cover", "fibration", "words")

# Sweep algebras: E(x1,x2) (x) F_p[y1,y2] with Bockstein links x_i -> y_i at
# odd p, F_2[x1,x2,x3] at p = 2; (prime, truncation bound, letters).
SWEEPS = (
    (3, 22, [("B",)] + [("P", i) for i in range(1, 5)]),
    (5, 30, [("B",)] + [("P", i) for i in range(1, 4)]),
    (2, 12, [("Sq", i) for i in range(1, 5)]),
)

# Letters for the seeded names of the fibration's base generators.
BASE_LETTERS = "abcdeghkmnpqrstuvw"


def build(workload: str, seed: int) -> list[dict]:
    """The query list of a workload for a seed, in execution order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    queries = {"cover": _cover, "fibration": _fibration,
               "words": _words}[workload](rng)
    if workload != "words":
        rng.shuffle(queries)
    for i, q in enumerate(queries):
        q["id"] = i
    return queries


def _cli(*argv, **extra) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv], **extra}


def _cover(rng) -> list[dict]:
    out = []
    for entry, p, bounds in (("BS3", 2, range(56, 101, 4)),
                             ("BS3", 3, range(110, 150, 5)),
                             ("BS3", 5, range(110, 150, 5)),
                             ("X2b_4", 3, range(90, 122, 4))):
        for b in bounds:
            out.append(_cli("cover", "--catalog", entry, "--p", p,
                            "--max-degree", b, oracle="ss", entry=entry, p=p,
                            bound=b))
    return out


def _fibration(rng) -> list[dict]:
    """Bounds 10..28, each twice with its own relabeled base: 38 queries of
    about 6 s in all, so that a run holds five passes and the middle of the
    query times holds several queries of like cost."""
    return [{"kind": "fibration", "bound": b, "base": fibration_base(rng),
             "oracle": "ss", "p": 2} for b in range(10, 29) for _ in range(2)]


def fibration_base(rng=None) -> dict:
    """F_2[a2,a3,b2,b3] with the action of H*(BSO(3))^2 (Sq1 a2 = a3,
    Sq1 a3 = 0, Sq2 a3 = a2 a3, the same for b) and transgressions
    i1 -> a2, j1 -> b2; with ``rng`` the letters, the generator order and
    the factor each fiber class transgresses to are drawn at random."""
    a, b = rng.sample(BASE_LETTERS, 2) if rng else ("a", "b")
    gens = [[f"{x}{d}", d] for x in (a, b) for d in (2, 3)]
    if rng:
        rng.shuffle(gens)
    action = {}
    for x in (a, b):
        action.update({f"{x}2 Sq1": f"{x}3", f"{x}3 Sq1": "0",
                       f"{x}3 Sq2": f"{x}2*{x}3"})
    return {"generators": gens, "action": action,
            "transgression": {"f1_i1": f"{a}2", "f2_i1": f"{b}2"}}


# ---------------------------------------------------------------------------
# words


def _words(rng) -> list[dict]:
    out = []
    # em tables: K(Z,3) at p = 2, K(Z/2,1), K(Z,4) at p = 3
    for space, p, bounds, n, coeff in (
            ("K(Z,3)", 2, (200, 210, 220), 3, "Z"),
            ("K(Z/2,1)", 2, (125, 135, 145), 1, "Z/p"),
            ("K(Z,4)", 3, (250, 270, 290), 4, "Z")):
        for b in bounds:
            out.append(_cli("em", "--space", space, "--p", p, "--max-degree", b,
                            oracle="em", p=p, n=n, coeff=coeff, bound=b))
    for p in (2, 3, 5):
        for _ in range(10):
            letters = _random_letters(rng, p)
            out.append(_cli("adem", _word_dsl(p, letters), "--p", p,
                            oracle="adem", p=p, letters=letters))
    for p, _bound, alphabet in SWEEPS:
        for length in (2, 3):
            for comp in itertools.product(alphabet, repeat=length):
                out.append({"kind": "sweep", "p": p,
                            "letters": [list(op) for op in comp],
                            "oracle": "sweep"})
    for expr, p, tbar in _krull_exprs(rng):
        out.append(_cli("krull", render(expr), "--p", p,
                        oracle="krull", expr=expr, p=p, tbar=tbar))
    for _ in range(10):
        p = rng.choice((2, 3, 5))
        expr = _random_expr(rng, max_f=3, max_factors=3)
        bound = rng.randrange(20, 41)
        out.append(_cli("fmod", render(expr), "--p", p, "--max-degree", bound,
                        oracle="fmod", expr=expr, p=p, bound=bound))
    return out


def _random_letters(rng, p: int) -> list[list]:
    length = rng.randrange(2, 5)
    if p == 2:
        return [["Sq", rng.randrange(1, 9)] for _ in range(length)]
    out = []
    for _ in range(length):
        if out and out[-1] == ["B"] or rng.random() < 0.7:
            out.append(["P", rng.randrange(1, 5)])
        else:
            out.append(["B"])
    return out


def _word_dsl(p: int, letters) -> str:
    """Letters in the command-line word syntax (Sq[...] or bP[...] groups)."""
    if p == 2:
        return "Sq[" + ",".join(str(op[1]) for op in letters) + "]"
    lead, pairs = 0, []
    for op in letters:
        if op[0] == "B":
            if pairs:
                pairs[-1][1] = 1
            else:
                lead = 1
        else:
            pairs.append([op[1], 0])
    if not pairs:
        return f"bP[{lead}]"
    return f"bP[{lead};" + ";".join(f"{s},{e}" for s, e in pairs) + "]"


# Module expressions are nested lists following the DSL grammar:
#   ["sum", [term, ...]], term = ["tensor", [factor, ...]],
#   factor = ["F", n] | ["F", n, k] (k-fold sum) | ["Q1"] | ["Fin", [[d, m], ...]]
#            | ["Sigma", expr]


def _krull_exprs(rng) -> list[tuple]:
    """(expr, p, check the first reduced-T step): F(1)^(x7); F(1) to F(6)
    in seeded order at seeded primes, the only queries whose first
    reduced-T step the oracle checks, so the number that fail is the same
    for every seed; ten heavy expressions of one shape, Sigma(F(1)^(x6)) +
    Fin with a seeded finite atom (reports of about 140 kB and of equal
    cost, so the tail rank of the words list lands among them whatever the
    seed); four light random expressions."""
    out = [(_tensor_of([["F", 1]] * 7), 2, False)]
    for n in rng.sample(range(1, 7), 6):
        out.append((_tensor_of([["F", n]]), rng.choice((2, 3, 5)), True))
    for _ in range(10):
        heavy = ["Sigma", _tensor_of([["F", 1]] * 6)]
        fin = ["Fin", [[rng.randrange(0, 8), rng.randrange(1, 4)]]]
        out.append((["sum", [["tensor", [heavy]], ["tensor", [fin]]]], 2,
                    False))
    for _ in range(4):
        out.append((_random_expr(rng, max_f=3, max_factors=3),
                    rng.choice((2, 3, 5)), False))
    return out


def _finite_factor(rng) -> list:
    if rng.random() < 0.3:
        return ["Q1"]
    dims = {rng.randrange(0, 8): rng.randrange(1, 4)
            for _ in range(rng.randrange(1, 4))}
    return ["Fin", sorted([d, m] for d, m in dims.items())]


def _tensor_of(factors) -> list:
    return ["sum", [["tensor", list(factors)]]]


def _random_expr(rng, max_f: int, max_factors: int, depth: int = 0) -> list:
    """A sum of one to three tensor terms; the F indices of a term add up to
    at most ``max_f``, which bounds its Krull degree and the report size."""
    terms = []
    for _ in range(rng.randrange(1, 4)):
        factors = []
        budget = max_f
        for _ in range(rng.randrange(1, max_factors + 1)):
            r = rng.random()
            if r < 0.55 and budget:
                n = rng.randrange(0, min(3, budget) + 1) \
                    if rng.random() < 0.3 else 1
                budget -= n
                factor = ["F", n]
                if rng.random() < 0.2:
                    factor.append(rng.randrange(2, 4))
            elif r < 0.9 or depth:
                factor = _finite_factor(rng)
            else:
                factor = ["Sigma", _random_expr(rng, budget, 2, depth + 1)]
                budget = 0
            factors.append(factor)
        terms.append(["tensor", factors])
    return ["sum", terms]


def render(expr) -> str:
    """A module expression in the command-line DSL."""
    return " + ".join("*".join(_render_factor(f) for f in term[1])
                      for term in expr[1])


def _render_factor(f) -> str:
    if f[0] == "F":
        return f"F({f[1]})" + (f"^{f[2]}" if len(f) > 2 else "")
    if f[0] == "Q1":
        return "Q1"
    if f[0] == "Fin":
        return "Fin(" + ",".join(f"{d}:{m}" for d, m in f[1]) + ")"
    return f"Sigma({render(f[1])})"


# The roadmap's Direction-1 single-query baselines, re-timed by --roadmap.
ROADMAP = (
    ("cover BS3 p=2 max-degree 100",
     _cli("cover", "--catalog", "BS3", "--p", 2, "--max-degree", 100)),
    ("cover BS3 p=2 max-degree 130",
     _cli("cover", "--catalog", "BS3", "--p", 2, "--max-degree", 130)),
    ("BSO(3)^2 fibration bound 36",
     {"kind": "fibration", "bound": 36, "base": fibration_base()}),
    ("BSO(3)^2 fibration bound 44",
     {"kind": "fibration", "bound": 44, "base": fibration_base()}),
    ("em K(Z/2,1) max-degree 200",
     _cli("em", "--space", "K(Z/2,1)", "--max-degree", 200)),
    ("em K(Z,3) max-degree 260",
     _cli("em", "--space", "K(Z,3)", "--max-degree", 260)),
    ("krull F(1)^(x8)", _cli("krull", "*".join(["F(1)"] * 8))),
)
