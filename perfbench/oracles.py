"""Independent checks of query answers; they import nothing from pnoether.

``check(query, payload, catalog)`` takes the parsed answer of a query that
exited 0 (for a command-line query, its JSON report) and returns ``None``
when the answer agrees with the oracle, else ``(detail, known_defect)``.
``known_defect`` names one of the two defects the project roadmap lists under
"Fix first" when the disagreement is of that kind (an odd-prime
Adem-vs-action comparison, or the first reduced-T step of F(n) with the
Krull degree itself right), and is ``None`` for any other disagreement.
"""

from __future__ import annotations

from math import comb

CARTAN_SIGN = "odd-prime Cartan sign in FreeTruncAlgebra (roadmap: Fix first)"
TBAR_RULE = "default reduced-T rule for F(n), n >= 2 (roadmap: Fix first)"


def check(query: dict, payload, catalog: dict):
    return _CHECKS[query["oracle"]](query, payload, catalog)


# ---------------------------------------------------------------------------
# admissible words, enumerated with excess pruning (prepending a letter to an
# admissible word never lowers its excess)


def admissible(p: int, max_degree: int, limit: int, reduced: bool) -> list:
    """Admissible words of degree <= max_degree and excess <= limit.

    p = 2: (i1, ..., ik) with i_j >= 2 i_{j+1}, excess i1 - (i2 + ... + ik).
    Odd p: (e0, s1, e1, ..., sk, ek) with s_j >= p s_{j+1} + e_j, excess
    2 s1 + e0 - degree(e1, s2, ...); ``reduced`` drops e0 from the excess.
    """
    if p == 2:
        out, frontier = [()], [((), 0)]
        while frontier:
            grown = []
            for w, deg in frontier:
                i = 2 * w[0] if w else 1
                while deg + i <= max_degree and i - deg <= limit:
                    grown.append(((i,) + w, deg + i))
                    i += 1
            out.extend(w for w, _ in grown)
            frontier = grown
        return out
    base = [((0,), 0)] + ([((1,), 1)] if max_degree >= 1 else [])
    out = [w for w, _ in base if _odd_excess(p, w, reduced) <= limit]
    frontier = base
    while frontier:
        grown = []
        for w, deg in frontier:
            s = max(1, p * (w[1] if len(w) > 1 else 0) + w[0])
            while deg + 2 * s * (p - 1) <= max_degree and 2 * s - deg <= limit:
                for e in (0, 1):
                    nd = deg + 2 * s * (p - 1) + e
                    nw = (e, s) + w
                    if nd <= max_degree and _odd_excess(p, nw, reduced) <= limit:
                        grown.append((nw, nd))
                s += 1
        out.extend(w for w, _ in grown)
        frontier = grown
    return out


def _odd_degree(p: int, w: tuple) -> int:
    return w[0] + sum(2 * w[j] * (p - 1) + w[j + 1] for j in range(1, len(w), 2))


def _odd_excess(p: int, w: tuple, reduced: bool) -> int:
    if len(w) == 1:
        return 0 if reduced else w[0]
    return 2 * w[1] + (0 if reduced else w[0]) - _odd_degree(p, w[2:])


def word_degree(p: int, w: tuple) -> int:
    return sum(w) if p == 2 else _odd_degree(p, w)


def em_generators(p: int, n: int, coeff: str, bound: int) -> list:
    """(degree, kind) of the generators of H*(K(A, n); F_p) through the bound:
    words of reduced excess < n, without a trailing Bockstein when A is Z."""
    out = []
    for w in admissible(p, bound - n, n - 1, reduced=True):
        if coeff == "Z" and w and w[-1] == 1:
            continue
        d = n + word_degree(p, w)
        out.append((d, "exterior" if p != 2 and d % 2 else "polynomial"))
    return sorted(out)


# ---------------------------------------------------------------------------
# series


def _convolve(a: list, b: list, bound: int) -> list:
    out = [0] * (bound + 1)
    for i, x in enumerate(a[: bound + 1]):
        if x:
            for j, y in enumerate(b[: bound + 1 - i]):
                out[i + j] += x * y
    return out


def monomials(gens: list, bound: int) -> list:
    """Exponent tuples of a free graded-commutative algebra on (degree, kind)
    generators, by brute-force enumeration, through the bound."""
    out = []

    def rec(idx, left, prefix):
        if idx == len(gens):
            out.append(tuple(prefix))
            return
        degree, kind = gens[idx]
        top = 1 if kind == "exterior" else left // degree
        for e in range(min(top, left // degree) + 1):
            prefix.append(e)
            rec(idx + 1, left - e * degree, prefix)
            prefix.pop()

    rec(0, bound, [])
    return out


def counted_series(gens: list, bound: int) -> list:
    dims = [0] * (bound + 1)
    for mono in monomials(gens, bound):
        dims[sum(e * g[0] for e, g in zip(mono, gens))] += 1
    return dims


def product_series(gens: list, bound: int) -> list:
    """The same series from the factors 1/(1 - t^d) and 1 + t^d."""
    dims = [1] + [0] * bound
    for degree, kind in gens:
        if kind == "exterior":
            dims = [x + (dims[i - degree] if i >= degree else 0)
                    for i, x in enumerate(dims)]
        else:
            for i in range(degree, bound + 1):
                dims[i] += dims[i - degree]
    return dims


def _parse_poly(text: str, names: list, p: int) -> dict:
    """``2*x8 + 2*x4^2`` -> {exponent tuple: coeff} over the named generators."""
    out: dict = {}
    for term in text.split(" + "):
        coeff, exps = 1, [0] * len(names)
        for factor in term.split("*"):
            if factor.isdigit():
                coeff *= int(factor)
                continue
            name, _, e = factor.partition("^")
            exps[names.index(name)] += int(e or 1)
        mono = tuple(exps)
        out[mono] = (out.get(mono, 0) + coeff) % p
    return {m: c for m, c in out.items() if c}


def quotient_series(gens: list, names: list, ideal: list, p: int,
                    bound: int) -> list:
    """Series of a polynomial ring modulo the ideal the polynomials span,
    degree by degree, by sparse F_p elimination of all monomial multiples."""
    if any(kind == "exterior" for _, kind in gens):
        raise ValueError("quotient oracle handles polynomial bases only")
    def degree(mono):
        return sum(e * g[0] for e, g in zip(mono, gens))

    by_degree: dict = {}
    for m in monomials(gens, bound):
        by_degree.setdefault(degree(m), []).append(m)
    polys = [poly for poly in (_parse_poly(t, names, p) for t in ideal) if poly]
    dims = []
    for d in range(bound + 1):
        pivots: dict = {}
        for poly in polys:
            dg = degree(next(iter(poly)))
            for m in by_degree.get(d - dg, []) if d >= dg else []:
                row = {tuple(a + b for a, b in zip(m, k)): c
                       for k, c in poly.items()}
                while row:
                    lead = max(row)
                    if lead not in pivots:
                        inv = pow(row[lead], p - 2, p)
                        pivots[lead] = {k: c * inv % p for k, c in row.items()}
                        break
                    c = row[lead]
                    for k, v in pivots[lead].items():
                        row[k] = (row.get(k, 0) - c * v) % p
                        if not row[k]:
                            del row[k]
        dims.append(len(by_degree.get(d, [])) - len(pivots))
    return dims


# ---------------------------------------------------------------------------
# spectral sequences: cover (through the CLI) and the fibration


def _check_ss(query, payload, catalog):
    if query["kind"] == "cli":
        payload = payload["payload"]
        entry = catalog[query["entry"]]
        names = [g["name"] for g in entry["generators"]]
        base = [(g["degree"], g.get("kind", "polynomial"))
                for g in entry["generators"]]
        fiber = em_generators(query["p"], 3, "Z", query["bound"])
    else:
        names = [g[0] for g in query["base"]["generators"]]
        base = [(g[1], "polynomial") for g in query["base"]["generators"]]
        fiber = em_generators(2, 1, "Z/p", query["bound"]) * 2
    p, bound = query["p"], query["bound"]
    if payload["bound"] != bound:
        return f"bound {payload['bound']} != {bound}", None
    survivors = [(s["degree"], s["kind"])
                 for s in payload["surviving_fiber_generators"]]
    quotient = quotient_series(base, names, payload["killed_base_ideal"], p,
                               bound)
    expected = _convolve(quotient, counted_series(survivors, bound), bound)
    if payload["poincare"] != expected:
        return "series != quotient x free(survivors)", None
    log = payload["log"]
    e2 = _convolve(counted_series(base, bound), product_series(fiber, bound),
                   bound)
    if not log or log[0]["series_before"] != e2:
        return "ledger does not start at base x fiber", None
    if any(a["series_after"] != b["series_before"] for a, b in zip(log, log[1:])):
        return "ledger steps do not chain", None
    if log[-1]["series_after"] != payload["poincare"]:
        return "ledger does not end at the reported series", None
    return None


# ---------------------------------------------------------------------------
# Eilenberg-MacLane tables


def _check_em(query, payload, _catalog):
    got = sorted((g["degree"], g["kind"])
                 for g in payload["payload"]["generators"])
    want = em_generators(query["p"], query["n"], query["coeff"], query["bound"])
    if got != want:
        return f"{len(got)} generators, oracle has {len(want)}", None
    return None


# ---------------------------------------------------------------------------
# Adem reductions, against an action computed here: Sq on F_2[x1,x2,x3]
# (|x_i| = 1), and beta, P on E(x1,x2) (x) F_p[y1,y2] with beta x_i = y_i


def _act(p: int, op, poly: dict) -> dict:
    out: dict = {}
    for mono, c in poly.items():
        for m2, c2 in _act_mono(p, op, mono).items():
            out[m2] = (out.get(m2, 0) + c * c2) % p
    return {m: c for m, c in out.items() if c}


def _act_mono(p: int, op, mono: tuple) -> dict:
    if p == 2:
        out: dict = {}
        k = op[1]
        for i in range(k + 1):
            for j in range(k - i + 1):
                parts = (i, j, k - i - j)
                c = 1
                for a, t in zip(mono, parts):
                    c *= comb(a, t)
                if c % 2:
                    m2 = tuple(a + t for a, t in zip(mono, parts))
                    out[m2] = (out.get(m2, 0) + 1) % 2
        return out
    e1, e2, a1, a2 = mono
    if op[0] == "B":
        out = {}
        if e1:
            out[(0, e2, a1 + 1, a2)] = 1
        if e2:
            out[(e1, 0, a1, a2 + 1)] = (-1) ** e1 % p
        return out
    out = {}
    k = op[1]
    for i in range(k + 1):
        c = comb(a1, i) * comb(a2, k - i) % p
        if c:
            m2 = (e1, e2, a1 + i * (p - 1), a2 + (k - i) * (p - 1))
            out[m2] = (out.get(m2, 0) + c) % p
    return out


def _apply(p: int, letters, poly: dict) -> dict:
    for op in reversed(letters):
        poly = _act(p, op, poly)
    return poly


def _letters(p: int, word) -> list:
    if p == 2:
        return [("Sq", i) for i in word]
    out = [("B",)] if word[0] else []
    for j in range(1, len(word), 2):
        out.append(("P", word[j]))
        if word[j + 1]:
            out.append(("B",))
    return out


def _admissible_word(p: int, w) -> bool:
    if p == 2:
        return all(i > 0 for i in w) and all(
            w[j] >= 2 * w[j + 1] for j in range(len(w) - 1))
    return len(w) % 2 == 1 and all(
        w[j] >= p * w[j + 2] + w[j + 1] for j in range(1, len(w) - 2, 2))


def _test_monomials(p: int) -> list:
    if p == 2:
        return monomials([(1, "polynomial")] * 3, 4)
    return [(e1, e2, a1, a2) for e1 in (0, 1) for e2 in (0, 1)
            for a1 in range(3) for a2 in range(3)]


def _check_adem(query, payload, _catalog):
    p, letters = query["p"], [tuple(op) for op in query["letters"]]
    degree = sum(op[1] if op[0] == "Sq" else
                 (2 * op[1] * (p - 1) if op[0] == "P" else 1) for op in letters)
    terms = payload["payload"]["terms"]
    for t in terms:
        if not _admissible_word(p, t["word"]):
            return f"term {t['word']} is not admissible", None
        if word_degree(p, tuple(t["word"])) != degree:
            return f"term {t['word']} has the wrong degree", None
    for mono in _test_monomials(p):
        lhs = _apply(p, letters, {mono: 1})
        rhs: dict = {}
        for t in terms:
            for m, c in _apply(p, _letters(p, t["word"]), {mono: 1}).items():
                rhs[m] = (rhs.get(m, 0) + t["coeff"] * c) % p
        if lhs != {m: c for m, c in rhs.items() if c}:
            return f"reduction acts differently on {mono}", None
    return None


def _check_sweep(query, payload, _catalog):
    differ = sum(1 for _d, _i, lhs, rhs in payload if lhs != rhs)
    if differ:
        return (f"{differ} of {len(payload)} checks differ",
                CARTAN_SIGN if query["p"] != 2 else None)
    return None


# ---------------------------------------------------------------------------
# module expressions: Krull degree, first reduced-T step of F(n), dimensions


def krull_degree(expr) -> int:
    """Largest sum of F indices over the tensor terms (finite atoms add 0)."""
    best = 0
    for term in expr[1]:
        total = 0
        for f in term[1]:
            if f[0] == "F":
                total += f[1]
            elif f[0] == "Sigma":
                total += krull_degree(f[1])
        best = max(best, total)
    return best


def _summands(text: str) -> dict:
    """``F(0) + F(1)^3`` -> {0: 1, 1: 3}; None if a summand is not F(i)^m."""
    out: dict = {}
    for part in text.split(" + "):
        atom, _, mult = part.partition("^")
        if not (atom.startswith("F(") and atom.endswith(")")):
            return None
        i = int(atom[2:-1])
        out[i] = out.get(i, 0) + int(mult or 1)
    return out


def _check_krull(query, payload, _catalog):
    body = payload["payload"]
    want = krull_degree(query["expr"])
    if body["degree"] != want or not body["determined"]:
        return f"Krull degree {body['degree']}, expected {want}", None
    if query["tbar"]:
        n = query["expr"][1][0][1][0][1]
        if _summands(body["trace"][1]) != {i: 1 for i in range(n)}:
            return (f"T(F({n})) = {body['trace'][1]}",
                    TBAR_RULE if n >= 2 else None)
    return None


def f_dims(n: int, p: int, bound: int) -> list:
    """Graded dimensions of the free unstable module F(n): admissible words
    of excess <= n, shifted by n."""
    dims = [0] * (bound + 1)
    if n <= bound:
        for w in admissible(p, bound - n, n, reduced=False):
            dims[n + word_degree(p, w)] += 1
    return dims


def expr_dims(expr, p: int, bound: int) -> list:
    dims = [0] * (bound + 1)
    for term in expr[1]:
        t = [1] + [0] * bound
        for f in term[1]:
            t = _convolve(t, _factor_dims(f, p, bound), bound)
        dims = [a + b for a, b in zip(dims, t)]
    return dims


def _factor_dims(f, p: int, bound: int) -> list:
    if f[0] == "F":
        mult = f[2] if len(f) > 2 else 1
        return [mult * x for x in f_dims(f[1], p, bound)]
    table = [0] * (bound + 1)
    if f[0] == "Sigma":
        inner = expr_dims(f[1], p, bound)
        return [0] + inner[:bound]
    pairs = [(1, 1)] if f[0] == "Q1" and p == 2 else \
        [(1, 1), (2, 1)] if f[0] == "Q1" else f[1]
    for d, m in pairs:
        if d <= bound:
            table[d] += m
    return table


def _check_fmod(query, payload, _catalog):
    want = expr_dims(query["expr"], query["p"], query["bound"])
    if payload["payload"]["dims"] != want:
        return "dimensions differ", None
    return None


_CHECKS = {"ss": _check_ss, "em": _check_em, "adem": _check_adem,
           "sweep": _check_sweep, "krull": _check_krull, "fmod": _check_fmod}
