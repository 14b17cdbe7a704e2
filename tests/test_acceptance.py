"""Acceptance gate: ten end-to-end checks, each verified against an
independent in-test oracle (brute-force enumeration, closure by linear
algebra, or modular arithmetic sweeps) with explicit runtime budgets."""

import contextlib
import io
import itertools
import json
import random
import time

from pnoether import schwartz_target, tq_of_classifying_space
from pnoether.cli import main
from pnoether.catalog import get_entry
from pnoether.fixtures import (SPLITTING_SCENARIOS, appendix_compatible,
                               appendix_tensor, run_splitting_scenario)
from pnoether.graded import (FreeCommPresentation, GeneratorSpec,
                             appendix_generators, expand, op_degree)
from pnoether.noetherian import (PNoetherianPresentation, padic_is_square,
                                 parse_group)
from pnoether.serre import connected_cover_cohomology
from pnoether.steenrod import adem_reduce
from pnoether.unstable import F, Fin, Sigma, Sum, krull_degree


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, json.loads(buf.getvalue())


# ---------------------------------------------------------------------------
# 1. Eilenberg-MacLane generator degrees for an integral class in degree 3,
#    through degree 33, against a from-scratch admissible-word enumeration.


def admissible_words_p2(weight_max):
    """All admissible (a1..ak), a_i >= 2*a_{i+1}, with sum <= weight_max."""
    words = [()]
    frontier = [()]
    while frontier:
        grown = []
        for w in frontier:
            low = 2 * w[0] if w else 1
            for a in range(low, weight_max - sum(w) + 1):
                grown.append((a,) + w)
        words.extend(grown)
        frontier = grown
    return words


def em_degrees_oracle_p2_integral(n, bound):
    """Generator degrees of the mod-2 ring of an integral class in degree n:
    admissible words of excess < n with no trailing unit Bockstein."""
    degrees = []
    for w in admissible_words_p2(bound - n):
        if w and w[-1] == 1:
            continue
        excess = w[0] - sum(w[1:]) if w else 0
        if excess < n:
            degrees.append(n + sum(w))
    return sorted(d for d in degrees if d <= bound)


def test_acceptance_01_em_integral_degree3_through_33():
    start = time.monotonic()
    code, rep = run_cli("em", "--space", "K(Z,3)", "--max-degree", "33")
    elapsed = time.monotonic() - start
    assert code == 0
    payload = rep["payload"]
    assert payload["polynomial_degrees"] == [3, 5, 9, 17, 33]
    assert payload["exterior_degrees"] == []
    oracle = em_degrees_oracle_p2_integral(3, 33)
    assert payload["polynomial_degrees"] == oracle
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. The 3-connected cover over the quaternionic classifying ring at p = 2:
#    survivor degrees, and the full series against brute-force monomial
#    counting in the claimed polynomial algebra.


def polynomial_series(degrees, bound):
    dims = [0] * (bound + 1)
    ranges = [range(0, bound // d + 1) for d in degrees]
    for exps in itertools.product(*ranges):
        total = sum(e * d for e, d in zip(exps, degrees))
        if total <= bound:
            dims[total] += 1
    return dims


def test_acceptance_02_cover_survivors_and_series():
    start = time.monotonic()
    code, rep = run_cli("cover", "--catalog", "BS3", "--p", "2",
                        "--max-degree", "17")
    elapsed = time.monotonic() - start
    assert code == 0
    payload = rep["payload"]
    assert payload["surviving_degrees"] == [5, 6, 9, 17]
    assert all(g["kind"] == "polynomial"
               for g in payload["surviving_fiber_generators"])
    assert payload["poincare"] == polynomial_series((5, 6, 9, 17), 17)
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 3. The loop-space path fibration over the 3-sphere at odd primes: the
#    3-connected cover's ring is F_p[x_2p] (x) E(y_2p+1) through 4p + 2.


def test_acceptance_03_sphere_cover_odd_primes():
    for p in (3, 5):
        bound = 4 * p + 2
        result = connected_cover_cohomology(get_entry("S3"), p, bound)
        expected = [0] * (bound + 1)
        for a in range(0, bound // (2 * p) + 1):
            for eps in (0, 1):
                d = 2 * p * a + (2 * p + 1) * eps
                if d <= bound:
                    expected[d] += 1
        assert result.series == expected
        names = [(s.name, s.degree, s.kind)
                 for s in result.surviving_fiber_generators]
        assert names == [(f"z{2 * p}", 2 * p, "polynomial"),
                         (f"y{2 * p + 1}", 2 * p + 1, "exterior")]
        assert result.flags["quotient_trivial"] is True


# ---------------------------------------------------------------------------
# 4. Krull filtration degrees: suspensions, rank-k detection targets,
#    random finite modules, and the free modules F(n).


def test_acceptance_04_krull_degrees():
    start = time.monotonic()
    assert krull_degree(Sigma(F(1)), p=2).degree == 1
    for k in range(6):
        report = krull_degree(schwartz_target(k), p=2)
        assert report.determined and report.degree == 1, k
    rng = random.Random(41)
    for _ in range(20):
        entries = {rng.randrange(0, 12): rng.randrange(1, 4)
                   for _ in range(rng.randrange(1, 5))}
        pieces = [Fin(entries)]
        if rng.random() < 0.5:
            pieces.append(Fin({rng.randrange(0, 8): 1}))
        report = krull_degree(Sum(tuple(pieces)), p=rng.choice([2, 3, 5]))
        assert report.determined and report.degree == 0
    for n in range(5):
        assert krull_degree(F(n), p=2).degree == n
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 5. Adem-relation soundness at p = 2: every inadmissible composition
#    Sq^a Sq^b with a + b <= 12 acts like its admissible reduction on the
#    rank-three polynomial algebra on degree-one classes, through degree 12.


def test_acceptance_05_adem_soundness_on_rank_three():
    start = time.monotonic()
    bound = 12
    alg = expand(FreeCommPresentation(
        2, [GeneratorSpec(f"t{i}", 1) for i in (1, 2, 3)], {}), bound)
    pairs = [(a, b) for b in range(1, bound) for a in range(1, 2 * b)
             if a + b <= bound]
    assert pairs  # the sweep must not be vacuous
    for a, b in pairs:
        reduced = adem_reduce(2, (a, b))
        for d in range(0, bound - a - b + 1):
            for i in range(alg.dim(d)):
                x = alg.element(d, i)
                lhs = alg.act(("Sq", a), alg.act(("Sq", b), x))
                rhs = alg.zero()
                for word in reduced.words():
                    rhs = rhs + alg.act_word(word, x).scale(
                        reduced.terms[word])
                assert lhs == rhs, (a, b, d, i)
    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# 6. Reduced-T of the indecomposables for Z/4 + (Prüfer)^2: the rank-three
#    exterior atom power, with Krull degree at most one.


def test_acceptance_06_tq_rank_three():
    pres = PNoetherianPresentation(2, parse_group("Z/4 + Zpinf^2", 2))
    report = tq_of_classifying_space(pres)
    assert report.rank == 3
    assert report.to_jsonable()["expression"] == "Q1^3"
    assert report.krull.determined and report.krull.degree <= 1
    assert report.krull_at_most_one is True


# ---------------------------------------------------------------------------
# 7. Splitting criteria on the named fixtures: exact verdicts, including the
#    not-applicable gates.


def test_acceptance_07_splitting_fixture_verdicts():
    expected = {
        "sphere-cover-connecting": (True, False),
        "sphere-cover-connecting-trivial": (True, True),
        "section-projection": (True, False),
        "section-trivial": (True, True),
        "low-connectivity": (False, None),
        "no-section": (False, None),
        "k1-action-trivial": (True, True),
        "k1-action-twisted": (True, False),
    }
    assert set(SPLITTING_SCENARIOS) == set(expected)
    for name, (applicable, splits) in expected.items():
        verdict = run_splitting_scenario(name)
        assert (verdict.applicable, verdict.splits) == (applicable, splits), name


# ---------------------------------------------------------------------------
# 8. 7-adic squares: the residue criterion against a brute-force sweep of
#    every unit modulo 7^3, with Hensel witnesses checked by arithmetic.


def test_acceptance_08_seven_adic_square_sweep():
    start = time.monotonic()
    modulus = 7 ** 3
    squares = {x * x % modulus for x in range(modulus)}
    for u in range(1, modulus):
        if u % 7 == 0:
            continue
        report = padic_is_square(7, u, 3)
        assert report.is_square == (u in squares), u
        if report.is_square:
            assert (report.witness ** 2 - u) % modulus == 0
    assert padic_is_square(7, 2, 3).witness == 108
    assert padic_is_square(7, 6, 1).is_square is False
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 9. Finite generation of the rank-two module-algebra through degree 10: the
#    reported generators really generate, certified by an independent
#    closure computation (products + row reduction over F_2), and the unique
#    nonzero correction term is re-derived from the operation tables.


def f2_rank(vectors):
    rows = [list(v) for v in vectors if any(v)]
    rank, col_count = 0, (len(rows[0]) if rows else 0)
    for col in range(col_count):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                rows[r] = [(x + y) % 2 for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def generated_subspace_ranks(B, generators, bound):
    """Rank, per degree, of the span of all products of the generators."""
    monomials = {0: [B.one()]}
    frontier = [(0, B.one())]
    while frontier:
        d, x = frontier.pop()
        for g in generators:
            dg = d + g.degree()
            if dg > bound:
                continue
            y = B.product(x, g)
            if y.is_zero:
                continue
            monomials.setdefault(dg, []).append(y)
            frontier.append((dg, y))
    return [f2_rank([x.vector(d) for x in monomials.get(d, [])]
                    or [[0] * max(B.dim(d), 1)])
            for d in range(bound + 1)]


def test_acceptance_09_module_algebra_generation_closure():
    data = appendix_tensor(bound=10)
    G, B, embed, proj = data["G"], data["B"], data["embed"], data["proj"]
    result = appendix_generators(G, B, data["module_gens"], proj, embed)
    assert result.generators == [("b2", 3), ("u.1", 2)]

    # name -> element, following the reported generator set
    b2 = data["module_gens"][1] - embed.apply(proj.apply(data["module_gens"][1]))
    u1 = embed.apply(G.generator_element("u"))
    assert b2.degree() == 3 and u1.degree() == 2

    ranks = generated_subspace_ranks(B, [b2, u1], 10)
    assert ranks == [B.dim(d) for d in range(11)]

    # the only nonzero correction, re-derived from the tables themselves
    nonzero = [c for c in result.certificates if c.correction != "0"]
    assert [(c.op, c.generator, c.expression) for c in nonzero] == \
        [("Sq1", "u", "b2")]
    xi = B.act(("Sq", 1), u1) - embed.apply(
        G.act(("Sq", 1), G.generator_element("u")))
    assert xi == b2
    assert all(c.verified for c in result.certificates)

    # and the compatible fixture stays correction-free under the same oracle
    data = appendix_compatible(bound=10)
    result = appendix_generators(data["G"], data["B"], data["module_gens"],
                                 data["proj"], data["embed"])
    assert result.generators == [("u.1", 2)]
    u1 = data["embed"].apply(data["G"].generator_element("u"))
    ranks = generated_subspace_ranks(data["B"], [u1], 10)
    assert ranks == [data["B"].dim(d) for d in range(11)]
    assert all(c.correction == "0" for c in result.certificates)


# ---------------------------------------------------------------------------
# 10. Odd-prime Adem soundness with Bocksteins and Koszul signs: every
#     composite of two or three letters acts identically to its admissible
#     reduction on E(x1, x2) (x) F_p[y1, y2], with beta x_i = y_i.


def odd_sweep_algebra(p, bound):
    gens = [GeneratorSpec("x1", 1, "exterior", (1, "y1")),
            GeneratorSpec("x2", 1, "exterior", (1, "y2")),
            GeneratorSpec("y1", 2), GeneratorSpec("y2", 2)]
    action = {("y1", "beta"): "0", ("y2", "beta"): "0"}
    return expand(FreeCommPresentation(p, gens, action), bound)


def test_acceptance_10_odd_prime_adem_soundness_with_bocksteins():
    start = time.monotonic()
    for p, top, bound, expected_checks in ((3, 4, 22, 3473),
                                           (5, 3, 30, 3255)):
        alg = odd_sweep_algebra(p, bound)
        letters = [("B",)] + [("P", i) for i in range(1, top + 1)]
        checks = 0
        for length in (2, 3):
            for composite in itertools.product(letters, repeat=length):
                degree = sum(op_degree(p, op) for op in composite)
                if degree > bound:
                    continue
                reduced = adem_reduce(p, composite)
                for d in range(bound - degree + 1):
                    for i in range(alg.dim(d)):
                        x = alg.element(d, i)
                        lhs = x
                        for op in reversed(composite):
                            lhs = alg.act(op, lhs)
                        rhs = alg.zero()
                        for word in reduced.words():
                            rhs = rhs + alg.act_word(word, x).scale(
                                reduced.terms[word])
                        assert lhs == rhs, (p, composite, alg.describe(x))
                        checks += 1
        assert checks == expected_checks  # the sweep is not vacuous
    # the Cartan formula by hand: P1(x1*x2*y2) = x1*x2*P1(y2) = x1*x2*y2^3
    alg = odd_sweep_algebra(3, 10)
    assert alg.act(("P", 1), alg.element_from_poly("x1*x2*y2")) == \
        alg.element_from_poly("x1*x2*y2^3")
    assert time.monotonic() - start < 30.0
