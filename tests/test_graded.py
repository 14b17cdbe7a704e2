"""Truncated graded-commutative algebras: series, products, action tables,
quotients, indecomposables, and the plumbing around them.

Dimension counts are cross-checked against an in-test brute-force monomial
enumerator that shares no code with the library (itertools over exponent
boxes) and an in-test factor-by-factor product formula, so the library's
series, its basis enumeration, and the two oracles are independent routes
to the same numbers.
"""

import collections
import gc
import itertools
import math
import random
import re
import time
import weakref

import pytest
from hypothesis import assume, example, given, settings, strategies as hs

from pnoether import (
    FiniteModuleTable,
    FreeCommPresentation,
    FreeTruncAlgebra,
    GeneratorSpec,
    GradedMap,
    InputError,
    MissingDataError,
    TruncationError,
    connected_cover_cohomology,
    em_product_presentation,
    expand,
    indecomposables,
    parse_space,
    quotient_by_ideal,
)
from pnoether import serre
from pnoether.catalog import get_entry, load_catalog
from pnoether.errors import UnsupportedFibrationError
from pnoether.graded import (
    Element,
    format_op,
    mult_ranks,
    op_degree,
    ops_on_degree,
)
from pnoether.linalg import RowSpace
from pnoether.steenrod import (admissible_words, letters_to_word,
                               word_degree, word_to_letters)
from quotient_oracle import SpanQuotient, non_pivot_columns
from truncation import within_bound


def brute_dims(gens, bound):
    """Count exponent vectors degree-by-degree by exhaustive iteration.

    ``gens`` is a list of (degree, kind) pairs.  Exterior exponents range
    over {0, 1}; polynomial exponents over everything that could fit.
    """
    dims = [0] * (bound + 1)
    boxes = [range(2) if kind == "exterior" else range(bound // d + 1)
             for d, kind in gens]
    for exps in itertools.product(*boxes):
        total = sum(e * d for e, (d, _) in zip(exps, gens))
        if total <= bound:
            dims[total] += 1
    return dims


def free_p2(names_degrees, bound, action=None):
    gens = [GeneratorSpec(n, d) for n, d in names_degrees]
    return expand(FreeCommPresentation(2, gens, action), bound)


# ---------------------------------------------------------------------------
# presentations: validation and polynomial text handling


def test_presentation_validation():
    with pytest.raises(InputError):
        GeneratorSpec("2bad", 4)
    with pytest.raises(InputError):
        GeneratorSpec("x", 0)
    with pytest.raises(InputError):
        GeneratorSpec("x", 4, "weird")
    with pytest.raises(InputError):  # duplicate names
        FreeCommPresentation(2, [GeneratorSpec("x", 2), GeneratorSpec("x", 4)])
    # odd-p parity rules: exterior odd, polynomial even
    with pytest.raises(InputError):
        FreeCommPresentation(3, [GeneratorSpec("e", 2, "exterior")])
    with pytest.raises(InputError):
        FreeCommPresentation(3, [GeneratorSpec("y", 3, "polynomial")])
    FreeCommPresentation(3, [GeneratorSpec("e", 3, "exterior"),
                             GeneratorSpec("y", 4, "polynomial")])
    # p = 2 allows any parity for either kind
    FreeCommPresentation(2, [GeneratorSpec("t", 1), GeneratorSpec("w", 3)])


@pytest.mark.parametrize("p, op", [(2, "Sq0"), (2, "Sq00"), (3, "P0")])
def test_an_action_entry_on_a_zero_power_is_refused(p, op):
    """Sq^0 and P^0 are the identity, not operations an action table lists:
    an entry on one is refused, not accepted and never read."""
    with pytest.raises(InputError, match=op):
        FreeCommPresentation(p, [GeneratorSpec("y", 2)], {("y", op): "y"})


def test_bockstein_link_validation():
    e = GeneratorSpec("e", 3, "exterior", bockstein_link=(1, "y"))
    y = GeneratorSpec("y", 4)
    FreeCommPresentation(3, [e, y])
    with pytest.raises(InputError):  # partner absent
        FreeCommPresentation(3, [e])
    with pytest.raises(InputError):  # partner degree must be one higher
        FreeCommPresentation(
            3, [GeneratorSpec("e", 3, "exterior", bockstein_link=(1, "z")),
                GeneratorSpec("z", 6)])
    with pytest.raises(InputError):
        GeneratorSpec("e", 3, "exterior", bockstein_link=(0, "y"))


def test_action_entry_degree_check():
    gens = [GeneratorSpec("x4", 4), GeneratorSpec("x6", 6)]
    FreeCommPresentation(2, gens, {("x4", "Sq2"): "x6"})
    with pytest.raises(InputError):  # Sq2 of degree 4 must land in degree 6
        FreeCommPresentation(2, gens, {("x4", "Sq2"): "x4"})
    with pytest.raises(InputError):
        FreeCommPresentation(2, gens, {("nope", "Sq2"): "x6"})
    with pytest.raises(InputError):  # odd-p op name at p = 2
        FreeCommPresentation(2, gens, {("x4", "P1"): "0"})


def test_parse_poly_and_format_roundtrip():
    pres = FreeCommPresentation(
        3, [GeneratorSpec("y", 2), GeneratorSpec("z", 2)])
    poly = pres.parse_poly("2*y^2*z + z^3")
    assert poly == {(2, 1): 2, (0, 3): 1}
    # rendering orders by (degree, exponent vector): z^3 has the smaller vector
    assert pres.format_poly(poly) == "z^3 + 2*y^2*z"
    assert pres.parse_poly(pres.format_poly(poly)) == poly
    # coefficients are normalized mod p; cancelling terms vanish
    assert pres.parse_poly("3*y") == {}
    assert pres.parse_poly("y + 2*y") == {}
    assert pres.parse_poly("0") == {}
    assert pres.format_poly({}) == "0"
    with pytest.raises(InputError):
        pres.parse_poly("w^2")
    with pytest.raises(InputError):
        pres.parse_poly("y^")


# ---------------------------------------------------------------------------
# Poincaré series: the algebra's series == product formula == basis
# enumeration == brute force


@pytest.mark.parametrize("p,gens", [
    (2, [(1, "polynomial")]),
    (2, [(2, "polynomial"), (3, "polynomial")]),
    (2, [(4, "polynomial"), (6, "polynomial")]),
    (3, [(3, "exterior"), (4, "polynomial")]),
    (5, [(1, "exterior"), (2, "polynomial"), (7, "exterior")]),
])
def test_series_three_routes_agree(p, gens):
    bound = 14
    specs = [GeneratorSpec(f"g{i}", d, kind) for i, (d, kind) in enumerate(gens)]
    alg = expand(FreeCommPresentation(p, specs), bound)
    oracle = brute_dims(gens, bound)
    assert alg.dims() == oracle
    assert product_formula(gens, bound) == oracle
    assert [len(alg.basis(d)) for d in range(bound + 1)] == oracle


def product_formula(gens, bound):
    """The series as a product of truncated factor series, one full series
    multiplication per generator."""
    coeffs = [1] + [0] * bound
    for degree, kind in gens:
        factor = [0] * (bound + 1)
        factor[0] = 1
        if degree and kind == "exterior":
            if degree <= bound:
                factor[degree] = 1
        elif degree:
            factor[::degree] = [1] * len(factor[::degree])
        coeffs = [sum(coeffs[j] * factor[i - j] for j in range(i + 1))
                  for i in range(bound + 1)]
    return coeffs


@pytest.mark.parametrize("seed", range(6))
def test_presentation_series_matches_the_product_formula(seed):
    rng = random.Random(seed)
    bound = rng.randrange(0, 40)
    gens = [(rng.randrange(1, bound + 8), rng.choice(["polynomial", "exterior"]))
            for _ in range(rng.randrange(0, 7))]
    gens.append((bound + 1 + rng.randrange(3), "polynomial"))  # above the bound
    gens.append((rng.randrange(1, 4), "exterior"))
    pres = FreeCommPresentation(2, [GeneratorSpec(f"g{k}", d, kind)
                                    for k, (d, kind) in enumerate(gens)])
    assert expand(pres, bound).dims() == product_formula(gens, bound)


# ---------------------------------------------------------------------------
# free truncated algebras: basis, labels, products


def test_basis_and_labels():
    alg = free_p2([("x4", 4), ("x6", 6)], 12)
    assert alg.dims() == [1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 2]
    assert alg.basis_label(0, 0) == "1"
    assert alg.basis_label(4, 0) == "x4"
    assert alg.basis_label(10, 0) == "x4*x6"
    assert {alg.basis_label(12, i) for i in range(2)} == {"x4^3", "x6^2"}
    assert alg.dim(-1) == 0 and alg.dim(13) == 0
    assert alg.basis(13) == []
    with pytest.raises(InputError):
        alg.element(4, 1)
    with pytest.raises(TruncationError):
        alg.monomial_element((4, 0))  # degree 16 > 12
    with pytest.raises(InputError):
        alg.generator_element("zz")
    with pytest.raises(InputError):
        expand(FreeCommPresentation(2, [GeneratorSpec("t", 1)]), -1)


def test_element_arithmetic():
    alg = free_p2([("t", 1)], 6)
    t = alg.generator_element("t")
    t2 = t * t
    assert t2 == alg.element_from_poly("t^2")
    assert (t + t).is_zero  # char 2
    assert (t - t).is_zero
    assert t.scale(3) == t
    assert t.degree() == 1
    with pytest.raises(InputError):
        (t + t2).degree()  # non-homogeneous
    assert alg.zero().degree() is None
    assert t2.vector(2) == [1]
    other = free_p2([("t", 1)], 6)
    with pytest.raises(InputError):
        t + other.generator_element("t")


def test_product_truncation_guard():
    alg = free_p2([("x4", 4)], 6)
    x = alg.generator_element("x4")
    with pytest.raises(TruncationError):
        x * x  # degree 8 > 6: the value there is unknown, not zero


def test_exterior_square_is_zero_not_above_the_bound():
    """In E(x3) ⊗ F₃[y2] at bound 20, x3·x3 = 0 well inside the bound: a
    monomial or polynomial that squares the exterior generator is the zero
    element, as the product is; only a degree above the bound is a
    truncation, and a tuple that is no exponent vector is an input error."""
    pres = FreeCommPresentation(3, [GeneratorSpec("x3", 3, "exterior"),
                                    GeneratorSpec("y2", 2)])
    alg = expand(pres, 20)
    x = alg.generator_element("x3")
    assert (x * x).is_zero
    assert alg.monomial_element((2, 0)).is_zero
    assert alg.monomial_element((2, 1)).is_zero
    assert alg.element_from_poly("x3^2").is_zero
    assert alg.element_from_poly("x3^2 + y2^3") == alg.monomial_element((0, 3))
    quo = quotient_by_ideal(alg, ["x3^2 + y2^3"])
    assert quo.dims() == quotient_by_ideal(alg, ["y2^3"]).dims()
    for bad in ((-1, 1), (0,), (0, 0, 0), (1, -2)):
        with pytest.raises(InputError, match=re.escape(str(bad))):
            alg.monomial_element(bad)
    with pytest.raises(TruncationError, match="degree 22"):
        alg.monomial_element((0, 11))
    with pytest.raises(TruncationError, match="degree 21"):
        alg.monomial_element((1, 9))


def test_graded_commutativity_odd_p():
    pres = FreeCommPresentation(
        3, [GeneratorSpec("e", 1, "exterior"), GeneratorSpec("f", 1, "exterior")])
    alg = expand(pres, 4)
    e = alg.generator_element("e")
    f = alg.generator_element("f")
    assert (e * e).is_zero and (f * f).is_zero
    assert f * e == (e * f).scale(-1)
    # even-degree classes commute on the nose
    alg2 = expand(FreeCommPresentation(3, [GeneratorSpec("y", 2),
                                           GeneratorSpec("z", 2)]), 8)
    y = alg2.generator_element("y")
    z = alg2.generator_element("z")
    assert y * z == z * y


def recursive_basis(gens, bound):
    """Monomials of each degree by recursion over the generators, each
    degree sorted afterwards; ``gens`` is a list of (degree, kind)."""
    out = [[] for _ in range(bound + 1)]

    def rec(idx, room, prefix):
        if idx == len(gens):
            out[bound - room].append(tuple(prefix))
            return
        degree, kind = gens[idx]
        top = room // degree
        if kind == "exterior":
            top = min(top, 1)
        for e in range(top + 1):
            rec(idx + 1, room - e * degree, prefix + [e])

    rec(0, bound, [])
    return [sorted(monos) for monos in out]


def generator_list(p, kinds_halves):
    """(degree, kind) per (kind, h): degree h at p = 2; at odd p the odd
    degree 2h - 1 for an exterior and the even 2h for a polynomial one."""
    if p == 2:
        return [(h, kind) for kind, h in kinds_halves]
    return [(2 * h - 1 if kind == "exterior" else 2 * h, kind)
            for kind, h in kinds_halves]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_basis_enumeration_matches_recursion_then_sort(p):

    @settings(derandomize=True, database=None, max_examples=150)
    @given(hs.lists(hs.tuples(hs.sampled_from(("polynomial", "exterior")),
                              hs.integers(1, 12)), max_size=5),
           hs.integers(0, 18))
    @example([("exterior", 1), ("polynomial", 2)], 0)
    @example([("polynomial", 11), ("exterior", 3), ("polynomial", 1)], 6)
    def check(kinds_halves, bound):
        gens = generator_list(p, kinds_halves)
        pres = FreeCommPresentation(
            p, [GeneratorSpec(f"g{k}", d, kind)
                for k, (d, kind) in enumerate(gens)])
        alg = expand(pres, bound)
        assert [alg.basis(d) for d in range(bound + 1)] == \
            recursive_basis(gens, bound)
        assert alg.basis(bound + 1) == []

    check()


# A degree is listed when it is read in bulk, from blocks shared with the
# degrees listed before it, or once its single-key lookups, ranked from the
# suffix table until then, reach its dimension; neither the order of reads
# nor the route of a lookup may show in the answer.

free_algebras = hs.tuples(
    hs.lists(hs.tuples(hs.sampled_from(("polynomial", "exterior")),
                       hs.integers(1, 8)), min_size=1, max_size=5),
    hs.integers(0, 16))


def free_algebra(p, kinds_halves, bound, cls=FreeTruncAlgebra):
    gens = generator_list(p, kinds_halves)
    pres = FreeCommPresentation(
        p, [GeneratorSpec(f"g{k}", d, kind)
            for k, (d, kind) in enumerate(gens)])
    return gens, pres, cls(pres, bound)


class Unlisted(FreeTruncAlgebra):
    """A free algebra that fails the test on listing any degree."""

    def _list_degree(self, degrees):
        raise AssertionError(f"listed degrees {sorted(degrees)}")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_degrees_read_in_any_order_match_the_recursion(p):

    @settings(derandomize=True, database=None, max_examples=100)
    @given(free_algebras, hs.randoms(use_true_random=False))
    def check(algebra, rng):
        gens, _pres, alg = free_algebra(p, *algebra)
        bound = algebra[1]
        expected = recursive_basis(gens, bound)
        order = list(range(bound + 1))
        rng.shuffle(order)
        assert {d: alg.basis(d) for d in order} == dict(enumerate(expected))

    check()


def assert_monomial_key_refuses(alg, gens, bound, monos):
    """monomial_key is None on a wrong length, a negative exponent, an
    exponent above the bound and an exterior square, around monos."""
    n = len(gens)
    for mono in monos:
        assert alg.monomial_key(mono + (0,)) is None
        assert alg.monomial_key(mono[:-1]) is None
        for k in range(n):
            negative = mono[:k] + (-1,) + mono[k + 1:]
            assert alg.monomial_key(negative) is None
    for k, (degree, kind) in enumerate(gens):
        above = (0,) * k + (bound // degree + 1,) + (0,) * (n - k - 1)
        assert alg.monomial_key(above) is None
        if kind == "exterior":
            assert alg.monomial_key(
                (0,) * k + (2,) + (0,) * (n - k - 1)) is None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_monomial_key_finds_each_monomial_and_nothing_else(p):

    @settings(derandomize=True, database=None, max_examples=100)
    @given(free_algebras, hs.randoms(use_true_random=False))
    def check(algebra, rng):
        gens, pres, alg = free_algebra(p, *algebra)
        bound = algebra[1]
        keyed = [(mono, (d, i))
                 for d, monos in enumerate(recursive_basis(gens, bound))
                 for i, mono in enumerate(monos)]
        rng.shuffle(keyed)
        for mono, key in keyed:
            assert alg.monomial_key(mono) == key
            assert alg.monomial_key(list(mono)) == key
        monos = [mono for mono, _key in keyed[:8]]
        assert_monomial_key_refuses(alg, gens, bound, monos)
        # the same refusals on a copy that has listed nothing: each is
        # checked up front, not found missing from a listed degree
        assert_monomial_key_refuses(Unlisted(pres, bound), gens, bound, monos)

    check()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_and_unrank_match_the_listing_and_list_at_the_dimension(p):
    """On copies that have listed nothing, monomial_key ranks and unrank
    inverts each basis monomial of a listed copy by arithmetic alone, in a
    random order across degrees; a degree is listed exactly when its
    lookups reach its dimension, and then by itself."""

    @settings(derandomize=True, database=None, max_examples=100)
    @given(free_algebras, hs.randoms(use_true_random=False))
    def check(algebra, rng):
        gens, pres, listed = free_algebra(p, *algebra)
        bound = algebra[1]
        keyed = [(mono, (d, i)) for d in range(bound + 1)
                 for i, mono in enumerate(listed.basis(d))]
        rng.shuffle(keyed)
        lists = []

        class Recorded(FreeTruncAlgebra):
            def _list_degree(self, degrees):
                lists.append(sorted(degrees))
                super()._list_degree(degrees)

        for lookup in ("rank", "unrank"):
            lists.clear()
            alg, counts = Recorded(pres, bound), [0] * (bound + 1)
            for mono, (d, i) in keyed:
                assert [d] not in lists
                if lookup == "rank":
                    assert alg.monomial_key(mono) == (d, i)
                else:
                    assert alg.unrank(d, i) == mono
                counts[d] += 1
                assert ([d] in lists) == (counts[d] == alg.dim(d))
            # listed, a lookup is one index, agrees and lists nothing more
            for mono, (d, i) in keyed:
                assert alg.rank(d, mono) == i and alg.unrank(d, i) == mono
            assert sorted(lists) == [[d] for d in range(bound + 1) if alg.dim(d)]
        # an index outside its degree's basis is refused, listed or not
        for copy in (alg, Unlisted(pres, bound)):
            for d in range(-1, bound + 2):
                for i in (-1, copy.dim(d)):
                    with pytest.raises(IndexError):
                        copy.unrank(d, i)
                    with pytest.raises(IndexError):
                        copy.basis_label(d, i)

    check()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_dims_are_the_series_and_list_no_degree(p):

    @settings(derandomize=True, database=None, max_examples=100)
    @given(free_algebras)
    def check(algebra):
        gens, _pres, alg = free_algebra(p, *algebra, cls=Unlisted)
        bound = algebra[1]
        series = product_formula(gens, bound)
        assert alg.dims() == series
        assert [alg.dim(d) for d in range(-1, bound + 2)] == [0] + series + [0]

    check()


# ---------------------------------------------------------------------------
# Steenrod action tables


def test_top_power_rules_fill_automatically():
    # polynomial generator of degree 1 at p = 2: the top square is forced
    alg = free_p2([("t", 1)], 8)
    assert alg.action_complete
    t = alg.generator_element("t")
    assert alg.act(("Sq", 1), t) == alg.element_from_poly("t^2")
    # and on powers, via the multiplicative total operation
    t2 = alg.element_from_poly("t^2")
    assert alg.act(("Sq", 1), t2).is_zero
    assert alg.act(("Sq", 2), t2) == alg.element_from_poly("t^4")
    assert alg.act(("Sq", 3), t2).is_zero  # above the top
    # odd p: P^{d/2} on a degree-d polynomial generator is the p-th power
    alg3 = expand(FreeCommPresentation(3, [GeneratorSpec("y", 2)]), 8)
    assert alg3.action_complete
    y = alg3.generator_element("y")
    assert alg3.act(("P", 1), y) == alg3.element_from_poly("y^3")


def test_two_variable_external_products():
    alg = free_p2([("a", 1), ("b", 1)], 6)
    ab = alg.element_from_poly("a*b")
    assert alg.act(("Sq", 1), ab) == alg.element_from_poly("a^2*b + a*b^2")
    assert alg.act(("Sq", 2), ab) == alg.element_from_poly("a^2*b^2")


def test_bockstein_derivation_and_links():
    pres = FreeCommPresentation(
        3,
        [GeneratorSpec("e", 1, "exterior", bockstein_link=(1, "y")),
         GeneratorSpec("y", 2)],
        {("y", "beta"): "0"})
    alg = expand(pres, 7)
    e = alg.generator_element("e")
    y = alg.generator_element("y")
    assert alg.act(("B",), e) == y
    assert alg.act(("B",), y).is_zero
    # signed derivation: beta(e*y) = beta(e)*y - e*beta(y) = y^2
    assert alg.act(("B",), e * y) == alg.element_from_poly("y^2")
    assert alg.act(("B",), alg.act(("B",), e * y)).is_zero
    # a composite word applied right-to-left: P1(beta(e)) = P1(y) = y^3
    assert alg.act_word((0, 1, 1), e) == alg.element_from_poly("y^3")


def test_higher_bockstein_links_are_metadata_only():
    # an order-p^2 coefficient class: its first Bockstein vanishes while the
    # degree-(d+1) partner still exists as a generator
    pres = FreeCommPresentation(
        3,
        [GeneratorSpec("u", 2, bockstein_link=(2, "v")),
         GeneratorSpec("v", 3, "exterior", bockstein_link=None)],
        {("v", "beta"): "0", ("v", "P1"): "0"})
    alg = expand(pres, 7)
    assert alg.act(("B",), alg.generator_element("u")).is_zero


def test_missing_data_is_deferred_until_used():
    pres = FreeCommPresentation(2, [GeneratorSpec("x2", 2),
                                    GeneratorSpec("x3", 3)])
    alg = expand(pres, 8)
    assert not alg.action_complete
    gap_ops = {(g["generator"], g["op"]) for g in alg.gaps}
    assert ("x2", "Sq1") in gap_ops  # Sq1 x2 could be 0 or x3: undetermined
    # dimensions and products never need the action
    assert alg.dims() == brute_dims([(2, "polynomial"), (3, "polynomial")], 8)
    with pytest.raises(MissingDataError) as err:
        alg.act(("Sq", 1), alg.generator_element("x2"))
    assert err.value.gaps


def test_supplying_action_closes_gaps():
    # Stiefel-Whitney-style table on generators of degrees 2 and 3
    pres = FreeCommPresentation(
        2, [GeneratorSpec("x2", 2), GeneratorSpec("x3", 3)],
        {("x2", "Sq1"): "x3", ("x3", "Sq1"): "0", ("x3", "Sq2"): "x2*x3"})
    alg = expand(pres, 8)
    assert alg.action_complete and alg.gaps == []
    x2 = alg.generator_element("x2")
    assert alg.act(("Sq", 1), x2) == alg.generator_element("x3")
    # Cartan on the square: Sq1(x2^2) = 2 x2 Sq1x2 = 0 and the cross terms of
    # Sq2(x2^2) cancel in pairs, leaving (Sq1 x2)^2
    assert alg.act(("Sq", 1), x2 * x2).is_zero
    assert alg.act(("Sq", 2), x2 * x2) == alg.element_from_poly("x3^2")
    assert alg.act(("Sq", 4), x2 * x2) == alg.element_from_poly("x2^4")


def test_zero_dimensional_targets_force_zero():
    # widely-spaced generators: every off-top operation lands in an empty
    # degree, so the table completes with no explicit data
    alg = free_p2([("y4", 4)], 12)
    assert alg.action_complete
    y = alg.generator_element("y4")
    for i in (1, 2, 3):
        assert alg.act(("Sq", i), y).is_zero
    assert alg.act(("Sq", 4), y) == alg.element_from_poly("y4^2")


def test_act_above_bound_raises():
    alg = free_p2([("t", 1)], 3)
    t3 = alg.element_from_poly("t^3")
    with pytest.raises(TruncationError):
        alg.act(("Sq", 1), t3)


def test_op_list_by_prime():
    assert free_p2([("t", 1)], 3).op_list() == [("Sq", 1), ("Sq", 2), ("Sq", 3)]
    alg3 = expand(FreeCommPresentation(3, [GeneratorSpec("y", 2)]), 9)
    assert alg3.op_list() == [("B",), ("P", 1), ("P", 2)]


def random_presentation(data, p, max_gens=3, gap_odds=10):
    """A free presentation with random action data and its truncation.

    Up to max_gens generators, odd and exterior ones included, some linked by
    a primary Bockstein to a partner one degree up; every op below the top
    one (which instability fills in) gets a random explicit value, left out
    one time in gap_odds so that gaps occur.  At p = 2 the values on an exterior
    generator are sums of monomials with an exterior factor, so that they
    square to zero as the generator does and the total operation stays a
    ring map."""
    kinds_halves = data.draw(hs.lists(
        hs.tuples(hs.sampled_from(("polynomial", "exterior")),
                  hs.integers(1, 4)), min_size=1, max_size=max_gens))
    bound = data.draw(hs.integers(1, 12))
    gens = generator_list(p, kinds_halves)
    specs = []
    for k, (degree, kind) in enumerate(gens):
        partners = [j for j, (d, _) in enumerate(gens) if d == degree + 1]
        link = None
        if partners and data.draw(hs.booleans()):
            link = (1, f"g{data.draw(hs.sampled_from(partners))}")
        specs.append(GeneratorSpec(f"g{k}", degree, kind, link))
    bare = expand(FreeCommPresentation(p, specs), bound)
    action = {}
    for g in specs:
        if p == 2:
            ops = [("Sq", i) for i in range(1, g.degree)]
        else:
            ops = [("P", i) for i in range(1, (g.degree + 1) // 2)]
            if g.bockstein_link is None:
                ops.append(("B",))
        for op in ops:
            target = g.degree + op_degree(p, op)
            if target > bound or data.draw(hs.integers(0, gap_odds - 1)) == 0:
                continue
            action[(g.name, op)] = random_value(data, bare, g, op)
    return expand(FreeCommPresentation(p, specs, action), bound)


def no_data_algebras(p, bound) -> list:
    """Two presentations with no action data, which have gaps at every
    prime: P1 (Sq2) on y4, and β (Sq1) on x2 and y3."""
    return [expand(FreeCommPresentation(p, [GeneratorSpec(name, d, kind)
                                            for name, d, kind in gens]), bound)
            for gens in ([("x2", 2, "polynomial"), ("y4", 4, "polynomial")],
                         [("x2", 2, "polynomial"), ("y3", 3, "exterior")])]


def random_value(data, alg, g, op) -> dict:
    """A random value of op on generator g, as {monomial: coeff} on alg's
    basis of the target degree; at p = 2 on an exterior g, a sum of
    monomials with an exterior factor (see ``random_presentation``)."""
    exterior = [k for k, h in enumerate(alg.generators) if h.kind == "exterior"]
    monos = [m for m in alg.basis(g.degree + op_degree(alg.p, op))
             if alg.p != 2 or g.kind != "exterior"
             or any(m[k] for k in exterior)]
    coeffs = data.draw(hs.lists(hs.integers(0, alg.p - 1),
                                min_size=len(monos), max_size=len(monos)))
    return dict(zip(monos, coeffs))


@pytest.mark.parametrize("p", [2, 3])
def test_an_algebra_that_has_acted_is_freed_without_the_cycle_collector(p):
    """The action memo holds {key: coeff} dicts, not Elements pointing back
    at their algebra, so an algebra that has acted (values on generators
    and on products, Bocksteins among them, all memoized) forms no
    reference cycle: with the cyclic collector off it is freed as soon as
    the last name is dropped."""

    def act_everywhere(alg):
        for d in range(alg.bound + 1):
            for i in range(alg.dim(d)):
                for op in alg.op_list():
                    within_bound(alg, alg.element(d, i), op)

    pres = em_product_presentation(parse_space(f"K(Z/{p},2)", p), p, 16)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        alg = expand(pres, 16)
        act_everywhere(alg)
        memoized = {op[0] for op in alg._action}
        assert memoized == ({"Sq"} if p == 2 else {"B", "P"})
        assert any(sum(alg.basis(d)[i]) > 1 and value
                   for table in alg._action.values()
                   for (d, i), value in table.items())
        freed = weakref.ref(alg)
        del alg
        assert freed() is None
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_act_splits_the_total_operation_and_obeys_the_cartan_formula(p):
    """A generator is refused by the ops of its gaps, and any other
    monomial by the ops its factors' first gaps reach, on gapped algebras
    with no action data and on random ones, every other op answering; and
    on random products the total operation x + sum of act(op, x) is
    multiplicative (the Cartan formula for every op at once) and β is a
    derivation with sign (-1)^|x|."""

    def total(alg, x):
        out = x
        for op in alg.op_list():
            if op != ("B",):
                out = out + within_bound(alg, x, op)
        return out

    def known_below(alg, gaps, mono, sym) -> float:
        """The gap rule on a monomial of two or more factors: the ops
        named sym are answered below the least, over its factors g^e, of
        u·p^v, u the excess of g's first gap under those ops (none: no
        limit) and p^v the largest power of p that divides e."""
        limits = [math.inf]
        for e, g in zip(mono, alg.generators):
            if e:
                u = min((op_degree(p, op)
                         for op in ops_on_degree(p, g.degree, alg.bound)
                         if op[0] == sym and (g.name, format_op(op)) in gaps),
                        default=math.inf)
                while e % p == 0:
                    e, u = e // p, u * p
                limits.append(u)
        return min(limits)

    def refusals(alg) -> int:
        """Check that act_basis refuses exactly what the gap rule asks of
        alg, and count the refusals."""
        gaps = {(gap["generator"], gap["op"]) for gap in alg.gaps}
        count = 0
        for d in range(alg.bound + 1):
            for i, mono in enumerate(alg.basis(d)):
                on = {g.name for e, g in zip(mono, alg.generators) if e}
                for op in ops_on_degree(p, d, alg.bound):
                    if sum(mono) == 1 and (*on, format_op(op)) in gaps or \
                            sum(mono) > 1 and op_degree(p, op) >= \
                            known_below(alg, gaps, mono, op[0]):
                        with pytest.raises(MissingDataError):
                            alg.act_basis(op, d, i)
                        count += 1
                    else:
                        alg.act_basis(op, d, i)
        return count

    checked = [refusals(alg) for alg in no_data_algebras(p, 12)]
    assert all(checked)

    @settings(derandomize=True, database=None, max_examples=40)
    @given(hs.data())
    def check(data):
        alg = random_presentation(data, p)
        refusals(alg)
        if not alg.action_complete:
            return
        a = data.draw(hs.integers(0, alg.bound))
        b = data.draw(hs.integers(0, alg.bound - a))
        x, y = (Element(alg, {(d, i): c for i, c in enumerate(data.draw(
            hs.lists(hs.integers(0, p - 1), min_size=alg.dim(d),
                     max_size=alg.dim(d))))}) for d in (a, b))
        assert total(alg, x * y) == within_bound(
            alg, total(alg, x), total(alg, y))
        if p != 2:
            beta = ("B",)
            assert within_bound(alg, x * y, beta) == \
                within_bound(alg, x, beta, y) + within_bound(
                    alg, x, within_bound(alg, y, beta)).scale((-1) ** a)

    check()


def cartan_terms(p: int, op: tuple, dx: int, dy: int) -> list[tuple]:
    """The Cartan rule: op on a product x·y with |x| = dx, |y| = dy as the
    terms (sign, op on x, op on y), None standing for the identity.
    Sq^k = Σ Sq^i ⊗ Sq^(k-i) and P^k = Σ P^i ⊗ P^(k-i), keeping the terms
    that instability leaves nonzero (Sq^i x = 0 for i > |x|, P^i x = 0 for
    2i > |x|); β acts as a derivation with sign (-1)^|x|."""
    if op == ("B",):
        return [(1, op, None), (-1 if dx % 2 else 1, None, op)]
    sym, k = op
    top_x, top_y = (dx, dy) if p == 2 else (dx // 2, dy // 2)
    return [(1, (sym, i) if i else None, (sym, k - i) if k - i else None)
            for i in range(max(0, k - top_y), min(k, top_x) + 1)]


def recursive_act_basis(alg, op, degree, index, memo):
    """An oracle for FreeTruncAlgebra.act_basis: op on a basis monomial
    g·rest, g its first generator factor, by the Cartan rule on the values
    on g and on rest, so one frame per factor and each value on its own;
    a generator's value comes from its rule.  ``memo`` maps (op, degree,
    index) to values already found.  An op above instability, or on the
    unit, gives 0; any other op raises MissingDataError on a generator
    whose rule for it is a gap, and on any other monomial when one of its
    Cartan terms reads such a value."""
    key = (op, degree, index)
    if key in memo:
        return memo[key]
    mono = alg.basis(degree)[index]
    p, value = alg.p, {}
    if degree and op in ops_on_degree(p, degree, alg.bound):
        first = next(k for k, e in enumerate(mono) if e)
        g = alg.generators[first]
        if degree == g.degree:
            rule = alg._gen_op_value(g, op)
            if rule is None:
                raise MissingDataError("missing data", gaps=alg.gaps)
            value = dict(rule())
        else:
            unit = tuple(int(k == first) for k in range(len(mono)))
            g_key = alg.monomial_key(unit)
            rest_key = alg.monomial_key(tuple(e - u for e, u in zip(mono, unit)))
            for sign, o_g, o_rest in cartan_terms(p, op, g.degree,
                                                  degree - g.degree):
                left = recursive_act_basis(alg, o_g, *g_key, memo) \
                    if o_g else {g_key: 1}
                right = recursive_act_basis(alg, o_rest, *rest_key, memo) \
                    if o_rest else {rest_key: 1}
                for (d1, i1), c1 in left.items():
                    for (d2, i2), c2 in right.items():
                        merged = alg._merge_monomials(alg.basis(d1)[i1],
                                                      alg.basis(d2)[i2])
                        if merged is not None:
                            t = alg.monomial_key(merged[1])
                            value[t] = value.get(t, 0) + merged[0] * sign * c1 * c2
            value = {t: c % p for t, c in value.items() if c % p}
    memo[key] = value
    return value


def recursive_act(alg, op, data, memo):
    """op on {basis key: coeff} data through the oracle, dropping what lands
    above the bound."""
    p, out = alg.p, {}
    for (d, i), c in data.items():
        if d + op_degree(p, op) <= alg.bound:
            for t, v in recursive_act_basis(alg, op, d, i, memo).items():
                out[t] = (out.get(t, 0) + v * c) % p
    return {t: v for t, v in out.items() if v}


def missing_or(compute):
    """compute(), or "missing" when it raises MissingDataError."""
    try:
        return compute()
    except MissingDataError:
        return "missing"


@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_action_kernel_matches_the_recursion_through_each_factor(p):
    """act_basis on every basis element (a power's total operation read
    from the digits of its exponent, one split g^a·rest per generator),
    act on random sums and act_word on random admissible words agree with
    the recursion through each factor wherever both answer, and on an
    algebra with no gaps both always answer; on random presentations and
    on K(Z/p,2), whose powers reach the Frobenius terms of their digits at
    every prime.  With a gap, each side may refuse what the other answers:
    the recursion reads cross terms of g·g that the kernel's Frobenius
    cancels, and the kernel refuses a product's ops above a factor's first
    gap even where no Cartan term reads it."""

    def compare(alg, data):
        def agree(kernel, recursion):
            assert kernel == recursion or not alg.action_complete and \
                "missing" in (kernel, recursion)

        memo = {}
        for op, d, i in acting_keys(alg):
            agree(missing_or(lambda: alg.act_basis(op, d, i)),
                  missing_or(lambda: recursive_act_basis(alg, op, d, i, memo)))
        if data is None:
            return
        keys = [(d, i) for d in range(alg.bound + 1) for i in range(alg.dim(d))]
        terms = data.draw(hs.dictionaries(hs.sampled_from(keys),
                                          hs.integers(1, p - 1), max_size=5))
        x = Element(alg, terms)
        op = data.draw(hs.sampled_from(alg.op_list()))
        agree(missing_or(lambda: within_bound(alg, x, op).data),
              missing_or(lambda: recursive_act(alg, op, terms, memo)))
        word = data.draw(hs.sampled_from(admissible_words(p, alg.bound)))

        def chain():  # on the terms the word keeps within the bound
            room = alg.bound - word_degree(p, word)
            out = {k: c for k, c in terms.items() if k[0] <= room}
            for letter in reversed(word_to_letters(p, word)):
                out = recursive_act(alg, letter, out, memo)
            return out

        agree(missing_or(lambda: within_bound(alg, x, word).data),
              missing_or(chain))

    for bound in (24, 40):
        compare(expand(em_product_presentation(parse_space(f"K(Z/{p},2)", p),
                                               p, bound), bound), None)

    @settings(derandomize=True, database=None, max_examples=60)
    @given(hs.data())
    def check(data):
        compare(random_presentation(data, p), data)

    check()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_every_value_a_gapped_algebra_answers_is_its_value_in_any_completion(p):
    """Fill each gap of a random presentation, or of one with no action
    data, in two random ways: every value act_basis answers on the gapped
    algebra, on generators and on products alike, equals the value in both
    completions, so no answer depends on a gap; and some products on a
    generator with a gap answer ops that instability lets act."""
    answered, no_data = 0, no_data_algebras(p, 16)

    @settings(derandomize=True, database=None, max_examples=60)
    @given(hs.data())
    def check(data):
        nonlocal answered
        pick = data.draw(hs.integers(0, len(no_data)))
        alg = no_data[pick] if pick < len(no_data) else \
            random_presentation(data, p, gap_odds=2)
        holes = [(g, op) for g in alg.generators
                 for op in ops_on_degree(p, g.degree, alg.bound)
                 if alg._gen_op_value(g, op) is None]
        if not holes:
            return
        gapped = {g.name for g, _ in holes}
        completions = [expand(FreeCommPresentation(p, alg.generators, {
            **alg.presentation.action,
            **{(g.name, op): random_value(data, alg, g, op) for g, op in holes}}),
            alg.bound) for _ in range(2)]
        for op, d, i in acting_keys(alg):
            value = missing_or(lambda: alg.act_basis(op, d, i))
            if value == "missing":
                continue
            for full in completions:
                assert full.act_basis(op, d, i) == value
            mono = alg.basis(d)[i]
            answered += sum(mono) > 1 and op in ops_on_degree(p, d, alg.bound) \
                and any(e and g.name in gapped
                        for e, g in zip(mono, alg.generators))

    check()
    assert answered


def test_an_operation_on_a_power_is_the_binomial_multiple_of_a_power():
    """Sq(x) = x + x^2 for |x| = 1 and P(y) = y + y^p for |y| = 2, so the
    total operation on the power is (x + x^2)^k and (y + y^p)^k:
    Sq^i x^k = C(k, i) x^(k+i) and P^i y^k = C(k, i) y^(k+i(p-1)), here
    at k = 499, where a power's family is read from the digits of k."""
    for p, gen, sym in ((2, GeneratorSpec("x", 1), "Sq"),
                        (3, GeneratorSpec("y", 2), "P"),
                        (5, GeneratorSpec("y", 2), "P")):
        k, step = 499, 1 if p == 2 else p - 1
        alg = expand(FreeCommPresentation(p, [gen]), (k + 12 * step) * gen.degree)
        power = alg.monomial_element((k,))
        for i in range(1, 13):
            assert alg.act((sym, i), power) == alg.monomial_element(
                (k + i * step,), math.comb(k, i))


@pytest.mark.parametrize("p, gen, op, top", [
    (2, GeneratorSpec("x", 1), ("Sq", 1), 5000),
    (3, GeneratorSpec("y", 2), ("P", 1), 5001),
], ids=["Sq1_x4999", "P1_y4999"])
def test_an_operation_on_a_deep_power_answers_at_once(p, gen, op, top):
    """Sq1 x^4999 = x^5000 at p = 2, and P1 y^4999 = 4999 y^5001 = y^5001
    at p = 3 (P1 y = y^3): the value on a power does not recurse through
    the lower powers, so it takes no frame per factor (a recursion that
    did raised RecursionError here) and answers in well under 0.1 s."""
    alg = expand(FreeCommPresentation(p, [gen]), top * gen.degree)
    power = alg.monomial_element((4999,))
    start = time.perf_counter()
    value = alg.act(op, power)
    assert time.perf_counter() - start < 0.1
    assert value == alg.monomial_element((top,))


# ---------------------------------------------------------------------------
# the action kernel's contract: act_basis values are reduced and shared with
# a memo, act hands out copies, refusals are not remembered


def kernel_algebras(p):
    """K(Z/p,2)'s free algebra (complete action data), its quotient by the
    square of the degree-2 class, and the tensor product of the two, one
    quotient of a free algebra (see one_quotient_tensor)."""
    bound = {2: 12, 3: 16, 5: 24}[p]
    free = expand(em_product_presentation(parse_space(f"K(Z/{p},2)", p), p,
                                          bound), bound)
    u = free.element(2, 0)
    quo = quotient_by_ideal(free, [u * u])
    return {"free": free, "quotient": quo,
            "tensor": one_quotient_tensor(quo, free)}


def acting_keys(alg):
    """(op, degree, index) of every op on every basis element whose value
    lands within the bound."""
    return [(op, d, i) for op in alg.op_list()
            for d in range(alg.bound + 1 - op_degree(alg.p, op))
            for i in range(alg.dim(d))]


@pytest.mark.parametrize("kind", ["free", "quotient", "tensor"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_act_basis_values_are_reduced_with_no_zero_entries(p, kind):
    alg = kernel_algebras(p)[kind]
    nonzero = 0
    for op, d, i in acting_keys(alg):
        value = alg.act_basis(op, d, i)
        assert all(isinstance(c, int) and 0 < c < p for c in value.values())
        assert all(dt == d + op_degree(p, op) for dt, _ in value)
        nonzero += bool(value)
    assert nonzero >= 10


@pytest.mark.parametrize("kind", ["free", "quotient", "tensor"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_mutating_what_act_returns_leaves_later_values_alone(p, kind):
    """act on a basis element copies the memoized value, so writing into
    the data of its result, or of act_word's, changes no later act."""
    alg = kernel_algebras(p)[kind]
    junk = {(0, 0): 1, (alg.bound, 0): p - 1}
    for op, d, i in acting_keys(alg):
        before = dict(alg.act_basis(op, d, i))
        for y in (alg.act(op, alg.element(d, i)),
                  alg.act_word(letters_to_word(p, [op]), alg.element(d, i))):
            assert y.data == before
            y.data.clear()
            y.data.update(junk)
        assert alg.act(op, alg.element(d, i)).data == before
        assert alg.act_basis(op, d, i) == before


@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_gap_monomial_is_refused_on_every_request(p):
    """Sq1 x2 (β y2 at odd p) is determined by nothing: each request on a
    basis element carrying the generator raises, the second one too, in
    the free algebra, a quotient and a tensor product.  An operation that
    instability makes zero (Sq3 x2, P2 y2) is 0 in each of them."""
    if p == 2:
        gens, op, cube = [GeneratorSpec("x2", 2), GeneratorSpec("x3", 3)], \
            ("Sq", 1), "x2^3"
    else:
        gens, op, cube = [GeneratorSpec("y2", 2),
                          GeneratorSpec("e3", 3, "exterior")], ("B",), "y2^3"
    free = expand(FreeCommPresentation(p, gens), 8)
    assert not free.action_complete
    quo = quotient_by_ideal(free, [cube])
    both = one_quotient_tensor(quo, free)
    (key, _), = both.project(
        both.free.generator_element(gens[0].name)).data.items()
    for alg, (d, i) in ((free, (2, 0)), (quo, (2, 0)), (both, key)):
        for _ in range(2):
            with pytest.raises(MissingDataError):
                alg.act_basis(op, d, i)
            with pytest.raises(MissingDataError):
                alg.act(op, alg.element(d, i))
    above = ("Sq", 3) if p == 2 else ("P", 2)
    deep = expand(FreeCommPresentation(p, gens), 2 + op_degree(p, above))
    name = gens[0].name
    deep_quo = quotient_by_ideal(deep, [name + "^2"])
    deep_both = one_quotient_tensor(deep_quo, deep)
    for alg, x in (
            (deep, deep.generator_element(name)),
            (deep_quo, deep_quo.project(deep.generator_element(name))),
            (deep_both, deep_both.project(
                deep_both.free.generator_element(name)))):
        assert alg.act(above, x).is_zero


def test_a_quotient_refuses_values_above_the_bound():
    """A free algebra's and a quotient's act_basis, and a quotient's
    product_basis, raise TruncationError when the value would land above
    the bound: such a value is unknown, never zero."""
    free = expand(FreeCommPresentation(2, [GeneratorSpec("x", 1)]), 2)
    quo = quotient_by_ideal(free, [])
    with pytest.raises(TruncationError):
        quo.act_basis(("Sq", 1), 2, 0)
    with pytest.raises(TruncationError):
        quo.product_basis(1, 0, 2, 0)
    assert quo.act_basis(("Sq", 1), 1, 0) == {(2, 0): 1}
    deep = expand(FreeCommPresentation(2, [GeneratorSpec("x", 1)]), 8)
    for _ in range(2):  # a refusal is not memoized as a zero
        with pytest.raises(TruncationError):
            deep.act_basis(("Sq", 1), 8, 0)
    assert deep.act_basis(("Sq", 1), 7, 0) == {(8, 0): 1}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_full_memo_still_refuses_what_lands_above_the_bound_or_on_a_gap(p):
    """act reads a memoized value with no bound check, so the refusals must
    come from the misses.  With K(Z/p,2)'s memo full, an element with one
    term whose value lands above the bound raises TruncationError, in
    either term order and on each request; with the memo of K(Z/p,2)
    less the β-type value on i2 (Sq1 at p = 2) full everywhere else, i2
    is refused on each request, alone or beside a memoized term; and act
    on zero is zero for every op on that gapped algebra."""
    alg = kernel_algebras(p)["free"]
    for op, d, i in acting_keys(alg):
        alg.act_basis(op, d, i)
    op = alg.op_list()[0]
    high = alg.bound + 1 - op_degree(p, op)
    assert alg.dim(2) and alg.dim(high)
    for data in ({(2, 0): 1, (high, 0): 1}, {(high, 0): 1, (2, 0): 1}):
        for _ in range(2):
            with pytest.raises(TruncationError):
                alg.act(op, Element(alg, data))

    pres = em_product_presentation(parse_space(f"K(Z/{p},2)", p), p,
                                   alg.bound)
    gap = ("i2", op)
    gapped = expand(FreeCommPresentation(
        p, pres.generators,
        {k: v for k, v in pres.action.items() if k != gap}), alg.bound)
    assert [(g["generator"], g["op"]) for g in gapped.gaps] == \
        [("i2", format_op(op))]
    for key in acting_keys(gapped):
        try:
            gapped.act_basis(*key)
        except MissingDataError:
            pass
    assert (3, 0) in gapped._action[op] and (2, 0) not in gapped._action[op]
    i2, u = gapped.element(2, 0), gapped.element(3, 0)
    assert gapped.act(op, u).data == alg.act(op, alg.element(3, 0)).data
    for x in (i2, i2 + u, u + i2):
        for _ in range(2):
            with pytest.raises(MissingDataError):
                gapped.act(op, x)
    for o in gapped.op_list() + [("Sq", 99) if p == 2 else ("P", 99)]:
        assert gapped.act(o, gapped.zero()).is_zero


@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_memo_holds_no_value_above_the_bound(p):
    """The invariant that lets act read a memoized value with no bound
    check: after every op acts on every basis element of the free, the
    quotient and the tensor algebra (and is refused where it lands above
    the bound), each entry (d, i) of op's table, in each algebra and in
    the free algebra under a quotient, has d + |op| <= bound, and its
    value lies in degree d + |op|."""
    checked = 0
    for alg in kernel_algebras(p).values():
        for op in alg.op_list():
            for d in range(alg.bound + 1):
                for i in range(alg.dim(d)):
                    if d + op_degree(p, op) <= alg.bound:
                        alg.act(op, alg.element(d, i))
                    else:
                        with pytest.raises(TruncationError):
                            alg.act(op, alg.element(d, i))
        for a in (alg, getattr(alg, "free", alg)):
            for op, table in a._action.items():
                shift = op_degree(p, op)
                for (d, i), value in table.items():
                    assert d + shift <= a.bound
                    assert all(dt == d + shift for dt, _ in value)
                    checked += 1
    assert checked >= 50


@pytest.mark.parametrize("p", [2, 3, 5])
def test_act_on_a_sum_is_the_weighted_sum_of_act_on_its_terms(p):
    """act and act_word on a multi-term element are the weighted sums of
    their values on its terms; act_word is act letter by letter, rightmost
    first."""
    algebras = kernel_algebras(p)

    @settings(derandomize=True, database=None, max_examples=60)
    @given(hs.data())
    def check(data):
        alg = algebras[data.draw(hs.sampled_from(sorted(algebras)))]
        op = data.draw(hs.sampled_from(alg.op_list()))
        word = data.draw(hs.sampled_from(admissible_words(p, alg.bound)))
        keys = [(d, i) for d in range(alg.bound + 1)
                for i in range(alg.dim(d))]
        terms = data.draw(hs.dictionaries(
            hs.sampled_from(keys), hs.integers(-p, 2 * p),
            min_size=2, max_size=6))
        x, expected, expected_word = alg.zero(), alg.zero(), alg.zero()
        for (d, i), c in terms.items():
            x = x + alg.element(d, i, c)
            expected = expected + within_bound(
                alg, alg.element(d, i), op).scale(c)
            expected_word = expected_word + within_bound(
                alg, alg.element(d, i), word).scale(c)
        assert within_bound(alg, x, op) == expected
        chain = within_bound(alg, x, *reversed(word_to_letters(p, word)))
        assert within_bound(alg, x, word) == expected_word == chain

    check()


@pytest.mark.parametrize("p, op", [
    (2, ("Sq", 0)), (2, ("P", 1)), (2, ("B",)), (2, ("Sq", -1)),
    (2, ("Q", 1)), (3, ("P", 0)), (3, ("Sq", 1)), (3, ("B", 1)),
])
def test_a_malformed_operation_is_refused_not_read_as_zero(p, op):
    """An operation that is no Sq^i (i >= 1) at p = 2, or β or P^i (i >= 1)
    at odd p, raises InputError on every request, on a free algebra and
    on a quotient of it, and leaves no memo behind."""
    alg = expand(FreeCommPresentation(p, [GeneratorSpec("x", 2)]), 10)
    quotient = quotient_by_ideal(alg, [])
    x = alg.generator_element("x")
    for a, y in ((alg, x), (quotient, quotient.project(x))):
        for z in (y, a.one()) * 2:
            with pytest.raises(InputError, match="operation"):
                a.act(op, z)
    assert op not in alg._action


@pytest.mark.parametrize("p, word", [
    (2, (0,)), (2, (2, 0)), (3, (0, 0, 0)), (3, (2,)), (3, (0, 1)),
])
def test_a_malformed_word_is_refused_not_read_as_zero(p, word):
    """act_word refuses a word with a letter that is no operation at p (a
    zero power, a Bockstein flag other than 0 or 1, an even odd-p length),
    even on an element it would send to zero."""
    alg = expand(FreeCommPresentation(p, [GeneratorSpec("x", 2)]), 10)
    for x in (alg.generator_element("x"), alg.zero()) * 2:
        with pytest.raises(InputError):
            alg.act_word(word, x)


@pytest.mark.parametrize("kind", ["free", "quotient", "tensor"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_word_whose_middle_letter_lands_above_the_bound(p, kind):
    """Three letters, the first (rightmost) with a nonzero value within the
    bound and the middle one, the algebra's top operation, landing above
    it: act_word raises TruncationError, on every request."""
    alg = kernel_algebras(p)[kind]
    first = ("Sq", 1) if p == 2 else ("B",)
    top = alg.op_list()[-1]
    word = letters_to_word(p, [first, top, first])
    x = next(alg.element(d, i) for d in range(1, alg.bound)
             for i in range(alg.dim(d))
             if not alg.act(first, alg.element(d, i)).is_zero)
    assert x.degree() + op_degree(p, first) + op_degree(p, top) > alg.bound
    for _ in range(2):
        with pytest.raises(TruncationError):
            alg.act_word(word, x)


@pytest.mark.parametrize("kind", ["free", "quotient", "tensor"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_element_sums_and_multiples_are_reduced_and_new(p, kind):
    """+, - and scale give data reduced mod p with no zero entry, equal to
    the sum taken coefficient by coefficient, in a dict that is neither
    operand's: writing into it leaves the operands alone.  So does
    act_word with the identity word, which gives the operand's value."""
    alg = kernel_algebras(p)[kind]
    keys = [(d, i) for d in range(alg.bound + 1) for i in range(alg.dim(d))]

    @settings(derandomize=True, database=None, max_examples=40)
    @given(hs.data())
    def check(data):
        x, y = (Element(alg, data.draw(hs.dictionaries(
            hs.sampled_from(keys), hs.integers(-2 * p, 2 * p), max_size=6)))
            for _ in range(2))
        c = data.draw(hs.integers(-2 * p, 2 * p))
        before = (dict(x.data), dict(y.data))
        for z, sign in ((x + y, 1), (x - y, -1), (x.scale(c), None),
                        (alg.act_word(letters_to_word(p, []), x), 0)):
            want = {k: (x.data.get(k, 0) + sign * y.data.get(k, 0)) % p
                    for k in {*x.data, *y.data}} if sign is not None else \
                {k: v * c % p for k, v in x.data.items()}
            assert z.data == {k: v for k, v in want.items() if v}
            assert all(0 < v < p for v in z.data.values())
            assert z.data is not x.data and z.data is not y.data
            z.data[(0, 0)] = 1
            assert (x.data, y.data) == before

    check()


# ---------------------------------------------------------------------------
# quotients by ideals


def test_quotient_kills_polynomial_generator():
    alg = free_p2([("y4", 4)], 12)
    quo = quotient_by_ideal(alg, ["y4"])
    assert quo.dims() == [1] + [0] * 12
    assert quo.steenrod_ok is True


def test_quotient_truncated_polynomial():
    alg = free_p2([("t", 1)], 4)
    quo = quotient_by_ideal(alg, ["t^2"])
    assert quo.dims() == [1, 1, 0, 0, 0]
    assert quo.steenrod_ok is True
    t = quo.project(alg.generator_element("t"))
    assert not t.is_zero
    assert (t * t).is_zero
    assert quo.basis_label(1, 0) == "t"


def test_quotient_of_two_generator_algebra():
    pres = FreeCommPresentation(
        2, [GeneratorSpec("x4", 4), GeneratorSpec("x6", 6)],
        {("x4", "Sq2"): "x6", ("x4", "Sq1"): "0", ("x4", "Sq3"): "0",
         ("x6", "Sq1"): "0", ("x6", "Sq2"): "0", ("x6", "Sq3"): "0",
         ("x6", "Sq4"): "x4*x6", ("x6", "Sq5"): "0"})
    alg = expand(pres, 12)
    assert alg.action_complete
    # killing x4 leaves a polynomial algebra on the degree-6 class
    quo = quotient_by_ideal(alg, ["x4"])
    assert quo.dims() == brute_dims([(6, "polynomial")], 12)
    # ...but that ideal is not closed: Sq2 x4 = x6 escapes it
    checked = quotient_by_ideal(alg, ["x4"])
    assert checked.steenrod_ok is False
    assert {"op": "Sq2", "degree": 4} in checked.steenrod_failures
    # the ideal on the other generator IS closed (Sq4 x6 = x4*x6 stays inside)
    closed = quotient_by_ideal(alg, ["x6"])
    assert closed.steenrod_ok is True
    assert closed.dims() == brute_dims([(4, "polynomial")], 12)


def test_quotient_dims_never_exceed_free_dims():
    alg = free_p2([("a", 1), ("b", 2)], 9)
    for gens in (["a"], ["b"], ["a*b"], ["a^2 + b"], ["a", "b"]):
        quo = quotient_by_ideal(alg, gens)
        assert all(q <= f for q, f in zip(quo.dims(), alg.dims()))
        assert quo.dim(0) == 1  # the unit never dies


def test_quotient_membership_and_lift():
    alg = free_p2([("a", 1), ("b", 2)], 6)
    quo = quotient_by_ideal(alg, ["b"])
    b = alg.generator_element("b")
    a = alg.generator_element("a")
    assert quo.contains_in_ideal(b)
    assert quo.contains_in_ideal(alg.product(a, b))
    assert not quo.contains_in_ideal(a)
    assert quo.project(b).is_zero
    image = quo.project(a)
    assert quo.lift(image) == a
    with pytest.raises(InputError):
        quo.project(quo.project(a))  # already downstairs
    with pytest.raises(InputError):
        quotient_by_ideal(alg, [alg.one()])  # degree-0 generator
    other = free_p2([("a", 1), ("b", 2)], 6)
    with pytest.raises(InputError):
        quotient_by_ideal(alg, [other.generator_element("b")])


def test_annihilator_profile():
    alg = free_p2([("t", 1)], 4)
    quo = quotient_by_ideal(alg, ["t^2"])
    t = quo.project(alg.generator_element("t"))
    # ann(t) = (t) when t^2 = 0
    assert serre.annihilator_profile(quo, t) == "principal"
    free = free_p2([("x2", 2)], 8)
    trivial = quotient_by_ideal(free, [])
    x = trivial.project(free.generator_element("x2"))
    # in a free algebra ann(x) = 0 but (x) is not, so the profiles differ
    assert serre.annihilator_profile(trivial, x) == "zero"


def test_mult_ranks_refuses_zero():
    """Multiplication by zero has no degree to shift by: a typed refusal,
    as annihilator_profile gives, not a TypeError from the degree."""
    alg = free_p2([("x2", 2)], 8)
    x2 = alg.generator_element("x2")
    assert mult_ranks(alg, x2) == [1, 0, 1, 0, 1, 0, 1]
    for x in (alg.zero(), quotient_by_ideal(alg, ["x2"]).zero()):
        with pytest.raises(InputError):
            mult_ranks(x.algebra, x)


# ---------------------------------------------------------------------------
# growing a quotient in place


def bso3_squared_base(bound):
    """F_2[a2,a3,b2,b3] with the action of H*(BSO(3))^2: Sq1 a2 = a3,
    Sq1 a3 = 0, Sq2 a3 = a2*a3, the same for b."""
    gens = [GeneratorSpec(n, d) for n, d in
            (("a2", 2), ("a3", 3), ("b2", 2), ("b3", 3))]
    action = {}
    for x in "ab":
        action.update({(f"{x}2", "Sq1"): f"{x}3", (f"{x}3", "Sq1"): "0",
                       (f"{x}3", "Sq2"): f"{x}2*{x}3"})
    return expand(FreeCommPresentation(2, gens, action), bound)


def odd_base(bound):
    """E(x1, x3) (x) F_3[y2, y4]: odd classes, so products carry signs."""
    gens = [GeneratorSpec("x1", 1, "exterior"), GeneratorSpec("y2", 2),
            GeneratorSpec("x3", 3, "exterior"), GeneratorSpec("y4", 4)]
    return expand(FreeCommPresentation(3, gens), bound)


def rref(vectors, p):
    """(pivots, rows) of the reduced row echelon form of the span, computed
    from scratch by Gauss-Jordan elimination."""
    rows = [[c % p for c in v] for v in vectors]
    pivots, out = [], []
    width = len(rows[0]) if rows else 0
    for col in range(width):
        sel = next((r for r in rows if r[col]), None)
        if sel is None:
            continue
        rows.remove(sel)
        inv = pow(sel[col], p - 2, p)
        sel = [c * inv % p for c in sel]
        rows = [[(a - r[col] * b) % p for a, b in zip(r, sel)] for r in rows]
        out = [[(a - r[col] * b) % p for a, b in zip(r, sel)] for r in out]
        pivots.append(col)
        out.append(sel)
    return pivots, out


def assert_matches_from_scratch_span(quo, alg, gens):
    """Every degree's basis is the non-pivot columns of the span of every
    basis monomial times every generator, and ``project`` sends every free
    monomial to its reduction by that span's reduced rows."""
    p = alg.p
    for d in range(alg.bound + 1):
        vectors = []
        for x in gens:
            if x.is_zero or x.degree() > d:
                continue
            for i in range(alg.dim(d - x.degree())):
                vectors.append(alg.product(alg.element(d - x.degree(), i),
                                           x).vector(d))
        pivots, rows = rref(vectors, p)
        free_cols = [i for i in range(alg.dim(d)) if i not in pivots]
        assert quo.basis(d) == free_cols, d
        for i in range(alg.dim(d)):
            if i in pivots:  # the monomial is minus the rest of its row
                row = rows[pivots.index(i)]
                want = {(d, free_cols.index(j)): -c % p
                        for j, c in enumerate(row) if c and j != i}
            else:
                want = {(d, free_cols.index(i)): 1}
            assert quo.project(alg.element(d, i)).data == want, (d, i)


def random_generators(alg, rng, count):
    """Seeded homogeneous elements of positive degree, with a zero one and
    one that already lies in the ideal of the earlier ones."""
    gens = []
    while len(gens) < count:
        d = rng.randrange(1, alg.bound // 2 + 1)
        if not alg.dim(d):
            continue
        x = Element(alg, {(d, i): rng.randrange(alg.p)
                          for i in range(alg.dim(d)) if rng.random() < 0.5})
        if not x.is_zero:
            gens.append(x)
    gens.insert(1, alg.zero())
    first = gens[0]
    other = alg.element(next(d for d in range(1, alg.bound + 1)
                             if alg.dim(d)), 0)
    gens.insert(3, alg.product(other, first))
    return gens


@pytest.mark.parametrize("make,bound,seed", [
    (bso3_squared_base, 14, 1),
    (bso3_squared_base, 14, 2),
    (odd_base, 14, 1),
    (odd_base, 14, 2),
])
def test_quotient_grows_in_place_like_a_from_scratch_span(make, bound, seed):
    alg = make(bound)
    rng = random.Random(seed)
    gens = random_generators(alg, rng, 4)
    quo = quotient_by_ideal(alg, [])
    for k, x in enumerate(gens, start=1):
        quo.add_generator(x)
        assert quo.ideal_gens == gens[:k]
        assert_matches_from_scratch_span(quo, alg, gens[:k])
    # the constructor grows through the same step
    built = quotient_by_ideal(alg, gens)
    for d in range(bound + 1):
        assert built.basis(d) == quo.basis(d)
        for i in range(alg.dim(d)):
            x = alg.element(d, i)
            assert built.project(x).data == quo.project(x).data


@pytest.mark.parametrize("p", [2, 3, 5])
def test_random_quotients_grow_like_a_from_scratch_span(p):
    """Random presentations (exterior generators, and odd ones with Koszul
    signs at odd p) grown by multi-term, zero and already-contained
    generators: each growth step's ideal is the span of every basis
    monomial times every generator, built through ``product``.  A sign can
    differ between the terms of one product only with three odd
    generators or more, hence up to five generators at odd p."""

    @settings(derandomize=True, database=None, max_examples=60)
    @given(hs.data())
    def check(data):
        alg = random_presentation(data, p, max_gens=3 if p == 2 else 5)
        assume(any(alg.dim(d) for d in range(1, alg.bound // 2 + 1)))
        rng = random.Random(data.draw(hs.integers(0, 2**16)))
        gens = random_generators(alg, rng, data.draw(hs.integers(1, 4)))
        quo = quotient_by_ideal(alg, [])
        for k, x in enumerate(gens, start=1):
            quo.add_generator(x)
            assert_matches_from_scratch_span(quo, alg, gens[:k])

    check()


@pytest.mark.parametrize("poly", ["x3 + x1*y2", "x1*x3 + y4",
                                  "x1*x3*y2 + x1*x5 + y2^3"])
def test_koszul_signs_of_a_multi_term_generator(poly):
    """Generators whose terms take different Koszul signs against one
    representative, which random presentations seldom draw: a term's odd
    factors pass the representative's odd factors an even or an odd number
    of times, and even factors lie between them."""
    gens = [GeneratorSpec("x1", 1, "exterior"), GeneratorSpec("y2", 2),
            GeneratorSpec("x5", 5, "exterior"),
            GeneratorSpec("x3", 3, "exterior"), GeneratorSpec("y4", 4),
            GeneratorSpec("x7", 7, "exterior")]
    for p in (3, 5):
        alg = expand(FreeCommPresentation(p, gens), 13)
        x = alg.element_from_poly(poly)
        quo = quotient_by_ideal(alg, [x])
        assert_matches_from_scratch_span(quo, alg, [x])


def swap_count_product(gens, m1, m2):
    """(sign, monomial) of m1·m2 or None, by writing the two monomials out
    factor by factor, m1's before m2's, and counting the pairs of odd
    factors that sorting the word into generator order swaps."""
    merged = tuple(a + b for a, b in zip(m1, m2))
    if any(e > 1 for e, g in zip(merged, gens) if g.kind == "exterior"):
        return None
    word = [k for m in (m1, m2) for k, e in enumerate(m) for _ in range(e)]
    odd = [k for k in word if gens[k].degree % 2]
    swaps = sum(1 for a, b in itertools.combinations(odd, 2) if a > b)
    return (-1) ** swaps, merged


@pytest.mark.parametrize("p", [3, 5])
def test_the_koszul_sign_rule_is_the_swap_count(p):
    """_merge_monomials, and through the same _sign_mask the ideal growth,
    signs m1·m2 as the parity of the odd-factor swaps that bring the
    written-out word m1 m2 into generator order."""

    @settings(derandomize=True, database=None, max_examples=200)
    @given(hs.data())
    def check(data):
        kinds_halves = data.draw(hs.lists(
            hs.tuples(hs.sampled_from(("polynomial", "exterior")),
                      hs.integers(1, 4)), min_size=3, max_size=7))
        assume(sum(kind == "exterior" for kind, _ in kinds_halves) >= 3)
        gens = [GeneratorSpec(f"g{k}", d, kind) for k, (d, kind)
                in enumerate(generator_list(p, kinds_halves))]
        alg = expand(FreeCommPresentation(p, gens), 0)
        m1, m2 = (tuple(data.draw(hs.integers(
            0, 1 if g.kind == "exterior" else 3)) for g in gens)
            for _ in range(2))
        assert alg._merge_monomials(m1, m2) == swap_count_product(gens, m1, m2)

    check()


def test_growth_by_a_member_of_the_ideal_changes_nothing():
    alg = bso3_squared_base(12)
    quo = quotient_by_ideal(alg, ["a2 + b2"])
    dims = quo.dims()
    quo.add_generator(alg.element_from_poly("a2*a3 + a3*b2"))
    quo.add_generator(alg.zero())
    assert quo.dims() == dims
    with pytest.raises(InputError):
        quo.add_generator(alg.one())
    with pytest.raises(InputError):
        quo.add_generator(quo.project(alg.generator_element("a3")))


def test_growth_reruns_the_invariance_check():
    alg = bso3_squared_base(12)
    quo = quotient_by_ideal(alg, ["a2"])
    assert quo.steenrod_ok is False  # Sq1 a2 = a3 escapes (a2)
    assert {"op": "Sq1", "degree": 2} in quo.steenrod_failures
    b3 = alg.generator_element("b3")
    for more, ok in (("a3", True), ("b2", False)):
        quo.add_generator(alg.generator_element(more))
        fresh = quotient_by_ideal(alg, quo.ideal_gens)
        assert quo.steenrod_ok is fresh.steenrod_ok is ok
        assert quo.steenrod_failures == fresh.steenrod_failures
        for op in (("Sq", 1), ("Sq", 2)):
            assert quo.act(op, quo.project(b3)).data == \
                fresh.act(op, fresh.project(b3)).data


def draw_kill(data, alg):
    """A homogeneous kill of a drawn kind: linear, c·g + f with f on the
    monomials listed after the generator g (so that g is its lowest
    monomial); non-linear, on products only; or mixed, on any monomials.
    It may be zero or already lie in the ideal."""
    p = alg.p
    kind = data.draw(hs.sampled_from(("linear", "non-linear", "mixed")))
    gens = [g.name for g in alg.generators if g.degree <= alg.bound]
    if kind == "linear" and gens:
        lead = alg.generator_element(data.draw(hs.sampled_from(gens)))
        ((d, low),) = lead.data
        lead = lead.scale(data.draw(hs.integers(1, p - 1)))
        cols = range(low + 1, alg.dim(d))
    else:
        d = data.draw(hs.sampled_from(
            [d for d in range(1, alg.bound + 1) if alg.dim(d)]))
        lead = alg.zero()
        cols = [i for i, m in enumerate(alg.basis(d))
                if kind == "mixed" or sum(m) > 1]
    coeffs = data.draw(hs.lists(hs.integers(0, p - 1), min_size=len(cols),
                                max_size=len(cols)))
    return lead + Element(alg, {(d, i): c for i, c in zip(cols, coeffs)})


def assert_quotients_agree(quo, span):
    """dims, basis, labels, membership, projections, products, operations
    and the closure check of a quotient equal those of its SpanQuotient;
    the closure check also equals the all-rows one wherever that one read
    every row."""
    alg, bound = quo.free, quo.bound
    assert quo.dims() == span.dims()
    keys = []
    for d in range(bound + 1):
        assert quo.basis(d) == span.basis(d), d
        keys += [(d, i) for i in range(quo.dim(d))]
        for i in range(alg.dim(d)):
            x = alg.element(d, i)
            assert quo.project(x).data == span.project(x).data, (d, i)
            assert quo.contains_in_ideal(x) == span.contains_in_ideal(x)
    assert [quo.basis_label(*k) for k in keys] == \
        [span.basis_label(*k) for k in keys]
    for k1, k2 in itertools.product(keys, repeat=2):
        if k1[0] + k2[0] <= bound:
            assert quo.product_basis(*k1, *k2) == span.product_basis(*k1, *k2)
    for op in alg.op_list():
        for key in keys:
            if key[0] + op_degree(alg.p, op) > bound:
                continue
            try:
                want = span.act_basis(op, *key)
            except MissingDataError:
                with pytest.raises(MissingDataError):
                    quo.act_basis(op, *key)
                continue
            assert quo.act_basis(op, *key) == want, (op, key)
    ok = quo.steenrod_ok
    assert ok is span.steenrod_ok
    old_ok, old_failures = span.all_rows_invariance()
    if old_ok is not None:
        assert ok is old_ok
        assert all(f in old_failures for f in quo.steenrod_failures)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_quotients_match_the_full_span_oracle(p):
    """Random presentations (exterior generators, Bockstein links and gaps
    included) grown by linear, non-linear and mixed kills in random order:
    after every step the quotient, which eliminates a generator per linear
    kill, agrees with SpanQuotient, which spans the ideal in the whole free
    algebra."""

    @settings(derandomize=True, database=None, max_examples=60,
              deadline=None)
    @given(hs.data())
    def check(data):
        alg = random_presentation(data, p, max_gens=4)
        assume(any(alg.dim(d) for d in range(1, alg.bound + 1)))
        quo, span = quotient_by_ideal(alg, []), SpanQuotient(alg)
        for _ in range(data.draw(hs.integers(1, 4))):
            x = draw_kill(data, alg)
            quo.add_generator(x)
            span.add_generator(x)
            assert_quotients_agree(quo, span)

    check()


def test_a_linear_kill_after_a_residual_one_carries_the_residual_over():
    """A non-linear kill, x·u + y, then one that eliminates the exterior u
    (u ↦ x at p = 2), whose value's square x² joins the residual: carried
    over, the residual holds x² + y, modulo which x² is linear in y, so y is
    eliminated in turn.  The quotient is F_2[x, w]/(x²) throughout, as the
    oracle spans it."""
    gens = [GeneratorSpec("y", 2), GeneratorSpec("x", 1),
            GeneratorSpec("u", 1, "exterior"), GeneratorSpec("w", 2)]
    alg = expand(FreeCommPresentation(2, gens), 10)
    quo, span = quotient_by_ideal(alg, []), SpanQuotient(alg)
    for poly in ("x*u + y", "x + u"):
        x = alg.element_from_poly(poly)
        quo.add_generator(x)
        span.add_generator(x)
        assert_quotients_agree(quo, span)
    assert quo.dims() == [1] * 11
    assert [quo.basis_label(d, 0) for d in range(4)] == ["1", "x", "w", "x*w"]


@pytest.mark.parametrize("gens,ideal", [
    ([("y4", 4)], ["y4"]),
    ([("t", 1)], ["t^2"]),
    ("two generators", ["x4"]),
    ("two generators", ["x6"]),
    ("bso3", ["a2"]),
    ("bso3", ["a2", "a3"]),
    ("bso3", ["a2", "a3", "b2"]),
])
def test_the_generator_closure_check_agrees_with_every_row(gens, ideal):
    """steenrod_ok reads the operations on the ideal's generators only; on
    the quotients the tests above check, it equals the check of every row,
    and each failure it names is one of that check's (which also names the
    degrees of the failing generator's multiples)."""
    if gens == "two generators":
        alg = expand(FreeCommPresentation(
            2, [GeneratorSpec("x4", 4), GeneratorSpec("x6", 6)],
            {("x4", "Sq2"): "x6", ("x4", "Sq1"): "0", ("x4", "Sq3"): "0",
             ("x6", "Sq1"): "0", ("x6", "Sq2"): "0", ("x6", "Sq3"): "0",
             ("x6", "Sq4"): "x4*x6", ("x6", "Sq5"): "0"}), 12)
    elif gens == "bso3":
        alg = bso3_squared_base(12)
    else:
        alg = free_p2(gens, 12 if gens[0][1] == 4 else 4)
    quo = quotient_by_ideal(alg, ideal)
    old_ok, old_failures = SpanQuotient(alg, quo.ideal_gens).all_rows_invariance()
    assert quo.steenrod_ok is old_ok is not None
    assert all(f in old_failures for f in quo.steenrod_failures)
    assert bool(quo.steenrod_failures) == bool(old_failures)


def test_missing_data_on_multiples_alone_leaves_the_closure_check_true():
    """Sq1 and Sq2 of y3 are missing, but the ideal (x2) is closed: its
    generator's values are known (Sq1 x2 = 0, Sq2 x2 = x2²), and by the
    Cartan formula they decide.  The every-row check skips the row x2·y3
    and can only answer None."""
    pres = FreeCommPresentation(2, [GeneratorSpec("x2", 2), GeneratorSpec("y3", 3)],
                                {("x2", "Sq1"): "0"})
    alg = expand(pres, 8)
    quo = quotient_by_ideal(alg, ["x2"])
    assert {g["generator"] for g in alg.gaps} == {"y3"}
    assert quo.steenrod_ok is True and quo.steenrod_failures == []
    assert SpanQuotient(alg, quo.ideal_gens).all_rows_invariance() == (None, [])


# ---------------------------------------------------------------------------
# indecomposables


def test_indecomposables_of_free_algebra_are_the_generators():
    alg = free_p2([("x4", 4), ("x6", 6)], 12)
    table = indecomposables(alg)
    assert isinstance(table, FiniteModuleTable)
    assert table.nonzero_degrees() == [4, 6]
    assert table.dims[4] == 1 and table.dims[6] == 1
    assert table.labels[4] == ["x4"] and table.labels[6] == ["x6"]


def test_indecomposables_induced_action():
    pres = FreeCommPresentation(
        2, [GeneratorSpec("x4", 4), GeneratorSpec("x6", 6)],
        {("x4", "Sq2"): "x6", ("x4", "Sq1"): "0", ("x4", "Sq3"): "0",
         ("x6", "Sq1"): "0", ("x6", "Sq2"): "0", ("x6", "Sq3"): "0",
         ("x6", "Sq4"): "x4*x6", ("x6", "Sq5"): "0"})
    table = indecomposables(expand(pres, 12))
    assert table.action_complete
    # Sq2 connects the generators; the decomposable value Sq4 x6 projects away
    assert table.action[(("Sq", 2), (4, 0))] == {(6, 0): 1}
    assert (("Sq", 4), (6, 0)) not in table.action


def test_indecomposables_requires_connected():

    class Disconnected(FreeTruncAlgebra):
        def dim(self, degree):
            return 0 if degree == 0 else super().dim(degree)

    bad = Disconnected(FreeCommPresentation(2, [GeneratorSpec("t", 1)]), 4)
    with pytest.raises(InputError, match="connected"):
        indecomposables(bad)


def test_indecomposables_of_truncated_polynomial():
    alg = free_p2([("t", 1)], 4)
    quo = quotient_by_ideal(alg, ["t^2"])
    table = indecomposables(quo)
    assert table.nonzero_degrees() == [1]
    assert table.labels[1] == ["t"]


def product_span_indecomposables(alg):
    """The indecomposables by the definition: the decomposables of degree
    d are spanned by every product of two basis elements of positive
    degree; the action is projected as in graded.indecomposables, and is
    incomplete where a value is refused for a gap."""
    decomp = [RowSpace(alg.p) for _ in range(alg.bound + 1)]
    for d in range(2, alg.bound + 1):
        for d1 in range(1, d // 2 + 1):
            for i1 in range(alg.dim(d1)):
                for i2 in range(alg.dim(d - d1)):
                    vec = {it: c for (_dt, it), c in
                           alg.product_basis(d1, i1, d - d1, i2).items()}
                    if vec:
                        decomp[d].add(vec)
    reps = [[] if d == 0 else non_pivot_columns(decomp[d], alg.dim(d))
            for d in range(alg.bound + 1)]
    action, complete = {}, True
    for op in alg.op_list():
        shift = op_degree(alg.p, op)
        for d in range(1, alg.bound + 1 - shift):
            for j, rep in enumerate(reps[d]):
                try:
                    value = alg.act(op, alg.element(d, rep))
                except MissingDataError:
                    complete = False
                    continue
                red = decomp[d + shift].reduce(value.coords(d + shift))
                if red:
                    action[(op, (d, j))] = {
                        (d + shift, reps[d + shift].index(col)): red[col]
                        for col in sorted(red)}
    return FiniteModuleTable(
        alg.p, alg.bound, [len(r) for r in reps],
        [[alg.basis_label(d, i) for i in reps[d]]
         for d in range(alg.bound + 1)], action, complete)


def assert_same_table(table, oracle):
    assert table.dims == oracle.dims
    assert table.labels == oracle.labels
    assert list(table.action.items()) == list(oracle.action.items())
    assert table.action_complete == oracle.action_complete


@pytest.mark.parametrize("name,p,bound", [
    ("BS3", 2, 70),
    ("BS3", 3, 120),
    ("BS3", 5, 160),
    ("X2b_4", 3, 80),
])
def test_indecomposables_match_the_span_of_all_products(name, p, bound):
    """The generators of the total's smaller free algebra modulo the linear
    parts of its residual ideal give the span's table, key order
    included."""
    entry = get_entry(name)
    total = connected_cover_cohomology(entry, p, bound).total
    table = indecomposables(total)
    assert len(table.nonzero_degrees()) >= 4
    assert_same_table(table, product_span_indecomposables(total))
    assert table.action_complete


@pytest.mark.parametrize("p", [2, 3, 5])
def test_indecomposables_of_random_quotients_match_the_span(p):
    """On random presentations (1-5 generators, exterior and polynomial,
    degrees repeated, random action tables with gaps), free and divided
    by 0-3 random homogeneous elements, the table read off the
    presentation is the span's.  The draws reach kills that eliminate a
    generator, residual rows with a linear term, and kills with none."""
    seen = collections.Counter()

    @settings(derandomize=True, database=None, max_examples=90)
    @given(hs.data())
    def check(data):
        free = random_presentation(data, p, max_gens=5)
        assume(free.bound > 2 and sum(free.dims()) <= 100)  # span: dim²
        if data.draw(hs.booleans()):
            # highest degree first, so that products of the later generators
            # come before a generator in its degree and a kill can have its
            # lowest monomial there and a linear term
            pres, n = free.presentation, len(free.generators)
            order = sorted(range(n), key=lambda k: -free.generators[k].degree)
            free = expand(FreeCommPresentation(
                p, [free.generators[k] for k in order],
                {key: {tuple(m[k] for k in order): c
                       for m, c in value.items()}
                 for key, value in pres.action.items()}), free.bound)
        degrees = [d for d in range(1, free.bound + 1) if free.dim(d)]
        # generators whose degree lists a product first: a kill there can
        # keep its lowest monomial off the generator and have a linear term
        rooms = [(g.degree, k) for k, g in enumerate(free.generators)
                 if g.degree <= free.bound
                 and sum(free.unrank(g.degree, 0)) > 1]
        ideal = []
        for _ in range(data.draw(hs.integers(0, 3)) if degrees else 0):
            linear = rooms and data.draw(hs.booleans())
            d, k = data.draw(hs.sampled_from(rooms)) if linear else \
                (data.draw(hs.sampled_from(degrees)), None)
            coeffs = dict(enumerate(data.draw(hs.lists(
                hs.integers(0, p - 1), min_size=free.dim(d),
                max_size=free.dim(d)))))
            if linear:
                coeffs[0] = 1
                unit = tuple(int(j == k) for j in range(len(free.generators)))
                coeffs[free.rank(d, unit)] = data.draw(hs.integers(1, p - 1))
            ideal.append(Element(free, {(d, i): c for i, c in coeffs.items()}))
        quo = quotient_by_ideal(free, ideal)
        seen["eliminated"] += quo._small is not free
        seen["linear residual"] += any(
            sum(quo._small.unrank(d, j)) == 1
            for d, space in enumerate(quo._ideal) if space is not None
            for row in space.rows.values() for j in row)
        seen["residual"] += any(
            space is not None for space in quo._ideal)
        for alg in (free, quo):
            assert_same_table(indecomposables(alg),
                              product_span_indecomposables(alg))

    check()
    assert min(seen[k] for k in ("eliminated", "linear residual",
                                 "residual")) >= 1, seen


def test_a_generator_left_in_the_basis_is_decomposable_by_its_kill():
    """In F_2[c4, a2, b2]/(c4 + a2·b2) the kill's lowest monomial is a2·b2,
    so c4 is not eliminated and stays in the degree-4 basis; yet the kill's
    linear part is c4, so c4 = a2·b2 is decomposable and Q_4 = 0."""
    alg = free_p2([("c4", 4), ("a2", 2), ("b2", 2)], 8)
    quo = quotient_by_ideal(alg, ["c4 + a2*b2"])
    assert [quo.basis_label(4, i) for i in range(quo.dim(4))] == \
        ["b2^2", "a2^2", "c4"]
    table = indecomposables(quo)
    assert table.nonzero_degrees() == [2]
    assert table.dims[4] == 0
    assert table.labels[2] == ["b2", "a2"]
    assert_same_table(table, product_span_indecomposables(quo))


# ---------------------------------------------------------------------------
# tensor products: a quotient times a free algebra is one quotient


def one_quotient_tensor(left, right):
    """left ⊗ right for a quotient ``left`` of a free algebra and a free
    algebra ``right``, built as serre builds its total: the quotient of the
    free algebra on left's generators followed by right's (renamed with a
    trailing "_r") by left's ideal, through the smaller bound.  Action
    entries and ideal generators are padded with zero exponents on the
    other list; a value that a factor decides only because its target
    degree is empty there becomes a gap."""
    base, pres = left.free, right.presentation
    bound = min(left.bound, right.bound)
    lead, pad = (0,) * len(base.generators), (0,) * len(pres.generators)

    def renamed(g):
        link = g.bockstein_link and (g.bockstein_link[0],
                                     g.bockstein_link[1] + "_r")
        return GeneratorSpec(g.name + "_r", g.degree, g.kind, link)

    action = {key: {m + pad: c for m, c in value.items()}
              for key, value in base.presentation.action.items()}
    action.update({(name + "_r", op): {lead + m: c for m, c in value.items()}
                   for (name, op), value in pres.action.items()})
    free = expand(FreeCommPresentation(
        left.p, base.generators + [renamed(g) for g in pres.generators],
        action), bound)
    return quotient_by_ideal(free, [
        Element(free, {free.monomial_key(base.unrank(d, i) + pad): c
                       for (d, i), c in x.data.items()})
        for x in left.ideal_gens if x.degree() <= bound])


def pair_class(both, left, right, x, y):
    """The class of x ⊗ y in ``one_quotient_tensor(left, right)``: the
    product of x's lift and y, each padded onto both generator lists."""
    free, n = both.free, len(left.free.generators)
    pad, lead = (0,) * (len(free.generators) - n), (0,) * n
    up = Element(free, {free.monomial_key(left.free.unrank(d, i) + pad): c
                        for (d, i), c in left.lift(x).data.items()})
    over = Element(free, {free.monomial_key(lead + right.unrank(d, i)): c
                          for (d, i), c in y.data.items()})
    return both.project(up * over)


def test_tensor_dims_are_convolutions():
    """A tensor product's series is the product of its factors' series:
    one quotient of F_2[t]/(t^5) and F_2[u], and the E∞ total of every
    catalog cover that answers at p <= 5, the quotient of the base times
    the free algebra on the survivors."""

    def convolve(a, b, bound):
        return [sum(a[j] * b[i - j] for j in range(i + 1))
                for i in range(bound + 1)]

    left = quotient_by_ideal(free_p2([("t", 1)], 10), ["t^5"])
    right = free_p2([("u", 2)], 8)
    both = one_quotient_tensor(left, right)
    assert both.bound == 8
    assert both.dims() == convolve(left.dims(), right.dims(), 8)
    bound, answered = 40, set()
    for entry in {e.name: e for e in load_catalog().values()}.values():
        for p in (2, 3, 5):
            try:
                res = connected_cover_cohomology(entry, p, bound)
            except (InputError, MissingDataError, UnsupportedFibrationError):
                continue
            survivors = product_formula(
                [(s.degree, s.kind) for s in res.surviving_fiber_generators],
                bound)
            assert res.total.dims() == \
                convolve(res.quotient.dims(), survivors, bound)
            answered.add((entry.name, p))
    assert {("BS3", 2), ("X2b_4", 5), ("X30", 3), ("S3", 5)} <= answered


def test_tensor_cartan_rule():
    left = quotient_by_ideal(free_p2([("t", 1)], 8), ["t^5"])
    right = free_p2([("u", 1)], 8)
    both = one_quotient_tensor(left, right)
    t, u = (both.project(both.free.generator_element(n)) for n in ("t", "u_r"))
    tu = t * u
    assert both.act(("Sq", 1), tu) == t * t * u + t * u * u
    assert both.act(("Sq", 2), tu) == t * t * u * u
    # labels are the monomials on both generator lists
    labels = {both.basis_label(2, i) for i in range(both.dim(2))}
    assert labels == {"t^2", "t*u_r", "u_r^2"}


def test_tensor_bockstein_sign():
    pres = FreeCommPresentation(
        3,
        [GeneratorSpec("e", 1, "exterior", bockstein_link=(1, "y")),
         GeneratorSpec("y", 2)],
        {("y", "beta"): "0", ("y", "P1"): "y^3"})
    left = quotient_by_ideal(expand(pres, 7), [])
    both = one_quotient_tensor(left, expand(pres, 7))
    e_l, y_l, e_r, y_r = (both.project(both.free.generator_element(n))
                          for n in ("e", "y", "e_r", "y_r"))
    # beta(e x e) = y x e - e x y: the right-hand term picks up the sign
    assert both.act(("B",), e_l * e_r) == y_l * e_r - e_l * y_r


def factors(p):
    """A quotient (left, bound 14) and a free algebra (right, bound 12) with
    complete action tables, and two pairs (left class, right class) whose
    product has nonzero factors in total degree one above the tensor
    bound."""
    if p == 2:
        free = free_p2([("t", 1)], 14)
        left = quotient_by_ideal(free, ["t^5"])
        right = free_p2([("u1", 1), ("w3", 3)], 12,
                        {("w3", "Sq1"): "u1*w3", ("w3", "Sq2"): "u1^2*w3"})
        polys = (("t", "u1^5"), ("t^2", "u1^5"))
    else:
        free = expand(FreeCommPresentation(
            p, [GeneratorSpec("e", 1, "exterior", bockstein_link=(1, "y")),
                GeneratorSpec("y", 2)], {("y", "beta"): "0"}), 14)
        left = quotient_by_ideal(free, ["y^3"])
        right = expand(FreeCommPresentation(
            p, [GeneratorSpec("u3", 3, "exterior", bockstein_link=(1, "v4")),
                GeneratorSpec("v4", 4)],
            {("u3", "P1"): "0", ("v4", "beta"): "0", ("v4", "P1"): "v4^2"}),
            12)
        polys = (("e", "v4"), ("y^2", "v4"))
    pairs = [(left.project(free.element_from_poly(a)),
              right.element_from_poly(b)) for a, b in polys]
    return left, right, pairs


class EagerTensor:
    """The tensor basis as an explicit pair list per degree and a pair ->
    (degree, index) dict, with products and the Cartan action looked up
    through the dict."""

    def __init__(self, left, right, bound):
        self.left, self.right, self.p = left, right, left.p
        self.pairs = [[((dl, il), (d - dl, ir)) for dl in range(d + 1)
                       for il in range(left.dim(dl))
                       for ir in range(right.dim(d - dl))]
                      for d in range(bound + 1)]
        self.index = {pair: (d, i) for d, pairs in enumerate(self.pairs)
                      for i, pair in enumerate(pairs)}

    def combine(self, left_data, right_data, coeff=1):
        out = {}
        for pl, cl in left_data.items():
            for pr, cr in right_data.items():
                key = self.index[(pl, pr)]
                out[key] = out.get(key, 0) + coeff * cl * cr
        return mod_p(out, self.p)

    def product_basis(self, d1, i1, d2, i2):
        (dl1, il1), (dr1, ir1) = self.pairs[d1][i1]
        (dl2, il2), (dr2, ir2) = self.pairs[d2][i2]
        sign = -1 if self.p != 2 and dr1 * dl2 % 2 else 1
        return self.combine(self.left.product_basis(dl1, il1, dl2, il2),
                            self.right.product_basis(dr1, ir1, dr2, ir2),
                            sign)

    def act_basis(self, op, d, i):
        (dl, il), (dr, ir) = self.pairs[d][i]
        xl, xr = self.left.element(dl, il), self.right.element(dr, ir)
        if op == ("B",):
            terms = [(self.left.act(op, xl), xr, 1),
                     (xl, self.right.act(op, xr),
                      -1 if self.p != 2 and dl % 2 else 1)]
        else:
            terms = [(xl if k == 0 else self.left.act((op[0], k), xl),
                      xr if k == op[1] else
                      self.right.act((op[0], op[1] - k), xr), 1)
                     for k in range(op[1] + 1)]
        out = {}
        for el, er, coeff in terms:
            for key, c in self.combine(el.data, er.data, coeff).items():
                out[key] = out.get(key, 0) + c
        return mod_p(out, self.p)


def mod_p(data, p):
    return {k: v % p for k, v in data.items() if v % p}


@pytest.mark.parametrize("p", [2, 3])
def test_tensor_as_one_quotient_matches_an_eager_pair_table(p):
    """Each pair of factor basis elements is one basis element of the one
    quotient (the class of the product of their lifts), every basis element
    is one pair, and under that correspondence products and operations are
    the eager pair table's; values above the bound are refused."""
    left, right, (x_pair, y_pair) = factors(p)
    both = one_quotient_tensor(left, right)
    assert both.bound == 12
    ref = EagerTensor(left, right, both.bound)
    key_of = {}
    for d in range(both.bound + 1):
        for pair in ref.pairs[d]:
            (key, c), = pair_class(both, left, right, left.element(*pair[0]),
                                   right.element(*pair[1])).data.items()
            assert c == 1
            key_of[pair] = key
        assert sorted(key_of[pair] for pair in ref.pairs[d]) == \
            [(d, i) for i in range(both.dim(d))]

    def mapped(data):
        return {key_of[ref.pairs[d][i]]: c for (d, i), c in data.items()}

    for d in range(both.bound + 1):
        for i, pair in enumerate(ref.pairs[d]):
            for op in both.op_list():
                if d + op_degree(p, op) <= both.bound:
                    assert both.act_basis(op, *key_of[pair]) == \
                        mapped(ref.act_basis(op, d, i))
    for d1 in range(both.bound + 1):
        for d2 in range(both.bound + 1 - d1):
            for i1, pair1 in enumerate(ref.pairs[d1]):
                for i2, pair2 in enumerate(ref.pairs[d2]):
                    assert mod_p(both.product_basis(*key_of[pair1],
                                                    *key_of[pair2]), p) == \
                        mapped(ref.product_basis(d1, i1, d2, i2))
    # above the bound: no basis, and products and operations refuse
    assert both.dim(both.bound + 1) == 0 and both.dim(-1) == 0
    assert both.basis(both.bound + 1) == []
    (key_x, _), = pair_class(both, left, right, *x_pair).data.items()
    (key_y, _), = pair_class(both, left, right, *y_pair).data.items()
    assert key_x[0] + key_y[0] == both.bound + 1
    with pytest.raises(TruncationError):
        both.product_basis(*key_x, *key_y)
    top = pair_class(both, left, right, left.one(),
                     right.element(right.bound, 0))
    (key_top, _), = top.data.items()
    with pytest.raises(TruncationError):
        both.act_basis(both.op_list()[0], *key_top)


@pytest.mark.parametrize("p", [2, 3])
def test_tensor_ring_axioms_on_random_elements(p):
    """Associativity, the unit, and graded commutativity with the Koszul
    sign (-1)^{|x||y|} at odd p, on random homogeneous elements."""
    left, right, _ = factors(p)
    both = one_quotient_tensor(left, right)
    one = both.one()

    def element(data, degree):
        dim = both.dim(degree)
        coeffs = data.draw(hs.lists(hs.integers(0, p - 1), min_size=dim,
                                    max_size=dim))
        return Element(both, {(degree, i): c for i, c in enumerate(coeffs)})

    @settings(derandomize=True, database=None, max_examples=60)
    @given(hs.data())
    def check(data):
        a = data.draw(hs.integers(0, both.bound))
        b = data.draw(hs.integers(0, both.bound - a))
        c = data.draw(hs.integers(0, both.bound - a - b))
        x, y, z = element(data, a), element(data, b), element(data, c)
        assert (x * y) * z == x * (y * z)
        assert one * x == x == x * one
        sign = -1 if p != 2 and a * b % 2 else 1
        assert y * x == (x * y).scale(sign)

    check()


# ---------------------------------------------------------------------------
# graded maps


def test_graded_map_identity_and_errors():
    alg = free_p2([("t", 1)], 4)
    ident = GradedMap.from_function(alg, alg, lambda d, i: alg.element(d, i))
    t = alg.generator_element("t")
    assert ident.apply(t) == t
    assert ident.apply(alg.element_from_poly("t^2 + t^3")) == \
        alg.element_from_poly("t^2 + t^3")
    other = free_p2([("t", 1)], 4)
    with pytest.raises(InputError):
        ident.apply(other.generator_element("t"))
    with pytest.raises(InputError):
        GradedMap(alg, alg, {(1, 0): other.generator_element("t")})
    partial = GradedMap(alg, alg, {})
    with pytest.raises(InputError):
        partial.apply(t)
