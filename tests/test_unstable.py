"""Symbolic unstable-module expressions: normal forms, dimensions, the
reduced-T rewriting, Krull degrees, and the expression DSL.

Dimension oracles here are independent in-test enumerations (recursive
admissible-word generation with the excess filter), not calls back into the
package's own word tables.
"""

import random

import pytest
from hypothesis import given, settings, strategies as hs

from pnoether import steenrod as st
from pnoether import unstable as un
from pnoether.errors import DSLSyntaxError, InputError
from pnoether.unstable import (F, Fin, Normal, Power, Q1, Sigma, Sum, Tensor,
                               ZERO, expr_dims, format_expr, is_zero,
                               krull_degree, normal_form, parse_expr, tbar)


# ---------------------------------------------------------------------------
# independent dimension oracle for free modules


def _free_dims_oracle_p2(n, max_degree):
    """dim F(n)_d = #{admissible (i1..ik): i1 >= 2 i2 >= ..., excess <= n,
    sum + n = d}, enumerated from scratch."""
    out = [0] * (max_degree + 1)
    if n <= max_degree:
        out[n] = 1  # the empty word

    def grow(word):
        total = sum(word)
        # extend on the left; admissibility: new >= 2 * word[0]
        lo = 2 * word[0]
        for i in range(lo, max_degree - n - total + 1):
            nxt = (i,) + word
            exc = nxt[0] - sum(nxt[1:])
            if exc <= n:
                out[sum(nxt) + n] += 1
            grow(nxt)

    for i1 in range(1, max_degree - n + 1):
        if i1 <= n:  # excess of (i1) is i1
            out[i1 + n] += 1
        grow((i1,))
    return out


def test_dims_F_p2_against_oracle():
    for n in range(0, 5):
        assert un.dims_F(n, 20, 2) == _free_dims_oracle_p2(n, 20), n


def test_dims_F1_p2_powers_of_two():
    # classical: F(1) over the mod-2 algebra is one-dimensional exactly in
    # degrees 2^k; pruned by excess, degree 4096 costs one word per power
    for bound, top in ((64, 6), (4096, 12)):
        dims = un.dims_F(1, bound, 2)
        assert [d for d, m in enumerate(dims) if m] == [2 ** k for k in range(top + 1)]
        assert all(m in (0, 1) for m in dims)


def test_dims_F0():
    for p in (2, 3):
        assert un.dims_F(0, 10, p) == [1] + [0] * 10


def test_dims_F1_odd():
    # classical picture at odd p: the submodule of the reduced cohomology of
    # the cyclic group generated by the degree-one class is spanned by
    # x, beta x, and the p^k-th powers of beta x — degrees 1, 2, 2p, 2p^2, ...
    dims = un.dims_F(1, 19, 3)
    nonzero = [d for d, m in enumerate(dims) if m]
    assert nonzero == [1, 2, 6, 18]
    assert all(m == 1 for m in dims if m)


def test_dims_F_equals_the_excess_filter_over_every_word():
    for p in (2, 3, 5):
        for n in range(0, 5):
            for max_degree in range(0, 41):
                expected = [0] * (max_degree + 1)
                for w in st.admissible_words(p, max(0, max_degree - n)):
                    d = st.word_degree(p, w) + n
                    if st.excess(p, w) <= n and d <= max_degree:
                        expected[d] += 1
                assert un.dims_F(n, max_degree, p) == expected, (p, n, max_degree)


# ---------------------------------------------------------------------------
# normal form and algebraic identities


def test_zero_and_unit():
    assert is_zero(ZERO)
    assert not is_zero(F(0))
    assert normal_form(Sum(())) == {}
    assert expr_dims(F(0), 5) == [1, 0, 0, 0, 0, 0]


def test_power_is_direct_sum_power():
    got = expr_dims(Power(Q1(), 2), 4, 2)
    q = expr_dims(Q1(), 4, 2)
    assert got == [2 * x for x in q]
    assert is_zero(Power(Q1(), 0))      # empty direct sum
    assert normal_form(Power(Q1(), 1)) == normal_form(Q1())
    assert is_zero(Tensor((F(1), Power(Q1(), 0))))


def test_q1_dims():
    assert expr_dims(Q1(), 3, 2) == [0, 1, 0, 0]
    assert expr_dims(Q1(), 3, 3) == [0, 1, 1, 0]


def test_sigma_shifts():
    base = expr_dims(F(1), 9, 2)
    shifted = expr_dims(Sigma(F(1)), 10, 2)
    assert shifted == [0] + base
    assert expr_dims(Sigma(ZERO), 4, 2) == [0] * 5


@pytest.mark.parametrize("p", [4, 1, True])
@pytest.mark.parametrize("text", ["Q1", "Q1^2 + Fin(0:1)", "0"])
def test_a_p_that_is_not_prime_is_refused_without_free_factors(text, p):
    """A Q1 table is defined only at a prime, so an expression with no F
    factor is refused at a non-prime p as one with F factors is."""
    with pytest.raises(InputError, match="prime"):
        normal_form(parse_expr(text), p)
    with pytest.raises(InputError, match="prime"):
        expr_dims(parse_expr(text), 3, p)


@pytest.mark.parametrize("text", ["Fin(0:1)", "0", "Q1", "F(1)"])
def test_a_negative_max_degree_is_refused_whatever_the_expression(text):
    """No expression has dimensions through a negative degree: every one is
    refused, not only those whose free factors would be enumerated."""
    with pytest.raises(InputError, match="max_degree"):
        expr_dims(parse_expr(text), -1)


def test_sum_adds_and_tensor_convolves():
    # in the second pair, Q1 taken at p = 2 adds up with an equal finite term
    for a, b in ((F(1), Fin({2: 3})),
                 (Tensor((F(1), Q1())), Tensor((F(1), Fin({1: 1}))))):
        da = expr_dims(a, 8, 2)
        db = expr_dims(b, 8, 2)
        assert expr_dims(Sum((a, b)), 8, 2) == [x + y for x, y in zip(da, db)]
        conv = [sum(da[i] * db[d - i] for i in range(d + 1)) for d in range(9)]
        assert expr_dims(Tensor((a, b)), 8, 2) == conv


def test_fin_atom():
    f = Fin({3: 2, 5: 1})
    assert expr_dims(f, 6, 2) == [0, 0, 0, 2, 0, 1, 0]
    assert is_zero(Fin({}))
    with pytest.raises(InputError):
        Fin({-1: 1})


def test_normal_form_merges_equal_terms():
    e = Sum((F(1), F(1)))
    nf = normal_form(e)
    assert list(nf.values()) == [2]


# ---------------------------------------------------------------------------
# reduced-T rewriting


def test_tbar_kills_finite_atoms():
    assert is_zero(tbar(Fin({4: 2}), 2))
    assert is_zero(tbar(Q1(), 2))      # Q1 is finite
    assert is_zero(tbar(Q1(), 3))
    assert is_zero(tbar(ZERO, 2))


def test_tbar_of_F1_is_finite_free_part():
    # T-bar F(1) is a nonzero sum of F(0)s: applying T-bar once more kills it
    t1 = tbar(F(1), 2)
    assert not is_zero(t1)
    assert is_zero(tbar(t1, 2))


# Hom_U(T F(n), M) is the degree-n part of H*(BZ/p) (x) M, and every
# H^j(BZ/p) is one-dimensional, so T F(n) = F(0) + ... + F(n) and the
# reduced T of F(n) is the sum of F(i) over i < n, each summand once
# (Lannes 1992; Schwartz 1994).  Binomial multiplicities belong to
# F(1)^{(x) n} instead.


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tbar_of_Fn_takes_each_lower_free_module_once(p):
    for n in range(1, 7):
        want = Sum(tuple(F(i) for i in range(n)))
        assert normal_form(tbar(F(n), p)) == normal_form(want), (p, n)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tbar_iterated_n_times_on_Fn_is_F0(p):
    for n in range(1, 7):
        module = F(n)
        for _ in range(n):
            module = tbar(module, p)
        assert normal_form(module) == normal_form(F(0)), (p, n)


def test_tbar_of_F1_tensor_power_keeps_binomial_multiplicities():
    # T F(1) = F(0) + F(1), so T(F(1)^{(x) 3}) = (F(0) + F(1))^{(x) 3} and
    # the reduced T drops the F(1)^{(x) 3} term
    want = Sum((F(0), F(1), F(1), F(1), Tensor((F(1), F(1))),
                Tensor((F(1), F(1))), Tensor((F(1), F(1)))))
    cube = Tensor((F(1), F(1), F(1)))
    assert normal_form(tbar(cube, 2)) == normal_form(want)


def test_tbar_additive():
    e = Sum((F(1), Fin({3: 1})))
    assert normal_form(tbar(e, 2)) == normal_form(tbar(F(1), 2))


def test_tbar_tensor_leibniz_degree():
    # krull(A (x) B) = krull(A) + krull(B) for free factors, a consequence
    # of the tensor rule
    assert krull_degree(Tensor((F(1), F(1))), 2).degree == 2
    assert krull_degree(Tensor((F(2), F(1))), 2).degree == 3


# ---------------------------------------------------------------------------
# Krull degrees


def test_krull_free_modules():
    for p in (2, 3):
        for n in range(0, 5):
            assert krull_degree(F(n), p).degree == n, (p, n)


def test_krull_degree_iterates_until_zero():
    """T̄ lowers the largest F index by one per step, so F(n) takes n + 1
    steps; no step count caps the iteration."""
    for n in (64, 70):
        report = krull_degree(F(n), 2)
        assert report.degree == n and report.determined
        assert len(report.trace) == n + 2
        assert report.trace_strings()[-1] == "0"


def test_krull_sigma_f1():
    report = krull_degree(Sigma(F(1)), 2)
    assert report.degree == 1
    assert report.determined
    assert len(report.trace) == report.degree + 2
    assert report.trace_strings()[-1] == "0"


def test_krull_zero_module():
    report = krull_degree(ZERO, 2)
    assert report.degree == 0
    assert report.trace_strings() == ["0", "0"]


def test_krull_finite_atoms_random():
    rng = random.Random(20260816)
    for _ in range(20):
        dims = {rng.randrange(0, 9): rng.randrange(1, 4)
                for _ in range(rng.randrange(1, 4))}
        assert krull_degree(Fin(dims), 2).degree == 0


def test_normal_leaf_refuses_a_symbolic_Q1():
    # tbar reads Q1 only as its finite table, so a symbolic Q1 term would
    # lose its finite factor
    with pytest.raises(InputError):
        Normal(normal_form(Tensor((F(1), Q1()))))
    at_two = Normal(normal_form(Tensor((F(1), Q1())), 2))
    assert format_expr(tbar(at_two, 2)) == "Fin(1:1)"


def test_krull_trace_is_successive_tbar():
    for p in (2, 3, 5):
        rng = random.Random(7)  # the expressions of the round-trip test
        for e in [F(2)] + [_random_expr(rng) for _ in range(60)]:
            report = krull_degree(e, p)
            for a, b in zip(report.trace, report.trace[1:]):
                step = tbar(a, p)
                assert normal_form(step) == normal_form(b), (p, e)
                assert format_expr(step) == format_expr(b), (p, e)


# ---------------------------------------------------------------------------
# the DSL


def test_parse_examples():
    assert normal_form(parse_expr("F(2)")) == normal_form(F(2))
    assert normal_form(parse_expr("Sigma(F(1)) + Q1^2")) == \
        normal_form(Sum((Sigma(F(1)), Power(Q1(), 2))))
    assert normal_form(parse_expr("F(1)*Q1")) == \
        normal_form(Tensor((F(1), Q1())))
    assert normal_form(parse_expr("Fin(3:2, 5:1)")) == \
        normal_form(Fin({3: 2, 5: 1}))
    assert is_zero(parse_expr("0"))


def test_parse_errors_carry_offset():
    for bad in ["F(", "F(1) +", "Q1^", "Sigma F(1)", "Fin(3)"]:
        with pytest.raises(DSLSyntaxError):
            parse_expr(bad)


def _random_expr(rng, depth=0):
    roll = rng.random()
    if depth >= 3 or roll < 0.35:
        kind = rng.randrange(3)
        if kind == 0:
            return F(rng.randrange(0, 4))
        if kind == 1:
            return Q1()
        return Fin({rng.randrange(1, 6): rng.randrange(1, 3)})
    if roll < 0.55:
        return Sigma(_random_expr(rng, depth + 1))
    if roll < 0.75:
        return Sum(tuple(_random_expr(rng, depth + 1)
                         for _ in range(rng.randrange(1, 3))))
    if roll < 0.9:
        return Tensor(tuple(_random_expr(rng, depth + 1)
                            for _ in range(rng.randrange(1, 3))))
    return Power(_random_expr(rng, depth + 1), rng.randrange(0, 3))


def test_format_parse_round_trip_random():
    rng = random.Random(7)
    for _ in range(60):
        e = _random_expr(rng)
        text = format_expr(e)
        again = parse_expr(text)
        assert normal_form(again) == normal_form(e), text
        # printing is canonical: formatting the reparse changes nothing
        assert format_expr(again) == text


# expressions drawn small enough that a report prints in a few kilobytes
expressions = hs.recursive(
    hs.one_of(hs.integers(0, 3).map(F), hs.builds(Q1),
              hs.dictionaries(hs.integers(0, 5), hs.integers(0, 2),
                              max_size=2).map(Fin)),
    lambda inner: hs.one_of(
        inner.map(Sigma),
        hs.lists(inner, max_size=3).map(Sum),
        hs.lists(inner, max_size=2).map(Tensor),
        hs.builds(Power, inner, hs.integers(0, 2))),
    max_leaves=6)


@settings(derandomize=True, database=None, max_examples=200)
@given(expressions)
def test_format_parse_round_trip_property(e):
    text = format_expr(e)
    again = parse_expr(text)
    assert again == e, text
    assert format_expr(again) == text
    # each normal-form term prints once: a multiplicity m > 1 is ^m on its
    # last atom, since ^ is a direct sum and the tensor distributes over it
    summands = [] if text == "0" else text.split(" + ")
    assert len(summands) == len(normal_form(e)), text


# ---------------------------------------------------------------------------
# one suspension rule: a term with a finite factor carries its suspensions
# in that factor's degrees, so equal modules print alike


def test_a_suspension_over_a_finite_factor_may_sit_on_either_factor():
    left = Sigma(Tensor((F(2), Fin({1: 1}))))
    right = Tensor((F(2), Sigma(Fin({1: 1}))))
    assert left == right
    assert format_expr(left) == format_expr(right) == "F(2)*Fin(2:1)"


@settings(derandomize=True, database=None, max_examples=200)
@given(expressions, expressions)
def test_a_suspension_may_sit_on_either_tensor_factor(a, b):
    left, right = Sigma(a) * b, a * Sigma(b)
    assert left == right
    for p in (None, 2, 3, 5):
        assert normal_form(left, p) == normal_form(right, p), p
