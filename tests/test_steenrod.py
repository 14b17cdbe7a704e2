"""Steenrod words: admissibility, excess, relation rewriting, parsing.

Expected values are either forced by the definitions (identities, degree
arithmetic) or verified by the action oracle in this file / the acceptance
suite: a rewriting of a composite operation must act identically to the
original composite on polynomial algebras, which pins every coefficient.
"""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as hs

from pnoether import steenrod as st
from pnoether.errors import DSLSyntaxError, InputError
from pnoether.graded import (FreeCommPresentation, GeneratorSpec, expand,
                             op_degree)


# ---------------------------------------------------------------------------
# shape, degree, admissibility, excess


def test_word_degree_p2():
    assert st.word_degree(2, ()) == 0
    assert st.word_degree(2, (4, 2, 1)) == 7


def test_word_degree_odd():
    # odd word shape: (e0, s1, e1, ...); P^s shifts by 2s(p-1), beta by 1
    assert st.word_degree(3, (0,)) == 0
    assert st.word_degree(3, (1,)) == 1
    assert st.word_degree(3, (0, 1, 0)) == 4
    assert st.word_degree(3, (1, 2, 1)) == 10
    assert st.word_degree(5, (0, 1, 0)) == 8


def test_admissible_p2():
    assert st.is_admissible(2, ())
    assert st.is_admissible(2, (4, 2, 1))
    assert st.is_admissible(2, (2, 1))
    assert not st.is_admissible(2, (1, 1))
    assert not st.is_admissible(2, (2, 2))
    assert not st.is_admissible(2, (3, 2))


def test_admissible_odd():
    # P^s P^t admissible iff s >= p t (+ epsilon)
    assert st.is_admissible(3, (0, 3, 0, 1, 0))
    assert not st.is_admissible(3, (0, 2, 0, 1, 0))
    assert st.is_admissible(3, (0, 4, 1, 1, 0))
    assert not st.is_admissible(3, (0, 3, 1, 1, 0))


def test_excess_p2():
    # excess of (i1,...,ik) = i1 - (i2+...+ik)
    assert st.excess(2, (1,)) == 1
    assert st.excess(2, (4, 2, 1)) == 1
    assert st.excess(2, (2, 1)) == 1
    assert st.excess(2, (5, 2)) == 3


def test_excess_odd():
    # excess = 2*s1 + e0 - (degree of the remaining word)
    assert st.excess(3, (0, 1, 0)) == 2          # P^1
    assert st.excess(3, (1, 1, 0)) == 3          # beta P^1
    assert st.excess(3, (0, 3, 0, 1, 0)) == 2    # P^3 P^1: 6 - 4
    assert st.excess(3, (0, 3, 1, 1, 0)) == 1    # P^3 beta P^1: 6 - 5


def test_identity_word():
    assert st.identity_word(2) == ()
    assert st.identity_word(3) == (0,)


def test_admissible_words_counts_against_recursive_oracle():
    """Independent recursive enumeration of admissible words by degree."""
    def words_p2(max_deg):
        # all admissible (i1 >= 2 i2 >= ...) with total <= max_deg
        out = [()]
        def grow(prefix, total):
            low = 2 * prefix[-1] if prefix else 1
            # prepend on the left: i >= 2 * first existing entry
            for i in range(low, max_deg - total + 1):
                w = (i,) + prefix if prefix else (i,)
                out.append(w)
                grow(w, total + i)
        # build by leftward growth from each singleton
        for i1 in range(1, max_deg + 1):
            out.append((i1,))
            left = [(i1,)]
            while left:
                w = left.pop()
                for i in range(2 * w[0], max_deg - sum(w) + 1):
                    nxt = (i,) + w
                    out.append(nxt)
                    left.append(nxt)
        return {w for w in out if sum(w) <= max_deg}

    got = set(st.admissible_words(2, 12))
    expected = words_p2(12)
    assert got == expected
    for w in got:
        assert st.is_admissible(2, w)


def test_admissible_words_odd_all_admissible_and_complete():
    words = st.admissible_words(3, 14)
    assert st.identity_word(3) in words
    for w in words:
        assert st.is_admissible(3, w)
        assert st.word_degree(3, w) <= 14
    # brute-force: every admissible word of degree <= 14 must be present
    degrees = {st.word_degree(3, w) for w in words}
    assert (0, 1, 0) in words            # P1, degree 4
    assert (1, 1, 0) in words            # beta P1, degree 5
    assert (0, 2, 0, 1, 0) not in words  # inadmissible P2 P1
    assert (0, 3, 0, 1, 0) not in words  # admissible P3 P1 but degree 16 > 14
    assert 1 in degrees                  # beta


@pytest.mark.parametrize("p", [2, 3, 5])
def test_excess_bounded_words_equal_the_filtered_full_list(p):
    for max_degree in range(0, 41):
        full = st.admissible_words(p, max_degree)
        for max_excess in range(0, 7):
            expected = [w for w in full if st.reduced_excess(p, w) <= max_excess]
            assert st.admissible_words(p, max_degree, max_excess) == expected, (
                max_degree, max_excess)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_words_of_one_degree_keep_their_order_at_larger_bounds(p):
    """A degree's words come in one order whatever the bound, the order
    admissible_words_by_degree lists them in."""
    top = 60 if p == 2 else 130
    by_degree = {}
    for w in st.admissible_words(p, top):
        by_degree.setdefault(st.word_degree(p, w), []).append(w)
    for degree in range(top + 1):
        exact = [w for w in st.admissible_words(p, degree)
                 if st.word_degree(p, w) == degree]
        assert by_degree.get(degree, []) == exact, degree


# the largest degree drawn at each prime: the unbounded list there holds
# 1,086 (p = 7) to 4,156 (p = 2) words
WORDS_OF_DEGREE_TOP = {2: 60, 3: 160, 5: 400, 7: 560}


@settings(derandomize=True, database=None, max_examples=200)
@given(hs.data())
def test_words_of_one_degree_are_their_bucket_of_the_full_list(data):
    """admissible_words_by_degree builds only the words of the degrees
    asked for, yet lists exactly each degree's bucket of admissible_words,
    in its order, under each excess bound: degree 0, degrees with no word
    and negative degrees included, the degrees of one call sharing their
    tail lists."""
    p = data.draw(hs.sampled_from(sorted(WORDS_OF_DEGREE_TOP)))
    top = WORDS_OF_DEGREE_TOP[p]
    degrees = data.draw(hs.sets(hs.integers(-2, top), min_size=1,
                                max_size=4))
    max_excess = data.draw(hs.none() | hs.integers(-1, 14))
    full = st.admissible_words(p, max(max(degrees), 0), max_excess)
    buckets = {d: [w for w in full if st.word_degree(p, w) == d]
               for d in degrees}
    assert st.admissible_words_by_degree(p, degrees, max_excess) == buckets


@pytest.mark.parametrize("p, degree, max_excess, words", [
    (2, 0, None, [()]), (3, 0, None, [(0,)]), (5, 0, 0, [(0,)]),
    (7, 0, None, [(0,)]), (5, 1, 0, [(1,)]),
    # no word has these degrees, and an excess bound can empty one
    (3, 2, None, []), (3, 3, None, []), (5, 7, None, []), (7, 11, None, []),
    (2, 6, 0, []), (2, -1, None, []), (3, 5, -1, []),
    # fewer letters first, then the word read right to left
    (2, 6, None, [(6,), (5, 1), (4, 2)]),
    (3, 5, None, [(1, 1, 0), (0, 1, 1)]),
])
def test_words_of_one_degree_at_the_edges(p, degree, max_excess, words):
    assert st.admissible_words_by_degree(p, [degree], max_excess) \
        == {degree: words}


def test_excess_bound_below_zero_keeps_nothing():
    for p in (2, 3):
        assert st.admissible_words(p, 10, -1) == []
        assert st.admissible_words(p, -1, 3) == []


def test_excess_zero_words_cost_nothing_at_a_large_degree():
    # only the identity has excess 0 at p = 2; an unpruned enumeration to
    # degree 10_000 would not finish
    assert st.admissible_words(2, 10_000, 0) == [()]
    # at odd p the identity and the bare Bockstein have reduced excess 0
    assert st.admissible_words(3, 10_000, 0) == [(0,), (1,)]


@hs.composite
def _admissible_word(draw, p):
    """An admissible word grown by prepending letters at or above the
    admissibility floor."""
    steps = draw(hs.lists(hs.integers(0, 5), max_size=4))
    if p == 2:
        w = ()
        for step in steps:
            w = ((2 * w[0] if w else 1) + step,) + w
        return w
    w = (draw(hs.integers(0, 1)),)
    for step in steps:
        lead_s = w[1] if len(w) > 1 else 0
        w = (draw(hs.integers(0, 1)), max(1, p * lead_s + w[0]) + step) + w
    return w


@pytest.mark.parametrize("p", [2, 3, 5])
def test_prepending_a_letter_never_lowers_the_reduced_excess(p):
    """The lemma that makes the excess-bounded enumeration exact."""

    @settings(derandomize=True, database=None, max_examples=200)
    @given(_admissible_word(p))
    def check(w):
        assert st.is_admissible(p, w)
        before = st.reduced_excess(p, w)
        if p == 2:
            lo = 2 * w[0] if w else 1
            longer = [(i,) + w for i in range(lo, lo + 12)]
        else:
            lead_s = w[1] if len(w) > 1 else 0
            lo = max(1, p * lead_s + w[0])
            longer = [(f, s) + w for s in range(lo, lo + 12) for f in (0, 1)]
        for nw in longer:
            assert st.is_admissible(p, nw)
            assert st.reduced_excess(p, nw) >= before, (w, nw)

    check()


# ---------------------------------------------------------------------------
# Adem rewriting, pinned by the action oracle below


def _act_letters(alg, letters, x):
    out = x
    for letter in reversed(letters):
        out = alg.act(letter, out)
    return out


def _act_sum(alg, s, x):
    total = alg.zero()
    for word, coeff in s.terms.items():
        letters = st.word_to_letters(s.p, word)
        total = total + _act_letters(alg, letters, x).scale(coeff)
    return total


@pytest.fixture(scope="module")
def poly2():
    pres = FreeCommPresentation(
        2, [GeneratorSpec("t1", 1), GeneratorSpec("t2", 1)], {})
    return expand(pres, 10)


@pytest.fixture(scope="module")
def poly3():
    pres = FreeCommPresentation(
        3, [GeneratorSpec("y", 2), GeneratorSpec("z", 2)], {})
    return expand(pres, 16)


def test_adem_classical_values_p2(poly2):
    cases = {
        (("Sq", 1), ("Sq", 1)): {},
        (("Sq", 2), ("Sq", 2)): {(3, 1): 1},
        (("Sq", 1), ("Sq", 2)): {(3,): 1},
        (("Sq", 2), ("Sq", 3)): {(5,): 1, (4, 1): 1},
        (("Sq", 3), ("Sq", 2)): {},
        (("Sq", 1), ("Sq", 3)): {},
        (("Sq", 2), ("Sq", 4)): {(6,): 1, (5, 1): 1},
    }
    for letters, expected in cases.items():
        s = st.adem_reduce(2, list(letters))
        assert s.terms == expected, letters
        # action oracle: the rewriting acts like the raw composite
        for d in range(0, poly2.bound - st.word_degree(2, tuple(
                i for _, i in letters)) + 1):
            for i in range(poly2.dim(d)):
                x = poly2.element(d, i)
                assert _act_letters(poly2, list(letters), x) == \
                    _act_sum(poly2, s, x)


def test_adem_exhaustive_inadmissible_pairs_p2(poly2):
    for b in range(1, 8):
        for a in range(1, 2 * b):
            s = st.adem_reduce(2, [("Sq", a), ("Sq", b)])
            for w in s.terms:
                assert st.is_admissible(2, w)
            for d in range(0, poly2.bound - a - b + 1):
                for i in range(poly2.dim(d)):
                    x = poly2.element(d, i)
                    assert _act_letters(poly2, [("Sq", a), ("Sq", b)], x) \
                        == _act_sum(poly2, s, x), (a, b, d, i)


def test_adem_exhaustive_small_products_p3(poly3):
    """All length-2 composites of {beta, P1, P2} at p=3 act like their
    admissible rewriting on F3[y2, z2] — coefficients and signs included."""
    singles = [("B",), ("P", 1), ("P", 2)]
    for l1, l2 in itertools.product(singles, repeat=2):
        letters = [l1, l2]
        shift = sum(1 if l[0] == "B" else 2 * l[1] * 2 for l in letters)
        s = st.adem_reduce(3, letters)
        for w in s.terms:
            assert st.is_admissible(3, w)
        for d in range(0, poly3.bound - shift + 1):
            for i in range(poly3.dim(d)):
                x = poly3.element(d, i)
                assert _act_letters(poly3, letters, x) == \
                    _act_sum(poly3, s, x), (letters, d, i)


def test_adem_reduce_rejects_bad_letters():
    with pytest.raises(InputError):
        st.adem_reduce(2, [("P", 1)])
    with pytest.raises(InputError):
        st.adem_reduce(3, [("Sq", 2)])


@pytest.mark.parametrize("index", [True, False, 1.0, 0, -1], ids=repr)
@pytest.mark.parametrize("p", [2, 3])
def test_adem_reduce_refuses_an_index_that_is_no_positive_int(p, index):
    """As letters and as a raw word, after the int letter has been reduced
    (and cached), so 1.0 or True cannot read Sq^1's or P^1's entry."""
    tag, word = ("Sq", (index,)) if p == 2 else ("P", (0, index, 0))
    assert not st.adem_reduce(p, [(tag, 1)]).is_zero()
    for given in ([(tag, index)], [(tag, 1), (tag, index)], word):
        with pytest.raises(InputError, match="operation"):
            st.adem_reduce(p, given)


def test_adem_reduce_refuses_a_flag_that_is_no_int():
    with pytest.raises(InputError, match="flags"):
        st.adem_reduce(3, (True, 1, 0))


def test_beta_squared_is_zero():
    assert st.adem_reduce(3, [("B",), ("B",)]).is_zero()


def test_p1_p1_at_p3():
    # P^1 P^1 = 2 P^2 at p = 3: pinned by the action oracle above; freeze it
    s = st.adem_reduce(3, [("P", 1), ("P", 1)])
    assert s.terms == {(0, 2, 0): 2}


def _b_zp_squared(p: int, bound: int):
    """H*(B(Z/p)^2): F_2[t1, t2] with |t_i| = 1 at p = 2, and at odd p
    E(x1, x2) (x) F_p[y1, y2] with beta x_i = y_i and beta y_i = 0."""
    if p == 2:
        alg = expand(FreeCommPresentation(
            2, [GeneratorSpec("t1", 1), GeneratorSpec("t2", 1)]), bound)
    else:
        gens = [GeneratorSpec("x1", 1, "exterior", (1, "y1")),
                GeneratorSpec("x2", 1, "exterior", (1, "y2")),
                GeneratorSpec("y1", 2), GeneratorSpec("y2", 2)]
        alg = expand(FreeCommPresentation(
            p, gens, {("y1", "beta"): "0", ("y2", "beta"): "0"}), bound)
    assert alg.action_complete
    return alg


@pytest.mark.parametrize("p,bound,top", [(2, 12, 8), (3, 22, 4), (5, 30, 3)])
def test_random_composites_act_like_their_adem_reduction(p, bound, top):
    """A random composite of Sq^i (resp. beta and P^i) acts on every basis
    element of H*(B(Z/p)^2) in range as its admissible rewriting does."""
    alg = _b_zp_squared(p, bound)
    if p == 2:
        letter = hs.builds(lambda i: ("Sq", i), hs.integers(1, top))
    else:
        letter = hs.one_of(hs.just(("B",)),
                           hs.builds(lambda i: ("P", i), hs.integers(1, top)))

    @settings(derandomize=True, database=None, max_examples=40,
              deadline=None)
    @given(hs.lists(letter, min_size=2, max_size=4))
    def check(letters):
        shift = sum(op_degree(p, op) for op in letters)
        assume(shift < bound)
        s = st.adem_reduce(p, letters)
        for d in range(bound - shift + 1):
            for i in range(alg.dim(d)):
                x = alg.element(d, i)
                assert _act_letters(alg, letters, x) == _act_sum(alg, s, x), \
                    (letters, d, i)

    check()


# ---------------------------------------------------------------------------
# parsing and formatting: round trip


def test_parse_word_expr_p2():
    assert st.parse_word_expr(2, "Sq[2]Sq[2]") == [("Sq", 2), ("Sq", 2)]
    assert st.parse_word_expr(2, "Sq[4,2,1]") == \
        [("Sq", 4), ("Sq", 2), ("Sq", 1)]
    assert st.parse_word_expr(2, "1") == []


def test_parse_word_expr_odd():
    assert st.parse_word_expr(3, "bP[1;2,1]") == [("B",), ("P", 2), ("B",)]
    assert st.parse_word_expr(3, "bP[0;1,0]") == [("P", 1)]
    assert st.parse_word_expr(3, "bP[0;2,0]bP[0;1,0]") == \
        [("P", 2), ("P", 1)]


def test_parse_errors_have_offsets():
    with pytest.raises(DSLSyntaxError) as err:
        st.parse_word_expr(2, "Sq[2]xx")
    assert err.value.exit_code == 2
    with pytest.raises(DSLSyntaxError):
        st.parse_word_expr(2, "bP[0;1,0]")
    with pytest.raises(DSLSyntaxError):
        st.parse_word_expr(3, "Sq[2]")
    with pytest.raises(DSLSyntaxError):
        st.parse_word_expr(3, "bP[2;1,0]")


def test_word_format_round_trip():
    for w in st.admissible_words(2, 10):
        if w == ():
            continue
        text = st.format_word(2, w)
        letters = st.parse_word_expr(2, text)
        assert st.letters_to_word(2, letters) == w
    for w in st.admissible_words(3, 14):
        if w == (0,):
            continue
        text = st.format_word(3, w)
        letters = st.parse_word_expr(3, text)
        assert st.letters_to_word(3, letters) == w



def _raw_word(p):
    """Any word of the right shape, admissible or not: at odd p every
    Bockstein flag is drawn freely."""
    if p == 2:
        return hs.lists(hs.integers(1, 64), max_size=6).map(tuple)
    pairs = hs.lists(hs.tuples(hs.integers(1, 64), hs.integers(0, 1)),
                     max_size=5)
    return hs.tuples(hs.integers(0, 1), pairs).map(
        lambda t: (t[0],) + tuple(x for pair in t[1] for x in pair))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_word_dsl_round_trip_property(p):
    """Formatting a word and parsing the text back gives the same word."""

    @settings(derandomize=True, database=None, max_examples=300)
    @given(hs.one_of(_admissible_word(p), _raw_word(p)))
    def check(w):
        text = st.format_word(p, w)
        assert st.letters_to_word(p, st.parse_word_expr(p, text)) == w, text

    check()

def test_format_word_examples():
    assert st.format_word(2, (3, 1)) == "Sq[3,1]"
    assert st.format_word(2, ()) == "1"
    assert st.format_word(3, (1, 2, 0)) == "bP[1;2,0]"
    assert st.format_word_compact(2, (4, 2)) == "Sq4Sq2"
    assert st.format_word_compact(3, (1, 1, 0)) == "bP1"


def test_binom_mod_lucas_against_direct():
    from math import comb
    for p in (2, 3, 5):
        for n in range(0, 40):
            for k in range(0, n + 1):
                assert st.binom_mod(n, k, p) == comb(n, k) % p, (p, n, k)


def test_check_prime():
    with pytest.raises(InputError):
        st.check_prime(4)
    with pytest.raises(InputError):
        st.check_prime(1)
    assert st.check_prime(13) == 13
    assert st.check_prime(9973) == 9973  # the largest prime below 10^4


@pytest.mark.parametrize("p", [2 ** 61 - 1, 10007, 10 ** 4, 3.0, True, "3",
                               None], ids=repr)
def test_check_prime_refuses_before_it_divides(p, monkeypatch):
    """A prime of 10^4 or more (2^61 - 1 would take about 7.6e8 trial
    divisions), a float, a bool or a string is refused at once: is_prime
    is never called."""
    def divides(n):
        raise AssertionError("is_prime called")

    monkeypatch.setattr(st, "is_prime", divides)
    with pytest.raises(InputError, match="p must be a prime"):
        st.check_prime(p)
