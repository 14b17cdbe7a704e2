"""Eilenberg-MacLane cohomology presentations.

The p = 2 generator enumerations are cross-checked against an in-test oracle
that builds admissible square-words directly and filters by the classical
excess rule, sharing no code with the library's atom/resolution machinery.
Odd-prime expectations are the classical hand computations for small spaces.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as hs

from pnoether import (
    CyclicClass,
    EMProduct,
    EMSpec,
    InputError,
    IntegerClass,
    PadicClass,
    PruferClass,
    em_product_presentation,
    expand,
    fiber_layout,
    parse_space,
)
from pnoether import em, serre, steenrod
from pnoether.catalog import get_entry
from pnoether.cli import main
from pnoether.graded import FreeCommPresentation, GeneratorSpec, op_degree


# ---------------------------------------------------------------------------
# oracle: admissible square-words, built by prepending letters


def p2_admissible(limit):
    """Every admissible word over the squares with total degree <= limit."""
    out = [()]

    def grow(word):
        out.append(word)
        for a in range(2 * word[0], limit - sum(word) + 1):
            grow((a,) + word)

    for s in range(1, limit + 1):
        grow((s,))
    return out


def em_degrees_oracle_p2(n, r, bound):
    """Generator degrees of K(A, n) at p = 2 from the excess filter alone.

    r = 0 marks integral-type coefficients (no trailing Sq1 words), r >= 1
    the cyclic order exponent; r >= 2 adds a second family on the companion
    class one degree up, again without trailing Sq1.
    """

    def family(m, drop_trailing_sq1):
        degs = []
        for w in p2_admissible(max(bound - m, 0)):
            if w and 2 * w[0] - sum(w) >= m:
                continue  # excess at or above the class degree: p-th powers
            if drop_trailing_sq1 and w and w[-1] == 1:
                continue
            degs.append(m + sum(w))
        return degs

    if r == 0:
        degs = family(n, True)
    elif r == 1:
        degs = family(n, False)
    else:
        degs = family(n, True) + family(n + 1, True)
    return sorted(d for d in degs if d <= bound)


@pytest.mark.parametrize("coeff,r,n,bound", [
    (IntegerClass(), 0, 2, 16),
    (IntegerClass(), 0, 3, 20),
    (IntegerClass(), 0, 4, 14),
    (CyclicClass(1), 1, 1, 10),
    (CyclicClass(1), 1, 2, 12),
    (CyclicClass(1), 1, 3, 12),
    (CyclicClass(2), 2, 2, 12),
    (CyclicClass(3), 3, 1, 10),
])
def test_generator_degrees_match_oracle_p2(coeff, r, n, bound):
    pres = em_product_presentation(EMSpec(coeff, n), 2, bound)
    assert sorted(g.degree for g in pres.generators) == \
        em_degrees_oracle_p2(n, r, bound)


def test_classical_small_spaces_p2():
    # the projective-space classics; the enumeration is excess-bounded, so
    # degree 10_000 builds one word, not every admissible word up to it
    for bound in (10, 10_000):
        pres = em_product_presentation(EMSpec(CyclicClass(1), 1), 2, bound)
        assert [(g.name, g.degree) for g in pres.generators] == [("i1", 1)]
    pres = em_product_presentation(EMSpec(IntegerClass(), 2), 2, 16)
    assert [(g.name, g.degree) for g in pres.generators] == [("i2", 2)]
    # one degree up the words fan out
    gens = em_product_presentation(EMSpec(CyclicClass(1), 2), 2, 12).generators
    assert [(g.name, g.degree) for g in gens] == \
        [("i2", 2), ("Sq1i2", 3), ("Sq2Sq1i2", 5), ("Sq4Sq2Sq1i2", 9)]
    gens3 = em_product_presentation(EMSpec(IntegerClass(), 3), 2,
                                    20).generators
    assert [(g.name, g.degree) for g in gens3] == \
        [("i3", 3), ("Sq2i3", 5), ("Sq4Sq2i3", 9), ("Sq8Sq4Sq2i3", 17)]
    assert all(g.kind == "polynomial" for g in gens3)


def test_classical_k_z_3_odd_p():
    gens = em_product_presentation(EMSpec(IntegerClass(), 3), 3, 20).generators
    assert [(g.name, g.degree, g.kind) for g in gens] == [
        ("i3", 3, "exterior"),
        ("P1i3", 7, "exterior"),
        ("bP1i3", 8, "polynomial"),
        ("P3P1i3", 19, "exterior"),
        ("bP3P1i3", 20, "polynomial"),
    ]


def test_prufer_coefficients_shift_the_degree():
    # K(Zpinf, 2) carries the cohomology of K(Z, 3)
    shifted = em_product_presentation(EMSpec(PruferClass(), 2), 2, 20)
    integral = em_product_presentation(EMSpec(IntegerClass(), 3), 2, 20)
    assert [(g.name, g.degree) for g in shifted.generators] == \
        [(g.name, g.degree) for g in integral.generators]


def test_padic_coefficients_match_integral():
    for n, bound in ((2, 12), (3, 18)):
        a = em_product_presentation(EMSpec(PadicClass(), n), 2, bound)
        b = em_product_presentation(EMSpec(IntegerClass(), n), 2, bound)
        assert [(g.name, g.degree) for g in a.generators] == \
            [(g.name, g.degree) for g in b.generators]


def test_action_table_is_complete_and_classical():
    pres = em_product_presentation(EMSpec(IntegerClass(), 3), 2, 12)
    alg = expand(pres, 12)
    assert alg.action_complete
    i3 = alg.generator_element("i3")
    sq2i3 = alg.generator_element("Sq2i3")
    assert alg.act(("Sq", 1), i3).is_zero     # integral class: Sq1 dies
    assert alg.act(("Sq", 2), i3) == sq2i3
    assert alg.act(("Sq", 1), sq2i3) == i3 * i3   # Sq1Sq2 = Sq3 = top square
    assert alg.act(("Sq", 3), sq2i3).is_zero      # Sq3Sq2 = 0
    assert alg.act(("Sq", 4), sq2i3) == alg.generator_element("Sq4Sq2i3")
    assert alg.act(("Sq", 5), sq2i3) == sq2i3 * sq2i3


def test_first_bockstein_depends_on_coefficient_order():
    small = em_product_presentation(EMSpec(CyclicClass(1), 2), 2, 8)
    big = em_product_presentation(EMSpec(CyclicClass(2), 2), 2, 8)
    assert [(g.name, g.degree) for g in small.generators] == \
        [(g.name, g.degree) for g in big.generators]
    alg_small = expand(small, 8)
    alg_big = expand(big, 8)
    assert alg_small.action_complete and alg_big.action_complete
    assert alg_small.act(("Sq", 1), alg_small.generator_element("i2")) == \
        alg_small.generator_element("Sq1i2")
    assert alg_big.act(("Sq", 1), alg_big.generator_element("i2")).is_zero
    # the order-p^2 fundamental class still records its companion as metadata
    i2_spec = next(g for g in big.generators if g.name == "i2")
    assert i2_spec.bockstein_link == (2, "Sq1i2")
    assert next(g for g in small.generators
                if g.name == "i2").bockstein_link is None


def test_higher_bockstein_link_odd_p():
    pres = em_product_presentation(EMSpec(CyclicClass(2), 2), 3, 8)
    i2 = next(g for g in pres.generators if g.name == "i2")
    assert i2.bockstein_link == (2, "bi2")
    companion = next(g for g in pres.generators if g.name == "bi2")
    assert companion.degree == 3 and companion.kind == "exterior"
    alg = expand(pres, 8)
    assert alg.act(("B",), alg.generator_element("i2")).is_zero


def test_series_of_em_presentation():
    pres = em_product_presentation(EMSpec(CyclicClass(1), 2), 2, 12)
    got = expand(pres, 12).dims()
    oracle = expand(FreeCommPresentation(
        2, [GeneratorSpec(f"g{d}", d) for d in (2, 3, 5, 9)]), 12).dims()
    assert got == oracle


@pytest.mark.parametrize("text", ["K(Z/4,1)", "K(Z/8,1)"])
def test_k_z_mod_2_power_1_has_one_class_in_every_degree(text):
    """H*(BZ/2^r; F_2) = E(x1) ⊗ F_2[y2] for r >= 2: the degree-1 class
    lifts mod 4, so Sq1 x1 = 0 and, by instability, x1² = 0."""
    pres = em_product_presentation(parse_space(text, 2), 2, 60)
    assert [(g.name, g.kind) for g in pres.generators] == \
        [("i1", "exterior"), ("Sq1i1", "polynomial")]
    assert expand(pres, 60).dims() == [1] * 61


@pytest.mark.parametrize("p,bound", [(2, 40), (3, 60)])
@pytest.mark.parametrize("coeff", [IntegerClass(), CyclicClass(1),
                                   CyclicClass(2), CyclicClass(3)])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_generator_takes_its_top_operation_to_its_power(n, coeff, p,
                                                              bound):
    """Sq^{|g|} g = g² at p = 2 and P^{|g|/2} g = g^p at p = 3 (an exterior
    generator squares to zero), for every generator g of the table."""
    pres = em_product_presentation(EMSpec(coeff, n), p, bound)
    checked = 0
    for k, g in enumerate(pres.generators):
        op = ("Sq", g.degree) if p == 2 else ("P", g.degree // 2)
        if p * g.degree > bound or (p != 2 and g.degree % 2):
            continue
        power = {} if g.kind == "exterior" else \
            {tuple(p if j == k else 0 for j in range(len(pres.generators))): 1}
        assert pres.action[(g.name, op)] == power, (g.name, op)
        checked += 1
    assert checked or (p, n, coeff) == (3, 1, IntegerClass())  # i1 alone


# ---------------------------------------------------------------------------
# products of factors


def test_product_prefixes_and_dims():
    product = parse_space("K(Z/2,1) * K(Z,2)", 2)
    assert isinstance(product, EMProduct)
    pres = em_product_presentation(product, 2, 8)
    assert [(g.name, g.degree) for g in pres.generators] == \
        [("f1_i1", 1), ("f2_i2", 2)]
    # a single factor keeps bare names
    single = em_product_presentation(EMProduct((EMSpec(CyclicClass(1), 1),)),
                                     2, 8)
    assert [g.name for g in single.generators] == ["i1"]
    # dims multiply: F2[a1] x F2[b2]
    left = expand(em_product_presentation(EMSpec(CyclicClass(1), 1), 2, 8), 8)
    right = expand(em_product_presentation(EMSpec(IntegerClass(), 2), 2, 8), 8)
    joint = expand(pres, 8)
    convolution = [sum(left.dim(i) * right.dim(d - i) for i in range(d + 1))
                   for d in range(9)]
    assert joint.dims() == convolution


def test_product_action_stays_within_factor():
    pres = em_product_presentation(
        parse_space("K(Z/2,2) x K(Z/2,2)", 2), 2, 8)
    alg = expand(pres, 8)
    assert alg.action_complete
    a = alg.act(("Sq", 1), alg.generator_element("f1_i2"))
    assert a == alg.generator_element("f1_Sq1i2")


def test_fiber_layout_metadata():
    layout = fiber_layout(parse_space("K(Z/4,2)", 2), 2, 9)
    assert layout.bottoms == {"i2": 2}
    assert [(g.name, g.degree, g.kind) for g in layout.generators] == \
        [(g.name, g.degree, g.kind) for g in layout.presentation.generators]
    assert {g.bottom for g in layout.generators} == {"i2"}
    names = [g.name for g in layout.generators]
    assert "i2" in names and "Sq1i2" in names
    # the fundamental class has a word; the classes on its companion do not
    on_bottom = [g for g in layout.generators if g.word is not None]
    assert [(g.name, g.word) for g in on_bottom] == \
        [("i2", steenrod.identity_word(2))]
    simple = fiber_layout(EMSpec(CyclicClass(1), 2), 2, 9)
    assert all(g.word is not None for g in simple.generators)
    assert simple.presentation.generators  # passthrough to a presentation
    product = fiber_layout(parse_space("K(Z,3) x K(Z/2,2)", 2), 2, 9)
    assert product.bottoms == {"f1_i3": 3, "f2_i2": 2}
    assert {g.name: g.bottom for g in product.generators
            if g.name in ("f1_Sq2i3", "f2_Sq2Sq1i2")} == \
        {"f1_Sq2i3": "f1_i3", "f2_Sq2Sq1i2": "f2_i2"}


# ---------------------------------------------------------------------------
# parsing


def test_parse_space_forms():
    assert parse_space("K(Z,3)", 2) == EMSpec(IntegerClass(), 3)
    assert parse_space("K(Z/8,1)", 2) == EMSpec(CyclicClass(3), 1)
    assert parse_space("K(Z/2^3,1)", 2) == EMSpec(CyclicClass(3), 1)
    assert parse_space("K(Z/9,2)", 3) == EMSpec(CyclicClass(2), 2)
    assert parse_space("K(Zpinf,2)", 5) == EMSpec(PruferClass(), 2)
    assert parse_space("K(Z/pinf,2)", 5) == EMSpec(PruferClass(), 2)
    for text in ("Zp", "Z_p", "Z^p"):
        assert parse_space(f"K({text},4)", 3) == EMSpec(PadicClass(), 4)
    prod = parse_space("K(Z/2,1) x K(Z,2) * K(Z/4,3)", 2)
    assert [spec.n for spec in prod.factors] == [1, 2, 3]
    # cyclic orders render symbolically in the prime
    assert str(prod) == "K(Z/p,1) x K(Z,2) x K(Z/p^2,3)"


def test_parse_space_rejects():
    with pytest.raises(InputError):
        parse_space("K(Z,0)", 2)          # degree must be >= 1
    with pytest.raises(InputError):
        parse_space("K(Z/6,2)", 2)        # 6 is not a power of 2
    with pytest.raises(InputError):
        parse_space("K(Z/3,1)", 2)        # wrong prime entirely
    with pytest.raises(InputError):
        parse_space("K(Q,2)", 2)
    with pytest.raises(InputError):
        parse_space("nothing here", 2)
    with pytest.raises(InputError):
        parse_space("K(Z,3) leftovers", 2)
    with pytest.raises(InputError):
        EMProduct(())


def test_bound_below_fundamental_degree():
    with pytest.raises(InputError):
        em_product_presentation(EMSpec(IntegerClass(), 3), 2, 2)
    # bound exactly at the fundamental degree: just the bottom class
    pres = em_product_presentation(EMSpec(IntegerClass(), 3), 2, 3)
    assert [(g.name, g.degree) for g in pres.generators] == [("i3", 3)]


# ---------------------------------------------------------------------------
# the em verb's generator table


def _fields(pres):
    return [{"name": g.name, "degree": g.degree, "kind": g.kind,
             "bockstein_partner": g.bockstein_link[1] if g.bockstein_link
             else None}
            for g in pres.generators]


@pytest.mark.parametrize("p,bound", [(2, 40), (3, 60), (5, 90)])
@pytest.mark.parametrize("text", [
    "K(Z,3)", "K(Z/{p},2)", "K(Z/{p}^2,2)", "K(Z/{p}^3,1)", "K(Zpinf,2)",
    "K(Zp,4)", "K(Z/{p},1) * K(Z,3) * K(Z/{p}^2,2)",
])
def test_generator_table_matches_the_presentation(text, p, bound):
    """The em verb's table lists the presentation's generators in order."""
    space = parse_space(text.format(p=p), p)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["em", "--space", text.format(p=p), "--p", str(p),
                     "--max-degree", str(bound)]) == 0
    table = json.loads(out.getvalue())["payload"]
    pres = em_product_presentation(space, p, bound)
    assert table["generators"] == _fields(pres)
    assert table["count"] == len(pres.generators)
    for kind in ("polynomial", "exterior"):
        assert table[f"{kind}_degrees"] == sorted(
            g.degree for g in pres.generators if g.kind == kind)


def test_generator_table_keeps_the_input_checks():
    with pytest.raises(InputError):
        em_product_presentation(EMSpec(IntegerClass(), 3), 2, 2)
    with pytest.raises(InputError):
        em_product_presentation(EMSpec(IntegerClass(), 3), 4, 10)


# ---------------------------------------------------------------------------
# the action table is filled on demand


def test_a_cover_reads_a_few_entries_of_the_fiber_table(monkeypatch):
    """The table Adem-reduces an entry only when it is read: expanding the
    fiber, and reading its gaps, reduces nothing.  The cover reads no
    entry of the table's 102; it makes one Adem reduction per display
    word it tries, a few in all."""
    calls = []
    reduce_word = steenrod.reduce_word

    def counted(*args):
        calls.append(args)
        return reduce_word(*args)

    monkeypatch.setattr(steenrod, "reduce_word", counted)
    pres = fiber_layout(EMSpec(IntegerClass(), 3), 2, 100).presentation
    alg = expand(pres, 100)
    assert alg.action_complete and not calls
    entries = len(pres.action)
    assert entries == 102
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["cover", "--catalog", "BS3", "--p", "2",
                     "--max-degree", "100"]) == 0
    assert 0 < len(calls) <= entries // 4


@pytest.mark.parametrize("read", ["gaps", "action_complete", "act"])
def test_an_expanded_fiber_lists_its_action_keys_when_its_gaps_are_read(read):
    """Expanding lists no key of the lazy action table; neither do the
    series, a basis or a product.  The keys are listed once, the first
    time the gaps, ``action_complete`` or an operation on a product reads
    them."""
    pres = fiber_layout(EMSpec(IntegerClass(), 3), 2, 40).presentation
    listings = []
    list_keys = pres.action._list_keys

    def counted():
        listings.append(None)
        return list_keys()

    pres.action._list_keys = counted
    alg = expand(pres, 40)
    x = alg.generator_element(alg.generators[0].name)
    alg.dims(), alg.basis(12), x * x
    assert listings == []
    if read == "act":
        alg.act(("Sq", 1), x * x)
    else:
        getattr(alg, read)
    assert alg.action_complete and alg.gaps == []
    assert len(listings) == 1


def test_the_em_verb_lists_no_action_entry(monkeypatch):
    """The em verb prints generators only: its action table never lists
    its keys, which it does on first use."""
    calls = []
    ops_on_degree = em.ops_on_degree

    def counted(*args):
        calls.append(args)
        return ops_on_degree(*args)

    monkeypatch.setattr(em, "ops_on_degree", counted)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["em", "--space", "K(Z,3)", "--max-degree", "100"]) == 0
    assert json.loads(out.getvalue())["payload"]["count"] > 0
    assert calls == []
    pres = em_product_presentation(EMSpec(IntegerClass(), 3), 2, 100)
    assert calls == []
    assert ("i3", ("Sq", 2)) in pres.action and len(pres.action) == 102
    assert calls


def test_a_cover_and_its_total_list_no_action_entry_and_expand_no_fiber(
        monkeypatch):
    """cover composes its display words on the fiber generator, and
    ``total`` composes each survivor's values the same way: neither lists
    a key of the fiber's action table nor expands a fiber algebra, while
    the total's table holds nonzero survivor values."""
    listed, fibers = [], []
    ops_on_degree, expand_ = em.ops_on_degree, serre.expand
    monkeypatch.setattr(em, "ops_on_degree",
                        lambda *args: listed.append(args) or
                        ops_on_degree(*args))
    monkeypatch.setattr(serre, "expand",
                        lambda pres, bound: fibers.append(pres.index)
                        or expand_(pres, bound))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["cover", "--catalog", "BS3", "--p", "2",
                     "--max-degree", "100"]) == 0
    assert "Sq[" in out.getvalue()
    res = serre.connected_cover_cohomology(get_entry("BS3"), 2, 100)
    names = {s.name for s in res.surviving_fiber_generators}
    assert any(value for (name, _op), value
               in res.total.free.presentation.action.items() if name in names)
    assert fibers and listed == []
    assert not any("i3" in index for index in fibers)


@pytest.mark.parametrize("text,p,bound", [
    ("K(Z,3)", 2, 40), ("K(Z,3)", 3, 60), ("K(Z/2,1)", 2, 24),
])
def test_entries_read_in_any_order_are_the_entries_read_in_key_order(
        text, p, bound):
    def table():
        return fiber_layout(parse_space(text, p), p, bound).presentation.action

    in_order = table()
    expected = [(key, list(in_order[key].items())) for key in in_order]
    assert any(value for _key, value in expected)

    @settings(derandomize=True, database=None, max_examples=15,
              deadline=None)
    @given(hs.permutations(list(in_order)))
    def check(keys):
        shuffled = table()
        read = {key: list(shuffled[key].items()) for key in keys}
        assert [(key, read[key]) for key in shuffled] == expected

    check()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_composing_through_the_reducer_equals_adem_reduce(p):
    """_compose reduces the composite through steenrod.reduce_word, with no
    input check and no SteenrodSum; on random letters before a random word
    of an integral, a cyclic and a higher-Bockstein table, its value is
    the checked adem_reduce of the same letters resolved term by term."""
    bound = 40 if p == 2 else 100
    enums = [em._Enumeration(EMSpec(cls, 3), p, bound)
             for cls in (IntegerClass(), CyclicClass(1), CyclicClass(2))]
    ops = ([("Sq", i) for i in range(1, 7)] if p == 2 else
           [("B",)] + [("P", s) for s in range(1, 4)])

    @settings(derandomize=True, database=None, max_examples=150)
    @given(hs.data())
    def check(data):
        enum = data.draw(hs.sampled_from(enums))
        degree, _name, atom, word = data.draw(hs.sampled_from(enum.entries))
        letters = data.draw(hs.lists(hs.sampled_from(ops), max_size=3))
        top = degree + sum(op_degree(p, op) for op in letters)
        if top > bound:
            return
        got = enum._compose(list(letters), atom, word)
        want: dict = {}
        total = steenrod.adem_reduce(
            p, list(letters) + steenrod.word_to_letters(p, word))
        for w2, coeff in total.terms.items():
            for mono, c in enum.resolve(atom, w2).items():
                want[mono] = (want.get(mono, 0) + coeff * c) % p
        assert got == {m: c for m, c in want.items() if c}

    check()


def test_a_wrong_degree_entry_raises_when_it_is_read(monkeypatch):
    """An entry's degree is checked as it is computed: construction and
    expansion read nothing, reading the entry raises."""
    def wrong(enum, op, atom, word):
        return {(1,) + (0,) * (enum.size - 1): 1}  # the bottom class

    monkeypatch.setattr(em._Enumeration, "_compose", wrong)
    pres = fiber_layout(EMSpec(IntegerClass(), 3), 2, 20).presentation
    alg = expand(pres, 20)
    assert alg.action_complete
    with pytest.raises(InputError, match="expected 5"):
        pres.action[("i3", ("Sq", 2))]
    with pytest.raises(InputError):
        alg.act(("Sq", 2), alg.generator_element("i3"))
