"""The transgressive spectral-sequence engine.

Expected total cohomologies are classical loop-space/connected-cover
computations; every series is additionally checked against the engine's own
Euler ledger (the step-by-step series must telescope from the product of
base and fiber down to the reported total, so bookkeeping errors cannot
hide), and survivor algebras are compared with free-algebra series built by
an independent product formula.
"""

import contextlib
import io
import itertools
import json
import math
import random
import re

import pytest

from pnoether import (
    EMSpec,
    FibrationSpec,
    FreeCommPresentation,
    GeneratorSpec,
    InputError,
    IntegerClass,
    CyclicClass,
    connected_cover_cohomology,
    em_product_presentation,
    expand,
    indecomposables,
    parse_space,
    run_ss,
)
from pnoether.errors import (EngineContractError, MissingDataError,
                             TruncationError, UnsupportedFibrationError)
from pnoether.graded import op_degree, ops_on_degree
from pnoether.linalg import solve
from pnoether import graded, serre, steenrod
from pnoether.catalog import get_entry, load_catalog
from pnoether.cli import main
from pnoether.em import EMProduct
from pnoether.serre import (Survivor, _Engine, annihilator_profile,
                            default_bound)
from quotient_oracle import SpanQuotient, non_pivot_columns


def convolve(a, b, bound):
    out = [0] * (bound + 1)
    for i, x in enumerate(a[: bound + 1]):
        for j, y in enumerate(b[: bound + 1 - i]):
            out[i + j] += x * y
    return out


def assert_euler_ledger_telescopes(result, spec):
    """The logged series must start at base x fiber, chain exactly, and end
    at the reported total."""
    base_dims = expand(spec.base, result.bound).dims()
    fiber_dims = expand(spec.fiber_pres, result.bound).dims()
    assert result.log, "engine must log at least one event"
    assert result.log[0]["series_before"] == \
        convolve(base_dims, fiber_dims, result.bound)
    for first, second in zip(result.log, result.log[1:]):
        assert first["series_after"] == second["series_before"]
    assert result.log[-1]["series_after"] == result.total.dims()[
        : result.bound + 1]


# ---------------------------------------------------------------------------
# loop space of the 3-sphere's 3-connected cover


@pytest.mark.parametrize("p,bound,poly_deg,comp_deg,ones", [
    (2, 10, 4, 5, ()),
    (3, 14, 6, 7, ()),
    (5, 21, 10, 11, ()),
])
def test_s3_cover_all_primes(p, bound, poly_deg, comp_deg, ones):
    res = connected_cover_cohomology(get_entry("S3"), p, bound)
    assert res.flags["quotient_trivial"]
    assert res.killed_base_ideal == ["x3"]
    z, y = res.surviving_fiber_generators
    assert (z.name, z.degree, z.kind, z.is_companion) == \
        (f"z{poly_deg}", poly_deg, "polynomial", False)
    assert z.origin == f"i2^{p}"
    assert z.display == "z"
    assert z.bockstein_link == (1, f"y{comp_deg}")
    assert (y.name, y.degree, y.kind, y.is_companion) == \
        (f"y{comp_deg}", comp_deg, "exterior", True)
    assert y.origin == f"i2^{p - 1}*[x3]"
    # total = F_p[z] (x) E(y): ones exactly at the grid degrees
    expected = [0] * (bound + 1)
    d = 0
    while d <= bound:
        expected[d] = 1
        if d + comp_deg <= bound:
            expected[d + comp_deg] = 1
        d += poly_deg
    assert res.series == expected
    assert_euler_ledger_telescopes(res, ledger_spec("S3", p, bound))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_s3_cover_is_serres_closed_form(p):
    """Serre (1953): H*(S³⟨3⟩; F_p) = F_p[x_2p] ⊗ E(x_2p+1) at odd p, and
    F_2[x_4] ⊗ E(x_5) at p = 2, here through degree 6p + 3."""
    bound = 6 * p + 3
    poly_deg = 4 if p == 2 else 2 * p
    res = connected_cover_cohomology(get_entry("S3"), p, bound)
    expected = [0] * (bound + 1)
    for d in range(0, bound + 1, poly_deg):
        for extra in (0, poly_deg + 1):
            if d + extra <= bound:
                expected[d + extra] += 1
    assert res.series == expected
    assert [(s.degree, s.kind) for s in res.surviving_fiber_generators] == \
        [(poly_deg, "polynomial"), (poly_deg + 1, "exterior")]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_the_primary_bockstein_carries_the_s3_cover_bottom_class_to_the_top(p):
    """H^{2p+1}(S³⟨3⟩; Z) = Z/p (Serre; Z/2 in degree 5 at p = 2), so the
    primary Bockstein, Sq¹ at p = 2, carries the polynomial survivor onto
    the companion one degree up: the total reads the engine's link.  So
    β(x·y) = y² ± x·βy = 0, answered although at p = 2 and 3 the companion
    has gaps (Sq³y5 and Sq⁴y5; P³y7), since no term of it reads them."""
    res = connected_cover_cohomology(get_entry("S3"), p, 6 * p + 3)
    z, y = res.surviving_fiber_generators
    beta = ("Sq", 1) if p == 2 else ("B",)
    total, x = res.total, res.survivor_element(z.name)
    assert total.act(beta, x) == res.survivor_element(y.name)
    assert total.act(beta, res.survivor_element(y.name)).is_zero
    assert {gap["generator"] for gap in total.free.gaps} == \
        ({y.name} if p < 5 else set())
    assert total.act(beta, x * res.survivor_element(y.name)).is_zero


def test_s3_cover_p2_series_frozen():
    res = connected_cover_cohomology(get_entry("S3"), 2, 10)
    assert res.series == [1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0]


def test_s3_cover_log_events():
    res = connected_cover_cohomology(get_entry("S3"), 2, 10)
    events = [(entry["event"], entry["class"]) for entry in res.log]
    assert events[0] == ("transgression", "i2")
    assert ("survivor", "i2^2") in events
    kill = res.log[0]
    assert kill["target"] == "x3"
    assert kill["degree"] == 2


# ---------------------------------------------------------------------------
# a contractible total space: the path fibration cancels everything


@pytest.mark.parametrize("p", [2, 3, 5])
def test_path_fibration_cancels(p):
    base = em_product_presentation(EMSpec(CyclicClass(1), 2), p, 13)
    spec = FibrationSpec(p, base, EMSpec(CyclicClass(1), 1),
                         {"i1": "i2"}, bound=12)
    res = run_ss(spec)
    assert res.series == [1] + [0] * 12
    assert res.surviving_fiber_generators == []
    assert res.flags["quotient_trivial"]
    assert_euler_ledger_telescopes(res, spec)


# ---------------------------------------------------------------------------
# zero transgression: the sequence collapses to base (x) fiber


def test_zero_transgression_collapses():
    base = get_entry("BS3").presentation(2)
    spec = FibrationSpec(2, base, EMSpec(IntegerClass(), 3), None, bound=12)
    res = run_ss(spec)
    assert not res.flags["quotient_trivial"]
    assert res.killed_base_ideal == []
    assert [(s.name, s.origin, s.display)
            for s in res.surviving_fiber_generators] == [
        ("z3", "i3", "z"),
        ("z5", "Sq2i3", "Sq2 z"),
        ("z9", "Sq4Sq2i3", "Sq[4,2] z"),
    ]
    base_dims = expand(base, 12).dims()
    fiber_dims = expand(spec.fiber_pres, 12).dims()
    assert res.total.dims() == convolve(base_dims, fiber_dims, 12)
    assert_euler_ledger_telescopes(res, spec)


# ---------------------------------------------------------------------------
# the 3-connected cover of the quaternionic classifying space at p = 2


@pytest.fixture(scope="module")
def bs3_cover_p2():
    entry = get_entry("BS3")
    return connected_cover_cohomology(entry, 2, 17)


def test_bs3_cover_p2_survivors(bs3_cover_p2):
    res = bs3_cover_p2
    assert res.flags["quotient_trivial"]
    assert res.killed_base_ideal == ["y4"]
    assert [(s.name, s.degree, s.origin, s.display)
            for s in res.surviving_fiber_generators] == [
        ("z5", 5, "Sq2i3", "z"),
        ("z6", 6, "i3^2", "Sq1 z"),
        ("z9", 9, "Sq4Sq2i3", "Sq4 z"),
        ("z17", 17, "Sq8Sq4Sq2i3", "Sq[8,4] z"),
    ]
    assert all(s.kind == "polynomial" and not s.is_companion
               for s in res.surviving_fiber_generators)


def test_bs3_cover_p2_series(bs3_cover_p2):
    res = bs3_cover_p2
    frozen = [1, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 1, 0, 1, 2, 1, 2]
    assert res.series == frozen
    # and the total must be the polynomial algebra on the survivor degrees
    oracle = expand(FreeCommPresentation(
        2, [GeneratorSpec(f"g{d}", d) for d in (5, 6, 9, 17)]), 17).dims()
    assert res.series == oracle


def test_bs3_cover_p2_induced_action(bs3_cover_p2):
    alg = bs3_cover_p2.total
    z5, z6, z9, z17 = (bs3_cover_p2.survivor_element(name)
                       for name in ("z5", "z6", "z9", "z17"))
    assert alg.act(("Sq", 1), z5) == z6
    assert alg.act(("Sq", 2), z5).is_zero
    assert alg.act(("Sq", 4), z5) == z9
    assert alg.act(("Sq", 5), z5) == z5 * z5
    assert alg.act(("Sq", 1), z6).is_zero
    assert alg.act(("Sq", 6), z6) == z6 * z6
    assert alg.act(("Sq", 4), z9).is_zero
    assert alg.act(("Sq", 8), z9) == z17


def test_bs3_cover_p2_indecomposables(bs3_cover_p2):
    from pnoether import indecomposables
    table = indecomposables(bs3_cover_p2.total)
    assert table.nonzero_degrees() == [5, 6, 9, 17]
    assert [table.dims[d] for d in (5, 6, 9, 17)] == [1, 1, 1, 1]
    assert table.action_complete


def test_bs3_cover_p2_ledger_and_jsonable(bs3_cover_p2):
    res = bs3_cover_p2
    entry = get_entry("BS3")
    spec = FibrationSpec(2, entry.presentation(2), EMSpec(IntegerClass(), 3),
                         {"i3": "y4"}, bound=17)
    assert_euler_ledger_telescopes(res, spec)
    data = res.to_jsonable()
    assert data["p"] == 2 and data["bound"] == 17
    assert data["poincare"] == res.series
    assert data["surviving_fiber_generators"][0] == {
        "name": "z5", "degree": 5, "kind": "polynomial", "display": "z",
        "origin": "Sq2i3", "is_companion": False, "bockstein_link": None}
    assert data["killed_base_ideal"] == ["y4"]
    assert data["flags"]["finitely_generated"]
    elt = res.survivor_element("z5")
    assert elt.degree() == 5 and not elt.is_zero


def test_bs3_cover_requires_torsion_flag_at_p2(tmp_path):
    # X23 has a degree-4 class and no torsion-free flag
    with pytest.raises(InputError, match="torsion-free flag"):
        connected_cover_cohomology(get_entry("X23"), 2, 12)
    # no degree-4 or degree-3 class to transgress onto
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"entries": {"X6": {
        "torsion_free": True, "generators": [{"name": "x6", "degree": 6}]}}}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["cover", "--catalog", str(path), "--p", "2"])
    assert code == 2
    assert json.loads(out.getvalue())["error"]["message"] == (
        "catalog entry has neither a degree-4 polynomial generator "
        "(BG⟨4⟩ → BG) nor a degree-3 generator (G⟨3⟩ → G) to kill")


# ---------------------------------------------------------------------------
# the same cover at odd primes (catalog action data drives the engine)


def test_bs3_cover_p3():
    entry = get_entry("BS3")
    res = connected_cover_cohomology(entry, 3, 11)
    assert res.killed_base_ideal == ["y4"]
    assert [(s.name, s.degree, s.kind, s.origin, s.display)
            for s in res.surviving_fiber_generators] == [
        ("z7", 7, "exterior", "P1i3", "z"),
        ("z8", 8, "polynomial", "bP1i3", "b z"),
    ]
    assert res.series == [1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0]
    # the induced action connects them by the primary Bockstein
    assert res.total.act(("B",), res.survivor_element("z7")) == \
        res.survivor_element("z8")


def test_bs3_cover_p5():
    entry = get_entry("BS3")
    res = connected_cover_cohomology(entry, 5, 11)
    assert [(s.name, s.degree, s.kind) for s in
            res.surviving_fiber_generators] == [("z11", 11, "exterior")]
    assert res.series == [1] + [0] * 10 + [1]


def test_rank_two_cover_p3():
    entry = get_entry("X2b_4")
    res = connected_cover_cohomology(entry, 3, 19)
    assert res.flags["quotient_trivial"]
    assert res.killed_base_ideal == ["x4", "2*x8 + 2*x4^2"]
    assert [(s.name, s.degree, s.kind, s.origin, s.display)
            for s in res.surviving_fiber_generators] == [
        ("z8", 8, "polynomial", "bP1i3", "z"),
        ("z19", 19, "exterior", "P3P1i3", "P3P1i3"),
    ]
    frozen = [1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0,
              0, 0, 0, 0, 1, 0, 0, 1]
    assert res.series == frozen


@pytest.mark.parametrize("name,p,bound,displays", [
    ("BS3", 3, 40, ["z", "b z", "P3 z", "bP3 z"]),
    ("BS3", 3, 60, ["z", "b z", "P3 z", "bP3 z", "P9P3 z", "bP9P3 z"]),
    ("BS3", 5, 60, ["z", "b z", "P5 z", "bP5 z"]),
    ("BS3", 2, 40, ["z", "Sq1 z", "Sq4 z", "Sq[8,4] z", "Sq[16,8,4] z"]),
])
def test_display_words_follow_the_enumeration_order(name, p, bound, displays):
    """Each display names the first admissible word of its degree, in the
    order admissible_words lists them, that carries the anchor onto the
    survivor; with several such words (b P3 and P3 b at p = 3) the
    order decides."""
    entry = get_entry(name)
    res = connected_cover_cohomology(entry, p, bound)
    assert [s.display for s in res.surviving_fiber_generators
            if not s.is_companion] == displays


def cover_fiber_algebra(name, p, bound):
    """The fiber algebra of ledger_spec(name, p, bound) through the bound."""
    spec = ledger_spec(name, p, bound)
    return expand(spec.fiber_pres, spec.bound)


def unbounded_displays(res, fiber):
    """Every survivor display by the search without an excess bound: the
    first word of the gap's degree, in the order of the full
    admissible_words list, that carries the anchor's fiber class onto the
    survivor's, each class parsed from its origin in the fiber algebra."""
    p = res.p
    survivors = res.surviving_fiber_generators
    anchor = next((s for s in survivors if not s.is_companion), None)
    out = []
    for s in survivors:
        if s.is_companion or anchor is None:
            out.append(s.name)
            continue
        if s is anchor:
            out.append("z")
            continue
        gap = s.degree - anchor.degree
        source = fiber.element_from_poly(anchor.origin)
        word = next((w for w in steenrod.admissible_words(p, max(gap, 0))
                     if steenrod.word_degree(p, w) == gap
                     and fiber.act_word(w, source)
                     == fiber.element_from_poly(s.origin)), None)
        if word is None:
            out.append(s.origin)
        elif p != 2:
            out.append(steenrod.format_word_compact(p, word) + " z")
        elif len(word) == 1:
            out.append(f"Sq{word[0]} z")
        else:
            out.append("Sq[" + ",".join(map(str, word)) + "] z")
    return out


def display_spec(name, p, bound):
    """ledger_spec(name, p, bound), or one of three hand-made fibrations:
    the product fiber K(Z/2,1) x K(Z,3) over F_2[w2, y4]; and a power
    anchor at p = 2 (K(Z,3) over F_2[y4, y6], Sq2 y4 = y6) and at p = 3
    (K(Z,4) over E(x5, x9) ⊗ F_3[y10], P1 x5 = x9, β x9 = y10), where the
    lowest survivor is the p-th power of the bottom class."""
    gen = GeneratorSpec
    if name == "K(Z/2,1)xK(Z,3)":
        base = FreeCommPresentation(2, [gen("w2", 2), gen("y4", 4)],
                                    {("y4", "Sq2"): "0"})
        return FibrationSpec(2, base, parse_space("K(Z/2,1)*K(Z,3)", 2),
                             {"f1_i1": "w2", "f2_i3": "y4"}, bound)
    if name == "power" and p == 2:
        action = {("y4", "Sq2"): "y6", ("y6", "Sq4"): "y4*y6"}
        action.update({("y4", f"Sq{i}"): "0" for i in (1, 3)})
        action.update({("y6", f"Sq{i}"): "0" for i in (1, 2, 3, 5)})
        base = FreeCommPresentation(2, [gen("y4", 4), gen("y6", 6)], action)
        return FibrationSpec(2, base, EMSpec(IntegerClass(), 3),
                             {"i3": "y4"}, bound)
    if name == "power":
        base = FreeCommPresentation(
            p, [gen("x5", 5, "exterior"), gen("x9", 9, "exterior"),
                gen("y10", 10)],
            {("x5", "P1"): "x9", ("x9", "beta"): "y10", ("x9", "P4"): "0",
             ("y10", "P1"): "0"})
        return FibrationSpec(p, base, EMSpec(IntegerClass(), 4),
                             {"i4": "x5"}, bound)
    return ledger_spec(name, p, bound)


@pytest.mark.parametrize("name,p,bound", [
    ("BS3", 2, 100),
    ("BS3", 3, 150),
    ("BS3", 5, 150),
    ("X2b_4", 3, 122),
    ("S3", 2, 60),
    ("S3", 3, 80),
    *[("BSO(3)^2", 2, bound) for bound in range(10, 29)],
    ("K(Z/2,1)xK(Z,3)", 2, 40),
    ("power", 2, 40),
    ("power", 3, 40),
])
def test_excess_bounded_displays_match_the_unbounded_search(name, p, bound):
    """Words of reduced excess above the anchor's degree act as zero on it,
    so leaving them out of the search changes no display; nor does
    composing each word on the anchor's fiber generator, a p-th power
    anchor included, instead of acting letter by letter in the fiber."""
    spec = display_spec(name, p, bound)
    res = run_ss(spec)
    displays = [s.display for s in res.surviving_fiber_generators]
    assert len(displays) >= 2
    assert displays == unbounded_displays(res,
                                          expand(spec.fiber_pres, spec.bound))


def test_a_power_anchor_displays_the_words_it_carries():
    """The anchor i3² carries Sq4 onto (Sq2 i3)², and i4³ carries P3 onto
    (P1 i4)³: a power's display divides each letter's index by the power."""
    for p, word, origin in ((2, "Sq4 z", "Sq2i3^2"), (3, "P3 z", "P1i4^3")):
        res = run_ss(display_spec("power", p, 40))
        shown = {s.origin: s.display for s in res.surviving_fiber_generators}
        assert shown[origin] == word


def test_cover_display_words_cost_what_they_print(monkeypatch):
    """cover BS3 at p = 2 through degree 200 builds a few hundred
    admissible words (72,846 without the excess bound)."""
    built = []
    words = steenrod.admissible_words

    def counted(*args, **kwargs):
        out = words(*args, **kwargs)
        built.append(len(out))
        return out

    monkeypatch.setattr(steenrod, "admissible_words", counted)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["cover", "--catalog", "BS3", "--p", "2",
                     "--max-degree", "200"]) == 0
    assert "Sq[" in out.getvalue()
    assert 0 < sum(built) < 2000


def test_a_deep_cover_lists_the_fiber_degrees_it_reads(monkeypatch):
    """cover BS3 at p = 2 through degree 260, and through 700, names its
    survivors by composing words on the fiber generator, so it lists no
    degree of the fiber K(Z,3), whose basis through degree 260 alone has
    333,070 monomials."""
    listed = []
    list_degree = graded.FreeTruncAlgebra._list_degree

    def counted(alg, degrees):
        list_degree(alg, degrees)
        if "i3" in alg.presentation.index:
            listed.append(sum(map(alg.dim, degrees)))

    monkeypatch.setattr(graded.FreeTruncAlgebra, "_list_degree", counted)
    for bound in (260, 700):
        listed.clear()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["cover", "--catalog", "BS3", "--p", "2",
                         "--max-degree", str(bound)]) == 0
        assert "surviving_fiber_generators" in out.getvalue()
        assert sum(listed) == 0, bound


# ---------------------------------------------------------------------------
# the whole induced-action table against a direct solve


def reference_induced_action(res, fiber_alg):
    """Every (survivor, op) entry by restriction to the fiber: each
    survivor's fiber class is parsed from its origin, products build each
    survivor monomial's fiber value, and a linear solve over F_p expresses
    the op's value in them.  Degrees holding a survivor monomial with a
    companion factor are skipped (companions restrict to zero there), as
    are values outside the survivors' span."""
    p, bound = res.p, res.bound
    survivors = res.surviving_fiber_generators
    classes = {s.name: fiber_alg.element_from_poly(s.origin)
               for s in survivors if not s.is_companion}
    monomials = {}  # degree -> [exponent tuple]
    for expo in itertools.product(*[
            range(2 if s.kind == "exterior" else bound // s.degree + 1)
            for s in survivors]):
        degree = sum(e * s.degree for e, s in zip(expo, survivors))
        if degree <= bound:
            monomials.setdefault(degree, []).append(expo)
    shadow = {d for d, expos in monomials.items()
              if any(e and s.is_companion
                     for expo in expos for e, s in zip(expo, survivors))}

    def fiber_value(expo):
        out = fiber_alg.one()
        for e, s in zip(expo, survivors):
            for _ in range(e):
                out = fiber_alg.product(out, classes[s.name])
        return out

    expected = {}
    for s in survivors:
        if s.is_companion:
            continue
        for op in fiber_alg.op_list():
            target = s.degree + op_degree(p, op)
            if target > bound or target in shadow:
                continue
            value = fiber_alg.act(op, classes[s.name])
            expos = sorted(monomials.get(target, []))
            cols = [fiber_value(expo).vector(target) for expo in expos]
            coords = solve(cols, value.vector(target), p)
            if coords is not None:
                expected[(s.name, op)] = {
                    expo: c for c, expo in zip(coords, expos) if c}
    return expected


@pytest.mark.parametrize("name,p,bound", [
    ("S3", 2, 40),
    ("S3", 3, 60),
    ("S3", 5, 80),
    ("BS3", 2, 60),
    ("BS3", 2, 68),
    ("BS3", 3, 60),
    ("BS3", 5, 60),
    ("BS3", 7, 120),
    ("X2b_4", 3, 60),
    ("X2b_4", 3, 120),
])
def test_induced_action_table_matches_direct_solve(name, p, bound):
    entry = get_entry(name)
    res = connected_cover_cohomology(entry, p, bound)
    assert res.flags["quotient_trivial"]
    # the survivors' entries of the total's table, base prefix stripped
    n = len(entry.presentation(p).generators)
    names = {s.name for s in res.surviving_fiber_generators}
    action = {key: {mono[n:]: c for mono, c in value.items()}
              for key, value in res.total.free.presentation.action.items()
              if key[0] in names}
    expected = reference_induced_action(res,
                                        cover_fiber_algebra(name, p, bound))
    # not vacuous: S3's one polynomial survivor has only its p-th power
    assert sum(1 for poly in expected.values() if poly) >= \
        (1 if name == "S3" else 4)
    # on the operations instability lets act: the solved value, else 0
    # where the last page is empty, else no entry
    want = {}
    for s in res.surviving_fiber_generators:
        for op in ops_on_degree(p, s.degree, bound):
            if (s.name, op) in expected:
                want[(s.name, op)] = expected[(s.name, op)]
            elif not res.series[s.degree + op_degree(p, op)]:
                want[(s.name, op)] = {}
    assert list(action) == list(want)
    for key, poly in want.items():
        assert list(action[key].items()) == list(poly.items()), key


# ---------------------------------------------------------------------------
# the E∞ algebra is built on first read


def test_the_cover_report_builds_no_survivor_algebra(monkeypatch):
    """The report reads the series, the survivors and the log, none of
    which needs the induced action or the survivor algebra's basis; both
    raise here (survivor generators are named z<degree>, no base or fiber
    generator is)."""
    expand_ = serre.expand

    def refuse_action(*args):
        raise AssertionError("computed the induced action")

    def refuse_survivors(pres, *args, **kwargs):
        if any(re.fullmatch(r"z\d+(_\d+)?", g.name) for g in pres.generators):
            raise AssertionError("expanded the survivor algebra")
        return expand_(pres, *args, **kwargs)

    monkeypatch.setattr(_Engine, "_induced_action", refuse_action)
    monkeypatch.setattr(serre, "expand", refuse_survivors)
    for p, bound in ((2, 100), (3, 150)):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["cover", "--catalog", "BS3", "--p", str(p),
                         "--max-degree", str(bound)]) == 0
        assert "surviving_fiber_generators" in out.getvalue()
    res = connected_cover_cohomology(get_entry("BS3"), 2, 40)
    with pytest.raises(AssertionError, match="computed the induced action"):
        res.total
    monkeypatch.setattr(_Engine, "_induced_action", lambda *args: {})
    with pytest.raises(AssertionError, match="expanded the survivor algebra"):
        res.total


@pytest.mark.parametrize("name,p,bound", [
    ("BS3", 2, 60),
    ("BS3", 3, 110),
    ("BS3", 5, 110),
    ("X2b_4", 3, 90),
    ("BSO3^2", 2, 24),
    ("BS3, zero transgression", 2, 30),
])
def test_the_series_without_a_basis_is_the_total_series(name, p, bound):
    if name == "BSO3^2":
        res = run_ss(bso3_squared_fibration(bound))
    elif name == "BS3, zero transgression":  # the quotient is the whole base
        res = run_ss(FibrationSpec(p, get_entry("BS3").presentation(p),
                                   EMSpec(IntegerClass(), 3), None, bound))
        assert not res.flags["quotient_trivial"]
    else:
        entry = get_entry(name)
        res = connected_cover_cohomology(entry, p, bound)
    assert "total" not in vars(res)  # not built yet
    assert res.series == res.total.dims()
    assert res.total is res.total


def bso_presentation(n):
    """H*(BSO(n); F_2) = F_2[w2, ..., wn] with the Wu formula
    Sq^i w_j = Σ_t C(j-i+t-1, t) w_{i-t} w_{j+t} for 0 < i < j, where
    w0 = 1 and w1 = 0, and w_k = 0 above n."""
    def w(k):
        return "1" if k == 0 else f"w{k}"

    action = {}
    for j in range(2, n + 1):
        for i in range(1, j):
            terms = [f"{w(i - t)}*{w(j + t)}" for t in range(i + 1)
                     if math.comb(j - i + t - 1, t) % 2
                     and i - t != 1 and j + t <= n]
            action[(f"w{j}", f"Sq{i}")] = " + ".join(terms) or "0"
    return FreeCommPresentation(
        2, [GeneratorSpec(f"w{k}", k) for k in range(2, n + 1)], action)


def test_a_survivor_value_no_one_decides_over_a_nontrivial_quotient_is_a_gap():
    """BSpin(5) from BSO(5): killing w2 through K(Z/2,1) leaves
    F_2[w4] ⊗ F_2[z8] through degree 16 (Quillen), a nontrivial quotient
    of the base.  Sq^4 z8 lands in degree 12, where the total has w4^3 and
    w4·z8; in H*(BSp(2)) = F_2[q1, q2] Wu gives Sq^4 q2 = q1·q2, so no lift
    of z8 has Sq^4 z8 = 0.  The engine knows no value there, so the total
    refuses it, and Sq^4(w4·z8), whose Cartan sum reads it; its
    indecomposables say the action is incomplete.  The values that are
    decided still answer (degrees 9 and 10 are empty, and Sq^8 is the
    square), so do Sq^1, Sq^2 and Sq^3 of w4·z8, which read no gap, and
    the base class w4 still acts by the Wu formula."""
    spec = FibrationSpec(2, bso_presentation(5), EMSpec(CyclicClass(1), 1),
                         {"i1": "w2"}, 16)
    res = run_ss(spec)
    assert not res.flags["quotient_trivial"]
    assert res.killed_base_ideal == ["w2", "w3", "w5 + w2*w3"]
    assert [s.name for s in res.surviving_fiber_generators] == ["z8"]
    total = res.total
    w4 = expand(FreeCommPresentation(2, [GeneratorSpec("w4", 4)]), 16)
    z8 = expand(FreeCommPresentation(2, [GeneratorSpec("z8", 8)]), 16)
    assert total.dims() == convolve(w4.dims(), z8.dims(), 16)
    z = res.survivor_element("z8")
    with pytest.raises(MissingDataError):
        total.act(("Sq", 4), z)
    assert total.act(("Sq", 1), z).is_zero
    assert total.act(("Sq", 2), z).is_zero
    assert total.act(("Sq", 8), z) == z * z
    assert not indecomposables(total).action_complete
    w = total.project(total.free.generator_element("w4"))
    for i in (1, 2, 3):
        assert total.act(("Sq", i), w * z).is_zero
    with pytest.raises(MissingDataError):
        total.act(("Sq", 4), w * z)
    assert total.act(("Sq", 1), w).is_zero  # Sq1 w4 = w5, killed
    assert total.act(("Sq", 4), w) == w * w


def test_a_base_generator_named_like_a_survivor_is_refused_by_the_total():
    """Survivors are named z<degree>.  A base generator z2 leaves run_ss and
    its payload as they are under any other name, and the total, whose free
    algebra holds both generator lists, refuses with the repeated name."""

    def spec(name):
        base = FreeCommPresentation(2, [GeneratorSpec(name, 2)])
        return FibrationSpec(2, base, EMSpec(CyclicClass(1), 1),
                             {"i1": name}, 8)

    clash, plain = run_ss(spec("z2")), run_ss(spec("w2"))
    assert [s.name for s in clash.surviving_fiber_generators] == ["z2"]
    assert json.dumps(clash.to_jsonable()) == \
        json.dumps(plain.to_jsonable()).replace("w2", "z2")
    with pytest.raises(InputError, match="unique; repeated: z2$"):
        clash.total
    assert plain.total.dims() == clash.series


@pytest.mark.parametrize("p, bound", [(3, 60), (5, 70)])
def test_odd_survivors_anticommute_in_the_total(p, bound):
    """Odd survivors are exterior, and two of them anticommute with a
    nonzero product: the Koszul sign across the survivor generators."""
    res = connected_cover_cohomology(get_entry("BS3"), p, bound)
    odd = [s for s in res.surviving_fiber_generators if s.degree % 2]
    pairs = [(res.survivor_element(a.name), res.survivor_element(b.name))
             for a, b in itertools.combinations(odd, 2)
             if a.degree + b.degree <= bound]
    assert pairs
    for x, y in pairs:
        assert not (x * y).is_zero and x * y == (y * x).scale(-1)
    for s in odd:
        if 2 * s.degree <= bound:
            x = res.survivor_element(s.name)
            assert (x * x).is_zero


def test_run_ss_certifies_the_survivor_contract_itself(monkeypatch):
    """Over a trivial quotient the survivor-stage contract is checked by
    run_ss, not deferred to the first read of ``total``."""

    def broken(engine, survivors):
        raise EngineContractError("survivor contract broken")

    monkeypatch.setattr(_Engine, "_stages", broken)
    entry = get_entry("BS3")
    with pytest.raises(EngineContractError, match="survivor contract"):
        connected_cover_cohomology(entry, 2, 40)


@pytest.mark.parametrize("seed", range(4))
def test_companion_shadow_matches_every_survivor_monomial(seed):
    """The shadow is the set of degrees <= bound of survivor monomials with
    at least one companion factor, several companions included."""
    rng = random.Random(seed)
    spec = FibrationSpec(2, get_entry("BS3").presentation(2),
                         EMSpec(IntegerClass(), 3), {"i3": "y4"}, bound=17)
    engine = _Engine(spec)
    companions = 0
    for _ in range(50):
        engine.bound = rng.randrange(0, 40)
        survivors = []
        for k in range(rng.randrange(0, 6)):
            companion = rng.random() < 0.4
            companions += companion
            kind = ("exterior" if companion or rng.random() < 0.4
                    else "polynomial")
            survivors.append(Survivor(
                name=f"s{k}", degree=rng.randrange(1, 15), kind=kind,
                origin="", display="", is_companion=companion))
        expected = set()
        for expo in itertools.product(*[
                range(2 if s.kind == "exterior"
                      else engine.bound // s.degree + 1)
                for s in survivors]):
            degree = sum(e * s.degree for e, s in zip(expo, survivors))
            if degree <= engine.bound and any(
                    e and s.is_companion for e, s in zip(expo, survivors)):
                expected.add(degree)
        assert engine._companion_shadow(survivors) == expected
    assert companions  # the draws hold companions


def test_survivor_stages_name_one_survivor_per_generator_and_check_the_contract():
    """_stages maps each fiber generator carrying a survivor to that
    survivor's position and exponent, in the survivors' order whatever the
    fiber's generator order; two survivors on one generator break the
    contract.  Companions lie on no generator of their own."""
    spec = FibrationSpec(3, get_entry("BS3").presentation(3),
                         EMSpec(IntegerClass(), 3), {"i3": "y4"}, bound=20)
    engine, index = _Engine(spec), spec.fiber_pres.index

    def survivor(name, gen, exponent=1, is_companion=False):
        g = spec.fiber_gens[gen]
        return Survivor(name=name, degree=g.degree * exponent, kind=g.kind,
                        origin=gen, display=name, is_companion=is_companion,
                        label=gen, exponent=exponent)

    # listed against the fiber's generator order
    assert engine._stages([
        survivor("b", "P1i3"), survivor("a", "i3"),
        survivor("y", "bP1i3", is_companion=True),
        survivor("c", "bP1i3", exponent=3)]) == {
        index["P1i3"]: (0, 1), index["i3"]: (1, 1), index["bP1i3"]: (3, 3)}
    with pytest.raises(EngineContractError, match="both restrict"):
        engine._stages([survivor("a", "i3"), survivor("c", "i3")])


def test_each_survivor_is_the_monomial_its_origin_names(monkeypatch):
    """The engine keeps a survivor as its Kudo stage's monomial a^e.
    Parsed from the origin, an independent route, the class is that
    monomial with coefficient 1; a is of the survivor's kind, e is 1 when
    a is exterior, and no other survivor lies on a.  Every catalog entry
    that answers at p <= 7 through bound 60, S3 among them, and the
    BSO(3)^2 fibration."""
    engines, run = [], _Engine.run
    monkeypatch.setattr(_Engine, "run",
                        lambda engine: engines.append(engine) or run(engine))
    answered = []
    for entry in {e.name: e for e in load_catalog().values()}.values():
        for p in (2, 3, 5, 7):
            try:
                connected_cover_cohomology(entry, p, 60)
            except (InputError, MissingDataError):
                continue
            answered.append(f"{entry.name} {p}")
    assert answered == ["S3 2", "S3 3", "S3 5", "S3 7",
                        "BS3 2", "BS3 3", "BS3 5", "BS3 7", "X2b_4 3",
                        "X2b_4 5", "X23 7", "X30 3", "X30 5", "X30 7"]
    run_ss(bso3_squared_fibration(28))
    checked = 0
    for engine in engines:
        fiber, owners = expand(engine.spec.fiber_pres, engine.bound), set()
        for s in engine.survivors:
            if s.is_companion:
                continue
            mono = engine._monomial(s)
            assert fiber.element_from_poly(s.origin).data == \
                {fiber.monomial_key(mono): 1}, s.origin
            g = fiber.presentation.index[s.label]
            assert fiber.generators[g].kind == s.kind
            assert s.kind == "polynomial" or s.exponent == 1
            assert g not in owners
            owners.add(g)
            checked += 1
    assert checked >= 40


def test_a_step_whose_series_drop_is_not_a_euler_pair_raises(monkeypatch):
    """Each logged step must lower the model series by (1+t)·K(t) with
    K >= 0; a tampered model series that gains a class in degree 0 at
    the first kill breaks the ledger, and the engine refuses it."""
    calls = []
    model_series = _Engine._model_series

    def tampered(engine, queue_items):
        series = model_series(engine, queue_items)
        calls.append(len(calls))
        if len(calls) == 2:  # the series after the first kill
            series[0] += 1
        return series

    monkeypatch.setattr(_Engine, "_model_series", tampered)
    with pytest.raises(EngineContractError):
        connected_cover_cohomology(get_entry("S3"), 2, 10)


class ReadSeries(list):
    """A series that counts how often it is iterated."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


def test_run_logs_survivors_without_the_ledger_and_checks_every_kill(
        monkeypatch):
    """run logs a survivor step with the very series it was handed, so its
    drop is zero and the ledger is not run on it; every step whose series
    changes goes through _log.  _log reads a distinct list entry by entry,
    an equal one included, and a changed step whose drop is not (1+t)·K(t)
    with K >= 0 still raises and is not logged."""
    checked = []
    ledger = _Engine._log
    monkeypatch.setattr(_Engine, "_log",
                        lambda self, step: (checked.append(step),
                                            ledger(self, step)))
    engine = _Engine(ledger_spec("BS3", 2, 60))
    engine.run()
    survivors = [s for s in engine.log if s["event"] == "survivor"]
    assert survivors and all(s["series_after"] is s["series_before"]
                             for s in survivors)
    assert checked == [s for s in engine.log if s["event"] != "survivor"]
    assert checked and all(s["series_after"] is not s["series_before"]
                           for s in checked)

    def step(before, after):
        return {"event": "transgression", "class": "i3", "degree": 3,
                "series_before": before, "series_after": after}

    engine.log.clear()
    before, after = ReadSeries([1, 0, 0, 1]), ReadSeries([1, 0, 0, 1])
    ledger(engine, step(before, after))
    assert before.reads == after.reads == 1
    # a kill from degree 1 to 2 drops (1+t)·t: K = [0, 1, 0]
    ledger(engine, step(ReadSeries([1, 1, 1, 1]), ReadSeries([1, 0, 0, 1])))
    assert len(engine.log) == 2
    # a drop in degree 0 alone leaves K[1] = -1
    with pytest.raises(EngineContractError, match=r"K\[1\] = -1"):
        ledger(engine, step(ReadSeries([2, 0, 0, 1]),
                            ReadSeries([1, 0, 0, 1])))
    assert len(engine.log) == 2


LEDGER_CASES = [("BS3", 2, 60), ("BS3", 3, 80), ("BS3", 5, 110),
                ("X2b_4", 3, 60), ("BSO(3)^2", 2, 28)]


def ledger_spec(name, p, bound):
    """The BSO(3)^2 fibration, or the cover of a catalog entry: K(Z,3)
    over its degree-4 class, else K(Z,2) over its degree-3 class."""
    if name == "BSO(3)^2":
        return bso3_squared_fibration(bound)
    base = get_entry(name).presentation(p)
    kill = next((g for g in base.generators if g.degree == 4), None) or \
        next(g for g in base.generators if g.degree == 3)
    n = kill.degree - 1
    return FibrationSpec(p, base, EMSpec(IntegerClass(), n),
                         {f"i{n}": kill.name}, bound)


@pytest.mark.parametrize("name,p,bound", LEDGER_CASES)
def test_each_step_starts_from_the_series_the_last_step_left(name, p, bound):
    res = run_ss(ledger_spec(name, p, bound))
    assert len(res.log) >= 3
    for first, second in zip(res.log, res.log[1:]):
        assert second["series_before"] == first["series_after"]
    assert res.series == res.log[-1]["series_after"]


@pytest.mark.parametrize("name,p,bound", LEDGER_CASES)
def test_the_page_series_is_built_once_per_transgression(monkeypatch, name,
                                                         p, bound):
    """One build before the loop and one after each transgression step: a
    survivor step reuses the running series, and ``series`` is the last
    one."""
    calls = []
    model_series = _Engine._model_series

    def counted(engine, queue_items):
        calls.append(None)
        return model_series(engine, queue_items)

    monkeypatch.setattr(_Engine, "_model_series", counted)
    res = run_ss(ledger_spec(name, p, bound))
    kills = sum(1 for step in res.log if step["event"] == "transgression")
    assert any(step["event"] == "survivor" for step in res.log)
    assert len(calls) == 1 + kills


@pytest.mark.parametrize("name,p,bound", [("BS3", 2, 100), ("BS3", 3, 130),
                                          ("BS3", 5, 140), ("X2b_4", 3, 110)])
def test_a_report_hands_on_one_series_object_while_the_series_holds(
        name, p, bound):
    """The JSON emitter renders each list object once per report, so the
    report must repeat the series object itself, not an equal copy: each
    step starts from the last step's list, a survivor's list is the one it
    started from, and ``poincare`` is the last list."""
    report = connected_cover_cohomology(get_entry(name), p, bound).to_jsonable()
    log = report["log"]
    assert {step["event"] for step in log} == {"survivor", "transgression"}
    for first, second in zip(log, log[1:]):
        assert second["series_before"] is first["series_after"]
    for step in log:
        if step["event"] == "survivor":
            assert step["series_before"] is step["series_after"]
    assert report["poincare"] is log[-1]["series_after"]


def test_the_engine_never_checks_ideal_invariance(monkeypatch):
    """run_ss grows an ideal that need not be closed under the action;
    only reading steenrod_ok runs the check."""
    def refuse(quotient):
        raise AssertionError("invariance checked")

    monkeypatch.setattr(graded.QuotientTruncAlgebra, "_invariance", refuse)
    for case in LEDGER_CASES:
        assert run_ss(ledger_spec(*case)).log
    base = get_entry("BS3").presentation(2)
    quotient = graded.QuotientTruncAlgebra(expand(base, 8), [])
    with pytest.raises(AssertionError, match="invariance checked"):
        quotient.steenrod_ok


# ---------------------------------------------------------------------------
# each kill's annihilator profile, read off the quotient's dimension drop


def bso3_squared_fibration(bound):
    """K(Z/2,1)^2 -> E -> B with H*(B) = F_2[a2,a3,b2,b3] carrying the
    action of H*(BSO(3))^2, and the bottom classes transgressing to a2, b2."""
    gens = [GeneratorSpec(n, d) for n, d in
            (("a2", 2), ("a3", 3), ("b2", 2), ("b3", 3))]
    action = {}
    for x in "ab":
        action.update({(f"{x}2", "Sq1"): f"{x}3", (f"{x}3", "Sq1"): "0",
                       (f"{x}3", "Sq2"): f"{x}2*{x}3"})
    k1 = EMSpec(CyclicClass(1), 1)
    return FibrationSpec(2, FreeCommPresentation(2, gens, action),
                         EMProduct((k1, k1)), {"f1_i1": "a2", "f2_i1": "b2"},
                         bound)


@pytest.fixture
def kill_profiles(monkeypatch):
    """Records (annihilator_profile before the kill, the engine's profile)
    for every kill the engine makes."""
    seen = []
    kill = _Engine._kill

    def checked(engine, rep):
        quotient = engine.quotient
        want = annihilator_profile(quotient, quotient.project(rep))
        got = kill(engine, rep)
        seen.append((want, got))
        return got

    monkeypatch.setattr(_Engine, "_kill", checked)
    return seen


def test_kill_profiles_match_annihilator_profile_on_the_fibration(
        kill_profiles):
    for bound in range(10, 29):
        run_ss(bso3_squared_fibration(bound))
    assert len(kill_profiles) >= 4 * 19  # at least four kills per bound
    assert all(want == got for want, got in kill_profiles)


@pytest.mark.parametrize("name,p,bound", [
    ("BS3", 2, 60),
    ("BS3", 3, 80),
    ("BS3", 5, 110),
    ("X2b_4", 3, 60),
])
def test_kill_profiles_match_annihilator_profile_on_covers(
        kill_profiles, name, p, bound):
    entry = get_entry(name)
    connected_cover_cohomology(entry, p, bound)
    assert kill_profiles
    assert all(want == got for want, got in kill_profiles)


def test_kill_profiles_match_annihilator_profile_of_every_kind(kill_profiles):
    for p in (2, 3, 5):
        connected_cover_cohomology(get_entry("S3"), p, 30)
        test_path_fibration_cancels(p)
    test_exterior_kill_with_zero_divisor_aborts()
    test_polynomial_kill_off_borel_pattern_aborts()
    assert {got for _, got in kill_profiles} == {"zero", "principal", "other"}
    assert all(want == got for want, got in kill_profiles)


@pytest.mark.parametrize("case", ["BSO3^2 fibration", "X2b_4 cover"])
def test_the_engine_quotient_reps_stay_the_non_pivot_columns(
        monkeypatch, case):
    """add_generator eliminates a generator per linear kill; after every
    growth step the basis must be the full scan of the non-pivot columns
    of the ideal spanned in the whole free algebra, on kills by monomials
    and by a two-term class."""
    grow = graded.QuotientTruncAlgebra.add_generator
    terms, spans = [], {}

    def checked(quo, x):
        grow(quo, x)
        terms.append(len(x.data))
        span = spans.setdefault(id(quo), SpanQuotient(quo.free))
        span.add_generator(x)
        for d in range(quo.bound + 1):
            assert quo.basis(d) == non_pivot_columns(span.ideal[d],
                                                     quo.free.dim(d)), d

    monkeypatch.setattr(graded.QuotientTruncAlgebra, "add_generator", checked)
    if case == "BSO3^2 fibration":
        res = run_ss(bso3_squared_fibration(28))
    else:
        entry = get_entry("X2b_4")
        res = connected_cover_cohomology(entry, 3, 90)
    assert len(terms) == len(res.quotient.ideal_gens) >= 2
    assert max(terms) == (1 if case == "BSO3^2 fibration" else 2)


def test_kill_tells_a_principal_annihilator_from_a_lookalike():
    # F_2[x2,y2]/(x2^2 + x2*y2) is F_2[x2,z2]/(x2*z2) with z2 = x2 + y2:
    # ann(x2) = (z2) has the dimensions of (x2) in every degree, yet
    # x2^2 != 0, so the annihilator is not (x2)
    base = FreeCommPresentation(2, [GeneratorSpec("x2", 2),
                                    GeneratorSpec("y2", 2)])
    spec = FibrationSpec(2, base, EMSpec(IntegerClass(), 3), None, bound=12)
    engine = _Engine(spec)
    alg = engine.base_alg
    engine.quotient.add_generator(alg.element_from_poly("x2^2 + x2*y2"))
    x2 = alg.generator_element("x2")
    assert annihilator_profile(engine.quotient,
                               engine.quotient.project(x2)) == "other"
    assert engine._kill(x2) == "other"


@pytest.mark.parametrize("p,killed,want", [
    (2, None, "zero"),
    (2, "x2*x8", "other"),
    (3, "x4^2", "zero"),
])
def test_a_class_whose_square_lies_above_the_bound(p, killed, want):
    # x8² lands in degree 16, above the base bound 13, where it is unknown;
    # both routes give the profile without reading it
    base = FreeCommPresentation(p, [GeneratorSpec(f"x{2 * p - 2}", 2 * p - 2),
                                    GeneratorSpec("x8", 8)])
    spec = FibrationSpec(p, base, EMSpec(IntegerClass(), 3), None, bound=12)
    engine = _Engine(spec)
    alg = engine.base_alg
    if killed:
        engine.quotient.add_generator(alg.element_from_poly(killed))
    x8 = alg.generator_element("x8")
    assert 2 * x8.degree() > alg.bound == 13
    with pytest.raises(TruncationError):
        x8 * x8
    assert annihilator_profile(engine.quotient,
                               engine.quotient.project(x8)) == want
    assert engine._kill(x8) == want


# ---------------------------------------------------------------------------
# refusal on non-transgressive patterns


def test_exterior_kill_with_zero_divisor_aborts():
    base = FreeCommPresentation(
        3, [GeneratorSpec("y1", 1, "exterior"),
            GeneratorSpec("z3", 3, "exterior")],
        {("z3", "beta"): "0"})
    spec = FibrationSpec(3, base, EMSpec(IntegerClass(), 3),
                         {"i3": "y1*z3"}, bound=9)
    with pytest.raises(UnsupportedFibrationError) as err:
        run_ss(spec)
    assert "leaves extra classes" in str(err.value)
    assert "y1*z3" in str(err.value)


def test_polynomial_kill_off_borel_pattern_aborts():
    base = FreeCommPresentation(
        2, [GeneratorSpec("y1", 1, "exterior"),
            GeneratorSpec("z2", 2, "exterior")],
        {("z2", "Sq1"): "0"})
    spec = FibrationSpec(2, base, EMSpec(IntegerClass(), 2),
                         {"i2": "y1*z2"}, bound=6)
    with pytest.raises(UnsupportedFibrationError) as err:
        run_ss(spec)
    assert "Borel pattern" in str(err.value)


def test_companion_classes_block_transgression_propagation():
    """With zero transgression the classes built on the higher-Bockstein
    companion of i2 are harmless: over F_2[x1] every transgression is read
    and is 0, so every fiber generator survives.  A nonzero one refuses
    (test_a_read_companion_transgression_still_refuses)."""
    base = FreeCommPresentation(2, [GeneratorSpec("x1", 1)])
    quiet = FibrationSpec(2, base, EMSpec(CyclicClass(2), 2), None, bound=8)
    res = run_ss(quiet)
    assert [step["event"] for step in res.log] == \
        ["survivor"] * len(quiet.fiber_gens)
    assert sorted(s.origin for s in res.surviving_fiber_generators) == \
        sorted(quiet.fiber_gens)


def z4_fibration(base):
    """K(Z/4,2) → E → base with τ(i2) = x1^3, at p = 2 and bound 8."""
    return FibrationSpec(2, base, EMSpec(CyclicClass(2), 2), {"i2": "x1^3"},
                         bound=8)


def test_an_unread_companion_transgression_does_not_refuse():
    """Over F_2[x1] the quotient F_2[x1]/(x1^3) is zero from degree 3 on,
    so the classes built on the higher-Bockstein companion of i2 survive
    without their transgression being read."""
    res = run_ss(z4_fibration(FreeCommPresentation(2, [GeneratorSpec("x1", 1)])))
    assert [(s.origin, s.degree) for s in res.surviving_fiber_generators] == \
        [("Sq1i2", 3), ("i2^2", 4), ("Sq2Sq1i2", 5)]
    assert res.killed_base_ideal == ["x1^3"]
    assert res.series == [1, 1, 1, 1, 2, 3, 3, 3, 4]


def test_a_read_companion_transgression_still_refuses():
    """With y4 in the base the quotient has a class in degree 4, so the
    transgression of Sq1i2 is read, and the engine refuses it."""
    base = FreeCommPresentation(
        2, [GeneratorSpec("x1", 1), GeneratorSpec("y4", 4)],
        {("y4", f"Sq{i}"): "0" for i in (1, 2, 3)})
    with pytest.raises(UnsupportedFibrationError,
                       match="higher-Bockstein companion"):
        run_ss(z4_fibration(base))


# ---------------------------------------------------------------------------
# construction-time validation


def test_fibration_spec_validation():
    base = FreeCommPresentation(2, [GeneratorSpec("t", 1)])
    fiber = EMSpec(IntegerClass(), 2)
    with pytest.raises(InputError):  # transgression degree must be n+1
        FibrationSpec(2, base, fiber, {"i2": "t^2"}, bound=8)
    with pytest.raises(InputError):  # non-homogeneous target
        FibrationSpec(2, base, fiber, {"i2": "t^3 + t^2"}, bound=8)
    with pytest.raises(InputError):  # unknown bottom class
        FibrationSpec(2, base, fiber, {"i9": "t^3"}, bound=8)
    with pytest.raises(InputError):  # base prime mismatch
        FibrationSpec(3, base, fiber, None, bound=8)
    with pytest.raises(InputError):  # fiber must be an EM product
        FibrationSpec(2, base, base, None, bound=8)
    with pytest.raises(InputError):
        FibrationSpec(2, base, fiber, None, bound=-1)
    ok = FibrationSpec(2, base, fiber, {"i2": "t^3"}, bound=8)
    assert ok.transgression["i2"] == base.parse_poly("t^3")


def test_a_transgression_value_is_a_string_or_a_monomial_dict():
    base = FreeCommPresentation(2, [GeneratorSpec("x3", 3, "exterior")], {})
    fiber = EMSpec(IntegerClass(), 2)
    by_string = run_ss(FibrationSpec(2, base, fiber, {"i2": "x3"}, 10))
    by_dict = run_ss(FibrationSpec(2, base, fiber, {"i2": {(1,): 1}}, 10))
    assert by_dict.series == [1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0]
    assert by_dict.to_jsonable() == by_string.to_jsonable()
    x3 = expand(base, 11).generator_element("x3")
    with pytest.raises(InputError, match="polynomial strings or monomial"):
        FibrationSpec(2, base, fiber, {"i2": x3}, 10)


def test_a_transgression_drops_its_zero_terms_before_the_degree_test():
    """{y4: 1, y4^2: 0} over F_2[y4] is y4, not "not homogeneous"."""
    base = FreeCommPresentation(2, [GeneratorSpec("y4", 4)])
    spec = FibrationSpec(2, base, EMSpec(IntegerClass(), 3),
                         {"i3": {(1,): 1, (2,): 0}}, 11)
    assert spec.transgression["i3"] == {(1,): 1}
    assert run_ss(spec).to_jsonable() == run_ss(FibrationSpec(
        2, base, EMSpec(IntegerClass(), 3), {"i3": "y4"}, 11)).to_jsonable()


@pytest.mark.parametrize("value", [{(1, 0): 1}, {(): 1}, {(1.0,): 1},
                                   {(1,): None}, 5, None], ids=repr)
def test_a_malformed_transgression_is_refused_at_the_spec(value):
    """A monomial of the wrong length, a float exponent or a coefficient
    that is no int is refused when the spec is built, not when the run
    reads it, by the rule action values use."""
    base = FreeCommPresentation(2, [GeneratorSpec("y4", 4)])
    with pytest.raises(InputError, match="transgression of i3"):
        FibrationSpec(2, base, EMSpec(IntegerClass(), 3), {"i3": value}, 11)


def test_default_bound():
    base = get_entry("BS3").presentation(2)
    assert default_bound(base, EMSpec(IntegerClass(), 3)) == 11
    from pnoether import PruferClass
    assert default_bound(base, EMSpec(PruferClass(), 2)) == 11
    spec = FibrationSpec(2, base, EMSpec(IntegerClass(), 3), {"i3": "y4"})
    assert spec.bound == 11


# ---------------------------------------------------------------------------
# the Kudo chain, computed apart from the engine


def kudo_taus(spec, name):
    """[(e, τ(a^e))] for e = 1, p, p², … on the fiber generator a, from the
    declared transgression alone by the Kudo rule: τ(a) = w·τ(ι) for a's
    word w on its bottom class ι, and τ(x^p) = Sq^{|x|}τ(x) at p = 2,
    P^{|x|/2}τ(x) at odd p.  The list stops after the first zero value or
    where the next power passes the bound; an exterior a has one stage."""
    p, gen = spec.p, spec.fiber_gens[name]
    base = expand(spec.base, spec.bound + 1)
    value = base.act_word(gen.word, base.element_from_poly(
        spec.transgression[gen.bottom]))
    chain, degree = [(1, value)], gen.degree
    while gen.kind == "polynomial" and not value.is_zero \
            and p * degree <= spec.bound:
        op = ("Sq", degree) if p == 2 else ("P", degree // 2)
        value, degree = base.act(op, value), p * degree
        chain.append((degree // gen.degree, value))
    return chain


def logged_chain(result, label):
    """[(class, degree, target)] of the logged steps on the chain of the
    fiber generator ``label``; the target is None for a survivor."""
    return [(s["class"], s["degree"], s.get("target")) for s in result.log
            if s["class"] == label or s["class"].startswith(label + "^")]


def test_kudo_chain_bs3():
    """Over BS3 at p = 2, τ(i3) = y4 and τ(i3²) = Sq³y4 = 0 (the engine's
    walk of this chain is test_permanent_powers_bs3)."""
    spec = FibrationSpec(2, get_entry("BS3").presentation(2),
                         EMSpec(IntegerClass(), 3), {"i3": "y4"}, bound=12)
    chain = kudo_taus(spec, "i3")
    assert [(e, repr(v)) for e, v in chain] == [(1, "<y4>"), (2, "<0>")]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_engine_walks_the_kudo_chain(p):
    """The targets the engine logs for i3, i3^p, i3^{p²}, ... are the values
    kudo_taus computes, and the walk's classes are a prefix of the chain's
    stages (the last may survive).  At p = 2 the K(Z/2,1)^2 fibration over
    BSO(3)^2 adds a chain with two kills before its survivor; at odd p the
    path fibration K(Z/p,1) → * → K(Z/p,2) adds the chain of βi1, whose
    three kills within the bound read P^1 and P^p."""
    bs3 = FibrationSpec(p, get_entry("BS3").presentation(p),
                        EMSpec(IntegerClass(), 3), {"i3": "y4"}, bound=12 * p)
    cases = [(bs3, "i3", 1)]
    if p == 2:
        cases.append((bso3_squared_fibration(24), "f1_i1", 2))
    else:
        path = FibrationSpec(
            p, em_product_presentation(EMSpec(CyclicClass(1), 2), p, 13 * p),
            EMSpec(CyclicClass(1), 1), {"i1": "i2"}, bound=12 * p)
        cases.append((path, "bi1", 3))
    for spec, label, kill_count in cases:
        base = spec.base_algebra()
        chain = [(label if e == 1 else f"{label}^{e}", base.describe(value))
                 for e, value in kudo_taus(spec, label)]
        steps = [(c, target) for c, _d, target in
                 logged_chain(run_ss(spec), label)]
        kills = [step for step in steps if step[1] is not None]
        assert len(kills) == kill_count and kills == chain[:kill_count]
        assert [c for c, _ in steps] == [c for c, _ in chain[:len(steps)]]
        if spec is bs3 and p != 2:  # i3 is exterior at odd p: the chain is i3
            assert chain == [("i3", "y4")]


def test_only_i3_transgression_is_read_in_the_bs3_cover(monkeypatch):
    """Once y4 is killed the quotient is zero above degree 0, so every
    later class survives on its degree alone: run_ss applies one word on
    the base algebra, i3's."""
    spec = FibrationSpec(2, get_entry("BS3").presentation(2),
                         EMSpec(IntegerClass(), 3), {"i3": "y4"}, bound=100)
    calls = []
    act_word = graded.TruncAlgebra.act_word

    def counted(alg, word, x):
        if getattr(alg, "presentation", None) is spec.base:
            calls.append(word)
        return act_word(alg, word, x)

    monkeypatch.setattr(graded.TruncAlgebra, "act_word", counted)
    run_ss(spec)
    assert len(calls) == 1


@pytest.mark.parametrize("name,p", [("X30", 3), ("X2b_4", 5)])
def test_a_cover_answers_where_missing_steenrod_data_goes_unread(name, p):
    """Neither entry tabulates a reduced power at p, and no transgression
    these covers read needs one."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["cover", "--catalog", name, "--p", str(p),
                     "--max-degree", "60"]) == 0
    spec = ledger_spec(name, p, 60)
    res = run_ss(spec)
    assert json.loads(out.getvalue())["payload"]["poincare"] == \
        res.series
    assert_euler_ledger_telescopes(res, spec)
    survivors = expand(FreeCommPresentation(p, [
        GeneratorSpec(s.name, s.degree, s.kind)
        for s in res.surviving_fiber_generators]), 60)
    assert res.series == \
        convolve(res.quotient.dims(), survivors.dims(), 60)


def test_permanent_powers_bs3():
    """The first power of i3 that is a permanent cycle: over BS3 at p = 2
    the chain kills y4 and i3² survives in degree 6; with the transgression
    quiet, i3 itself survives in degree 3."""
    base = get_entry("BS3").presentation(2)
    for transgression, want in (({"i3": "y4"}, [("i3", 3, "y4"),
                                                ("i3^2", 6, None)]),
                                (None, [("i3", 3, None)])):
        spec = FibrationSpec(2, base, EMSpec(IntegerClass(), 3),
                             transgression, bound=12)
        assert logged_chain(run_ss(spec), "i3") == want


def test_propagate_transgression_values():
    """τ(w·i3) = w·τ(i3) over BS3 at p = 3: the engine kills y4, and
    P1i3 and bP1i3 survive, since their values lie in (y4)."""
    spec = FibrationSpec(3, get_entry("BS3").presentation(3),
                         EMSpec(IntegerClass(), 3), {"i3": "y4"}, bound=11)
    taus = {name: repr(kudo_taus(spec, name)[0][1])
            for name in spec.fiber_gens}
    assert taus == {"i3": "<y4>", "P1i3": "<2*y4^2>", "bP1i3": "<0>"}
    assert [(s["class"], s.get("target")) for s in run_ss(spec).log] == \
        [("i3", "y4"), ("P1i3", None), ("bP1i3", None)]
