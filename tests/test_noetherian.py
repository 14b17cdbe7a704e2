"""Abelian p-group bookkeeping, the structure fibration, reduced-T of the
indecomposables, splitting verdicts, and p-adic square arithmetic."""

import random

import pytest

from pnoether import (AbelianPGroup, InputError, PNoetherianPresentation,
                      hom_zp, is_divisible, is_square_int, padic_is_square,
                      padic_sum_of_squares_nonzero, padic_valuation,
                      parse_group, schwartz_target, splitting_by_connecting,
                      splitting_with_section, structure_fibration,
                      tq_of_classifying_space)
from pnoether.em import CyclicClass, EMProduct, EMSpec, PruferClass
from pnoether.fixtures import SPLITTING_SCENARIOS, run_splitting_scenario
from pnoether.graded import FreeCommPresentation, GeneratorSpec
from pnoether.unstable import F, Power, Q1, Tensor, ZERO, format_expr, krull_degree

# ---------------------------------------------------------------------------
# group parsing and formatting


def test_parse_group_basic_forms():
    g = parse_group("Z/4 + Zpinf^2", 2)
    assert g.p == 2
    assert g.summands == (CyclicClass(2), PruferClass(), PruferClass())
    assert str(g) == "Z/4 + Zpinf^2"

    assert parse_group("0", 5).summands == ()
    assert str(parse_group("0", 5)) == "0"

    # symbolic p and caret-on-the-order binding: Z/p^2 at p = 3 is Z/9
    assert parse_group("Z/p^2", 3).summands == (CyclicClass(2),)
    assert parse_group("Z/9", 3).summands == (CyclicClass(2),)
    # Z/8^2 is the cyclic group of order 64 = 2^6, not (Z/8)^2
    assert parse_group("Z/8^2", 2).summands == (CyclicClass(6),)

    # parenthesized groups take a multiplicity caret
    g = parse_group("(Z/p)^3", 5)
    assert g.summands == (CyclicClass(1),) * 3
    g = parse_group("(Z/2 + Zpinf)^2", 2)
    assert g.summands == (CyclicClass(1), CyclicClass(1),
                          PruferClass(), PruferClass())

    # Prüfer spellings
    for text in ("Zpinf", "Z/pinf", "Zp_inf"):
        assert parse_group(text, 3).summands == (PruferClass(),)


def test_parse_group_canonical_order():
    # summands sort: cyclic by exponent, then Prüfer — regardless of input order
    a = parse_group("Zpinf + Z/2 + Z/8", 2)
    b = parse_group("Z/8 + Zpinf + Z/2", 2)
    assert a == b
    assert a.summands == (CyclicClass(1), CyclicClass(3), PruferClass())
    assert str(a) == "Z/2 + Z/8 + Zpinf"


def test_parse_group_str_round_trip():
    rng = random.Random(20260816)
    for _ in range(25):
        p = rng.choice([2, 3, 5, 7])
        summands = []
        for _ in range(rng.randrange(0, 5)):
            if rng.random() < 0.3:
                summands.append(PruferClass())
            else:
                summands.append(CyclicClass(rng.randrange(1, 4)))
        g = AbelianPGroup(p, tuple(summands))
        assert parse_group(str(g), p) == g


def test_parse_group_rejections():
    with pytest.raises(InputError):
        parse_group("Z/6", 2)  # 6 is not a 2-power
    with pytest.raises(InputError):
        parse_group("Z/4", 3)  # 4 is not a 3-power
    with pytest.raises(InputError):
        parse_group("Z/1", 2)  # trivial summand has no exponent >= 1
    with pytest.raises(InputError):
        parse_group("Z/2 + ", 2)  # empty summand
    with pytest.raises(InputError):
        parse_group("Q/2", 2)  # unknown token
    with pytest.raises(InputError):
        parse_group("(Z/2", 2)  # unbalanced parenthesis
    with pytest.raises(InputError):
        AbelianPGroup(2, ("Z/2",))  # summands must be class objects
    with pytest.raises(InputError):
        AbelianPGroup(4, ())  # p must be prime


# ---------------------------------------------------------------------------
# Hom(Z/p, −) rank and divisibility


def test_hom_zp_example():
    assert hom_zp(parse_group("Z/4 + Zpinf^2", 2)) == 3


def test_hom_zp_counts_summands_additively():
    rng = random.Random(7)
    for _ in range(20):
        p = rng.choice([2, 3, 7])
        left = [CyclicClass(rng.randrange(1, 5)) for _ in range(rng.randrange(4))]
        right = [PruferClass() for _ in range(rng.randrange(4))]
        a = AbelianPGroup(p, tuple(left))
        b = AbelianPGroup(p, tuple(right))
        both = AbelianPGroup(p, tuple(left + right))
        assert hom_zp(both) == hom_zp(a) + hom_zp(b) == len(left) + len(right)


def test_is_divisible():
    assert is_divisible(parse_group("0", 2))
    assert is_divisible(parse_group("Zpinf^3", 5))
    assert not is_divisible(parse_group("Z/2 + Zpinf", 2))
    assert not is_divisible(parse_group("Z/9", 3))


# ---------------------------------------------------------------------------
# presentation validation and the structure fibration


def bs3_presentation(p=3):
    base = FreeCommPresentation(
        p, [GeneratorSpec("y4", 4, "polynomial")],
        {("y4", "P1"): "2*y4^2"})
    return PNoetherianPresentation(p, parse_group("Z/p + Zpinf", p), base)


def test_presentation_validation():
    # default base cohomology: the empty presentation over the same prime
    pres = PNoetherianPresentation(2, parse_group("Z/2", 2))
    assert pres.y_cohomology.p == 2
    assert not pres.y_cohomology.generators

    with pytest.raises(InputError):
        PNoetherianPresentation(3, parse_group("Z/2", 2))
    with pytest.raises(InputError):
        PNoetherianPresentation(
            2, parse_group("Z/2", 2),
            FreeCommPresentation(3, [], {}))
    with pytest.raises(InputError):
        PNoetherianPresentation(2, parse_group("Z/2", 2), pi1_order=0)
    with pytest.raises(InputError):
        PNoetherianPresentation(2, parse_group("Z/2", 2), pi1_order=6)
    # p-power orders are fine
    PNoetherianPresentation(2, parse_group("Z/2", 2), pi1_order=8)


def test_structure_fibration_mixed_group():
    pres = bs3_presentation(3)
    fib = structure_fibration(pres)
    assert fib.p == 3
    assert isinstance(fib.fiber, EMProduct)
    assert fib.fiber.factors == (EMSpec(CyclicClass(1), 2),
                                 EMSpec(PruferClass(), 2))
    assert fib.fiber_factors() == list(fib.fiber.factors)
    assert fib.base is pres.y_cohomology
    assert fib.divisible is False
    assert fib.p_compact is False

    js = fib.to_jsonable()
    assert js["fiber"] == [str(f) for f in fib.fiber.factors]
    assert js["base_generators"] == [
        {"name": "y4", "degree": 4, "kind": "polynomial"}]
    assert js["divisible"] is False and js["p_compact"] is False


def test_structure_fibration_trivial_group_collapses():
    pres = PNoetherianPresentation(2, parse_group("0", 2))
    fib = structure_fibration(pres)
    assert fib.fiber is None
    assert fib.fiber_factors() == []
    assert fib.p_compact is True
    assert fib.divisible is True  # vacuously


def test_structure_fibration_all_prufer_is_divisible():
    pres = PNoetherianPresentation(5, parse_group("Zpinf^2", 5))
    fib = structure_fibration(pres)
    assert fib.divisible is True
    assert fib.p_compact is False
    assert fib.fiber.factors == (EMSpec(PruferClass(), 2),) * 2


# ---------------------------------------------------------------------------
# reduced-T of the indecomposables


def test_tq_rank_three_example():
    pres = PNoetherianPresentation(2, parse_group("Z/4 + Zpinf^2", 2))
    rep = tq_of_classifying_space(pres)
    assert rep.rank == 3
    assert rep.expression == Power(Q1(), 3)
    assert format_expr(rep.expression) == "Q1^3"
    assert rep.krull.degree == 0  # finite in each degree: bottom of the filtration
    assert rep.krull_at_most_one is True
    assert rep.krull.trace_strings() == ["Fin(1:3)", "0"]

    js = rep.to_jsonable()
    assert js["rank"] == 3 and js["expression"] == "Q1^3"
    assert js["krull_degree"] == 0 and js["krull_at_most_one"] is True


def test_tq_small_ranks():
    zero = tq_of_classifying_space(
        PNoetherianPresentation(3, parse_group("0", 3)))
    assert zero.rank == 0
    assert zero.expression is ZERO
    assert format_expr(zero.expression) == "0"
    assert zero.krull_at_most_one is True

    one = tq_of_classifying_space(
        PNoetherianPresentation(3, parse_group("Zpinf", 3)))
    assert one.rank == 1
    assert one.expression == Q1()
    assert format_expr(one.expression) == "Q1"


def test_tq_krull_bound_holds_across_groups():
    rng = random.Random(99)
    for _ in range(10):
        p = rng.choice([2, 3, 5])
        summands = tuple(
            PruferClass() if rng.random() < 0.5 else CyclicClass(rng.randrange(1, 4))
            for _ in range(rng.randrange(0, 6)))
        pres = PNoetherianPresentation(p, AbelianPGroup(p, summands))
        rep = tq_of_classifying_space(pres)
        assert rep.rank == len(summands)
        assert rep.krull_at_most_one is True
        assert rep.krull.degree <= 1


def test_schwartz_target_shapes():
    assert schwartz_target(0) == F(1)
    assert schwartz_target(1) == Tensor((F(1), Q1()))
    assert schwartz_target(2) == Tensor((F(1), Power(Q1(), 2)))
    assert format_expr(schwartz_target(0)) == "F(1)"
    assert format_expr(schwartz_target(1)) == "F(1)*Q1"
    assert format_expr(schwartz_target(2)) == "F(1)*Q1^2"
    assert format_expr(schwartz_target(3)) == "F(1)*Q1^3"
    with pytest.raises(InputError):
        schwartz_target(-1)


def test_schwartz_target_krull_is_one():
    for k in range(6):
        rep = krull_degree(schwartz_target(k), p=2)
        assert rep.determined and rep.degree == 1


# ---------------------------------------------------------------------------
# splitting verdicts


def test_connecting_criterion_gating():
    v = splitting_by_connecting(3, 3, connecting_is_trivial=True)
    assert (v.applicable, v.splits) == (True, True)
    v = splitting_by_connecting(3, 3, connecting_is_trivial=False)
    assert (v.applicable, v.splits) == (True, False)
    assert v.criterion == "connecting-morphism"
    assert v.witness == {"b_connectivity": 3, "fiber_top": 3,
                         "connecting_is_trivial": False}

    # base not connected enough: never guesses
    v = splitting_by_connecting(2, 3, connecting_is_trivial=True)
    assert (v.applicable, v.splits) == (False, None)

    with pytest.raises(InputError):
        splitting_by_connecting(3, 0, connecting_is_trivial=True)


def test_section_criterion_gating():
    v = splitting_with_section(2, 3, induced_pin_is_trivial=True)
    assert (v.applicable, v.splits) == (True, True)
    v = splitting_with_section(2, 3, induced_pin_is_trivial=False)
    assert (v.applicable, v.splits) == (True, False)
    assert v.criterion == "section-pin-morphism"

    # connectivity bar is fiber_top - 1
    v = splitting_with_section(1, 3, induced_pin_is_trivial=True)
    assert (v.applicable, v.splits) == (False, None)
    v = splitting_with_section(5, 3, induced_pin_is_trivial=True,
                               section_exists=False)
    assert (v.applicable, v.splits) == (False, None)
    assert v.witness["section_exists"] is False

    # K(G,1) fiber over a connected, not simply connected base is in range
    v = splitting_with_section(0, 1, induced_pin_is_trivial=False)
    assert (v.applicable, v.splits) == (True, False)

    with pytest.raises(InputError):
        splitting_with_section(3, 0, induced_pin_is_trivial=True)


SCENARIO_VERDICTS = {
    "sphere-cover-connecting": (True, False),
    "sphere-cover-connecting-trivial": (True, True),
    "section-projection": (True, False),
    "section-trivial": (True, True),
    "low-connectivity": (False, None),
    "no-section": (False, None),
    "k1-action-trivial": (True, True),
    "k1-action-twisted": (True, False),
}


def test_splitting_scenarios():
    assert set(SPLITTING_SCENARIOS) == set(SCENARIO_VERDICTS)
    for name, (applicable, splits) in SCENARIO_VERDICTS.items():
        v = run_splitting_scenario(name)
        assert (v.applicable, v.splits) == (applicable, splits), name
        js = v.to_jsonable()
        assert js["applicable"] is applicable and js["splits"] == splits
    with pytest.raises(InputError):
        run_splitting_scenario("nonsense")


# ---------------------------------------------------------------------------
# p-adic squares


def test_padic_valuation():
    assert padic_valuation(7, 98) == (2, 2)
    assert padic_valuation(7, 5) == (0, 5)
    assert padic_valuation(3, 54) == (3, 2)
    with pytest.raises(InputError):
        padic_valuation(7, 0)


def test_padic_is_square_residue_and_witness():
    rep = padic_is_square(7, 2, 3)
    assert rep.is_square is True
    assert rep.witness == 108
    assert (rep.witness ** 2 - 2) % 7 ** 3 == 0
    assert rep.reason == "108^2 == 2 mod 7^3"

    rep = padic_is_square(7, 6, 1)
    assert rep.is_square is False and rep.witness is None
    assert rep.reason == "6 is not a quadratic residue mod 7"


def test_padic_is_square_matches_brute_force_mod_343():
    squares = {x * x % 343 for x in range(343)}
    for u in range(1, 343):
        if u % 7 == 0:
            continue
        rep = padic_is_square(7, u, 3)
        assert rep.is_square == (u in squares), u
        if rep.is_square:
            assert (rep.witness ** 2 - u) % 343 == 0


def test_padic_is_square_high_precision():
    rep = padic_is_square(7, 2, 12)
    assert rep.is_square and (rep.witness ** 2 - 2) % 7 ** 12 == 0
    # 7 is a quadratic residue mod 3, so sqrt(7) exists 3-adically
    rep = padic_is_square(3, 7, 20)
    assert rep.is_square and (rep.witness ** 2 - 7) % 3 ** 20 == 0


def test_padic_is_square_input_gates():
    with pytest.raises(InputError):
        padic_is_square(7, 14, 3)  # not a unit: route through is_square_int
    with pytest.raises(InputError):
        padic_is_square(2, 7, 3)  # odd primes only
    with pytest.raises(InputError):
        padic_is_square(7, 2, 0)  # precision >= 1


def test_is_square_int_cases():
    rep = is_square_int(7, 0, 3)
    assert rep.is_square is True and rep.witness == 0
    assert rep.reason == "zero is a square"

    rep = is_square_int(7, 98, 3)  # 98 = 2 * 7^2 with 2 a residue
    assert rep.is_square is True and rep.witness == 756
    assert (rep.witness ** 2 - 98) % 7 ** 3 == 0

    rep = is_square_int(7, 14, 3)  # odd valuation
    assert rep.is_square is False
    assert rep.reason == "odd valuation v_7 = 1"

    rep = is_square_int(7, 45, 3)  # unit part 45 ≡ 3, a non-residue
    assert rep.is_square is False
    assert "3 is not a quadratic residue mod 7" in rep.reason

    rep = is_square_int(7, -5, 3)  # -5 ≡ 2 mod 7, a residue
    assert rep.is_square is True and rep.witness == 311
    assert (rep.witness ** 2 - (-5)) % 7 ** 3 == 0

    js = rep.to_jsonable()
    assert js["is_square"] is True and js["witness"] == 311


@pytest.mark.parametrize("n", [0, 7, 2, 3])
def test_is_square_int_refuses_precision_zero(n):
    # zero and an odd valuation used to answer before the precision check
    with pytest.raises(InputError, match="precision must be >= 1"):
        is_square_int(7, n, 0)
    with pytest.raises(InputError, match="precision must be >= 1"):
        padic_sum_of_squares_nonzero(7, n, 0, 0)


def test_sum_of_squares_certificates():
    cert = padic_sum_of_squares_nonzero(7, 1, 2, 3)
    assert cert.sum_is_zero is False and cert.both_zero is False
    assert "visibly nonzero" in cert.argument

    cert = padic_sum_of_squares_nonzero(7, 0, 0, 3)
    assert cert.sum_is_zero is True and cert.both_zero is True
    assert "consistent" in cert.argument

    js = cert.to_jsonable()
    assert js["sum_is_zero"] is True and js["both_zero"] is True

    # a square multiple of the modulus is zero at this precision
    cert = padic_sum_of_squares_nonzero(7, 7 ** 4, 0, 3)
    assert cert.sum_is_zero is True and cert.both_zero is True


def test_sum_of_squares_rejections():
    with pytest.raises(InputError) as err:
        padic_sum_of_squares_nonzero(7, 4, 45, 3)
    assert "m = 45 is not a 7-adic square" in str(err.value)
    for p in (2, 5, 13):
        with pytest.raises(InputError):
            padic_sum_of_squares_nonzero(p, 1, 1, 3)
