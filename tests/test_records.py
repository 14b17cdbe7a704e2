"""The package's record classes: construction, validation, immutability,
equality, hashing and repr.

The records are plain slotted classes; these are the semantics callers
rely on, and each repr is the text the records have always printed.
"""

import copy
import pickle
import re

import pytest

from pnoether import InputError
from pnoether.catalog import CatalogEntry, get_entry
from pnoether.em import (CyclicClass, EMProduct, EMSpec, FiberGenerator,
                         FiberLayout, IntegerClass, PadicClass, PruferClass,
                         parse_space)
from pnoether.em import em_product_presentation
from pnoether.graded import (AppendixCertificate, AppendixResult,
                             FiniteModuleTable, FreeCommPresentation,
                             GeneratorSpec)
from pnoether.noetherian import (AbelianPGroup, FibrationDescription,
                                 PNoetherianPresentation, SplitVerdict,
                                 SquareReport, SumOfSquaresCertificate,
                                 TQReport, parse_group)
from pnoether.serre import SSResult, Survivor
from pnoether.unstable import F, KrullReport, ModuleExpr, Q1

# (record, its repr), one per class: the hashable values, the other
# frozen records, and the mutable ones
VALUES = [
    (IntegerClass(), "IntegerClass()"),
    (PadicClass(), "PadicClass()"),
    (PruferClass(), "PruferClass()"),
    (CyclicClass(), "CyclicClass(r=1)"),
    (EMSpec(IntegerClass(), 3), "EMSpec(coefficient=IntegerClass(), n=3)"),
    (EMProduct([EMSpec(CyclicClass(2), 1), EMSpec(PruferClass(), 2)]),
     "EMProduct(factors=(EMSpec(coefficient=CyclicClass(r=2), n=1), "
     "EMSpec(coefficient=PruferClass(), n=2)))"),
    (FiberGenerator("x3", 3, "exterior", "i3", (2,)),
     "FiberGenerator(name='x3', degree=3, kind='exterior', bottom='i3', "
     "word=(2,))"),
    (GeneratorSpec("y", 2, bockstein_link=[1, "x"]),
     "GeneratorSpec(name='y', degree=2, kind='polynomial', "
     "bockstein_link=(1, 'x'))"),
    (AbelianPGroup(3, (PruferClass(), CyclicClass(2), CyclicClass(1))),
     "AbelianPGroup(p=3, summands=(CyclicClass(r=1), CyclicClass(r=2), "
     "PruferClass()))"),
    (FibrationDescription(p=2, fiber=None, base=None, divisible=True,
                          p_compact=True),
     "FibrationDescription(p=2, fiber=None, base=None, divisible=True, "
     "p_compact=True)"),
    (SquareReport(7, 2, 3, True, 108, "r"),
     "SquareReport(p=7, value=2, precision=3, is_square=True, witness=108, "
     "reason='r')"),
    (SumOfSquaresCertificate(3, 9, 0, 2, False, False, "a"),
     "SumOfSquaresCertificate(p=3, n=9, m=0, precision=2, "
     "sum_is_zero=False, both_zero=False, argument='a')"),
]
FROZEN = VALUES + [
    (ModuleExpr({}), "0"),
    (SplitVerdict(True, False, "connecting-morphism"),
     "SplitVerdict(applicable=True, splits=False, "
     "criterion='connecting-morphism', witness={})"),
    (CatalogEntry("E", "d", True, (GeneratorSpec("a", 1),), {}, None),
     "CatalogEntry(name='E', description='d', torsion_free=True, "
     "generators=(GeneratorSpec(name='a', degree=1, kind='polynomial', "
     "bockstein_link=None),), action={}, recommended_primes=None)"),
]
MUTABLE = [
    (FiberLayout(None, [], {"i3": 3}),
     "FiberLayout(presentation=None, generators=[], bottoms={'i3': 3})"),
    (FiniteModuleTable(2, 1, [1, 0], [["1"], []], {}),
     "FiniteModuleTable(p=2, bound=1, dims=[1, 0], labels=[['1'], []], "
     "action={}, action_complete=True)"),
    (AppendixCertificate("Sq1", "z", 3, "c", "e", True),
     "AppendixCertificate(op='Sq1', generator='z', degree=3, "
     "correction='c', expression='e', verified=True)"),
    (AppendixResult([("a", 1)], [], 0),
     "AppendixResult(generators=[('a', 1)], certificates=[], "
     "checked_pairs=0)"),
    (TQReport(2, 1, F(1), KrullReport(1), True),
     "TQReport(p=2, rank=1, expression=F(1), "
     "krull=KrullReport(degree=1, trace=[]), krull_at_most_one=True)"),
    (Survivor("z3", 3, "exterior", "i3", "ι"),
     "Survivor(name='z3', degree=3, kind='exterior', origin='i3', "
     "display='ι', is_companion=False, bockstein_link=None, label=None, "
     "exponent=1)"),
    (SSResult(2, 4, None, [], [], [], {}, [1], _build_total=len),
     "SSResult(p=2, bound=4, quotient=None, surviving_fiber_generators=[], "
     "killed_base_ideal=[], log=[], flags={}, series=[1])"),
]


@pytest.mark.parametrize("record, text", FROZEN + MUTABLE)
def test_repr_is_the_field_listing(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, text", VALUES)
def test_a_value_equals_and_hashes_as_its_copies(record, text):
    for twin in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and not twin != record
        assert hash(twin) == hash(record)
        assert type(twin) is type(record) and repr(twin) == text


@pytest.mark.parametrize("record, text", FROZEN)
def test_a_frozen_record_refuses_assignment(record, text):
    for name in re.findall(r"(\w+)=", text) + ["terms", "other"]:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, name)
    assert repr(record) == text


@pytest.mark.parametrize("record, text", MUTABLE)
def test_a_mutable_record_compares_by_value_and_is_unhashable(record, text):
    twin = copy.copy(record)
    assert twin == record
    with pytest.raises(TypeError):
        hash(record)
    name = re.match(r"\w+\((\w+)=", text).group(1)
    setattr(twin, name, "changed")
    assert twin != record
    setattr(twin, name, getattr(record, name))
    assert twin == record


def test_keywords_and_defaults():
    assert GeneratorSpec(name="z", degree=4) == \
        GeneratorSpec("z", 4, "polynomial", None)
    assert CyclicClass(r=1) == CyclicClass()
    assert EMSpec(coefficient=PadicClass(), n=2) == EMSpec(PadicClass(), 2)
    assert AbelianPGroup(p=5) == AbelianPGroup(5, ())
    pres = PNoetherianPresentation(3, AbelianPGroup(3))
    assert pres.y_cohomology.p == 3 and pres.pi1_order == 1
    assert PNoetherianPresentation(3, pres.P, pres.y_cohomology,
                                   pi1_order=9).pi1_order == 9
    # a default container is a fresh object per record
    a, b = SplitVerdict(True, True, "c"), SplitVerdict(True, True, "c")
    assert a.witness == {} and a.witness is not b.witness
    assert KrullReport(0).trace == [] and \
        KrullReport(0).trace is not KrullReport(0).trace
    s = Survivor(name="y5", degree=5, kind="exterior", origin="o",
                 display="", is_companion=True, exponent=2)
    assert (s.is_companion, s.bockstein_link, s.label, s.exponent) == \
        (True, None, None, 2)
    assert FiniteModuleTable(2, 0, [1], [["1"]], {}).action_complete


def test_constructors_normalise():
    spec = GeneratorSpec("x", 1, "exterior", [1, "y"])
    assert spec.bockstein_link == (1, "y")
    group = AbelianPGroup(2, iter([PruferClass(), CyclicClass(3),
                                   CyclicClass(1)]))
    assert group.summands == (CyclicClass(1), CyclicClass(3), PruferClass())
    assert EMProduct(iter([EMSpec(IntegerClass(), 3)])).factors == \
        (EMSpec(IntegerClass(), 3),)


@pytest.mark.parametrize("build", [
    lambda: CyclicClass(0),
    lambda: EMSpec(IntegerClass(), 0),
    lambda: EMProduct([]),
    lambda: AbelianPGroup(2, (EMSpec(IntegerClass(), 3),)),
    lambda: AbelianPGroup(4),
    lambda: GeneratorSpec("1x", 2),
    lambda: GeneratorSpec("x", 0),
    lambda: GeneratorSpec("x", 2, "divided"),
    lambda: GeneratorSpec("x", 2, bockstein_link=(0, "y")),
    lambda: PNoetherianPresentation(3, AbelianPGroup(2)),
    lambda: PNoetherianPresentation(2, AbelianPGroup(2), pi1_order=6),
], ids=["cyclic-r0", "em-n0", "em-empty-product", "group-bad-summand",
        "group-not-prime", "gen-name", "gen-degree", "gen-kind",
        "gen-bockstein", "pres-primes", "pres-pi1"])
def test_validation_still_raises(build):
    with pytest.raises(InputError):
        build()


def test_value_equality():
    assert parse_space("K(Z,3)", 2) == EMSpec(IntegerClass(), 3)
    assert parse_space("K(Z/4,2)", 2) != EMSpec(CyclicClass(1), 2)
    for p, text in ((2, "Z/4 + Zpinf^2 + Z/2"), (3, "(Z/p)^3 + Z/27"),
                    (5, "0")):
        g = parse_group(text, p)
        assert parse_group(str(g), p) == g and hash(parse_group(str(g), p)) \
            == hash(g)
    assert AbelianPGroup(2, (CyclicClass(1),)) != \
        AbelianPGroup(3, (CyclicClass(1),))
    # field-less classes: equal within a class, unequal across classes
    kinds = [IntegerClass, PadicClass, PruferClass]
    for a in kinds:
        for b in kinds:
            assert (a() == b()) == (a is b)
            assert (a() != b()) == (a is not b)
    assert len({IntegerClass(), IntegerClass(), PadicClass()}) == 2
    assert CyclicClass(1) != PruferClass() and CyclicClass(1) != 1
    assert get_entry("BS3") == get_entry("BS3")


def test_presentations_built_alike_are_equal_and_hash_alike():
    g = parse_group("Z/9 + Zpinf", 3)
    assert PNoetherianPresentation(3, g) == PNoetherianPresentation(3, g)
    assert hash(PNoetherianPresentation(3, g)) == \
        hash(PNoetherianPresentation(3, g))
    bs3 = get_entry("BS3")
    assert bs3.presentation(3) == bs3.presentation(3)
    assert hash(bs3.presentation(3)) == hash(bs3.presentation(3))
    assert len({bs3.presentation(3), bs3.presentation(3)}) == 1
    k3 = EMSpec(IntegerClass(), 3)
    assert em_product_presentation(k3, 2, 12) == \
        em_product_presentation(k3, 2, 12)
    # another prime, other generators, or other action entries
    assert bs3.presentation(3) != bs3.presentation(5)
    assert bs3.presentation(3) != get_entry("X2b_4").presentation(3)
    assert bs3.presentation(3) != \
        FreeCommPresentation(3, bs3.generators, {})
    assert bs3.presentation(3) != bs3


def test_module_expressions_compare_by_their_normal_form():
    assert F(1) * Q1() == Q1() * F(1)
    assert hash(F(1) * Q1()) == hash(Q1() * F(1))
    assert F(1) + F(2) != F(1)
    assert F(1) != {(0, (1,), 0, None): 1}


def test_ss_result_equality_ignores_its_total_builder():
    a = SSResult(2, 4, None, [], [], [], {}, [1], _build_total=lambda: "a")
    b = SSResult(2, 4, None, [], [], [], {}, [1], _build_total=lambda: "b")
    assert a == b
    assert a.total == "a" and "total" in vars(a) and "total" not in vars(b)
    assert a == b  # the cached total is no field either
    assert a != SSResult(2, 5, None, [], [], [], {}, [1])
