"""Finite-generation certificates for module-algebras over a truncated
Steenrod algebra: generator extraction, correction-term rewriting, and the
contract checks that refuse inconsistent input tables."""

import pytest

from pnoether.errors import EngineContractError, InputError
from pnoether.fixtures import (appendix_broken, appendix_compatible,
                               appendix_tensor, identity_map)
from pnoether.graded import (FreeCommPresentation, GradedMap,
                             appendix_generators, expand)


def run(fix, **over):
    kw = dict(fix)
    kw.update(over)
    return appendix_generators(kw["G"], kw["B"], kw["module_gens"],
                               kw["proj"], kw["embed"])


def test_compatible_fixture_all_corrections_vanish():
    res = run(appendix_compatible())
    assert res.generators == [("u.1", 2)]
    assert res.checked_pairs == 20
    # one certificate per (operation, algebra generator) pair within bound
    assert [(c.op, c.generator, c.degree) for c in res.certificates] == [
        (f"Sq{k}", "u", 2 + k) for k in range(1, 7)]
    assert all(c.correction == "0" and c.expression == "0" and c.verified
               for c in res.certificates)


def test_tensor_fixture_twisted_rewrites_the_correction():
    res = run(appendix_tensor())
    # module generator first (degree 3), then the algebra generator line
    assert res.generators == [("b2", 3), ("u.1", 2)]
    assert res.checked_pairs == 30
    nonzero = [c for c in res.certificates if c.correction != "0"]
    assert len(nonzero) == 1
    cert = nonzero[0]
    assert (cert.op, cert.generator, cert.degree) == ("Sq1", "u", 3)
    assert cert.correction == "b"
    assert cert.expression == "b2"
    assert cert.verified is True
    assert len(res.certificates) == 8

    # the correction really is Sq1(u.1) - (Sq1 u).1 = b - 0
    kw = appendix_tensor()
    B, G, embed = kw["B"], kw["G"], kw["embed"]
    u1 = embed.apply(G.generator_element("u"))
    xi = B.act(("Sq", 1), u1) - embed.apply(G.act(("Sq", 1), G.generator_element("u")))
    assert xi == B.generator_element("b")

    row = res.to_jsonable()["certificates"][0]
    assert row == {"op": "Sq1", "generator": "u", "degree": 3,
                   "correction": "b", "expression": "b2", "verified": True}
    assert res.to_jsonable()["generators"] == [
        {"name": "b2", "degree": 3}, {"name": "u.1", "degree": 2}]


def test_tensor_fixture_untwisted_has_zero_corrections():
    res = run(appendix_tensor(twist=False))
    assert res.generators == [("b2", 3), ("u.1", 2)]
    assert all(c.correction == "0" for c in res.certificates)


def test_broken_fixture_reports_the_offending_pair():
    with pytest.raises(EngineContractError) as err:
        run(appendix_broken())
    assert str(err.value) == "proj(Sq1(g.1)) != Sq1(g) for g = u"


def test_trivial_algebra_reports_the_unit():
    E = expand(FreeCommPresentation(2, [], {}), 4)
    res = appendix_generators(E, E, [E.one()], identity_map(E, E),
                              identity_map(E, E))
    assert res.generators == [("1", 0)]
    assert res.certificates == []
    assert res.checked_pairs == 4  # each Sq^k on the unit line


def test_redundant_module_generators_are_dropped():
    kw = appendix_compatible()
    B = kw["B"]
    # u.1 lies in the image of embed, so it normalizes to zero and is dropped
    res = run(kw, module_gens=[B.one(), B.generator_element("u")])
    assert res.generators == [("u.1", 2)]


def test_contract_first_generator_must_be_the_unit():
    kw = appendix_compatible()
    B = kw["B"]
    with pytest.raises(EngineContractError) as err:
        run(kw, module_gens=[B.generator_element("u")])
    assert "first module generator must be the unit" in str(err.value)
    with pytest.raises(EngineContractError):
        run(kw, module_gens=[])


def test_contract_proj_must_restore_G():
    kw = appendix_compatible()
    G, B = kw["G"], kw["B"]
    crushing = GradedMap.from_function(
        B, G, lambda d, i: G.element(d, i) if d == 0 else G.zero())
    with pytest.raises(EngineContractError) as err:
        run(kw, proj=crushing)
    assert "proj(embed(x)) != x" in str(err.value)


def test_certificate_bound_cannot_exceed_tables():
    # the certificates run through B's bound, past the end of G's tables
    kw = appendix_compatible()
    short = appendix_compatible(bound=kw["bound"] - 1)
    with pytest.raises(InputError, match="G's tables end at degree 7"):
        run(kw, G=short["G"])
