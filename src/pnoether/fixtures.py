"""Ready-made scenario inputs.

Two families live here: the module-algebra fixtures for the finite-
generation certificate algorithm, and the named fibration-splitting
scenarios exposed by the command line (the split criteria take
homotopy-level triviality flags as input, so concrete cases ship as
fixtures rather than pretending to compute homotopy groups).
"""

from __future__ import annotations

from .errors import InputError
from .graded import (FreeCommPresentation, GeneratorSpec, GradedMap,
                     expand)
from .noetherian import SplitVerdict, splitting_by_connecting, \
    splitting_with_section


# ---------------------------------------------------------------------------
# module-algebra fixtures for the finite-generation certificates


def _check_bound(bound: int, module_degree: int) -> None:
    """Refuse a bound below the degree of the module generator that a
    fixture builds."""
    if bound < module_degree:
        raise InputError(
            f"bound {bound} is below the degree-{module_degree} module "
            f"generator; the smallest usable bound is {module_degree}")


def identity_map(source, target) -> GradedMap:
    """Basis-by-basis identity between two expansions of one presentation."""
    return GradedMap.from_function(
        source, target, lambda d, i: target.element(d, i))


def appendix_compatible(bound: int = 8) -> dict:
    """G = B = F₂[u₂] with the standard action, proj the identity.

    Every correction term vanishes: the canonical sanity fixture.
    """
    pres = FreeCommPresentation(2, [GeneratorSpec("u", 2)], {})
    G = expand(pres, bound)
    B = expand(pres, bound)
    return {
        "p": 2,
        "bound": bound,
        "G": G,
        "B": B,
        "module_gens": [B.one()],
        "proj": identity_map(B, G),
        "embed": identity_map(G, B),
    }


def appendix_tensor(bound: int = 10, twist: bool = True) -> dict:
    """F₂[u₂] acting on a rank-two free module: B = G·1 ⊕ G·b with |b| = 3
    and the trivial action on b.

    With ``twist`` the algebra B declares Sq¹u = b, so the operations on B
    disagree with those of G on the unit line by terms in ker(proj) — the
    corrections the certificate algorithm must rewrite.  Without it the two
    actions agree and every correction is zero.  Either way the expected
    generator set is {b, u·1}.
    """
    _check_bound(bound, 3)
    g_pres = FreeCommPresentation(2, [GeneratorSpec("u", 2)], {})
    b_action = {
        ("u", "Sq1"): "b" if twist else "0",
        ("b", "Sq1"): "0",
        ("b", "Sq2"): "0",
    }
    b_pres = FreeCommPresentation(
        2,
        [GeneratorSpec("u", 2), GeneratorSpec("b", 3, "exterior")],
        b_action)
    G = expand(g_pres, bound)
    B = expand(b_pres, bound)
    embed = GradedMap.from_function(
        G, B, lambda d, i: B.element_from_poly(G.basis_label(d, i)))

    def project(d, i):
        label = B.basis_label(d, i)
        if "b" in label:
            return G.zero()
        return G.element_from_poly(label)

    proj = GradedMap.from_function(B, G, project)
    return {
        "p": 2,
        "bound": bound,
        "G": G,
        "B": B,
        "module_gens": [B.one(), B.generator_element("b")],
        "proj": proj,
        "embed": embed,
    }


def appendix_broken(bound: int = 8) -> dict:
    """Two tabulations of F₂[u₂] ⊗ E(w₃) that disagree on Sq¹u (0 versus w),
    with proj the identity: the operation-compatibility contract
    proj(θ(g·1)) = θg fails on (Sq¹, u) and must be reported, not repaired.
    """
    _check_bound(bound, 3)
    gens = [GeneratorSpec("u", 2), GeneratorSpec("w", 3, "exterior")]
    shared = {("w", "Sq1"): "0", ("w", "Sq2"): "0"}
    g_pres = FreeCommPresentation(2, gens, {("u", "Sq1"): "0", **shared})
    b_pres = FreeCommPresentation(2, gens, {("u", "Sq1"): "w", **shared})
    G = expand(g_pres, bound)
    B = expand(b_pres, bound)
    return {
        "p": 2,
        "bound": bound,
        "G": G,
        "B": B,
        "module_gens": [B.one(), B.generator_element("w")],
        "proj": identity_map(B, G),
        "embed": identity_map(G, B),
    }


# ---------------------------------------------------------------------------
# named splitting scenarios


# name -> (description, criterion, its keyword flags)
SPLITTING_SCENARIOS = {
    # K(Z,3) → S⁴⟨4⟩ → S⁴: the base is 3-connected and the connecting
    # morphism π₄(S⁴) → π₃(K(Z,3)) is an isomorphism — as far from trivial
    # as possible, so the cover never splits off its bottom fiber.
    "sphere-cover-connecting": (
        "connected cover of a sphere: connecting morphism an isomorphism",
        splitting_by_connecting,
        dict(b_connectivity=3, fiber_top=3, connecting_is_trivial=False)),
    "sphere-cover-connecting-trivial": (
        "same connectivity data with a trivial connecting morphism",
        splitting_by_connecting,
        dict(b_connectivity=3, fiber_top=3, connecting_is_trivial=True)),
    # A fibration over S³ with a section whose clutching morphism
    # π₃(S³) ≅ Z → Z/p is the projection: nontrivial, hence no splitting
    # even though the connecting morphism vanishes (the section forces it).
    "section-projection": (
        "sectioned fibration over S³ with Z → Z/p projection clutching",
        splitting_with_section,
        dict(b_connectivity=2, fiber_top=3, induced_pin_is_trivial=False)),
    "section-trivial": (
        "sectioned fibration with trivial clutching morphism",
        splitting_with_section,
        dict(b_connectivity=2, fiber_top=3, induced_pin_is_trivial=True)),
    # Base only 2-connected against a fiber with top homotopy in degree 3:
    # the connecting-morphism criterion does not apply.
    "low-connectivity": (
        "base below the connectivity hypothesis: criterion not applicable",
        splitting_by_connecting,
        dict(b_connectivity=2, fiber_top=3, connecting_is_trivial=True)),
    "no-section": (
        "section criterion invoked without a section: not applicable",
        splitting_with_section,
        dict(b_connectivity=5, fiber_top=3, induced_pin_is_trivial=True,
             section_exists=False)),
    # Fiber a K(G,1): split iff the π₁(base)-action on G is trivial.
    "k1-action-trivial": (
        "K(G,1) fiber with trivial fundamental-group action",
        splitting_with_section,
        dict(b_connectivity=0, fiber_top=1, induced_pin_is_trivial=True)),
    "k1-action-twisted": (
        "K(G,1) fiber with a nontrivial fundamental-group action",
        splitting_with_section,
        dict(b_connectivity=0, fiber_top=1, induced_pin_is_trivial=False)),
}


def run_splitting_scenario(name: str) -> SplitVerdict:
    if name not in SPLITTING_SCENARIOS:
        known = ", ".join(sorted(SPLITTING_SCENARIOS))
        raise InputError(f"unknown splitting scenario {name!r} (try one of: {known})")
    _description, criterion, flags = SPLITTING_SCENARIOS[name]
    return criterion(**flags)
