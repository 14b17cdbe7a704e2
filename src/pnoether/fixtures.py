"""Ready-made scenario inputs.

Three families live here: the module-algebra fixtures for the finite-
generation certificate algorithm, the named fibration-splitting scenarios
exposed by the command line (the split criteria take homotopy-level
triviality flags as input, so concrete cases ship as fixtures rather than
pretending to compute homotopy groups), and the loop-space fibration used by
the odd-prime connected-cover checks.
"""

from __future__ import annotations

from .em import EMSpec, IntegerClass
from .errors import InputError
from .graded import (FreeCommPresentation, GeneratorSpec, GradedMap,
                     expand)
from .noetherian import SplitVerdict, splitting_by_connecting, \
    splitting_with_section
from .serre import FibrationSpec


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


def _sphere_cover_connecting() -> SplitVerdict:
    # K(Z,3) → S⁴⟨4⟩ → S⁴: the base is 3-connected and the connecting
    # morphism π₄(S⁴) → π₃(K(Z,3)) is an isomorphism — as far from trivial
    # as possible, so the cover never splits off its bottom fiber.
    return splitting_by_connecting(
        b_connectivity=3, fiber_top=3, connecting_is_trivial=False)


def _sphere_cover_connecting_trivial() -> SplitVerdict:
    return splitting_by_connecting(
        b_connectivity=3, fiber_top=3, connecting_is_trivial=True)


def _section_projection() -> SplitVerdict:
    # A fibration over S³ with a section whose clutching morphism
    # π₃(S³) ≅ Z → Z/p is the projection: nontrivial, hence no splitting
    # even though the connecting morphism vanishes (the section forces it).
    return splitting_with_section(
        b_connectivity=2, fiber_top=3, induced_pin_is_trivial=False)


def _section_trivial() -> SplitVerdict:
    return splitting_with_section(
        b_connectivity=2, fiber_top=3, induced_pin_is_trivial=True)


def _low_connectivity() -> SplitVerdict:
    # Base only 2-connected against a fiber with top homotopy in degree 3:
    # the connecting-morphism criterion does not apply.
    return splitting_by_connecting(
        b_connectivity=2, fiber_top=3, connecting_is_trivial=True)


def _no_section() -> SplitVerdict:
    return splitting_with_section(
        b_connectivity=5, fiber_top=3, induced_pin_is_trivial=True,
        section_exists=False)


def _k1_action_trivial() -> SplitVerdict:
    # Fiber a K(G,1): split iff the π₁(base)-action on G is trivial.
    return splitting_with_section(
        b_connectivity=0, fiber_top=1, induced_pin_is_trivial=True)


def _k1_action_twisted() -> SplitVerdict:
    return splitting_with_section(
        b_connectivity=0, fiber_top=1, induced_pin_is_trivial=False)


SPLITTING_SCENARIOS = {
    "sphere-cover-connecting": (
        "connected cover of a sphere: connecting morphism an isomorphism",
        _sphere_cover_connecting),
    "sphere-cover-connecting-trivial": (
        "same connectivity data with a trivial connecting morphism",
        _sphere_cover_connecting_trivial),
    "section-projection": (
        "sectioned fibration over S³ with Z → Z/p projection clutching",
        _section_projection),
    "section-trivial": (
        "sectioned fibration with trivial clutching morphism",
        _section_trivial),
    "low-connectivity": (
        "base below the connectivity hypothesis: criterion not applicable",
        _low_connectivity),
    "no-section": (
        "section criterion invoked without a section: not applicable",
        _no_section),
    "k1-action-trivial": (
        "K(G,1) fiber with trivial fundamental-group action",
        _k1_action_trivial),
    "k1-action-twisted": (
        "K(G,1) fiber with a nontrivial fundamental-group action",
        _k1_action_twisted),
}


def run_splitting_scenario(name: str) -> SplitVerdict:
    if name not in SPLITTING_SCENARIOS:
        known = ", ".join(sorted(SPLITTING_SCENARIOS))
        raise InputError(f"unknown splitting scenario {name!r} (try one of: {known})")
    return SPLITTING_SCENARIOS[name][1]()


# ---------------------------------------------------------------------------
# loop-space fibration builders


def s3_loop_fibration(p: int, bound: int = None) -> FibrationSpec:
    """K(Z,2) → S³⟨3⟩ → S³ with τ(ι₂) the fundamental class of the sphere."""
    base = FreeCommPresentation(
        p, [GeneratorSpec("x3", 3, "exterior")], {})
    return FibrationSpec(p, base, EMSpec(IntegerClass(), 2),
                         {"i2": "x3"}, bound)
