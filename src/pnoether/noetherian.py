"""Structure theory for loop spaces whose classifying-space cohomology is a
finitely generated F_p-algebra.

The central object is the structure fibration

    K(P, 2)^p  →  BX  →  BY

with P a finite direct sum of cyclic p-groups and Prüfer groups and BY the
classifying space of a p-compact group.  This module provides the group
bookkeeping (parsing, Hom(Z/p, −) ranks, divisibility), the fibration
description, the reduced-T computation of the indecomposables of H*(BX),
Postnikov-style mapping-space summaries, the two splitting criteria (as
verdicts over caller-supplied morphism flags, never guesses), and the p-adic
square arithmetic behind the rank-3 non-splitting example.
"""

from __future__ import annotations

from . import steenrod, unstable
from ._record import Frozen, Record
from .em import CyclicClass, EMProduct, EMSpec, PruferClass
from .errors import EngineContractError, InputError
from .graded import FreeCommPresentation
from .steenrod import padic_valuation
from .unstable import (F, KrullReport, ModuleExpr, Power, Q1, Tensor,
                       krull_degree)

# ---------------------------------------------------------------------------
# abelian p-groups (finite sums of cyclic and Prüfer summands)


class AbelianPGroup(Frozen):
    """A finite direct sum of Z/p^r and Z/p^∞ summands, over a fixed p.

    Summands are the coefficient-class descriptors ``CyclicClass(r)`` and
    ``PruferClass()``; the tuple is kept in a canonical sorted order so that
    equal groups compare equal.
    """

    __slots__ = ("p", "summands")

    def __init__(self, p: int, summands: tuple = ()):
        steenrod.check_prime(p)
        clean = list(summands)
        for s in clean:
            if not isinstance(s, (CyclicClass, PruferClass)):
                raise InputError(
                    "summands must be CyclicClass(r) or PruferClass()")
        clean.sort(key=_summand_key)
        self._assign(p, tuple(clean))

    def __str__(self):
        if not self.summands:
            return "0"
        parts = []
        i = 0
        while i < len(self.summands):
            j = i
            while j < len(self.summands) and self.summands[j] == self.summands[i]:
                j += 1
            name = _summand_str(self.summands[i], self.p)
            if j - i == 1:
                parts.append(name)
            elif isinstance(self.summands[i], PruferClass):
                # a caret after Zpinf is a multiplicity in the grammar
                parts.append(f"{name}^{j - i}")
            else:
                # a caret after Z/N binds to the order, so repeated cyclic
                # summands need the parenthesized-multiplicity form
                parts.append(f"({name})^{j - i}")
            i = j
        return " + ".join(parts)


def _summand_key(s) -> tuple:
    return (1, 0) if isinstance(s, PruferClass) else (0, s.r)


def _summand_str(s, p: int) -> str:
    if isinstance(s, PruferClass):
        return "Zpinf"
    return f"Z/{p ** s.r}"


def parse_group(text: str, p: int) -> AbelianPGroup:
    """Parse the group DSL: ``Z/4 + Zpinf^2``, ``(Z/p)^3``, ``0``.

    Terms are joined by ``+``.  ``Z/N^r`` denotes the cyclic group of order
    N^r (the caret binds to the order, as in ``Z/p^r``); a caret after a
    parenthesized group or after ``Zpinf`` is a multiplicity.  ``p`` may be
    used symbolically for the ambient prime.
    """
    steenrod.check_prime(p)
    text = text.strip()
    if text == "0":
        return AbelianPGroup(p, ())
    summands: list = []
    for chunk in _split_top_level(text):
        term = chunk.strip()
        if not term:
            raise InputError(f"empty summand in group expression {text!r}")
        summands.extend(_parse_term(term, p, text))
    return AbelianPGroup(p, tuple(summands))


def _split_top_level(text: str) -> list:
    """Split on '+' outside parentheses, so ``(Z/2 + Zpinf)^2`` stays whole."""
    chunks, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(depth - 1, 0)
        elif ch == "+" and depth == 0:
            chunks.append(text[start:i])
            start = i + 1
    chunks.append(text[start:])
    return chunks


def _parse_term(term: str, p: int, whole: str) -> list:
    import re

    if term.startswith("("):
        m = re.fullmatch(r"\(([^()]+)\)(?:\^(\d+))?", term)
        if not m:
            raise InputError(f"bad parenthesized summand {term!r} in {whole!r}")
        inner = parse_group(m.group(1), p)
        mult = int(m.group(2) or 1)
        return list(inner.summands) * mult

    m = re.fullmatch(r"(?:Zpinf|Z/pinf|Zp_inf)(?:\^(\d+))?", term)
    if m:
        return [PruferClass()] * int(m.group(1) or 1)

    m = re.fullmatch(r"Z/(\d+|p)(?:\^(\d+))?", term)
    if m:
        base = p if m.group(1) == "p" else int(m.group(1))
        order = base ** int(m.group(2) or 1)
        r, unit = padic_valuation(p, order) if order else (0, 0)
        if unit != 1 or r < 1:
            raise InputError(
                f"summand {term!r} must be cyclic of p-power order (p = {p})")
        return [CyclicClass(r)]

    raise InputError(f"bad summand {term!r} in group expression {whole!r} "
                     "(expected Z/p^r, Zpinf, or a parenthesized group)")


def hom_zp(P: AbelianPGroup) -> int:
    """Rank of Hom(Z/p, P): one copy of Z/p per summand."""
    return len(P.summands)


def is_divisible(P: AbelianPGroup) -> bool:
    """True iff every summand is Prüfer (vacuously true for 0)."""
    return all(isinstance(s, PruferClass) for s in P.summands)


# ---------------------------------------------------------------------------
# presentations and the structure fibration


class PNoetherianPresentation(Frozen):
    """The data of the structure fibration: the abelian kernel P, the
    classifying-space cohomology of the p-compact base, and the order of the
    fundamental group (bookkeeping; must be a power of p)."""

    __slots__ = ("p", "P", "y_cohomology", "pi1_order")

    def __init__(self, p: int, P: AbelianPGroup,
                 y_cohomology: FreeCommPresentation = None,
                 pi1_order: int = 1):
        steenrod.check_prime(p)
        if P.p != p:
            raise InputError("group and presentation primes differ")
        if y_cohomology is None:
            y_cohomology = FreeCommPresentation(p, [], {})
        if y_cohomology.p != p:
            raise InputError("base cohomology is over the wrong prime")
        if pi1_order < 1:
            raise InputError("pi1 order must be >= 1")
        if padic_valuation(p, pi1_order)[1] != 1:
            raise InputError(f"pi1 order {pi1_order} is not a power of {p}")
        self._assign(p, P, y_cohomology, pi1_order)


class FibrationDescription(Frozen):
    """K(P,2)-completion fiber over the p-compact base, with flags."""

    __slots__ = ("p", "fiber", "base", "divisible", "p_compact")

    def __init__(self, p: int, fiber: EMProduct | None,
                 base: FreeCommPresentation, divisible: bool,
                 p_compact: bool):
        # the fiber is None when P = 0
        self._assign(p, fiber, base, divisible, p_compact)

    def fiber_factors(self) -> list:
        return [] if self.fiber is None else list(self.fiber.factors)

    def to_jsonable(self) -> dict:
        return {
            "p": self.p,
            "fiber": [str(f) for f in self.fiber_factors()],
            "base_generators": [
                {"name": g.name, "degree": g.degree, "kind": g.kind}
                for g in self.base.generators],
            "divisible": self.divisible,
            "p_compact": self.p_compact,
        }


def structure_fibration(pres: PNoetherianPresentation) -> FibrationDescription:
    """The fiber and base of K(P,2)^p → BX → BY.

    Each cyclic summand Z/p^r contributes K(Z/p^r, 2); each Prüfer summand
    contributes K(Z/p^∞, 2), whose mod-p model is K(Z, 3) (the degree shift
    lives in the EM enumeration).  P = 0 collapses the fibration: BX = BY.
    When every summand is Prüfer the whole fiber is a product of K(Z,3)
    models — the 2-connected-fiber case.
    """
    factors = tuple(EMSpec(s, 2) for s in pres.P.summands)
    fiber = EMProduct(factors) if factors else None
    return FibrationDescription(
        p=pres.p,
        fiber=fiber,
        base=pres.y_cohomology,
        divisible=is_divisible(pres.P),
        p_compact=not pres.P.summands,
    )


# ---------------------------------------------------------------------------
# reduced-T of the indecomposables of H*(BX)


class TQReport(Record):
    """T̄Q H*(BX): the module expression, its rank, and the Krull check."""

    __slots__ = ("p", "rank", "expression", "krull", "krull_at_most_one")

    def __init__(self, p: int, rank: int, expression: ModuleExpr,
                 krull: KrullReport, krull_at_most_one: bool):
        self._assign(p, rank, expression, krull, krull_at_most_one)

    def to_jsonable(self) -> dict:
        return {
            "p": self.p,
            "rank": self.rank,
            "expression": unstable.format_expr(self.expression),
            "krull_degree": self.krull.degree,
            "krull_at_most_one": self.krull_at_most_one,
            "trace": self.krull.trace_strings(),
        }


def tq_of_classifying_space(pres: PNoetherianPresentation) -> TQReport:
    """T̄Q H*(BX; F_p) ≅ Q H*(BW) for W elementary abelian of rank
    Hom(Z/p, P): the Q1 atom to the k-th power, zero when P = 0.

    The report carries the Krull degree of the result, which the structure
    theory promises is ≤ 1.
    """
    k = hom_zp(pres.P)
    expr = Power(Q1(), k)
    report = krull_degree(expr, p=pres.p)
    ok = report.determined and report.degree <= 1
    return TQReport(p=pres.p, rank=k, expression=expr, krull=report,
                    krull_at_most_one=ok)


def schwartz_target(k: int) -> ModuleExpr:
    """The comparison target F(1) ⊗ Q1^k for a rank-k detection morphism
    out of the indecomposables; k = 0 degenerates to F(1)."""
    if k < 0:
        raise InputError("rank must be >= 0")
    if k == 0:
        return F(1)
    return Tensor((F(1), Power(Q1(), k)))


# ---------------------------------------------------------------------------
# splitting criteria (verdicts over supplied morphism flags)


class SplitVerdict(Frozen):
    """Outcome of a fibration-splitting criterion.

    ``applicable`` is False when the stated connectivity hypotheses fail; in
    that case ``splits`` is None — the criterion never extrapolates.
    """

    __slots__ = ("applicable", "splits", "criterion", "witness")

    def __init__(self, applicable: bool, splits: bool | None, criterion: str,
                 witness: dict | None = None):
        self._assign(applicable, splits, criterion,
                     {} if witness is None else witness)

    def to_jsonable(self) -> dict:
        return {"applicable": self.applicable, "splits": self.splits,
                "criterion": self.criterion, "witness": dict(self.witness)}


def splitting_by_connecting(b_connectivity: int, fiber_top: int,
                            connecting_is_trivial: bool) -> SplitVerdict:
    """A fibration F[n] → E → B with B n-connected splits (E ≃ B × F) iff
    the connecting morphism π_{n+1}(B) → π_n(F) is trivial.

    ``fiber_top`` is n (the fiber is a Postnikov piece with top homotopy in
    degree n); ``connecting_is_trivial`` is the caller's homotopy-level
    input.  b_connectivity < n voids the hypothesis: verdict not applicable.
    """
    witness = {"b_connectivity": b_connectivity, "fiber_top": fiber_top,
               "connecting_is_trivial": connecting_is_trivial}
    if fiber_top < 1:
        raise InputError("fiber top homotopy degree must be >= 1")
    if b_connectivity < fiber_top:
        return SplitVerdict(False, None, "connecting-morphism", witness)
    return SplitVerdict(True, bool(connecting_is_trivial),
                        "connecting-morphism", witness)


def splitting_with_section(b_connectivity: int, fiber_top: int,
                           induced_pin_is_trivial: bool,
                           section_exists: bool = True) -> SplitVerdict:
    """A fibration F[n] → E → B with a section and B (n−1)-connected splits
    iff the induced morphism π_n(B) → π_n(B aut_*(F)) is trivial.

    For n = 1 (fiber a K(G,1)) the morphism flag is the triviality of the
    π₁(B)-action on G.  Verdict not applicable when the section is missing
    or the connectivity hypothesis fails.
    """
    witness = {"b_connectivity": b_connectivity, "fiber_top": fiber_top,
               "induced_pin_is_trivial": induced_pin_is_trivial,
               "section_exists": section_exists}
    if fiber_top < 1:
        raise InputError("fiber top homotopy degree must be >= 1")
    if not section_exists or b_connectivity < fiber_top - 1:
        return SplitVerdict(False, None, "section-pin-morphism", witness)
    return SplitVerdict(True, bool(induced_pin_is_trivial),
                        "section-pin-morphism", witness)


# ---------------------------------------------------------------------------
# p-adic squares (the arithmetic behind the rank-3 non-splitting example)


class SquareReport(Frozen):
    """Whether an integer is a p-adic square, with a Hensel witness."""

    __slots__ = ("p", "value", "precision", "is_square", "witness", "reason")

    def __init__(self, p: int, value: int, precision: int, is_square: bool,
                 witness: int | None, reason: str):
        self._assign(p, value, precision, is_square, witness, reason)

    def to_jsonable(self) -> dict:
        return {"p": self.p, "value": self.value, "precision": self.precision,
                "is_square": self.is_square, "witness": self.witness,
                "reason": self.reason}


def padic_is_square(p: int, u: int, precision: int) -> SquareReport:
    """Is the unit u a square in the p-adic integers (p odd)?

    True iff u is a quadratic residue mod p; Hensel lifting then produces a
    witness x with x² ≡ u mod p^precision.  Units only — a value divisible
    by p must be routed through the valuation (see is_square_int).
    """
    steenrod.check_prime(p)
    if p == 2:
        raise InputError("the quadratic-residue criterion needs an odd prime")
    if precision < 1:
        raise InputError("precision must be >= 1")
    if u % p == 0:
        raise InputError(
            f"{u} is divisible by {p}: strip the valuation first "
            "(a p-adic number is a square iff its valuation is even and "
            "its unit part is a square)")
    residue = u % p
    if pow(residue, (p - 1) // 2, p) != 1:
        return SquareReport(p, u, precision, False, None,
                            f"{residue} is not a quadratic residue mod {p}")
    root = next(x for x in range(1, p) if (x * x - u) % p == 0)
    modulus = p
    target = p ** precision
    while modulus < target:
        modulus = min(modulus * modulus, target)
        # Newton step: x <- x - (x^2 - u) / (2x), exact in Z/modulus
        inv = pow(2 * root, -1, modulus)
        root = (root - (root * root - u) * inv) % modulus
    if (root * root - u) % target != 0:
        raise EngineContractError("Hensel lifting failed to verify")
    return SquareReport(p, u, precision, True, root,
                        f"{root}^2 == {u} mod {p}^{precision}")


def is_square_int(p: int, n: int, precision: int) -> SquareReport:
    """p-adic square test for an arbitrary integer: zero is a square, an
    odd valuation is not, otherwise the unit part decides."""
    steenrod.check_prime(p)
    if precision < 1:
        raise InputError("precision must be >= 1")
    if n == 0:
        return SquareReport(p, 0, precision, True, 0, "zero is a square")
    v, u = padic_valuation(p, n)
    if v % 2:
        return SquareReport(p, n, precision, False, None,
                            f"odd valuation v_{p} = {v}")
    inner = padic_is_square(p, u, precision)
    if not inner.is_square:
        return SquareReport(p, n, precision, False, None,
                            f"unit part {u}: {inner.reason}")
    witness = inner.witness * p ** (v // 2)
    return SquareReport(p, n, precision, True, witness,
                        f"valuation {v} even; unit part: {inner.reason}")


class SumOfSquaresCertificate(Frozen):
    """Certificate that a sum of two p-adic squares vanishes only if both do
    (valid when −1 is a non-residue, i.e. p ≡ 3 mod 4)."""

    __slots__ = ("p", "n", "m", "precision", "sum_is_zero", "both_zero",
                 "argument")

    def __init__(self, p: int, n: int, m: int, precision: int,
                 sum_is_zero: bool, both_zero: bool, argument: str):
        self._assign(p, n, m, precision, sum_is_zero, both_zero, argument)

    def to_jsonable(self) -> dict:
        return {"p": self.p, "n": self.n, "m": self.m,
                "precision": self.precision, "sum_is_zero": self.sum_is_zero,
                "both_zero": self.both_zero, "argument": self.argument}


def padic_sum_of_squares_nonzero(p: int, n: int, m: int,
                                 precision: int) -> SumOfSquaresCertificate:
    """For p ≡ 3 mod 4: certify that n + m ≡ 0 (mod p^precision) with both
    n and m p-adic squares forces both ≡ 0.

    Rejects inputs that are not squares (that is the precondition, checked
    via the unit-part residue test), and rejects primes with −1 a residue —
    the criterion is simply not applicable there.
    """
    steenrod.check_prime(p)
    if p == 2 or p % 4 == 1:
        raise InputError(
            f"p = {p}: −1 is a square mod p, the two-squares criterion "
            "does not apply (need p ≡ 3 mod 4)")
    for label, value in (("n", n), ("m", m)):
        rep = is_square_int(p, value, precision)
        if not rep.is_square:
            raise InputError(
                f"{label} = {value} is not a {p}-adic square: {rep.reason}")
    target = p ** precision
    sum_zero = (n + m) % target == 0
    both_zero = n % target == 0 and m % target == 0
    if not sum_zero:
        argument = (f"n + m = {n + m} ≢ 0 mod {p}^{precision}: "
                    "the sum of these squares is visibly nonzero")
    elif both_zero:
        argument = (f"n ≡ m ≡ 0 mod {p}^{precision}: the sum vanishes "
                    "because both terms do — consistent")
    else:
        # both squares, sum ≡ 0, not both zero would force −1 to be a
        # residue mod p: impossible after the precondition checks above
        raise EngineContractError(
            "square inputs with vanishing sum but a nonzero term: "
            f"−1 would be a quadratic residue mod {p}")
    return SumOfSquaresCertificate(p, n, m, precision, sum_zero, both_zero,
                                   argument)
