"""Transgressive spectral-sequence engine for fibrations with EM-space fiber.

Supported pattern: every differential is generated by the transgression
values of the fiber's fundamental classes, extended to all fiber algebra
generators through the Steenrod action on the base, to p-th powers through
the power-transgression rule, and multiplicatively: one Kudo chain per
fiber generator, whose values are computed when first read, and read only
where the quotient of the base has a class in the target degree.  For a
polynomial fiber generator ``u`` with |u| = 2m at an odd prime, killing
b = τ(u) leaves the companion class u^{p-1}·b, whose own differential hits
βP^m(b), while ``u^p`` transgresses to P^m(b); at p = 2 the companion's
target is b² and ``u²`` transgresses to Sq^{|u|}(b).  Any configuration
outside this pattern (detected through annihilator profiles of the killed
classes) aborts with ``UnsupportedFibrationError`` rather than reporting a
wrong answer.

The reported ``total`` algebra is the E∞ model — an associated graded ring;
multiplicative extension problems between filtration stages are not
resolved.  Each surviving Kudo stage a^q is a fiber monomial, and a
Steenrod word acts on it by one Adem composition on a (``_Engine._value``):
the survivors' display words and, over a trivial quotient, their values in
``total`` are both read from it, and no fiber algebra is ever expanded.
"""

from __future__ import annotations

import functools
import heapq
import itertools

from . import steenrod
from ._record import Record
from .catalog import CatalogEntry
from .em import EMProduct, EMSpec, IntegerClass, _effective, fiber_layout
from .errors import EngineContractError, InputError, UnsupportedFibrationError
from .graded import (Element, FreeCommPresentation, FreeTruncAlgebra,
                     GeneratorSpec, QuotientTruncAlgebra,
                     _apply_factor, _checked_poly, expand, mult_ranks,
                     op_degree, ops_on_degree)


class FibrationSpec:
    """A fibration fiber → E → base with declared transgression.

    ``transgression`` maps the name of each fiber factor's bottom class
    (e.g. ``"i3"``, or ``"f2_i3"`` in a product) to a base element of one
    degree more that ``graded._checked_poly`` takes, a polynomial string or
    a monomial dict (an Element raises InputError); omitted names mean 0.
    ``fiber_gens`` holds the fiber generators (``em.FiberGenerator``) by
    name, in the fiber presentation's order, and ``fiber_compose`` is the
    layout's ``_compose``.  π₁ of the base is assumed to act trivially on
    the fiber's cohomology.
    """

    def __init__(self, p: int, base: FreeCommPresentation, fiber,
                 transgression=None, bound: int = None):
        steenrod.check_prime(p)
        if base.p != p:
            raise InputError(f"base presentation is over p={base.p}, not {p}")
        if isinstance(fiber, EMSpec):
            fiber = EMProduct((fiber,))
        if not isinstance(fiber, EMProduct):
            raise InputError("fiber must be an EM space or product of EM spaces")
        self.p = p
        self.base = base
        self.fiber = fiber
        if bound is None:
            bound = default_bound(base, fiber)
        if bound < 0:
            raise InputError("bound must be >= 0")
        self.bound = bound
        layout = fiber_layout(fiber, p, bound)
        self.fiber_pres = layout.presentation
        self.fiber_gens = {g.name: g for g in layout.generators}
        self.fiber_compose = layout._compose
        bottoms = layout.bottoms
        self.transgression = {name: {} for name in bottoms}
        for key, value in dict(transgression or {}).items():
            if key not in bottoms:
                raise InputError(
                    f"transgression key {key!r} is not a fiber bottom class "
                    f"(expected one of {sorted(bottoms)})")
            self.transgression[key] = _checked_poly(
                p, base.generators, base.index, value, bottoms[key] + 1,
                f"transgression of {key}")

    def base_algebra(self) -> FreeTruncAlgebra:
        return expand(self.base, self.bound + 1)


def default_bound(base: FreeCommPresentation, fiber) -> int:
    """2 · (largest base generator degree) + largest fiber bottom degree."""
    if isinstance(fiber, EMSpec):
        fiber = EMProduct((fiber,))
    base_top = max((g.degree for g in base.generators), default=1)
    fiber_bottom = max(_effective(spec)[2] for spec in fiber.factors)
    return 2 * base_top + fiber_bottom


# ---------------------------------------------------------------------------
# the Kudo chain: the one place a transgression is computed


class _KudoStage:
    """The stage a^e of the Kudo chain a, a^p, a^p², … of the fiber
    generator a, within the bound (a alone when a is exterior).

    ``tau``, its transgression in the base algebra (expanded through
    bound + 1), is computed when first read.  τ commutes with the Steenrod
    action, so τ(a) = w·τ(ι) for a's word w on its bottom class ι; and
    τ(x^p) = Sq^{|x|}τ(x) at p = 2, P^{|x|/2}τ(x) at odd p, where a
    polynomial x has even degree."""

    def __init__(self, spec: FibrationSpec, base_alg, gen, below=None):
        self.spec, self.base_alg, self.gen = spec, base_alg, gen
        self.below = below  # the previous stage, None at a itself
        self.exponent = 1 if below is None else below.exponent * spec.p
        self.degree = gen.degree * self.exponent
        self.origin = gen.name if below is None \
            else f"{gen.name}^{self.exponent}"

    @functools.cached_property
    def tau(self) -> Element:
        spec, base, gen, below = self.spec, self.base_alg, self.gen, self.below
        if below is not None:
            d = below.degree
            op = ("Sq", d) if spec.p == 2 else ("P", d // 2)
            return base.act(op, below.tau)
        bottom = base.element_from_poly(spec.transgression[gen.bottom])
        if bottom.is_zero:
            return bottom
        if gen.word is None:
            raise UnsupportedFibrationError(
                f"fiber class {gen.name} is built on a higher-Bockstein "
                f"companion of {gen.bottom}; its transgression is not "
                "determined by the primary Steenrod action")
        return base.act_word(gen.word, bottom)

    def next(self):
        """The stage a^{pe}, or None past the bound or for an exterior a."""
        if self.gen.kind == "exterior" \
                or self.degree * self.spec.p > self.spec.bound:
            return None
        return _KudoStage(self.spec, self.base_alg, self.gen, self)

    def hits(self, quotient: QuotientTruncAlgebra) -> bool:
        """Whether τ of this stage is nonzero in the quotient; τ is read
        only when the quotient has a class in degree |a^e| + 1."""
        return bool(quotient.dim(self.degree + 1)) \
            and not quotient.contains_in_ideal(self.tau)


# ---------------------------------------------------------------------------
# annihilator profiles (regularity of the classes being killed)


def annihilator_profile(alg, x: Element) -> str:
    """Classify ann(x) degreewise through the reliable range.

    Returns "zero" (x is a nonzerodivisor), "principal" (ann(x) = (x),
    which requires x² = 0), or "other".
    """
    if x.is_zero:
        raise InputError("annihilator profile of zero is not meaningful")
    degree = x.degree()
    square_zero = 2 * degree > alg.bound or alg.product(x, x).is_zero
    return _profile(alg.dims(), mult_ranks(alg, x), degree, square_zero)


def _profile(dims, ranks, degree: int, square_zero: bool) -> str:
    """annihilator_profile from the ranks of multiplication by a class of
    the given degree (see graded.mult_ranks) and whether it squares to 0:
    the kernel from degree d has dimension dims[d] - ranks[d], and the
    image in degree d has dimension ranks[d - degree] (0 below it).  With
    ranks from degrees up to bound - degree, every image is 0 when twice
    the degree exceeds the bound, and square_zero cannot change the answer."""
    kernels = [dims[d] - r for d, r in enumerate(ranks)]
    images = [ranks[d - degree] if d >= degree else 0
              for d in range(len(ranks))]
    if not any(kernels):
        return "zero"
    return "principal" if square_zero and kernels == images else "other"


# ---------------------------------------------------------------------------
# the engine


class Survivor(Record):
    """A surviving fiber class: a companion, or the Kudo stage a^e of the
    fiber generator a = ``label`` with e = ``exponent``, whose fiber class
    is that monomial (see _Engine._monomial) and whose kind is a's; a
    companion's ``exponent`` is its partner's."""

    __slots__ = ("name", "degree", "kind", "origin", "display",
                 "is_companion", "bockstein_link", "label", "exponent")

    def __init__(self, name: str, degree: int, kind: str, origin: str,
                 display: str, is_companion: bool = False,
                 bockstein_link: tuple = None, label: str = None,
                 exponent: int = 1):
        self._assign(name, degree, kind, origin, display, is_companion,
                     bockstein_link, label, exponent)


class SSResult(Record):
    """E∞ through the bound: the base modulo the killed ideal (``quotient``),
    the surviving fiber generators, the engine's log, and the series of its
    last page (``series``).

    ``total``, the E∞ model ``quotient`` ⊗ (free algebra on the survivors)
    as one quotient (see _Engine._total), is built on first read and kept;
    the report reads only ``series``, which needs no basis."""

    # ``total`` is cached in __dict__
    __slots__ = ("p", "bound", "quotient", "surviving_fiber_generators",
                 "killed_base_ideal", "log", "flags", "series",
                 "_build_total", "__dict__")

    def __init__(self, p: int, bound: int, quotient: QuotientTruncAlgebra,
                 surviving_fiber_generators: list, killed_base_ideal: list,
                 log: list, flags: dict, series: list, _build_total=None):
        # _build_total builds ``total``; dropped once it has run
        self._assign(p, bound, quotient, surviving_fiber_generators,
                     killed_base_ideal, log, flags, series, _build_total)

    @functools.cached_property
    def total(self) -> QuotientTruncAlgebra:
        total, self._build_total = self._build_total(), None
        return total

    def survivor_element(self, name: str) -> Element:
        """The class of the named survivor in the total algebra."""
        return self.total.project(self.total.free.generator_element(name))

    def to_jsonable(self) -> dict:
        # not the fields: no quotient, the series as "poincare", survivors cut
        return {
            "p": self.p,
            "bound": self.bound,
            "poincare": self.series,
            "surviving_fiber_generators": [
                {"name": s.name, "degree": s.degree, "kind": s.kind,
                 "display": s.display, "origin": s.origin,
                 "is_companion": s.is_companion,
                 "bockstein_link": (list(s.bockstein_link)
                                    if s.bockstein_link else None)}
                for s in self.surviving_fiber_generators],
            "killed_base_ideal": list(self.killed_base_ideal),
            "log": self.log,
            "flags": self.flags,
        }


class _Engine:
    def __init__(self, spec: FibrationSpec):
        self.spec = spec
        self.p = spec.p
        self.bound = spec.bound
        self.base_alg = spec.base_algebra()  # bound + 1
        # the base modulo the killed ideal, grown in place at every kill
        self.quotient = QuotientTruncAlgebra(self.base_alg, [])
        self.log: list[dict] = []
        self.survivors: list[Survivor] = []  # in the order they survive

    # -- bookkeeping ---------------------------------------------------------

    def _model_series(self, queue_items) -> list:
        """Series of the current page model through the bound: the
        quotient's dimensions times the free factors of the queued Kudo
        stages and of everything that already survived, each applied in
        place in O(bound).  run builds it once before its loop and once
        after each transgression step."""
        coeffs = self.quotient.dims()[: self.bound + 1]
        for _degree, _seq, stage in queue_items:
            _apply_factor(coeffs, stage.degree, stage.gen.kind)
        for s in self.survivors:
            _apply_factor(coeffs, s.degree, s.kind)
        return coeffs

    def _log(self, step: dict):
        """Record one step after checking its Euler ledger.

        A step removes differentials d(x) = y with |y| = |x| + 1, so the
        series falls by (1+t)·K(t), K(t) counting the sources by degree;
        K is read off degree by degree as K[i] = diff[i] - K[i-1].  It must
        be non-negative below the top degree, where the partner of a source
        lies above the bound.  A violation raises EngineContractError.
        run logs a survivor step itself, without this check: the step
        hands on the series it was given, so its drop is zero."""
        diff = [b - a for b, a in zip(step["series_before"],
                                      step["series_after"])]
        k = 0
        for degree, drop in enumerate(diff[:-1]):
            k = drop - k
            if k < 0:
                raise EngineContractError(
                    f"step {step['event']} of {step['class']}: the series "
                    f"drop {diff} is not (1+t)·K(t) with K >= 0 (K[{degree}] "
                    f"= {k})")
        self.log.append(step)

    def _kill(self, rep: Element) -> str:
        """Add rep to the killed ideal; return the annihilator profile of
        its class in the quotient before the kill.

        The profile is read off the drop in dimension: the quotient loses
        rank(·rep : Q_{d-|rep|} -> Q_d) in degree d, so the drop in degree
        d + |rep| is the rank of multiplication by rep from degree d.  The
        class counts as squaring to zero when rep² lies in the ideal or
        above the bound, where it cannot change the profile."""
        base, degree = self.base_alg, rep.degree()
        square_zero = 2 * degree > base.bound \
            or self.quotient.contains_in_ideal(base.product(rep, rep))
        before = self.quotient.dims()
        self.quotient.add_generator(rep)
        after = self.quotient.dims()
        ranks = [before[d] - after[d] for d in range(degree, len(before))]
        return _profile(before, ranks, degree, square_zero)

    # -- main loop ------------------------------------------------------------

    def run(self) -> SSResult:
        # queue items: (degree, seq, stage), one Kudo stage per fiber
        # generator; a polynomial kill queues the stage's successor
        seq = itertools.count()
        stages = [_KudoStage(self.spec, self.base_alg, gen)
                  for gen in self.spec.fiber_gens.values()]
        queue = [(stage.degree, next(seq), stage) for stage in stages]
        heapq.heapify(queue)
        # a step's series before is the previous step's series after; a
        # survivor leaves it unchanged
        series = self._model_series(queue)
        while queue:
            degree, _s, stage = heapq.heappop(queue)
            label, kind, origin = stage.gen.name, stage.gen.kind, stage.origin
            if not stage.hits(self.quotient):
                self.survivors.append(Survivor(
                    name="", degree=degree, kind=kind, origin=origin,
                    display="", label=label, exponent=stage.exponent))
                # a survivor hands the series on: its drop is zero, so
                # it is logged without the ledger check
                self.log.append({"event": "survivor", "class": origin,
                                 "degree": degree, "series_before": series,
                                 "series_after": series})
                continue
            rep = stage.tau
            profile = self._kill(rep)
            step = {"event": "transgression", "class": origin,
                    "degree": degree, "target": self.base_alg.describe(rep)}
            if kind == "exterior":
                if profile != "zero":
                    raise UnsupportedFibrationError(
                        f"killing τ({origin}) = {step['target']} leaves "
                        "extra classes (its annihilator is nonzero): the "
                        "differential pattern is not purely transgressive")
            else:
                if profile == "other":
                    raise UnsupportedFibrationError(
                        f"killing τ({origin}) = {step['target']} does not "
                        "follow the Borel pattern (annihilator is neither "
                        "zero nor the class's own ideal)")
                step["companion"] = self._companion(stage, profile)
                if (successor := stage.next()) is not None:
                    heapq.heappush(queue, (successor.degree, next(seq),
                                           successor))
            step["series_before"] = series
            series = step["series_after"] = self._model_series(queue)
            self._log(step)
        return self._assemble(series)

    def _companion(self, stage: _KudoStage, profile):
        """Settle the companion class u^{p-1}·τ(u) of a killed polynomial
        class u (the Kudo stage), whose differential hits τ(u)² at p = 2
        and -βP^{|u|/2}τ(u) at odd p; returns the log note (None when there
        is no companion within the bound)."""
        comp_degree = self.p * stage.degree + 1
        if profile != "principal" or comp_degree > self.bound:
            return None
        base, rep, label = self.base_alg, stage.tau, stage.gen.name
        if self.p == 2:
            target = base.product(rep, rep)
        else:
            power = base.act(("P", stage.degree // 2), rep)
            target = base.act(("B",), power).scale(-1)
        if self.quotient.contains_in_ideal(target):
            self.survivors.append(Survivor(
                name="", degree=comp_degree, kind="exterior",
                origin=(f"{label}^{stage.exponent * (self.p - 1)}"
                        f"*[{base.describe(rep)}]"),
                display="", is_companion=True,
                label=label, exponent=stage.exponent * self.p))
            return "companion survives"
        self.quotient.add_generator(target)
        return "companion kills " + base.describe(target)

    # -- assembly --------------------------------------------------------------

    def _assemble(self, series) -> SSResult:
        survivors = self.survivors
        survivors.sort(key=lambda s: (s.degree, s.origin))
        used: dict[str, int] = {}
        for s in survivors:
            stem = ("y" if s.is_companion else "z") + str(s.degree)
            used[stem] = used.get(stem, 0) + 1
            s.name = stem if used[stem] == 1 else f"{stem}_{used[stem]}"
        self._attach_displays(survivors)
        quotient_trivial = all(
            d == 0 for d in self.quotient.dims()[1: self.bound + 1])
        self._attach_links(survivors, quotient_trivial)
        if quotient_trivial:  # certified here, so that it raises from run_ss
            self._stages(survivors)
        killed = [self.base_alg.describe(x) for x in self.quotient.ideal_gens]
        flags = {"finitely_generated": True,
                 "quotient_trivial": quotient_trivial}
        return SSResult(p=self.p, bound=self.bound, quotient=self.quotient,
                        surviving_fiber_generators=survivors,
                        killed_base_ideal=killed, log=self.log, flags=flags,
                        series=series, _build_total=functools.partial(
                            self._total, survivors, series, quotient_trivial))

    def _total(self, survivors, series,
               quotient_trivial) -> QuotientTruncAlgebra:
        """The E∞ model: the free algebra on the base generators, then the
        survivors, modulo the killed ideal, exponents padded with zeros.

        A value is decided where the base or the survivors decided it on
        their own: a base generator has the base's entries, a survivor the
        induced action (see _induced_action) over a trivial quotient; each
        has 0 where its own algebra (the base; the last page ``series``) is
        empty.  Any other value within the bound is a gap, never 0."""
        p, bound, base = self.p, self.bound, self.spec.base
        specs = [GeneratorSpec(s.name, s.degree, s.kind, s.bockstein_link)
                 for s in survivors]
        induced = self._induced_action(survivors) if quotient_trivial else {}
        lead, pad = (0,) * len(base.generators), (0,) * len(specs)
        sides = ((base.generators, base.action, self.base_alg.dims(), (), pad),
                 (specs, induced, series, lead, ()))
        action = {}
        for gens, table, dims, before, after in sides:
            for g in gens:
                for op in ops_on_degree(p, g.degree, bound):
                    key = (g.name, op)
                    if key in table:
                        action[key] = {before + m + after: c
                                       for m, c in table[key].items()}
                    elif not dims[g.degree + op_degree(p, op)]:
                        action[key] = {}
        free = expand(FreeCommPresentation(p, base.generators + specs,
                                           action), bound)
        # the base algebra reaches bound + 1, where a kill changes nothing
        unrank = self.base_alg.unrank
        return QuotientTruncAlgebra(free, [
            Element(free, {free.monomial_key(unrank(d, i) + pad): c
                           for (d, i), c in x.data.items()})
            for x in self.quotient.ideal_gens if x.degree() <= bound])

    def _attach_displays(self, survivors):
        anchor = next((s for s in survivors if not s.is_companion), None)
        words = self._words_by_degree(anchor, survivors)
        for s in survivors:
            if s.is_companion or anchor is None:
                s.display = s.name
                continue
            if s is anchor:
                s.display = "z"
                continue
            word = self._word_from_anchor(anchor, s, words)
            if word is None:
                s.display = s.origin
            elif self.p == 2:
                if len(word) == 1:
                    s.display = f"Sq{word[0]} z"
                else:
                    s.display = "Sq[" + ",".join(str(i) for i in word) + "] z"
            else:
                s.display = steenrod.format_word_compact(self.p, word) + " z"

    def _words_by_degree(self, anchor, survivors) -> dict:
        """Gap above the anchor -> the admissible words of that exact degree
        and reduced excess <= |anchor|, in the order admissible_words lists
        them (see steenrod.admissible_words_by_degree); only the gaps of
        non-companion survivors are listed.  By instability a word of larger
        reduced excess carries the anchor to 0 (it applies Sq^s with s > n,
        or P^s with 2s > n, to a class of degree n), so the first word
        matching a nonzero survivor class is the first in the unbounded
        list."""
        if anchor is None:
            return {}
        return steenrod.admissible_words_by_degree(
            self.p, {s.degree - anchor.degree for s in survivors
                     if not s.is_companion and s.degree > anchor.degree},
            anchor.degree)

    def _monomial(self, s: Survivor) -> tuple:
        """The fiber monomial a^e of a non-companion survivor: the exponent
        tuple with its ``exponent`` at the index of its ``label``."""
        index = self.spec.fiber_pres.index[s.label]
        return tuple(s.exponent if k == index else 0
                     for k in range(len(self.spec.fiber_pres.generators)))

    def _word_from_anchor(self, anchor, survivor, words):
        """The first word of the survivor's gap in ``words`` (see
        _words_by_degree) whose value on the anchor (see _value) is the
        survivor's fiber monomial, or None; neither is a companion."""
        target = {self._monomial(survivor): 1}
        for word in words.get(survivor.degree - anchor.degree, ()):
            if self._value(anchor, steenrod.word_to_letters(self.p, word)) \
                    == target:
                return word
        return None

    def _value(self, survivor, letters) -> dict:
        """θ(a^q) for the letters of θ (leftmost first) on the Kudo stage
        a^q of a non-companion survivor, as a monomial dict over the fiber
        generators, each monomial a power of one generator.

        θ acts on a by one Adem reduction (``fiber_compose``).  For q > 1, a
        power of p, θ(a^q) = ((θ/q)(a))^q when q divides the index of each
        letter of θ, and 0 otherwise (β(x^p) = 0, and P^i(x^p) = 0 unless
        p | i).  A monomial of a composed value then has even degree, or
        degree above 1 at p = 2, so its generator is polynomial, and the
        q-th power is exponents × q (coefficients c^q = c mod p)."""
        q = survivor.exponent
        if q > 1:
            if any(op[0] == "B" or op[1] % q for op in letters):
                return {}
            letters = [(op[0], op[1] // q) for op in letters]
        value = self.spec.fiber_compose(survivor.label, letters)
        return value if q == 1 else \
            {tuple(e * q for e in m): c for m, c in value.items()}

    def _attach_links(self, survivors, quotient_trivial):
        """Pair each surviving power u^{pe} with the companion class from the
        previous stage (u^{e(p-1)}·τ(u^e), one degree higher): over a trivial
        base quotient the power carries a primary Bockstein (β, or Sq^1 at
        p = 2) onto it."""
        if not quotient_trivial:
            return
        companion_of = {(s.label, s.exponent): s for s in survivors
                        if s.is_companion}
        for s in survivors:
            if s.is_companion or s.kind != "polynomial":
                continue
            partner = companion_of.get((s.label, s.exponent))
            if partner is not None:
                s.bockstein_link = (1, partner.name)

    def _induced_action(self, survivors) -> dict:
        """Explicit entries computed by restriction to the fiber; only valid
        over a trivial base quotient, the only place _total reads them, and
        omitted in degrees where companion classes (which restrict to zero)
        could correct the value.

        Each monomial g^m of an op's value on a survivor (see _value) is
        the survivor monomial s^{m/e}, s the survivor on g, the stage g^e
        (see _stages).  A power of one generator carries no Koszul sign,
        so the coefficient passes as it is.  A value touching a g with no
        survivor, or an m that e does not divide, is not in the image of
        the survivor algebra, and its entry is omitted."""
        shadow = self._companion_shadow(survivors)
        stages, action = self._stages(survivors), {}
        for s in survivors:
            if s.is_companion:
                continue
            for op in ops_on_degree(self.p, s.degree, self.bound):
                if s.degree + op_degree(self.p, op) in shadow:
                    continue
                entry = {}
                for mono, c in self._value(s, [op]).items():
                    (g, m), = ((g, m) for g, m in enumerate(mono) if m)
                    pos, e = stages.get(g, (None, 1))
                    if pos is None or m % e:
                        break
                    entry[tuple(m // e if k == pos else 0
                                for k in range(len(survivors)))] = c
                else:
                    action[(s.name, op)] = dict(sorted(entry.items()))
        return action

    def _stages(self, survivors) -> dict:
        """Fiber generator index -> (position, exponent e) of the one
        non-companion survivor on that generator, its Kudo stage g^e (see
        _monomial).  Two survivors on one generator raise
        EngineContractError; run never makes two, since it queues each
        generator and then only p-powers of it, one at a time."""
        stages = {}
        for pos, s in enumerate(survivors):
            if s.is_companion:
                continue
            g = self.spec.fiber_pres.index[s.label]
            if g in stages:
                raise EngineContractError(
                    f"survivors {survivors[stages[g][0]].name} and {s.name} "
                    f"both restrict to powers of {s.label}")
            stages[g] = (pos, s.exponent)
        return stages

    def _companion_shadow(self, survivors) -> set:
        """Degrees ≤ bound of survivor monomials with a companion factor:
        those where the series of all survivors exceeds the series of the
        survivors other than companions (which are exterior)."""
        every, plain = [1] + [0] * self.bound, [1] + [0] * self.bound
        for s in survivors:
            _apply_factor(every, s.degree, s.kind)
            if not s.is_companion:
                _apply_factor(plain, s.degree, s.kind)
        return {d for d, (a, b) in enumerate(zip(every, plain)) if a > b}


def run_ss(spec: FibrationSpec) -> SSResult:
    """E∞ of the fibration through the bound, by the transgressive algorithm."""
    return _Engine(spec).run()


# ---------------------------------------------------------------------------
# connected covers


def connected_cover_cohomology(entry: CatalogEntry, p: int,
                               bound: int = None) -> SSResult:
    """H* of the connected cover that kills one class c of a catalog entry's
    ring at p: the fibration K(Z, |c| - 1) → X⟨|c|⟩ → X with τ(ι) = c.  c is
    the entry's degree-4 polynomial generator when it has one (BG⟨4⟩ → BG),
    else its degree-3 generator (G⟨3⟩ → G); the default bound is
    2 · (top base degree) + |c| - 1."""
    base = entry.presentation(p)
    kill = [g for g in base.generators
            if g.degree == 4 and g.kind == "polynomial"] or \
        [g for g in base.generators if g.degree == 3]
    if not kill:
        raise InputError(
            "catalog entry has neither a degree-4 polynomial generator "
            "(BG⟨4⟩ → BG) nor a degree-3 generator (G⟨3⟩ → G) to kill")
    if p == 2 and entry.torsion_free is not True:
        raise InputError(
            "the p=2 cover construction requires the torsion-free flag")
    n = kill[0].degree - 1
    spec = FibrationSpec(p, base, EMSpec(IntegerClass(), n),
                         transgression={f"i{n}": kill[0].name}, bound=bound)
    return run_ss(spec)
