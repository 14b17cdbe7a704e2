"""Generator enumeration for the mod-p cohomology of Eilenberg-MacLane spaces.

``H^*(K(A, n); F_p)`` is a free graded-commutative algebra on the classes
``w(fund)`` where ``fund`` is the degree-n fundamental class and ``w`` runs
over admissible words subject to an excess bound and a coefficient filter:

* the word's excess, not counting a leading Bockstein, must be < n
  (words at the boundary give p-th powers, hence are decomposable; words
  beyond it act as zero on a degree-n class);
* an integral or p-adic coefficient class kills words with a trailing
  Bockstein; a cyclic class of order p keeps them all;
* a cyclic class of order p^r (r >= 2) has the same generator degrees as the
  order-p case, but the degree-(n+1) companion arises from the r-th
  Bockstein: the first Bockstein acts by zero on the fundamental class, and
  the pair is recorded as link metadata;
* a Pruefer coefficient class in degree n is modeled by the integral class
  in degree n+1;
* at p = 2 a degree-1 class that the first Bockstein kills (K(Z,1),
  K(Z/2^r,1) for r >= 2) is exterior: Sq1 i1 = 0 = i1².

The enumeration is excess-bounded: ``steenrod.admissible_words`` is asked
only for words of reduced excess < n, so a table costs what it outputs
rather than every admissible word up to the bound.

Steenrod action entries are produced by word composition: apply the
operation to the defining word, reduce to admissible form, and resolve each
summand against the same rules (boundary words become p-th powers).  The
library presentations (``em_product_presentation``, ``fiber_layout``)
list their action entries within the enumeration bound when the table is
first used and compute each one, by one Adem reduction, the first time it
is read (a ``graded.LazyActionTable``); ``fiber_layout`` also hands out
the composition of any word on a generator.  The ``em`` verb prints the
generators only, so it lists no entry and makes no Adem reduction.
"""

from __future__ import annotations

import re

from . import steenrod
from ._record import Frozen, Record
from .errors import InputError
from .graded import (FreeCommPresentation, GeneratorSpec, LazyActionTable,
                     ops_on_degree)

# ---------------------------------------------------------------------------
# coefficient classes and space specs


class IntegerClass(Frozen):
    __slots__ = ()

    def __str__(self):
        return "Z"


class PadicClass(Frozen):
    __slots__ = ()

    def __str__(self):
        return "Zp"


class PruferClass(Frozen):
    __slots__ = ()

    def __str__(self):
        return "Zpinf"


class CyclicClass(Frozen):
    __slots__ = ("r",)

    def __init__(self, r: int = 1):
        if r < 1:
            raise InputError("cyclic coefficient class needs r >= 1")
        self._assign(r)

    def __str__(self):
        return f"Z/p^{self.r}" if self.r > 1 else "Z/p"


class EMSpec(Frozen):
    __slots__ = ("coefficient", "n")

    def __init__(self, coefficient, n: int):
        if n < 1:
            raise InputError("Eilenberg-MacLane degree must be >= 1")
        self._assign(coefficient, n)

    def __str__(self):
        return f"K({self.coefficient},{self.n})"


class EMProduct(Frozen):
    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise InputError("a product of Eilenberg-MacLane spaces needs a factor")
        self._assign(factors)

    def __str__(self):
        return " x ".join(str(f) for f in self.factors)


_SPACE_RE = re.compile(r"K\(\s*([^,()]+)\s*,\s*(\d+)\s*\)")


def _parse_coefficient(text: str, p: int):
    text = text.strip()
    if text == "Z":
        return IntegerClass()
    if text in ("Zp", "Z_p", "Z^p"):
        return PadicClass()
    if text in ("Zpinf", "Z/pinf", "Zp_inf"):
        return PruferClass()
    m = re.fullmatch(r"Z/(\d+)(?:\^(\d+))?", text)
    if m:
        modulus = int(m.group(1)) ** int(m.group(2) or 1)
        r, unit = steenrod.padic_valuation(p, modulus) if modulus else (0, 0)
        if unit != 1 or r < 1:
            raise InputError(
                f"cyclic modulus in {text!r} must be a power of the prime {p}")
        return CyclicClass(r)
    raise InputError(f"unknown coefficient class {text!r}")


def parse_space(text: str, p: int):
    """Parse "K(Z,3)" or a product "K(Z/2,1)*K(Z/2,2)" (x also separates)."""
    found = list(_SPACE_RE.finditer(text))
    if not found:
        raise InputError(f"no K(coefficient, degree) factor in {text!r}")
    leftover = _SPACE_RE.sub("", text)
    if re.sub(r"[\sx*×]", "", leftover):
        raise InputError(f"unrecognized text in space description {text!r}")
    specs = [EMSpec(_parse_coefficient(m.group(1), p), int(m.group(2)))
             for m in found]
    if len(specs) == 1:
        return specs[0]
    return EMProduct(specs)


# ---------------------------------------------------------------------------
# generator enumeration


def _word_name(p: int, word: tuple, n: int) -> str:
    compact = steenrod.format_word_compact(p, word)
    return f"i{n}" if not compact else f"{compact}i{n}"


def _effective(spec: EMSpec):
    """(kind tag, r, degree) after the Pruefer shift and p-adic identification.

    kind tag: "integral" (no trailing-Bockstein words) or "cyclic".
    """
    coeff, n = spec.coefficient, spec.n
    if isinstance(coeff, PruferClass):
        return "integral", 0, n + 1
    if isinstance(coeff, (IntegerClass, PadicClass)):
        return "integral", 0, n
    if isinstance(coeff, CyclicClass):
        return "cyclic", coeff.r, n
    raise InputError(f"unknown coefficient class {coeff!r}")


def _append_trailing_bockstein(p: int, word: tuple) -> tuple:
    if p == 2:
        return word + (1,)
    return word[:-1] + (1,)


class _Atom:
    """One additive family: admissible words acting on a single class.

    ``fund_degree`` is the class's degree, ``allow_trailing`` whether words
    with a trailing Bockstein survive on it (they die exactly when the
    primary Bockstein kills the class itself), and ``mark_trailing`` whether
    generator names record an extra trailing Bockstein (used for families
    built on a higher-Bockstein companion class).
    """

    def __init__(self, fund_degree: int, allow_trailing: bool,
                 mark_trailing: bool = False):
        self.fund_degree = fund_degree
        self.allow_trailing = allow_trailing
        self.mark_trailing = mark_trailing
        self.global_index: dict[tuple, int] = {}

    def name_word(self, p: int, word: tuple) -> tuple:
        return _append_trailing_bockstein(p, word) if self.mark_trailing else word


class _Enumeration:
    """Shared state for one K(A, n) enumeration at a prime."""

    def __init__(self, spec: EMSpec, p: int, bound: int, prefix: str = ""):
        steenrod.check_prime(p)
        self.spec = spec
        self.p = p
        self.bound = bound
        self.prefix = prefix
        if bound < spec.n:
            raise InputError(
                f"enumeration bound {bound} is below the fundamental degree {spec.n}")
        self.kind_tag, self.r, self.n = _effective(spec)
        if self.kind_tag == "integral":
            self.atoms = [_Atom(self.n, allow_trailing=False)]
        elif self.r == 1:
            self.atoms = [_Atom(self.n, allow_trailing=True)]
        else:
            # order p^r, r >= 2: the degree-(n+1) classes come from words on
            # the higher-Bockstein companion of the fundamental class, and
            # the primary Bockstein kills both classes
            self.atoms = [_Atom(self.n, allow_trailing=False),
                          _Atom(self.n + 1, allow_trailing=False,
                                mark_trailing=True)]
        entries = []  # (degree, name word, atom, word)
        for atom in self.atoms:
            for w in steenrod.admissible_words(p, bound - atom.fund_degree,
                                               max_excess=atom.fund_degree - 1):
                if not atom.allow_trailing and steenrod.trailing_bockstein(p, w):
                    continue
                entries.append((atom.fund_degree + steenrod.word_degree(p, w),
                                atom.name_word(p, w), atom, w))
        entries.sort(key=lambda e: (e[0], e[1]))
        self.entries = entries
        for i, (_deg, _nw, atom, w) in enumerate(entries):
            atom.global_index[w] = i
        self.size = len(entries)

    def name(self, name_word: tuple) -> str:
        return self.prefix + _word_name(self.p, name_word, self.n)

    def generator_specs(self) -> list[GeneratorSpec]:
        out = []
        for degree, name_word, atom, _w in self.entries:
            if self.p == 2:
                kind = "exterior" if degree == 1 and not atom.allow_trailing \
                    else "polynomial"  # Sq1 i1 = 0 forces i1² = 0
            else:
                kind = "exterior" if degree % 2 == 1 else "polynomial"
            link = None
            if (self.r >= 2 and degree == self.n
                    and self.n + 1 <= self.bound):
                beta_word = _append_trailing_bockstein(
                    self.p, steenrod.identity_word(self.p))
                link = (self.r, self.name(beta_word))
            out.append(GeneratorSpec(self.name(name_word), degree, kind, link))
        return out

    # -- resolving a word against an atom's class -----------------------------

    def resolve(self, atom: _Atom, word: tuple) -> dict:
        """Value of an admissible word on the atom's class, as a monomial
        dict over this enumeration's generators (empty = zero)."""
        p, m = self.p, atom.fund_degree
        if word == steenrod.identity_word(p):
            return self._gen_monomial(atom, word)
        if steenrod.trailing_bockstein(p, word) and not atom.allow_trailing:
            return {}
        re_ = steenrod.reduced_excess(p, word)
        if re_ > m:
            return {}
        if re_ < m:
            return self._gen_monomial(atom, word)
        # boundary: the word computes a p-th power
        if p == 2:
            tail = word[1:]
        else:
            if word[0] == 1:  # leading Bockstein on a p-th power: zero
                return {}
            tail = word[2:]
        inner = self.resolve(atom, tail)
        return {tuple(e * p for e in mono): c % p for mono, c in inner.items()}

    def _gen_monomial(self, atom: _Atom, word: tuple) -> dict:
        mono = [0] * self.size
        mono[atom.global_index[word]] = 1
        return {tuple(mono): 1}

    def _compose(self, letters: list, atom: _Atom, word: tuple) -> dict:
        """The value of the letters (leftmost first, each a valid op) on
        the generator of an admissible word on the atom's class: one Adem
        reduction of the composite (``steenrod.reduce_word``), each term
        resolved on the atom.  The letters are table ops or letters of
        admissible words, so the composite is not checked again."""
        p = self.p
        composite = steenrod.letters_to_word(
            p, letters + steenrod.word_to_letters(p, word))
        if composite is None:  # β·β = 0
            return {}
        out: dict = {}
        for w2, coeff in steenrod.reduce_word(p, composite):
            for mono, c in self.resolve(atom, w2).items():
                out[mono] = (out.get(mono, 0) + coeff * c) % self.p
        return {m: c for m, c in out.items() if c}


class FiberGenerator(Frozen):
    """A fiber generator as the spectral-sequence engine reads it: the
    bottom class of its factor, and the admissible word carrying that class
    to it; the word is None for a class built on a higher-Bockstein
    companion, which no primary word reaches."""

    __slots__ = ("name", "degree", "kind", "bottom", "word")

    def __init__(self, name: str, degree: int, kind: str, bottom: str,
                 word: tuple | None):
        self._assign(name, degree, kind, bottom, word)


class FiberLayout(Record):
    """The combined presentation, its FiberGenerators in the presentation's
    order, and each factor's bottom class name -> its degree; ``_compose``
    maps (generator name, letters, leftmost first) to their value, by one
    Adem reduction, as a monomial dict over the combined generator list."""

    __slots__ = ("presentation", "generators", "bottoms", "_compose")

    def __init__(self, presentation: FreeCommPresentation, generators: list,
                 bottoms: dict, _compose=None):
        self._assign(presentation, generators, bottoms, _compose)


def fiber_layout(product, p: int, bound: int) -> FiberLayout:
    """Combined presentation of a product of EM spaces plus, per generator,
    its factor's bottom class and the admissible word defining it (needed
    to propagate maps that commute with the Steenrod action).  Each factor
    is one enumeration; with several factors the generator names get an
    ``f{k}_`` prefix recording the factor.

    The action table lists each generator with the operations of
    ``ops_on_degree`` when it is first used; an entry's value is composed,
    and its degree checked, the first time it is read."""
    factors = (product,) if isinstance(product, EMSpec) else product.factors
    enums = [_Enumeration(spec, p, bound, f"f{k}_" if len(factors) > 1 else "")
             for k, spec in enumerate(factors, start=1)]
    gens: list[GeneratorSpec] = []
    records, bottoms = [], {}
    sources: dict = {}  # name -> (enumeration, atom, word, offset)
    total = sum(e.size for e in enums)
    offset = 0
    for enum in enums:
        bottom = enum.name(steenrod.identity_word(p))
        bottoms[bottom] = enum.n
        for g, (_deg, _nw, atom, w) in zip(enum.generator_specs(),
                                           enum.entries):
            gens.append(g)
            records.append(FiberGenerator(g.name, g.degree, g.kind, bottom,
                                          w if atom is enum.atoms[0] else None))
            sources[g.name] = (enum, atom, w, offset)
        offset += enum.size

    def list_keys():
        return [(g.name, op) for g in gens
                for op in ops_on_degree(p, g.degree, bound)]

    def compose(name, letters):
        """The composite's value, widened to the combined generator list."""
        enum, atom, word, start = sources[name]
        pad = (0,) * (total - start - enum.size)
        return {(0,) * start + mono + pad: c
                for mono, c in enum._compose(letters, atom, word).items()}

    action = LazyActionTable(list_keys, lambda key: compose(key[0], [key[1]]))
    return FiberLayout(FreeCommPresentation(p, gens, action), records, bottoms,
                       compose)


def em_product_presentation(product, p: int, bound: int) -> FreeCommPresentation:
    """Presentation of a product of Eilenberg-MacLane spaces.

    A single factor is passed through unchanged; with several factors the
    generator names get an ``f{k}_`` prefix recording the factor.
    """
    return fiber_layout(product, p, bound).presentation
