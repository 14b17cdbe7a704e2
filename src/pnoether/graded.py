"""Graded-commutative F_p algebras: presentations, truncated tables, series.

The concrete carrier for every cohomology ring in the package is a
*truncated algebra*: an explicit basis of monomials per degree up to a bound
D, a product table, and Steenrod-operation matrices.  Two flavors exist:

* ``FreeTruncAlgebra`` — free graded-commutative algebra on named generators,
  with the Steenrod action filled in from per-generator data and the
  instability relations;
* ``QuotientTruncAlgebra`` — degreewise linear quotient by a homogeneous
  ideal, a kill linear in a generator eliminating it by substitution, with
  induced product and (when the ideal is invariant) action.

A tensor product A/I ⊗ B of a quotient and a free algebra is the one
quotient of the free algebra on both generator lists by I.  The free
algebra reads an operation on a monomial g^a·rest from a total operation
such as Sq = Σ Sq^i, a ring map, on g^a (from the base-p digits of a) and
on rest.

Truncation semantics: values above the bound are *unknown*, never zero.  A
product or operation that would land above the bound raises
``TruncationError``, and no option turns the unknown into zero.  A caller
that needs only part of a value multiplies or acts on the components that
stay within the bound; one that needs x² only when 2|x| lies within the
bound (``serre.annihilator_profile``) tests that degree first.

``appendix_generators`` implements a constructive finite-generation
algorithm for an algebra B that is simultaneously a module-algebra over a
Steenrod-algebra-equipped ring G: it normalizes the module generators,
verifies the projection contract, and produces degree-by-degree rewriting
certificates for every correction term.
"""

from __future__ import annotations

import functools
import re
from bisect import bisect_left
from collections.abc import Mapping
from itertools import compress
from operator import add, mul
from types import MappingProxyType

from . import steenrod
from ._record import Frozen, Record
from .errors import (
    EngineContractError,
    InconsistencyError,
    InputError,
    MissingDataError,
    TruncationError,
)
from .linalg import RowSpace, solve

# ---------------------------------------------------------------------------
# operation keys
#
# Ops are tuples: ("Sq", i) at p=2, ("P", i) and ("B",) at odd p.


def parse_op(p: int, text: str) -> tuple:
    text = text.strip()
    m = re.fullmatch(r"Sq(\d+)", text)
    if m:
        if p != 2:
            raise InputError(f"operation {text!r} requires p = 2")
        return ("Sq", int(m.group(1)))
    m = re.fullmatch(r"P(\d+)", text)
    if m:
        if p == 2:
            raise InputError(f"operation {text!r} requires an odd prime")
        return ("P", int(m.group(1)))
    if text in ("b", "beta"):
        if p == 2:
            raise InputError("use Sq1 for the Bockstein at p = 2")
        return ("B",)
    raise InputError(f"unknown operation {text!r}")


def format_op(op: tuple) -> str:
    if op[0] == "Sq":
        return f"Sq{op[1]}"
    if op[0] == "P":
        return f"P{op[1]}"
    return "beta"


def op_degree(p: int, op: tuple) -> int:
    if op[0] == "Sq":
        return op[1]
    if op[0] == "P":
        return 2 * op[1] * (p - 1)
    return 1


def ops_on_degree(p: int, degree: int, bound: int) -> list[tuple]:
    """The operations an action table lists on a generator of the given
    degree: those instability lets act (Sq^i with i <= degree; β, and P^i
    with 2i <= degree, at odd p) whose value lands within the bound, in
    table order: Sq^1, Sq^2, ... at p = 2; β, P^1, P^2, ... at odd p."""
    if p == 2:
        return [("Sq", i) for i in range(1, min(degree, bound - degree) + 1)]
    ops: list[tuple] = []
    if degree + 1 <= bound:
        ops.append(("B",))
    i = 1
    while 2 * i <= degree and degree + 2 * i * (p - 1) <= bound:
        ops.append(("P", i))
        i += 1
    return ops


# ---------------------------------------------------------------------------
# generators and presentations


class GeneratorSpec(Frozen):
    """One algebra generator: name, degree, kind, optional Bockstein link.

    ``bockstein_link = (r, partner)`` records that the r-th Bockstein sends
    this generator to the named partner (of degree one higher).  Only r = 1
    participates in the Steenrod action tables; higher links are metadata.
    """

    __slots__ = ("name", "degree", "kind", "bockstein_link")

    def __init__(self, name: str, degree: int, kind: str = "polynomial",
                 bockstein_link: tuple | None = None):
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise InputError(f"bad generator name {name!r}")
        if degree <= 0:
            raise InputError(f"generator {name}: degree must be positive")
        if kind not in ("polynomial", "exterior"):
            raise InputError(f"generator {name}: unknown kind {kind!r}")
        if bockstein_link is not None:
            r, partner = bockstein_link
            if r < 1:
                raise InputError(f"generator {name}: bockstein index must be >= 1")
            bockstein_link = (int(r), str(partner))
        self._assign(name, degree, kind, bockstein_link)


class FreeCommPresentation:
    """A free graded-commutative algebra presentation with partial action data.

    ``action`` maps (generator name, op string like "Sq2"/"P1"/"beta") to a
    polynomial in the generators, given as a string (``x4^2*x6 + 2*x12``) or
    an already-parsed monomial dict; every entry is checked here.  A
    ``LazyActionTable`` is kept as it is, its values checked as they are
    first read.
    """

    def __init__(self, p: int, generators, action=None):
        steenrod.check_prime(p)
        self.p = p
        self.generators = list(generators)
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            repeated = sorted({n for n in names if names.count(n) > 1})
            raise InputError("generator names must be unique; repeated: "
                             + ", ".join(repeated))
        self.index = {g.name: i for i, g in enumerate(self.generators)}
        for g in self.generators:
            if p != 2:
                if g.kind == "exterior" and g.degree % 2 == 0:
                    raise InputError(
                        f"generator {g.name}: exterior kind needs odd degree at odd p")
                if g.kind == "polynomial" and g.degree % 2 == 1:
                    raise InputError(
                        f"generator {g.name}: polynomial kind needs even degree at odd p")
            if g.bockstein_link is not None:
                partner = g.bockstein_link[1]
                if partner not in self.index:
                    raise InputError(
                        f"generator {g.name}: bockstein partner {partner!r} not present")
                if self.generators[self.index[partner]].degree != g.degree + 1:
                    raise InputError(
                        f"generator {g.name}: bockstein partner degree must be "
                        f"{g.degree + 1}")
        # a function of the generator list, not a bound method, so that a
        # lazy table holding it does not point back at this presentation
        check = functools.partial(_checked_action_value, p, self.generators,
                                  self.index)
        if isinstance(action, LazyActionTable):
            action._check = check
            self.action = action
            return
        self.action = {}
        for (gen_name, op_text), value in (action or {}).items():
            if gen_name not in self.index:
                raise InputError(f"action entry for unknown generator {gen_name!r}")
            op = parse_op(p, op_text) if isinstance(op_text, str) else tuple(op_text)
            poly = self.parse_poly(value) if isinstance(value, str) else dict(value)
            self.action[(gen_name, op)] = check((gen_name, op), poly)

    def __eq__(self, other):
        """Equal primes, generators and action entries; comparing a lazy
        table computes all its values."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.generators, self.action) == \
            (other.p, other.generators, other.action)

    def __hash__(self):
        return hash((self.p, tuple(self.generators)))

    # -- monomials over this presentation's generator list ------------------

    def monomial_degree(self, mono: tuple) -> int:
        return sum(e * g.degree for e, g in zip(mono, self.generators))

    def parse_poly(self, text: str) -> dict:
        """Parse ``2*x4^2*x6 + x12`` into a monomial dict {exponents: coeff}."""
        text = text.strip()
        out: dict = {}
        if text == "0":
            return out
        for term in text.split("+"):
            coeff = 1
            exps = [0] * len(self.generators)
            for factor in term.split("*"):
                factor = factor.strip()
                if not factor:
                    raise InputError(f"empty factor in polynomial {text!r}")
                if factor.isdigit():
                    coeff = (coeff * int(factor)) % self.p
                    continue
                m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(\d+))?", factor)
                if not m:
                    raise InputError(f"bad factor {factor!r} in polynomial {text!r}")
                name, exp = m.group(1), int(m.group(2) or 1)
                if name not in self.index:
                    raise InputError(f"unknown generator {name!r} in polynomial {text!r}")
                exps[self.index[name]] += exp
            mono = tuple(exps)
            out[mono] = (out.get(mono, 0) + coeff) % self.p
        return {m: c for m, c in out.items() if c}

    def format_poly(self, poly: dict) -> str:
        if not poly:
            return "0"
        parts = []
        for mono in sorted(poly, key=lambda m: (self.monomial_degree(m), m)):
            coeff = poly[mono] % self.p
            if not coeff:
                continue
            factors = []
            if coeff != 1 or not any(mono):
                factors.append(str(coeff))
            for e, g in zip(mono, self.generators):
                if e == 1:
                    factors.append(g.name)
                elif e > 1:
                    factors.append(f"{g.name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts) if parts else "0"


def _checked_action_value(p: int, generators: list, index: dict, key: tuple,
                          poly: dict) -> dict:
    """The action value ``poly`` of key = (generator name, op) reduced mod p,
    after checking that each of its terms has the degree of op on the
    generator; a term of another degree raises InputError."""
    gen_name, op = key
    target = generators[index[gen_name]].degree + op_degree(p, op)
    out = {}
    for mono, coeff in poly.items():
        if coeff % p == 0:
            continue
        degree = sum(e * g.degree for e, g in zip(mono, generators))
        if degree != target:
            raise InputError(
                f"action entry ({gen_name}, {format_op(op)}): value has "
                f"degree {degree}, expected {target}")
        out[mono] = coeff % p
    return out


class LazyActionTable(Mapping):
    """An action table whose keys are listed on first use and whose values
    are computed on first read.

    ``list_keys()`` lists the (generator name, op) keys; it runs the first
    time the table is searched, iterated, sized or read.  ``compute(key)``
    gives the monomial dict of a key.  The FreeCommPresentation that takes
    the table checks each value's degree the first time it is read, as it
    checks a given table at construction.  Membership, iteration and
    length read only the keys.
    """

    def __init__(self, list_keys, compute):
        self._list_keys = list_keys
        self._compute = compute
        self._check = None  # set by the presentation that takes the table

    @functools.cached_property
    def _values(self) -> dict:
        return dict.fromkeys(self._list_keys())  # None until first read

    def __getitem__(self, key):
        value = self._values[key]
        if value is None:
            value = self._values[key] = self._check(key, self._compute(key))
        return value

    def __contains__(self, key):
        return key in self._values

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)


# ---------------------------------------------------------------------------
# Poincaré series


def _series_mul(a: list[int], b: list[int], bound: int) -> list[int]:
    out = [0] * (bound + 1)
    for i, x in enumerate(a[: bound + 1]):
        if not x:
            continue
        for j, y in enumerate(b[: bound + 1 - i]):
            if y:
                out[i + j] += x * y
    return out


def _apply_factor(coeffs: list[int], degree: int, kind: str) -> None:
    """Multiply the truncated series ``coeffs`` in place by the series of a
    free generator of positive degree d, in O(len(coeffs)): c[i] += c[i-d]
    ascending divides by 1-t^d (polynomial), descending multiplies by 1+t^d
    (exterior)."""
    steps = range(degree, len(coeffs))
    for i in (reversed(steps) if kind == "exterior" else steps):
        coeffs[i] += coeffs[i - degree]


# ---------------------------------------------------------------------------
# elements


class Element:
    """Homogeneous-or-mixed algebra element: {(degree, basis index): coeff}."""

    __slots__ = ("algebra", "data")

    def __init__(self, algebra, data=None):
        self.algebra = algebra
        p = algebra.p
        self.data = {k: r for k, v in (data or {}).items() if (r := v % p)}

    @property
    def is_zero(self) -> bool:
        return not self.data

    def degree(self):
        """Degree if homogeneous (zero element has degree None)."""
        degrees = {d for d, _ in self.data}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise InputError("element is not homogeneous")
        return degrees.pop()

    def __add__(self, other):
        self._check_same(other)
        p, out = self.algebra.p, dict(self.data)
        for k, v in other.data.items():
            if r := (out.get(k, 0) + v) % p:
                out[k] = r
            else:
                del out[k]  # v is nonzero mod p, so k was in out
        return _reduced(self.algebra, out)

    def __sub__(self, other):
        self._check_same(other)
        return self + other.scale(-1)

    def scale(self, c: int) -> "Element":
        p = self.algebra.p
        c %= p  # p is prime, so a nonzero c keeps every entry nonzero
        return _reduced(self.algebra,
                        {k: v * c % p for k, v in self.data.items()} if c else {})

    def __mul__(self, other):
        self._check_same(other)
        return self.algebra.product(self, other)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra is other.algebra and self.data == other.data

    def __hash__(self):
        return hash(frozenset(self.data.items()))

    def _check_same(self, other):
        if not isinstance(other, Element) or other.algebra is not self.algebra:
            raise InputError("elements belong to different algebras")

    def vector(self, degree: int) -> list[int]:
        out = [0] * self.algebra.dim(degree)
        for (d, i), c in self.data.items():
            if d == degree:
                out[i] = c
        return out

    def coords(self, degree: int) -> dict:
        """The degree component as a sparse vector {basis index: coeff}."""
        return {i: c for (d, i), c in self.data.items() if d == degree}

    def __repr__(self):
        return f"<{self.algebra.describe(self)}>"


def _reduced(algebra, data: dict) -> Element:
    """An Element that takes ``data`` as it is, not copied: the caller
    guarantees every coefficient is already reduced mod p and nonzero."""
    x = Element.__new__(Element)
    x.algebra = algebra
    x.data = data
    return x


# ---------------------------------------------------------------------------
# truncated algebras


@functools.lru_cache(maxsize=None)
def _letters_applied(p: int, word: tuple) -> tuple:
    """A word's letters in the order they act, rightmost first."""
    return tuple(reversed(steenrod.word_to_letters(p, word)))


# no memoized values: an algebra's memo, or the table of an operation
_NO_VALUES: Mapping = MappingProxyType({})


class TruncAlgebra:
    """Shared behavior: basis bookkeeping, series, op-word application."""

    p: int
    bound: int
    # act reads an act_basis memo inline, {op: {(degree, index): value}};
    # an algebra that keeps one sets it
    _action: Mapping = _NO_VALUES

    def dim(self, degree: int) -> int:
        if degree < 0 or degree > self.bound:
            return 0
        return len(self.basis(degree))

    def basis(self, degree: int) -> list:
        raise NotImplementedError

    def dims(self) -> list[int]:
        return [self.dim(d) for d in range(self.bound + 1)]

    def zero(self) -> Element:
        return _reduced(self, {})

    def one(self) -> Element:
        return Element(self, {(0, 0): 1})

    def element(self, degree: int, index: int, coeff: int = 1) -> Element:
        if not (0 <= degree <= self.bound) or not (0 <= index < self.dim(degree)):
            raise InputError(f"no basis element ({degree}, {index})")
        coeff %= self.p
        return _reduced(self, {(degree, index): coeff} if coeff else {})

    def product(self, x: Element, y: Element) -> Element:
        out: dict = {}
        for (d1, i1), c1 in x.data.items():
            for (d2, i2), c2 in y.data.items():
                if d1 + d2 > self.bound:
                    raise TruncationError(
                        f"product lands in degree {d1 + d2}, above the "
                        f"truncation bound {self.bound}; the value there is "
                        f"unknown, not zero")
                for (d, i), c in self.product_basis(d1, i1, d2, i2).items():
                    out[(d, i)] = out.get((d, i), 0) + c * c1 * c2
        return Element(self, out)

    def product_basis(self, d1: int, i1: int, d2: int, i2: int) -> dict:
        raise NotImplementedError

    def act(self, op: tuple, x: Element) -> Element:
        """Apply one Steenrod operation (Sq^i / P^i / beta) to an element."""
        return _reduced(self, self._act_data(op, x.data))

    def _act_data(self, op: tuple, data: dict) -> dict:
        """op on reduced {(degree, index): coeff} data as new reduced data,
        never shared with the memo.  op's table, which holds no value above
        the bound, is read with each term's own key; a miss asks act_basis."""
        if not data:
            return {}
        p, memo, out = self.p, self._action.get(op, _NO_VALUES), {}
        for key, c in data.items():
            value = memo.get(key)
            if value is None:
                value = self.act_basis(op, *key)
            if len(data) == 1:  # reduced: c·v is nonzero mod the prime p
                return value.copy() if c == 1 else \
                    {k: v * c % p for k, v in value.items()}
            for k, v in value.items():
                out[k] = out.get(k, 0) + v * c
        return {k: r for k, v in out.items() if (r := v % p)}

    def act_basis(self, op: tuple, degree: int, index: int) -> dict:
        """op on the basis element (degree, index) as {basis key: coeff},
        each coefficient reduced mod p and nonzero.  The dict may be shared
        with a memo: callers must not mutate it."""
        raise NotImplementedError

    def _refuse_above(self, op: tuple, degree: int) -> None:
        """Raise TruncationError if op on degree lands above the bound."""
        if (target := degree + op_degree(self.p, op)) > self.bound:
            raise TruncationError(
                f"{format_op(op)} on a degree-{degree} element lands in degree "
                f"{target}, above the truncation bound {self.bound}")

    def act_word(self, word: tuple, x: Element) -> Element:
        """Apply a composite word (rightmost factor first)."""
        data = x.data
        for letter in _letters_applied(self.p, tuple(word)):
            data = self._act_data(letter, data)
            if not data:
                break
        return _reduced(self, data.copy() if data is x.data else data)

    def op_list(self) -> list[tuple]:
        """All single operations that stay within the bound somewhere."""
        if self.p == 2:
            return [("Sq", i) for i in range(1, self.bound + 1)]
        ops: list[tuple] = [("B",)]
        i = 1
        while 2 * i * (self.p - 1) <= self.bound:
            ops.append(("P", i))
            i += 1
        return ops

    def describe(self, x: Element) -> str:
        if x.is_zero:
            return "0"
        parts = []
        for (d, i) in sorted(x.data):
            c = x.data[(d, i)]
            label = self.basis_label(d, i)
            parts.append(label if c == 1 else f"{c}*{label}")
        return " + ".join(parts)

    def basis_label(self, degree: int, index: int) -> str:
        return f"e{degree}_{index}"


class FreeTruncAlgebra(TruncAlgebra):
    """Monomial-basis truncation of a free graded-commutative presentation.

    A degree's basis lists its monomials in lexicographic order (see
    ``_list_degree``); ``dim`` and ``dims`` come from a suffix table of
    dimensions built at construction and list nothing.  The listing rule:
    a degree is listed and indexed when it is read in bulk (``basis``, or
    the degrees a quotient's residual ideal reads as it grows, which a
    kill linear in a generator never reaches), or once its single-key
    lookups reach its dimension (a degree of dimension 1 at its first), and
    never otherwise.  A single key, ``rank`` (monomial to index) or
    ``unrank`` (index to monomial), is one dict or list index on a listed
    degree and arithmetic over the suffix table on any other, every key
    read through ``monomial_key``, a product, an operation or a label
    included.  A deep table thus costs what is read from it.

    Per-generator Steenrod values come from the presentation's action
    table, the instability relations (top operation = p-th power,
    above-top = 0), Bockstein links, and zero-dimensional target degrees;
    anything else needed within the bound is a gap, and an operation
    whose expansion reads one raises MissingDataError listing them all.
    ``gaps``, first read by a refusal or by ``action_complete``, finds them
    from which table entries exist, reading none of them; a generator's
    value under an operation is computed, and its table entry read, the
    first time it is needed.  The value on any other monomial comes from
    the total operation (``act_basis``); every value is kept in one memo.
    """

    def __init__(self, presentation: FreeCommPresentation, bound: int):
        if bound < 0:
            raise InputError("truncation bound must be >= 0")
        self.presentation = presentation
        self.p = presentation.p
        self.bound = bound
        self.generators = presentation.generators
        self._odd_indices = [i for i, g in enumerate(self.generators)
                             if g.degree % 2 == 1]
        self._exterior_indices = [i for i, g in enumerate(self.generators)
                                  if g.kind == "exterior"]
        self._degrees = [g.degree for g in self.generators]
        # _suffix[k][s]: the number of monomials of degree s in generators
        # k, k+1, ...; row 0 is the algebra's series
        self._suffix = [[1] + [0] * bound]
        for g in reversed(self.generators):
            row = self._suffix[0].copy()
            _apply_factor(row, g.degree, g.kind)
            self._suffix.insert(0, row)
        # a degree's monomials and their index, None until listed; the
        # arithmetic lookups made on each degree; and _blocks[k][s], the
        # blocks block(k, s) listed so far (_list_degree)
        self._basis: list = [None] * (bound + 1)
        self._index: list = [None] * (bound + 1)
        self._lookups = [0] * (bound + 1)
        self._blocks: list[dict] = [{} for _ in self.generators] + [
            {0: [(0,) * len(self.generators)]}]
        # op -> (degree, index) -> act_basis value, never one above the
        # bound: {basis key: coeff} dicts, not Elements, which would point
        # back at the algebra and make it a reference cycle
        self._action: dict = {}
        # ``gaps``, None until first read: a plain attribute, since a
        # functools.cached_property writes through __dict__, and on
        # CPython 3.11 that slows every later attribute read on the algebra
        self._gaps = None

    @property
    def gaps(self) -> list:
        """The (generator, op) values within the bound that nothing
        determines, found from which table entries exist when first read.

        Gaps do not fail construction — the basis, products and Poincaré
        series never need them.  They surface as MissingDataError the moment
        an action value whose expansion reads one is demanded (``act_basis``).
        """
        if self._gaps is None:
            self._gaps = [{"generator": g.name, "op": format_op(op),
                           "target_degree": g.degree + op_degree(self.p, op)}
                          for g in self.generators
                          for op in ops_on_degree(self.p, g.degree, self.bound)
                          if self._gen_op_value(g, op) is None]
        return self._gaps

    @property
    def action_complete(self) -> bool:
        return not self.gaps

    # -- basis ---------------------------------------------------------------

    def _list_degree(self, degrees) -> None:
        """List and index the monomials of some degrees within the bound,
        none of them listed yet.

        block(k, s), the monomials of degree s in generators k, k+1, ...
        (zero on the earlier ones) in lexicographic order, is block(k+1, s)
        followed, for e = 1, 2, ... (at most 1 for an exterior generator),
        by block(k+1, s - e·|g_k|) with exponent e on generator k.  The
        blocks needed are found from the first generator down, and built
        from the last generator up; an empty block, read off the suffix
        table, is never visited, and a block listed by an earlier call is
        not built again.  Each new monomial is built once, and a block
        that adds nothing to block(k+1, s) is that list itself.  Callers
        keep the listing rule of the class docstring: a bulk read lists all
        the degrees it reads in one call, and a single key lists its degree
        only when that degree's lookups reach its dimension."""
        gens, suffix, blocks = self.generators, self._suffix, self._blocks
        needed = [set(degrees)]
        for k, g in enumerate(gens):
            top = 1 if g.kind == "exterior" else self.bound
            rows, known = suffix[k + 1], blocks[k + 1]
            needed.append({t for s in needed[k]
                           for t in range(s, -1, -g.degree)[: top + 1]
                           if rows[t] and t not in known})
        for k in range(len(gens) - 1, -1, -1):
            g, child, rows = gens[k], blocks[k + 1], suffix[k + 1]
            top = 1 if g.kind == "exterior" else self.bound
            for s in needed[k]:
                extra = []
                for t in range(s - g.degree, -1, -g.degree)[:top]:
                    if rows[t]:
                        head = (0,) * k + ((s - t) // g.degree,)
                        extra.extend([head + m[k + 1:] for m in child[t]])
                block = child.get(s, [])
                blocks[k][s] = block + extra if extra else block
        for s in needed[0]:
            monos = self._basis[s] = blocks[0].setdefault(s, [])
            self._index[s] = {m: i for i, m in enumerate(monos)}

    def _looked_up(self, degree: int) -> None:
        """Count one arithmetic lookup on an unlisted degree, and list the
        degree once the count reaches its dimension."""
        self._lookups[degree] += 1
        if self._lookups[degree] >= self._suffix[0][degree]:
            self._list_degree((degree,))

    def rank(self, degree: int, mono: tuple) -> int:
        """The index of a basis monomial of the given degree, which the
        caller guarantees (``monomial_key`` checks any tuple).  Unlisted, it
        is the number of monomials before mono in the order of
        ``_list_degree``: for each generator k with exponent e > 0 at
        remaining degree r, those with exponent 0 there, suffix[k+1][r],
        when e = 1 (always, for an exterior generator), and else those
        with an exponent below e, suffix[k][r] - suffix[k][r - e·|g_k|];
        r then falls by e·|g_k|."""
        index = self._index[degree]
        if index is not None:
            return index[mono]
        suffix, i, r = self._suffix, 0, degree
        for k, (e, d) in enumerate(zip(mono, self._degrees)):
            if e:
                i += suffix[k + 1][r] if e == 1 else \
                    suffix[k][r] - suffix[k][r - e * d]
                r -= e * d
        self._looked_up(degree)
        return i

    def unrank(self, degree: int, index: int) -> tuple:
        """The basis monomial at an index of a degree: ``rank``'s inverse,
        choosing each exponent, from the first generator on, as the largest
        whose monomials before it number at most what is left of index.
        An index outside the degree's basis raises IndexError."""
        if not 0 <= index < self.dim(degree):
            raise IndexError(f"no basis monomial ({degree}, {index})")
        monos = self._basis[degree]
        if monos is not None:
            return monos[index]
        suffix, mono, r = self._suffix, [0] * len(self.generators), degree
        for k, g in enumerate(self.generators):
            if not r:
                break
            d = g.degree
            if g.kind == "exterior":
                e = int(index >= suffix[k + 1][r])
                index -= e * suffix[k + 1][r]
            else:
                # suffix[k] at r mod d, ..., r - d, r: ascending, and the
                # count before exponent e is its last entry less the one
                # at r - e·d
                row = suffix[k][r % d: r + 1: d]
                j = bisect_left(row, row[-1] - index)
                e = len(row) - 1 - j
                index -= row[-1] - row[j]
            mono[k] = e
            r -= e * d
        self._looked_up(degree)
        return tuple(mono)

    def dim(self, degree: int) -> int:
        if degree < 0 or degree > self.bound:
            return 0
        return self._suffix[0][degree]

    def dims(self) -> list[int]:
        return list(self._suffix[0])

    def basis(self, degree: int) -> list:
        if degree < 0 or degree > self.bound:
            return []
        if self._basis[degree] is None:
            self._list_degree((degree,))
        return self._basis[degree]

    def monomial_key(self, mono: tuple):
        """(degree, index) for an exponent tuple, or None when it is no
        basis monomial within the bound (wrong length, a negative exponent,
        an exterior exponent above 1, a degree above the bound)."""
        mono = tuple(mono)
        if len(mono) != len(self._degrees) or any(e < 0 for e in mono) or \
                any(mono[k] > 1 for k in self._exterior_indices):
            return None
        degree = sum(map(mul, mono, self._degrees))
        if degree > self.bound:
            return None
        return degree, self.rank(degree, mono)

    def monomial_element(self, mono: tuple, coeff: int = 1) -> Element:
        """The monomial times coeff; zero when an exterior exponent is above
        1, as in a product."""
        mono = tuple(mono)
        if len(mono) != len(self._degrees) or any(e < 0 for e in mono):
            raise InputError(f"{mono} is not an exponent tuple of "
                             f"{len(self._degrees)} generators")
        if any(mono[k] > 1 for k in self._exterior_indices):
            return self.zero()
        key = self.monomial_key(mono)
        if key is None:
            raise TruncationError(
                f"monomial of degree {self.presentation.monomial_degree(mono)} "
                f"is above the truncation bound {self.bound}")
        return Element(self, {key: coeff})

    def generator_element(self, name: str) -> Element:
        idx = self.presentation.index.get(name)
        if idx is None:
            raise InputError(f"unknown generator {name!r}")
        mono = tuple(1 if i == idx else 0 for i in range(len(self.generators)))
        return self.monomial_element(mono)

    def element_from_poly(self, poly) -> Element:
        if isinstance(poly, str):
            poly = self.presentation.parse_poly(poly)
        out = self.zero()
        for mono, coeff in poly.items():
            out = out + self.monomial_element(mono, coeff)
        return out

    def basis_label(self, degree: int, index: int) -> str:
        return self.presentation.format_poly({self.unrank(degree, index): 1})

    # -- product -------------------------------------------------------------

    def _sign_mask(self, t: tuple) -> list:
        """Per generator, whether it is odd and comes after an odd number
        of t's odd factors, or [] when none is (always at p = 2): the
        Koszul sign of mono·t is the parity of mono's exponents there."""
        if self.p == 2:
            return []
        mask, parity = [False] * len(t), False
        for k in self._odd_indices:
            mask[k] = parity
            parity ^= t[k] > 0
        return mask if any(mask) else []

    def _merge_monomials(self, m1: tuple, m2: tuple):
        """(sign, monomial) or None when an exterior factor squares to zero."""
        merged = tuple(map(add, m1, m2))
        for i in self._exterior_indices:
            if merged[i] > 1:
                return None
        mask = self._sign_mask(m2)
        return -1 if mask and sum(compress(m1, mask)) % 2 else 1, merged

    def product_basis(self, d1: int, i1: int, d2: int, i2: int) -> dict:
        merged = self._merge_monomials(self.unrank(d1, i1),
                                       self.unrank(d2, i2))
        if merged is None:
            return {}
        sign, mono = merged
        degree = d1 + d2
        if degree > self.bound:
            # callers guard on d1 + d2 <= bound
            raise TruncationError("product above the truncation bound")
        return {(degree, self.rank(degree, mono)): sign % self.p}

    # -- Steenrod action -----------------------------------------------------

    def _gen_op_value(self, g: GeneratorSpec, op: tuple):
        """How op acts on generator g: a function of no arguments giving the
        value as {basis key: coeff}, or None when nothing determines it (a
        gap).  Order: explicit entry, instability top power, link (read for
        the primary Bockstein: β, and Sq^1 at p = 2), zero-dimensional
        target.  Deciding reads only which entries the table has; the
        function reads the entry."""
        if (g.name, op) in self.presentation.action:
            return lambda: self.element_from_poly(
                self.presentation.action[(g.name, op)]).data
        if op != ("B",) and \
                (op[1] if op[0] == "Sq" else 2 * op[1]) == g.degree:
            def power():  # instability: the top operation is the p-th power
                x, out = self.generator_element(g.name), self.one()
                for _ in range(self.p):
                    out = self.product(out, x)
                return out.data
            return power
        if op in (("B",), ("Sq", 1)) and g.bockstein_link is not None:
            r, partner = g.bockstein_link
            if r == 1:
                return lambda: self.generator_element(partner).data
            return dict  # only beta_1 acts; higher links are metadata
        if self.dim(g.degree + op_degree(self.p, op)) == 0:
            return dict
        return None

    def act_basis(self, op: tuple, degree: int, index: int) -> dict:
        """op on the basis element (degree, index) as {basis key: coeff}.

        A generator's value comes from its ``_gen_op_value`` rule.  Any
        other monomial g^a·rest, g its first generator, is read from a
        total operation T, Sq = Σ Sq^i or P = Σ P^i, or 1 + β (which is
        multiplicative once β·β terms are dropped and β passes x with the
        sign (-1)^|x|): T(g^a·rest) = T(g^a)·T(rest), both read through
        this method, one frame per generator, and T(g^a) for a > 1 comes
        from T(g) by the base-p digits of a.  A miss on a Sq^i (P^i)
        computes, and memoizes in each op's table by (degree, index), every
        Sq^i (P^i) that ``ops_on_degree`` lists on the monomial and T knows
        (below).  An op landing above the bound raises TruncationError, and
        any other op that instability does not make zero raises
        MissingDataError, on every request (a refusal is never memoized):
        on a generator when its rule is a gap, on any other monomial when
        op's excess is above what T knows there, the least its factors know
        (``_total``); T(g^a) is known below u·p^v, for g's first gap at
        excess u and p^v the largest power of p dividing a, as T(g)^(p^j)
        reads T(g) at excess e/p^j."""
        key = (degree, index)
        value = self._action.get(op, _NO_VALUES).get(key)
        if value is not None:
            return value
        p = self.p
        ops = ops_on_degree(p, degree, self.bound)
        if op not in ops or not degree:
            self._refuse_above(op, degree)
            # zero by instability, or on the unit
            value = self._action.setdefault(op, {})[key] = {}
            return value
        mono = self.unrank(degree, index)
        first = next(k for k, e in enumerate(mono) if e)
        g, a = self.generators[first], mono[first]
        missing = "Steenrod data needed within the bound is missing"
        if degree == g.degree:  # the monomial is g: refused per operation
            rule = self._gen_op_value(g, op)
            if rule is None:
                raise MissingDataError(missing, gaps=self.gaps)
            value = self._action.setdefault(op, {})[key] = rule()
            return value
        family = [op] if op == ("B",) else [o for o in ops if o[0] == op[0]]
        step, top = op_degree(p, family[0]), op_degree(p, family[-1])
        dg, zeros = a * g.degree, (0,) * (len(mono) - first - 1)
        if degree > dg:
            rest = (0,) * (first + 1) + mono[first + 1:]
            x, known = self._total(op[0], dg, mono[:first + 1] + zeros, top)
            y, known = self._total(op[0], degree - dg, rest, known)
            total = self._times(x, y, known)
        else:
            # a > 1, so g is of even degree or p = 2, and the p-th power of a
            # sum of T-terms is the sum of their p-th powers (zero for a
            # monomial with an exterior factor, above excess 1 for a β term):
            # T(g^a) = Π_j (T(g)^(p^j))^(d_j) over the base-p digits d_j of a
            unit = mono[:first] + (1,) + zeros
            factor, u = self._total(op[0], g.degree, unit, top)
            total, q, known = {(0, (0,) * len(mono)): 1}, 1, top
            while a:
                a, digit = divmod(a, p)
                if digit:
                    known = min(known, (u + 1) * q - 1)
                frobenius = {(e * q, tuple(x * q for x in m)): c
                             for (e, m), c in factor.items() if e * q <= known}
                for _ in range(digit):
                    total = self._times(total, frobenius, known)
                q *= p
        values = [{} for _ in family[:known // step]]
        for (e, m), c in total.items():
            if e:
                values[e // step - 1][(degree + e, self.rank(degree + e, m))] = c
        for o, v in zip(family, values):
            self._action.setdefault(o, {})[key] = v
        if op_degree(p, op) > known:
            raise MissingDataError(missing, gaps=self.gaps)
        return self._action[op][key]

    def _total(self, sym: str, degree: int, mono: tuple, top: int) -> tuple:
        """(terms, known): mono, of the given degree, plus its values under
        the ops named sym ("Sq", "P" or "B") that shift by at most top, as
        {(excess, monomial): coeff}, the excess of a term being its degree
        less mono's, up to the first op that raises MissingDataError; and
        the excess known, top or that op's excess less 1."""
        key, out = (degree, self.rank(degree, mono)), {(0, mono): 1}
        for o in ops_on_degree(self.p, degree, self.bound):
            if o[0] == sym and (shift := op_degree(self.p, o)) <= top:
                value = self._action.get(o, _NO_VALUES).get(key)
                if value is None:
                    try:
                        value = self.act_basis(o, *key)
                    except MissingDataError:
                        return out, shift - 1
                for (d, i), c in value.items():
                    out[(d - degree, self.unrank(d, i))] = c
        return out, top

    def _times(self, x: dict, y: dict, top: int) -> dict:
        """The product of two {(excess, monomial): coeff} sums, less the
        terms of excess above top; a y term of odd excess (a β value at odd
        p) passes an x term m with the sign (-1)^|m|."""
        out, merge, odd = {}, self._merge_monomials, self._odd_indices
        for (e1, m1), c1 in x.items():
            parity = sum(m1[j] for j in odd) % 2
            for (e2, m2), c2 in y.items():
                if e1 + e2 <= top and (merged := merge(m1, m2)):
                    t = (e1 + e2, merged[1])
                    sign = -merged[0] if e2 & parity else merged[0]
                    out[t] = out.get(t, 0) + sign * c1 * c2
        return {t: r for t, c in out.items() if (r := c % self.p)}


class QuotientTruncAlgebra(TruncAlgebra):
    """Degreewise quotient of a FreeTruncAlgebra by a homogeneous ideal.

    The quotient basis in each degree is the set of free-basis monomials in
    the complement of the ideal's reduced row echelon form (the non-pivot
    columns, a pivot being the lowest column of a row, so the monomial that
    comes first in the listing order).  ``basis`` gives them as free
    indices, and ``basis_label`` and ``lift`` read them there.  That form
    is canonical for the subspace, so the basis does not depend on the
    order or grouping in which generators arrive.

    The ideal grows in place with ``add_generator``, and a kill linear in
    a generator eliminates it.  Each new generator x is substituted and
    reduced modulo the ideal as it stands; when the lowest monomial of what
    is left, c·g + f, is a single generator g, then f does not involve g
    (the only monomial of degree |g| that contains g is g itself) and
    F[g, rest]/(c·g + f) ≅ F[rest] through g ↦ -f/c.  The quotient keeps
    that substitution onto a smaller free algebra on the generators left,
    whose dimensions come from its suffix table, and lists nothing of the
    free algebra it drops.  The g-divisible monomials are exactly the new
    pivots (x·u has lowest monomial g·u), so the basis stays the non-pivot
    columns above.  Only a non-linear remainder goes to the residual ideal,
    a ``RowSpace`` per degree of the smaller algebra (``_span``); an
    exterior g also sends (f/c)² there, which is zero at odd p.
    Membership, ``project``, products, operations and ``dims`` all
    substitute, then reduce modulo the residual.  An Element of the
    quotient is written in the basis current when it was made: after a
    growth step it no longer refers to the same classes.

    ``steenrod_ok`` and ``steenrod_failures`` check, when read, whether the
    ideal as it stands is closed under the tabulated operations — the
    induced action is only meaningful when it is.  By the Cartan formula
    that is decided on the ideal's generators.
    """

    def __init__(self, free: FreeTruncAlgebra, ideal_gens):
        self.free = free
        self.p = free.p
        self.bound = free.bound
        self.ideal_gens: list[Element] = []
        # the free algebra on the generators not eliminated (free itself
        # until a linear kill), their positions in free's generator list,
        # and each eliminated generator's value there, by position in free
        self._small = free
        self._kept = list(range(len(free.generators)))
        self._sigma: dict[int, dict] = {}
        # the residual ideal: its generators (free elements), and per degree
        # its rows in _small and the representatives (indices of _small),
        # both None while the residual is zero in that degree
        self._residual: list[Element] = []
        self._ideal: list = [None] * (self.bound + 1)
        self._reps: list = [None] * (self.bound + 1)
        # per degree the basis as free indices, None until read
        self._basis: list = [None] * (self.bound + 1)
        for x in ideal_gens:
            self.add_generator(x)

    def add_generator(self, x: Element):
        """Grow the ideal by the homogeneous element x, in place."""
        if x.algebra is not self.free:
            raise InputError("ideal generators must live in the base algebra")
        if not x.is_zero and x.degree() == 0:
            raise InputError("ideal generators must have positive degree")
        self.ideal_gens.append(x)
        if not x.is_zero:
            self._grow(x)
            self._basis = [None] * (self.bound + 1)

    def _grow(self, x: Element) -> None:
        """Add the free element x to the ideal: eliminate a generator when
        x is linear in one modulo the ideal, else span it in the residual."""
        d0 = x.degree()
        small = self._small
        r = self._reduce(d0, self._image(x.data))
        if not r:
            return
        low = min(r)
        mono = small.unrank(d0, low)
        if sum(mono) == 1:
            self._eliminate(mono.index(1), low, d0, r)
        else:
            self._residual.append(x)
            self._span(d0, r)

    def _eliminate(self, j: int, low: int, d0: int, r: dict) -> None:
        """Eliminate generator j of _small, the lowest monomial (index low)
        of r, a reduced vector of degree d0: g ↦ -f/c with r = c·g + f.
        The earlier values and the residual's generators are carried to the
        smaller algebra, and the residual is spanned again there."""
        small, p = self._small, self.p
        g = small.generators[j]
        scale = -pow(r[low], p - 2, p)
        rest = [h for k, h in enumerate(small.generators) if k != j]
        # a link's partner may be gone, and the action is read upstairs
        new = FreeTruncAlgebra(FreeCommPresentation(p, [
            h if h.bockstein_link is None else
            GeneratorSpec(h.name, h.degree, h.kind) for h in rest]), self.bound)
        # f does not involve g, so carrying it over reads no value of g
        value = _substituted(small, new, {j: None}, {
            (d0, i): c * scale for i, c in r.items() if i != low})
        move = {j: value}
        self._sigma = {k: _substituted(small, new, move, v)
                       for k, v in self._sigma.items()}
        self._sigma[self._kept.pop(j)] = value
        self._small = new
        pending = self._residual
        if g.kind == "exterior" and 2 * d0 <= self.bound:
            free = self.free
            lifted = Element(free, {
                (d, free.rank(d, self._embed(new.unrank(d, i)))): c
                for (d, i), c in value.items()})
            pending = pending + [free.product(lifted, lifted)]
        self._residual = []
        self._ideal = [None] * (self.bound + 1)
        self._reps = [None] * (self.bound + 1)
        for y in pending:
            if not y.is_zero:
                self._grow(y)

    def _span(self, d0: int, r: dict) -> None:
        """Span the reduced vector r of degree d0 into the residual.

        Degree d of the new residual is R_d + r·S_{d-d0}, S the smaller
        algebra; because r·R lies in R, only r times the representatives
        is spanned, from the top degree down so that those of degree
        d - d0 are still the old ones.  The column of mono·t, t a term of
        r, is the index of the exponent sum (missing exactly when an
        exterior factor squares to zero), signed by ``_sign_mask(t)``; the
        degrees read are listed in one ``_list_degree`` call.  Pivots
        stay, so the new reps are the old ones less the new pivots."""
        small, p, reps = self._small, self.p, self._reps
        terms = []
        for i, c in r.items():
            t = small.unrank(d0, i)
            terms.append((t, c, -c % p, small._sign_mask(t)))
        targets = [d for d in range(self.bound, d0 - 1, -1)
                   if self._dim(d - d0)]
        small._list_degree({s for d in targets for s in (d, d - d0)
                            if small._basis[s] is None})
        for d in targets:
            source, index = small._basis[d - d0], small._index[d]
            monos = source if reps[d - d0] is None else \
                [source[rep] for rep in reps[d - d0]]
            vecs = [{} for _ in monos]
            for t, c, neg, mask in terms:
                for vec, mono in zip(vecs, monos):
                    j = index.get(tuple(map(add, mono, t)))
                    if j is not None:  # distinct terms give distinct products
                        vec[j] = (neg if mask and sum(compress(mono, mask)) % 2
                                  else c)
            space = self._ideal[d]
            if space is None:
                space = self._ideal[d] = RowSpace(p)
            space.extend(vecs)
            rows = space.rows
            reps[d] = [j for j in (range(len(index)) if reps[d] is None
                                   else reps[d]) if j not in rows]

    def _image(self, data: dict) -> dict:
        """Free-algebra data under the substitution, as data of _small."""
        if self._small is self.free:
            return data
        return _substituted(self.free, self._small, self._sigma, data)

    def _embed(self, mono: tuple) -> tuple:
        """A monomial of _small as the free algebra's monomial."""
        out = [0] * len(self.free.generators)
        for k, e in zip(self._kept, mono):
            out[k] = e
        return tuple(out)

    def _reduce(self, degree: int, data: dict) -> dict:
        """The degree component of _small data reduced modulo the residual,
        as {index of _small: coeff}."""
        vec = {i: c for (d, i), c in data.items() if d == degree}
        space = self._ideal[degree]
        if space is None:
            return {i: r for i, c in vec.items() if (r := c % self.p)}
        return space.reduce(vec)

    def _class(self, degree: int, data: dict) -> dict:
        """The class of _small data of one degree, as quotient data: the
        columns of its reduction are representatives, listed in ascending
        order."""
        red, reps = self._reduce(degree, data), self._reps[degree]
        return {(degree, col if reps is None else bisect_left(reps, col)):
                red[col] for col in sorted(red)}

    def _dim(self, degree: int) -> int:
        reps = self._reps[degree]
        return self._small.dim(degree) if reps is None else len(reps)

    @property
    def steenrod_ok(self):
        """True (verified), False (violation found) or None (some checks
        skipped because generator data is missing; no violation among the
        checkable part), for the ideal as it stands."""
        return self._invariance()[0]

    @property
    def steenrod_failures(self) -> list:
        """The (op, degree) pairs where an operation takes an ideal
        generator of that degree out of the ideal."""
        return self._invariance()[1]

    def _invariance(self):
        """(steenrod_ok, steenrod_failures): is the ideal closed under the
        tabulated operations?  By the Cartan formula θ(x·a) is a sum of
        θ'(x)·θ''(a), so the ideal is closed when each operation keeps
        each generator x in it; only ops landing within the bound are read,
        which is all a row of degree |x| or more can need."""
        complete = True
        failures: list = []
        gens = sorted((x for x in self.ideal_gens if not x.is_zero),
                      key=Element.degree)
        for op in self.free.op_list():
            shift = op_degree(self.p, op)
            for x in gens:
                if x.degree() + shift > self.bound:
                    continue
                try:
                    y = self.free.act(op, x)
                except MissingDataError:
                    complete = False
                    continue
                if not self.contains_in_ideal(y):
                    failure = {"op": format_op(op), "degree": x.degree()}
                    if failure not in failures:
                        failures.append(failure)
        return (False if failures else (True if complete else None)), failures

    # -- structure -----------------------------------------------------------

    def dim(self, degree: int) -> int:
        if degree < 0 or degree > self.bound:
            return 0
        return self._dim(degree)

    def basis(self, degree: int) -> list:
        """The free indices of the degree's basis monomials, ascending;
        listed on first read after each growth step."""
        if degree < 0 or degree > self.bound:
            return []
        out = self._basis[degree]
        if out is None:
            reps = self._reps[degree]
            if self._small is self.free:
                out = list(range(self.free.dim(degree))) if reps is None \
                    else reps
            else:
                monos = self._small.basis(degree)
                out = [self.free.rank(degree, self._embed(monos[j]))
                       for j in (range(len(monos)) if reps is None else reps)]
            self._basis[degree] = out
        return out

    def dims(self) -> list[int]:
        out = self._small.dims()
        for d, reps in enumerate(self._reps):
            if reps is not None:
                out[d] = len(reps)
        return out

    def basis_label(self, degree: int, index: int) -> str:
        return self.free.basis_label(degree, self.basis(degree)[index])

    def project(self, x: Element) -> Element:
        """Image of a free-algebra element in the quotient."""
        if x.algebra is not self.free:
            raise InputError("project expects an element of the base algebra")
        data = self._image(x.data)
        out: dict = {}
        for d in sorted({k[0] for k in data}):
            out.update(self._class(d, data))
        return _reduced(self, out)

    def lift(self, x: Element) -> Element:
        """The canonical representative of a quotient element, upstairs."""
        out: dict = {}
        for (d, i), c in x.data.items():
            out[(d, self.basis(d)[i])] = c
        return Element(self.free, out)

    def contains_in_ideal(self, x: Element) -> bool:
        if x.algebra is not self.free:
            raise InputError("expects an element of the base algebra")
        data = self._image(x.data)
        return not any(self._reduce(d, data) for d in {k[0] for k in data})

    def product_basis(self, d1: int, i1: int, d2: int, i2: int) -> dict:
        reps = self._reps
        prod = self._small.product_basis(
            d1, i1 if reps[d1] is None else reps[d1][i1],
            d2, i2 if reps[d2] is None else reps[d2][i2])
        return self._class(d1 + d2, prod)

    def act_basis(self, op: tuple, degree: int, index: int) -> dict:
        self._refuse_above(op, degree)
        value = self.free.act_basis(op, degree, self.basis(degree)[index])
        return self._class(degree + op_degree(self.p, op), self._image(value))


def _substituted(src: FreeTruncAlgebra, target: FreeTruncAlgebra,
                 sigma: dict, data: dict) -> dict:
    """The image of src data under the algebra map that sends generator k
    of src to sigma[k], data of target, for k in sigma, and each other
    generator to target's generator of the same name (target's generators
    are src's less those in sigma, in src's order).  A monomial off sigma's
    generators keeps its exponents; any other is the product of the
    images of its factors in generator order."""
    keep = [k for k in range(len(src.generators)) if k not in sigma]
    p, out = src.p, {}
    for (d, i), c in data.items():
        mono = src.unrank(d, i)
        if not any(mono[k] for k in sigma):
            key = (d, target.rank(d, tuple(mono[k] for k in keep)))
            out[key] = out.get(key, 0) + c
            continue
        value = target.one()
        for k, e in enumerate(mono):
            if not e:
                continue
            factor = _reduced(target, sigma[k]) if k in sigma else \
                target.generator_element(src.generators[k].name)
            for _ in range(e):
                value = target.product(value, factor)
            if value.is_zero:
                break
        for key, v in value.data.items():
            out[key] = out.get(key, 0) + c * v
    return {k: r for k, v in out.items() if (r := v % p)}


def mult_ranks(alg: TruncAlgebra, x: Element) -> list[int]:
    """rank[d] of multiplication by the homogeneous x from degree d to
    degree d+|x|, for d = 0 .. bound-|x|."""
    if x.is_zero:
        raise InputError("multiplication ranks of zero are not meaningful")
    d0 = x.degree()
    return [RowSpace(alg.p).extend(
                alg.product(alg.element(d, i), x).coords(d + d0)
                for i in range(alg.dim(d)))
            for d in range(alg.bound - d0 + 1)]


# ---------------------------------------------------------------------------
# expand / indecomposables / quotient


def expand(presentation: FreeCommPresentation, bound: int) -> FreeTruncAlgebra:
    """Truncated table of a free presentation.

    Steenrod gaps (values needed within the bound that no data or forcing
    rule determines) are listed on ``.gaps`` when first read;
    MissingDataError is raised when an affected action value is used.
    """
    return FreeTruncAlgebra(presentation, bound)


def quotient_by_ideal(alg: FreeTruncAlgebra, ideal_gens) -> QuotientTruncAlgebra:
    """Degreewise quotient by the (two-sided) ideal the generators span."""
    gens = [alg.element_from_poly(x) if isinstance(x, str) else x
            for x in ideal_gens]
    return QuotientTruncAlgebra(alg, gens)


class FiniteModuleTable(Record):
    """An explicit finite module: graded dimensions, labels, action entries.

    ``action`` maps (op, (degree, index)) to {(degree', index'): coeff}; only
    nonzero values are stored and only where the target degree is in bound.
    """

    __slots__ = ("p", "bound", "dims", "labels", "action", "action_complete")

    def __init__(self, p: int, bound: int, dims: list, labels: list,
                 action: dict, action_complete: bool = True):
        self._assign(p, bound, dims, labels, action, action_complete)

    def nonzero_degrees(self) -> list[int]:
        return [d for d, n in enumerate(self.dims) if n]


def indecomposables(alg: TruncAlgebra) -> FiniteModuleTable:
    """Quotient by products of positive-degree elements, with induced action.

    Requires a connected algebra: a free one, read as a quotient with no
    ideal, or a quotient S/R of its smaller free algebra S (``_small``) by
    the residual ideal R.  As R·S⁺ lies in (S⁺)², Q(S/R) is Q(S), spanned
    by S's generators, modulo the linear parts of R (Milnor and Moore, Ann.
    of Math. 81, 1965): in degree d, R's rows cut down to the generator
    columns.  The representatives are the generator columns that are no
    pivot of those, which are the non-pivot columns of the span of all
    products, since each decomposable monomial is a pivot of that span.
    An operation's value keeps its generator columns, reduced modulo the
    linear parts.
    """
    if alg.dim(0) != 1:
        raise InputError("indecomposables needs a connected algebra")
    top = alg.bound + 1
    small, ideal, kept = (alg._small, alg._ideal, alg._reps) if isinstance(
        alg, QuotientTruncAlgebra) else (alg, [None] * top, [None] * top)
    # per degree: the generator columns of small, the linear parts of the
    # residual rows, the representatives as columns of small and their
    # indices in alg's basis
    gens: list[list[int]] = [[] for _ in range(top)]
    for k, g in enumerate(small.generators):
        if g.degree < top:
            gens[g.degree].append(small.rank(g.degree, tuple(
                int(j == k) for j in range(len(small.generators)))))
    linear = [RowSpace(alg.p) for _ in range(top)]
    for d, cols in enumerate(gens):
        if cols and ideal[d] is not None:
            linear[d].extend({j: row[j] for j in cols if j in row}
                             for row in ideal[d].rows.values())
    reps = [sorted(j for j in cols if j not in linear[d].rows)
            for d, cols in enumerate(gens)]
    keys = [[j if kept[d] is None else bisect_left(kept[d], j) for j in cols]
            for d, cols in enumerate(reps)]

    action: dict = {}
    action_complete = True
    for op in alg.op_list():
        shift = op_degree(alg.p, op)
        for d in range(1, top - shift):
            t = d + shift
            for j, key in enumerate(keys[d]):
                try:
                    value = alg.act(op, alg.element(d, key))
                except MissingDataError:
                    action_complete = False
                    continue
                terms = value.coords(t).items() if kept[t] is None else \
                    ((kept[t][i], c) for i, c in value.coords(t).items())
                red = linear[t].reduce({col: c for col, c in terms
                                        if col in gens[t]})
                if red:
                    action[(op, (d, j))] = {(t, reps[t].index(col)): red[col]
                                            for col in sorted(red)}
    return FiniteModuleTable(
        alg.p, alg.bound, [len(r) for r in reps],
        [[alg.basis_label(d, i) for i in keys[d]] for d in range(top)],
        action, action_complete)


# ---------------------------------------------------------------------------
# graded linear maps (plumbing for the finite-generation algorithm)


class GradedMap:
    """Degree-preserving linear map between truncated algebras, by basis."""

    def __init__(self, source: TruncAlgebra, target: TruncAlgebra, images: dict):
        self.source = source
        self.target = target
        self.images = {}
        for (d, i), value in images.items():
            if value.algebra is not target:
                raise InputError("map images must live in the target algebra")
            self.images[(d, i)] = value

    @classmethod
    def from_function(cls, source, target, fn) -> "GradedMap":
        images = {}
        for d in range(source.bound + 1):
            for i in range(source.dim(d)):
                images[(d, i)] = fn(d, i)
        return cls(source, target, images)

    def apply(self, x: Element) -> Element:
        if x.algebra is not self.source:
            raise InputError("map applied to an element of the wrong algebra")
        out = self.target.zero()
        for key, c in x.data.items():
            image = self.images.get(key)
            if image is None:
                raise InputError(f"map has no image for basis element {key}")
            out = out + image.scale(c)
        return out


# ---------------------------------------------------------------------------
# constructive finite generation with certificates


class AppendixCertificate(Record):
    """One correction term and its rewriting in the returned generators:
    the operation theta, the algebra generator z of G, the degree of the
    correction term, its rendered value theta(z.1) - (theta z).1, and the
    same value as a polynomial in the output generators."""

    __slots__ = ("op", "generator", "degree", "correction", "expression",
                 "verified")

    def __init__(self, op: str, generator: str, degree: int, correction: str,
                 expression: str, verified: bool):
        self._assign(op, generator, degree, correction, expression, verified)


class AppendixResult(Record):
    """The (name, degree) pairs of the generators, their certificates, and
    how many (theta, g) contract pairs were verified."""

    __slots__ = ("generators", "certificates", "checked_pairs")

    def __init__(self, generators: list, certificates: list,
                 checked_pairs: int):
        self._assign(generators, certificates, checked_pairs)

    def to_jsonable(self) -> dict:
        return {
            "generators": [{"name": n, "degree": d} for n, d in self.generators],
            "certificates": [{
                "op": c.op, "generator": c.generator, "degree": c.degree,
                "correction": c.correction, "expression": c.expression,
                "verified": c.verified,
            } for c in self.certificates],
            "checked_pairs": self.checked_pairs,
        }


def appendix_generators(G: FreeTruncAlgebra, B: TruncAlgebra, module_gens,
                        proj: GradedMap, embed: GradedMap) -> AppendixResult:
    """Finite generation of a module-algebra, with rewriting certificates.

    Inputs: ``G`` — a truncated algebra with Steenrod tables; ``B`` — an
    algebra that is a G-module via ``embed`` (the unital algebra map g -> g.1)
    and carries its own Steenrod tables; ``module_gens`` — elements b_1..b_n
    of B that generate it as a G-module, with b_1 the unit; ``proj`` — a
    G-module retraction B -> G (proj(g.1) = g).

    Works through B's bound, which G's tables must reach (InputError
    otherwise).  Checks, not assumes: b_1 = 1; proj is G-linear;
    proj(theta(g.1)) = theta(g) for every tabulated operation and basis
    element within bound.  Violations raise EngineContractError naming the
    offending pair.

    Returns the generator set {normalized b_i, i >= 2} + {z.1 for algebra
    generators z of G}, with one certificate per correction term
    xi = theta(z.1) - (theta z).1 expressing xi over the output generators.
    A correction that cannot be rewritten raises InconsistencyError.
    """
    bound = B.bound
    if bound > G.bound:
        raise InputError(f"G's tables end at degree {G.bound}, below B's "
                         f"bound {bound}")
    module_gens = list(module_gens)
    if not module_gens or module_gens[0] != B.one():
        raise EngineContractError("the first module generator must be the unit of B")

    # contract: proj restores G through embed
    for d in range(bound + 1):
        for i in range(G.dim(d)):
            x = G.element(d, i)
            back = proj.apply(embed.apply(x))
            if back != x:
                raise EngineContractError(
                    f"proj(embed(x)) != x for basis element "
                    f"{G.basis_label(d, i)} in degree {d}")

    # contract: proj is a morphism of G-modules
    for d_g in range(bound + 1):
        for i_g in range(G.dim(d_g)):
            g = G.element(d_g, i_g)
            g1 = embed.apply(g)
            for d_b in range(bound + 1 - d_g):
                for i_b in range(B.dim(d_b)):
                    b = B.element(d_b, i_b)
                    lhs = proj.apply(B.product(g1, b))
                    rhs = G.product(g, proj.apply(b))
                    if lhs != rhs:
                        raise EngineContractError(
                            "proj is not G-linear on the pair "
                            f"({G.basis_label(d_g, i_g)}, {B.basis_label(d_b, i_b)})")

    # contract: proj(theta(g.1)) = theta(g) on all tabulated pairs in bound
    checked = 0
    for op in G.op_list():
        shift = op_degree(G.p, op)
        for d in range(bound + 1 - shift):
            for i in range(G.dim(d)):
                g = G.element(d, i)
                lhs = proj.apply(B.act(op, embed.apply(g)))
                rhs = G.act(op, g)
                checked += 1
                if lhs != rhs:
                    raise EngineContractError(
                        f"proj({format_op(op)}(g.1)) != {format_op(op)}(g) for "
                        f"g = {G.basis_label(d, i)}")

    # normalize: b_i <- b_i - embed(proj(b_i)) for i >= 2
    normalized = [module_gens[0]]
    for b in module_gens[1:]:
        normalized.append(b - embed.apply(proj.apply(b)))

    out_gens: list[tuple] = []
    for k, b in enumerate(normalized[1:], start=2):
        if b.is_zero:
            continue
        if b.degree() <= bound:
            out_gens.append((f"b{k}", b.degree()))
    gen_elements = {f"b{k}": b for k, b in enumerate(normalized, start=1)}
    for g in G.generators:
        if g.degree <= bound:
            out_gens.append((f"{g.name}.1", g.degree))
            gen_elements[f"{g.name}.1"] = embed.apply(G.generator_element(g.name))
    if not out_gens:
        out_gens = [("1", 0)]

    # rewriting certificates for the correction terms, by increasing degree
    certificates: list[AppendixCertificate] = []
    tasks = []
    for g in G.generators:
        for op in G.op_list():
            target = g.degree + op_degree(G.p, op)
            if target <= bound:
                tasks.append((target, g.name, op))
    tasks.sort()
    for target, gen_name, op in tasks:
        z1 = embed.apply(G.generator_element(gen_name))
        xi = B.act(op, z1) - embed.apply(G.act(op, G.generator_element(gen_name)))
        expression, ok = _rewrite_correction(B, G, embed, normalized, xi, target)
        if not ok:
            raise InconsistencyError(
                f"correction term for ({format_op(op)}, {gen_name}) cannot be "
                f"rewritten over the generator set; input tables are inconsistent")
        certificates.append(AppendixCertificate(
            op=format_op(op), generator=gen_name, degree=target,
            correction=B.describe(xi), expression=expression, verified=True))
    return AppendixResult(out_gens, certificates, checked)


def _rewrite_correction(B, G, embed, normalized, xi, degree):
    """Express xi (degree-homogeneous, in ker proj) as sum of (embedded G
    monomial) * b_i with i >= 2.  Returns (expression string, ok)."""
    if xi.is_zero:
        return "0", True
    columns = []
    column_names = []
    for k, b in enumerate(normalized[1:], start=2):
        if b.is_zero:
            continue
        d_b = b.degree()
        if d_b > degree:
            continue
        d_g = degree - d_b
        for i_g in range(G.dim(d_g)):
            prod = B.product(embed.apply(G.element(d_g, i_g)), b)
            columns.append(prod.vector(degree))
            column_names.append((G.basis_label(d_g, i_g), f"b{k}"))
    target_vec = xi.vector(degree)
    coeffs = solve(columns, target_vec, B.p)
    if coeffs is None:
        return "", False
    parts = []
    for c, (g_label, b_name) in zip(coeffs, column_names):
        if not c:
            continue
        pieces = []
        if c != 1:
            pieces.append(str(c))
        if g_label != "1":
            pieces.append(f"({g_label}).1")
        pieces.append(b_name)
        parts.append("*".join(pieces))
    return " + ".join(parts) if parts else "0", True
