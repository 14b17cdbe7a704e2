"""Unstable-module bookkeeping: expressions, the reduced-T functor, Krull degree.

Module expressions are formal sums/tensors built from the atoms

* ``F(n)``   — the free unstable module on one class of degree ``n``,
* ``Q1``     — the indecomposables of the mod-p cohomology of the cyclic
  classifying space: a single class of degree 1 at p = 2, classes of degree
  1 and 2 at odd primes,
* ``Fin(d1:m1, ...)`` — an arbitrary finite module, recorded by dimensions,

with constructors ``Sigma`` (suspension), ``+`` (direct sum), ``*`` (tensor)
and ``^k`` (k-fold direct sum; ``^0`` is the zero module).

An expression is held only as its normal form, a multiset of tensor terms
(``ModuleExpr.terms``); every constructor builds it directly, so equal
modules compare, hash and print alike however they were written.  A term
with a finite factor carries its suspensions in that factor's degrees, so
``Sigma(a)*b`` and ``a*Sigma(b)`` give the same terms.  The Q1 atom stays
symbolic until ``normal_form`` is asked for a prime.

The reduced-T functor follows fixed rules:

* ``T(Fin) = 0`` and ``T(F(0)) = 0``;
* ``T(F(n)) = sum_{i<n} F(i)``, each summand once (the unreduced T F(n) is
  F(0) + ... + F(n) because every H^j(BZ/p) is one-dimensional);
* ``T`` commutes with suspension and is additive;
* ``T(a (x) b) = Ta (x) b + a (x) Tb + Ta (x) Tb``.

Krull degree of ``M`` is the least ``n`` with ``T^{n+1} M = 0``.
"""

from __future__ import annotations

import itertools
import re

from . import steenrod
from ._record import Frozen, Record
from .errors import DSLSyntaxError, InputError
from .graded import _series_mul

# ---------------------------------------------------------------------------
# normal form: multiset of terms
#
# A term is (sigma, fs, q1, fin) with fs a sorted tuple of F-indices, q1 the
# number of Q1 tensor factors, fin either None or a sorted dims tuple.  The
# empty tensor is represented by fs=(0,) (the unit F(0)).  A term with a
# finite factor absorbs its suspensions into that factor's degrees (sigma 0),
# and in a merged normal form it has multiplicity 1: m copies of X (x) Fin
# are X (x) Fin(m*dims).


class ModuleExpr(Frozen):
    """A module expression, held as its merged normal form: a mapping
    term -> multiplicity, empty for the zero module.  Build one with the
    constructors below; the mapping must not be mutated."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self._assign(terms)

    def __add__(self, other):
        return Sum((self, other))

    def __mul__(self, other):
        return Tensor((self, other))

    def __eq__(self, other):
        if not isinstance(other, ModuleExpr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return format_expr(self)


def _terms(expr) -> dict:
    if not isinstance(expr, ModuleExpr):
        raise InputError(f"not a module expression: {expr!r}")
    return expr.terms


def _make_term(sigma: int, fs, q1: int, fins) -> tuple:
    fs = tuple(sorted(fs))
    fin = None
    if fins:
        acc = {sigma: 1}  # the suspensions, carried by the finite factor
        for dims in fins:
            nxt: dict[int, int] = {}
            for d1, m1 in acc.items():
                for d2, m2 in dims:
                    nxt[d1 + d2] = nxt.get(d1 + d2, 0) + m1 * m2
            acc = nxt
        fin = tuple(sorted(acc.items()))
        sigma = 0
    if len(fs) + q1 + (1 if fin is not None else 0) > 1:
        fs = tuple(i for i in fs if i != 0)  # F(0) is the tensor unit
    if not fs and not q1 and fin is None:
        fs = (0,)
    return (sigma, fs, q1, fin)


_UNIT = _make_term(0, (0,), 0, [])


def _nf_tensor(a: dict, b: dict) -> dict:
    out: dict = {}
    for (s1, f1, q1, fin1), m1 in a.items():
        for (s2, f2, q2, fin2), m2 in b.items():
            fins = [f for f in (fin1, fin2) if f is not None]
            t = _make_term(s1 + s2, f1 + f2, q1 + q2, fins)
            out[t] = out.get(t, 0) + m1 * m2
    return out


def _merge_finite(pairs) -> dict:
    """The merged normal form of (term, multiplicity) pairs, a term that
    repeats adding up.

    m copies of X (x) Fin(dims) form X (x) Fin(m*dims), and two terms that
    differ only in their finite factor add those factors dimensionwise.
    Requires non-negative multiplicities (true for every expression value).
    """
    out: dict = {}
    grouped: dict = {}
    for term, mult in pairs:
        sigma, fs, q1, fin = term
        if fin is None:
            out[term] = out.get(term, 0) + mult
            continue
        acc = grouped.setdefault((fs, q1), {})
        for d, m in fin:
            acc[d + sigma] = acc.get(d + sigma, 0) + m * mult
    for (fs, q1), dims in grouped.items():
        out[_make_term(0, fs, q1, [tuple(sorted(dims.items()))])] = 1
    return out


def _expr(pairs) -> ModuleExpr:
    """The module of (term, multiplicity) pairs; the zero module is ZERO."""
    terms = _merge_finite(pairs)
    return ModuleExpr(terms) if terms else ZERO


# ---------------------------------------------------------------------------
# constructors: each builds its merged normal form


def F(n: int) -> ModuleExpr:
    if n < 0:
        raise InputError("F(n) needs n >= 0")
    return ModuleExpr({_make_term(0, (n,), 0, []): 1})


def Q1() -> ModuleExpr:
    return ModuleExpr({_make_term(0, (), 1, []): 1})


def Fin(dims) -> ModuleExpr:
    """A finite module from {degree: multiplicity} (or its pairs)."""
    items = dims.items() if isinstance(dims, dict) else dict(dims).items()
    clean = tuple(sorted((d, m) for d, m in items if m))
    for d, m in clean:
        if d < 0 or m < 0:
            raise InputError("Fin entries need degree >= 0 and mult >= 0")
    return _expr([(_make_term(0, (), 0, [clean]), 1)] if clean else [])


def Sigma(inner: ModuleExpr) -> ModuleExpr:
    return _expr((_make_term(s + 1, fs, q1, [fin] if fin else []), m)
                 for (s, fs, q1, fin), m in _terms(inner).items())


def Sum(parts) -> ModuleExpr:
    return _expr(pair for part in parts for pair in _terms(part).items())


def Tensor(parts) -> ModuleExpr:
    out = {_UNIT: 1}
    for part in parts:
        out = _nf_tensor(out, _terms(part))
    return _expr(out.items())


def Power(base: ModuleExpr, k: int) -> ModuleExpr:
    if k < 0:
        raise InputError("Power exponent must be >= 0")
    return _expr((t, m * k) for t, m in _terms(base).items() if k)


def Normal(terms: dict) -> ModuleExpr:
    """A module from a normal form (term -> multiplicity) taken at a prime,
    as ``tbar`` reads it: no term may hold a symbolic Q1."""
    if any(q1 for _s, _fs, q1, _fin in terms):
        raise InputError("a Normal module needs a normal form taken at "
                         "a prime (Q1 written as its finite table)")
    return _expr(terms.items())


ZERO = ModuleExpr({})


def normal_form(expr: ModuleExpr, p=None) -> dict:
    """Normal form: mapping term -> multiplicity (empty dict = zero module).

    With ``p=None`` the Q1 atom stays symbolic.  With ``p`` given, which
    must be prime (InputError otherwise), each Q1 factor is rewritten as
    its finite-module table (degree 1 at p=2; degrees 1 and 2 at odd
    primes) and the terms are merged again.
    """
    terms = _terms(expr)
    if p is None:
        return dict(terms)
    steenrod.check_prime(p)
    q1_table = tuple(sorted(q1_dims(p).items()))
    return _merge_finite(
        (_make_term(s, fs, 0, ([fin] if fin else []) + [q1_table] * q1), m)
        for (s, fs, q1, fin), m in terms.items())


def is_zero(expr: ModuleExpr) -> bool:
    return not _terms(expr)


def expr_dims(expr: ModuleExpr, max_degree: int, p: int = 2) -> list[int]:
    """Graded dimensions of an expression through max_degree."""
    if max_degree < 0:
        raise InputError("expr_dims needs max_degree >= 0")
    out = [0] * (max_degree + 1)
    for (sigma, fs, _q1, fin), mult in normal_form(expr, p).items():
        dims = [1] + [0] * max_degree
        for n in fs:
            dims = _series_mul(dims, dims_F(n, max_degree, p), max_degree)
        if fin is not None:
            f_table = [0] * (max_degree + 1)
            for d, m in fin:
                if d <= max_degree:
                    f_table[d] = m
            dims = _series_mul(dims, f_table, max_degree)
        for d in range(max_degree + 1):
            shifted = d + sigma
            if shifted <= max_degree:
                out[shifted] += dims[d] * mult
    return out


def _term_key(term):
    sigma, fs, q1, fin = term
    return (tuple(sorted(fs, reverse=True)), q1, fin or (), sigma)


# ---------------------------------------------------------------------------
# reduced-T rewriting


def q1_dims(p: int) -> dict[int, int]:
    """Q1 written as its finite atom: degree 1 at p=2, degrees 1,2 at odd p."""
    return {1: 1} if p == 2 else {1: 1, 2: 1}


def tbar(expr: ModuleExpr, p: int = 2) -> ModuleExpr:
    """One application of the reduced-T functor, in normal form.

    Reduced T F(n) = F(0) + ... + F(n-1), each summand once: Hom_U(T F(n), M)
    is the degree-n part of H*(BZ/p) (x) M and each H^j(BZ/p) is
    one-dimensional, so T F(n) = F(0) + ... + F(n) (Lannes 1992).  The
    binomial multiplicities C(n, i) are those of F(1)^{(x) n}, which the
    tensor rule produces on its own.  Finite atoms go to 0; the Q1 atom is
    rewritten as its finite-module table first, so the result never
    mentions Q1.
    """
    out = []
    for (sigma, fs, _q1, fin), mult in normal_form(expr, p).items():
        # T(x1 (x) ... (x) xk) = prod(xi + T xi) - prod(xi), with T Fin = 0
        prod: dict = {_UNIT: 1}
        for n in fs:
            prod = _nf_tensor(prod, {_make_term(0, (i,), 0, []): 1
                                     for i in range(n + 1)})
        prod[_make_term(0, fs, 0, [])] -= 1
        fins = [fin] if fin else []
        out.extend((_make_term(sigma, f2, 0, fins), m * mult)
                   for (_s, f2, _q, _fin), m in prod.items() if m)
    return _expr(out)


class KrullReport(Record):
    """Result of a Krull-degree computation."""

    __slots__ = ("degree", "trace")

    def __init__(self, degree: int, trace: list | None = None):
        # trace: the successive iterates, as exprs
        self._assign(degree, [] if trace is None else trace)

    @property
    def determined(self) -> bool:
        """Always true: krull_degree iterates until T̄ gives zero."""
        return True

    def trace_strings(self) -> list[str]:
        return [format_expr(e) for e in self.trace]


def krull_degree(expr: ModuleExpr, p: int = 2) -> KrullReport:
    """Least n with T^{n+1}(expr) = 0, with the full iterate trace.

    The trace includes the input and the terminal zero, so its length is
    degree + 2.  Each T̄ step lowers the largest sum of F indices over the
    terms by at least one (a term with no F factor goes to 0), so the
    iteration ends after at most that sum plus one steps.
    """
    current = ModuleExpr(normal_form(expr, p))
    trace = [current]
    if not current.terms:
        # the zero module sits at the bottom of the filtration
        return KrullReport(0, [current, ZERO])
    for n in itertools.count():
        current = tbar(current, p=p)
        trace.append(current)
        if not current.terms:
            return KrullReport(n, trace)


# ---------------------------------------------------------------------------
# free-module dimensions


def dims_F(n: int, max_degree: int, p: int = 2) -> list[int]:
    """Dimensions of F(n) in degrees 0..max_degree.

    The basis of F(n) in degree d is the set of admissible words w with
    excess(w) <= n and degree(w) + n = d.
    """
    steenrod.check_prime(p)
    if n < 0:
        raise InputError("dims_F needs n >= 0")
    if max_degree < 0:
        raise InputError("dims_F needs max_degree >= 0")
    out = [0] * (max_degree + 1)
    # the reduced excess bounds the excess from below, so it prunes exactly;
    # at odd p a leading Bockstein still counts toward the excess
    for w in steenrod.admissible_words(p, max_degree - n, max_excess=n):
        if steenrod.excess(p, w) <= n:
            out[steenrod.word_degree(p, w) + n] += 1
    return out


# ---------------------------------------------------------------------------
# DSL


class _Parser:
    """Recursive-descent parser for the module-expression DSL.

    expr   := term ('+' term)*
    term   := factor ('*' factor)*
    factor := atom ('^' INT)? | 'Sigma(' expr ')'
    atom   := 'F(' INT ')' | 'Q1' | 'Fin(' INT ':' INT (',' INT ':' INT)* ')' | '0'
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise DSLSyntaxError(message, self.text, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eat(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str):
        if not self.eat(token):
            self.error(f"expected {token!r}")

    def integer(self) -> int:
        self.skip_ws()
        m = re.match(r"\d+", self.text[self.pos:])
        if not m:
            if self.text[self.pos:self.pos + 1] == "-":
                self.error("negative integers are not allowed")
            self.error("expected an integer")
        self.pos += m.end()
        return int(m.group())

    def parse(self) -> ModuleExpr:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return e

    def expr(self) -> ModuleExpr:
        parts = [self.term()]
        while self.eat("+"):
            parts.append(self.term())
        return parts[0] if len(parts) == 1 else Sum(tuple(parts))

    def term(self) -> ModuleExpr:
        parts = [self.factor()]
        while self.eat("*"):
            parts.append(self.factor())
        return parts[0] if len(parts) == 1 else Tensor(tuple(parts))

    def factor(self) -> ModuleExpr:
        self.skip_ws()
        if self.text.startswith("Sigma", self.pos):
            self.pos += len("Sigma")
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            return Sigma(inner)
        a = self.atom()
        if self.eat("^"):
            return Power(a, self.integer())
        return a

    def atom(self) -> ModuleExpr:
        self.skip_ws()
        if self.eat("0"):
            return ZERO
        if self.text.startswith("Q1", self.pos):
            self.pos += 2
            return Q1()
        if self.text.startswith("Fin", self.pos):
            self.pos += 3
            self.expect("(")
            dims: dict[int, int] = {}
            while True:
                d = self.integer()
                self.expect(":")
                m = self.integer()
                dims[d] = dims.get(d, 0) + m
                if not self.eat(","):
                    break
            self.expect(")")
            return Fin(dims)
        if self.text.startswith("F", self.pos):
            self.pos += 1
            self.expect("(")
            n = self.integer()
            self.expect(")")
            return F(n)
        self.error("expected an atom (F(n), Q1, Fin(...), 0, Sigma(...))")


def parse_expr(text: str) -> ModuleExpr:
    """Parse the module-expression DSL; raises DSLSyntaxError with offset."""
    return _Parser(text).parse()


def format_expr(expr: ModuleExpr) -> str:
    """Pretty-print an expression, one summand per normal-form term;
    parse(format(e)) == e.  A multiplicity m > 1 is written ^m on the
    term's last atom, inside any Sigma: ^ is a direct sum and the tensor
    distributes over it, so F(1)*F(1)^3 is three copies of F(1)*F(1)."""
    nf = _terms(expr)
    if not nf:
        return "0"
    parts = []
    for term in sorted(nf, key=_term_key):
        mult = nf[term]
        sigma, fs, q1, fin = term
        atoms = [f"F({n})" for n in sorted(fs, reverse=True)]
        atoms.extend("Q1" for _ in range(q1))
        if fin is not None:
            atoms.append("Fin(" + ",".join(f"{d}:{m}" for d, m in fin) + ")")
        body = "*".join(atoms) + (f"^{mult}" if mult > 1 else "")
        for _ in range(sigma):
            body = f"Sigma({body})"
        parts.append(body)
    return " + ".join(parts)
