"""Unstable-module bookkeeping: expressions, the reduced-T functor, Krull degree.

Module expressions are formal sums/tensors built from the atoms

* ``F(n)``   — the free unstable module on one class of degree ``n``,
* ``Q1``     — the indecomposables of the mod-p cohomology of the cyclic
  classifying space: a single class of degree 1 at p = 2, classes of degree
  1 and 2 at odd primes,
* ``Fin(d1:m1, ...)`` — an arbitrary finite module, recorded by dimensions,

with constructors ``Sigma`` (suspension), ``+`` (direct sum), ``*`` (tensor)
and ``^k`` (k-fold direct sum; ``^0`` normalizes to the zero module).

The reduced-T functor follows fixed rules:

* ``T(Fin) = 0`` and ``T(F(0)) = 0``;
* ``T(F(n)) = sum_{i<n} F(i)``, each summand once (the unreduced T F(n) is
  F(0) + ... + F(n) because every H^j(BZ/p) is one-dimensional);
* ``T`` commutes with suspension and is additive;
* ``T(a (x) b) = Ta (x) b + a (x) Tb + Ta (x) Tb``.

Krull degree of ``M`` is the least ``n`` with ``T^{n+1} M = 0``.  Both work
on normal forms (the ``Normal`` leaf); trees are built only by the parser.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import steenrod
from .errors import DSLSyntaxError, InputError
from .graded import _series_mul

# ---------------------------------------------------------------------------
# expression trees


class ModuleExpr:
    """Base class for module expressions (immutable trees)."""

    def __add__(self, other):
        return Sum((self, other))

    def __mul__(self, other):
        return Tensor((self, other))

    def __eq__(self, other):
        if not isinstance(other, ModuleExpr):
            return NotImplemented
        return normal_form(self) == normal_form(other)

    def __hash__(self):
        return hash(frozenset(normal_form(self).items()))

    def __repr__(self):
        return format_expr(self)


@dataclass(frozen=True, eq=False, repr=False)
class F(ModuleExpr):
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise InputError("F(n) needs n >= 0")


@dataclass(frozen=True, eq=False, repr=False)
class Q1(ModuleExpr):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Fin(ModuleExpr):
    dims: tuple  # sorted tuple of (degree, multiplicity)

    def __init__(self, dims):
        if isinstance(dims, dict):
            items = dims.items()
        else:
            items = dict(dims).items()
        clean = tuple(sorted((d, m) for d, m in items if m))
        for d, m in clean:
            if d < 0 or m < 0:
                raise InputError("Fin entries need degree >= 0 and mult >= 0")
        object.__setattr__(self, "dims", clean)


@dataclass(frozen=True, eq=False, repr=False)
class Sigma(ModuleExpr):
    inner: ModuleExpr


@dataclass(frozen=True, eq=False, repr=False)
class Sum(ModuleExpr):
    parts: tuple

    def __init__(self, parts):
        object.__setattr__(self, "parts", tuple(parts))


@dataclass(frozen=True, eq=False, repr=False)
class Tensor(ModuleExpr):
    parts: tuple

    def __init__(self, parts):
        object.__setattr__(self, "parts", tuple(parts))


@dataclass(frozen=True, eq=False, repr=False)
class Power(ModuleExpr):
    base: ModuleExpr
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise InputError("Power exponent must be >= 0")


@dataclass(frozen=True, eq=False, repr=False)
class Normal(ModuleExpr):
    """A module held as its normal form (term -> multiplicity), as returned
    by ``tbar``; the terms are taken at a prime, so none is a symbolic Q1."""

    terms: dict

    def __post_init__(self):
        if any(q1 for _s, _fs, q1, _fin in self.terms):
            raise InputError("a Normal module needs a normal form taken at "
                             "a prime (Q1 written as its finite table)")


ZERO = Sum(())

# ---------------------------------------------------------------------------
# normal form: multiset of terms
#
# A term is (sigma, fs, q1, fin) with fs a sorted tuple of F-indices, q1 the
# number of Q1 tensor factors, fin either None or a sorted dims tuple.  The
# empty tensor is represented by fs=(0,) (the unit F(0)).  A term that is a
# pure finite module absorbs its suspensions into the degree shift.


def _make_term(sigma: int, fs, q1: int, fins) -> tuple:
    fs = tuple(sorted(fs))
    fin = None
    if fins:
        acc = {0: 1}
        for dims in fins:
            nxt: dict[int, int] = {}
            for d1, m1 in acc.items():
                for d2, m2 in dict(dims).items() or {}:
                    nxt[d1 + d2] = nxt.get(d1 + d2, 0) + m1 * m2
            acc = nxt
        fin = tuple(sorted(acc.items()))
        if not fin:
            return None  # a zero-dimensional Fin annihilates the term
    if len(fs) + q1 + (1 if fin is not None else 0) > 1:
        fs = tuple(i for i in fs if i != 0)  # F(0) is the tensor unit
    if not fs and not q1 and fin is None:
        fs = (0,)
    if not fs and not q1 and fin is not None:
        fin = tuple(sorted((d + sigma, m) for d, m in fin))
        sigma = 0
    return (sigma, fs, q1, fin)


def _nf_add(a: dict, b: dict, mult: int = 1) -> dict:
    out = dict(a)
    for t, m in b.items():
        out[t] = out.get(t, 0) + m * mult
        if not out[t]:
            del out[t]
    return out


def _nf_tensor(a: dict, b: dict) -> dict:
    out: dict = {}
    for (s1, f1, q1, fin1), m1 in a.items():
        for (s2, f2, q2, fin2), m2 in b.items():
            fins = [f for f in (fin1, fin2) if f is not None]
            t = _make_term(s1 + s2, f1 + f2, q1 + q2, fins)
            if t is not None:
                out[t] = out.get(t, 0) + m1 * m2
    return out


def _raw_nf(expr: ModuleExpr, p) -> dict:
    if isinstance(expr, Normal):
        return dict(expr.terms)
    if isinstance(expr, F):
        return {_make_term(0, (expr.n,), 0, []): 1}
    if isinstance(expr, Q1):
        if p is None:
            return {_make_term(0, (), 1, []): 1}
        return {_make_term(0, (), 0, [tuple(sorted(q1_dims(p).items()))]): 1}
    if isinstance(expr, Fin):
        if not expr.dims:
            return {}
        return {_make_term(0, (), 0, [expr.dims]): 1}
    if isinstance(expr, Sigma):
        out = {}
        for (s, fs, q1, fin), m in _raw_nf(expr.inner, p).items():
            t = _make_term(s + 1, fs, q1, [fin] if fin is not None else [])
            out[t] = out.get(t, 0) + m
        return out
    if isinstance(expr, Sum):
        out: dict = {}
        for part in expr.parts:
            out = _nf_add(out, _raw_nf(part, p))
        return out
    if isinstance(expr, Tensor):
        out = {_make_term(0, (0,), 0, []): 1}
        for part in expr.parts:
            out = _nf_tensor(out, _raw_nf(part, p))
            if not out:
                return {}
        return out
    if isinstance(expr, Power):
        if expr.k == 0:
            return {}
        base = _raw_nf(expr.base, p)
        return {t: m * expr.k for t, m in base.items()}
    raise InputError(f"not a module expression: {expr!r}")


def _merge_finite(nf: dict) -> dict:
    """Fold multiplicities of finite factors into their dimension tables.

    m copies of X (x) Fin(dims) form X (x) Fin(m*dims), and two terms that
    differ only in their finite factor add those factors dimensionwise.
    Requires non-negative multiplicities (true for every expression value).
    """
    out: dict = {}
    grouped: dict = {}
    for term, mult in nf.items():
        sigma, fs, q1, fin = term
        if fin is None:
            out[term] = out.get(term, 0) + mult
            continue
        key = (sigma, fs, q1)
        acc = grouped.setdefault(key, {})
        for d, m in fin:
            acc[d] = acc.get(d, 0) + m * mult
    for (sigma, fs, q1), dims in grouped.items():
        term = _make_term(sigma, fs, q1, [tuple(sorted(dims.items()))])
        if term is not None:
            out[term] = out.get(term, 0) + 1
    return out


def normal_form(expr: ModuleExpr, p=None) -> dict:
    """Normal form: mapping term -> multiplicity (empty dict = zero module).

    With ``p`` given, the Q1 atom is rewritten as its finite-module table
    (degree 1 at p=2; degrees 1 and 2 at odd primes) before canonicalizing.
    With ``p=None`` the Q1 atom stays symbolic.
    """
    return _merge_finite(_raw_nf(expr, p))


def is_zero(expr: ModuleExpr) -> bool:
    return not normal_form(expr)


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


def tbar(expr: ModuleExpr, p: int = 2) -> Normal:
    """One application of the reduced-T functor, in normal form.

    Reduced T F(n) = F(0) + ... + F(n-1), each summand once: Hom_U(T F(n), M)
    is the degree-n part of H*(BZ/p) (x) M and each H^j(BZ/p) is
    one-dimensional, so T F(n) = F(0) + ... + F(n) (Lannes 1992).  The
    binomial multiplicities C(n, i) are those of F(1)^{(x) n}, which the
    tensor rule produces on its own.  Finite atoms go to 0; the Q1 atom is
    rewritten as its finite-module table first, so the result never
    mentions Q1.
    """
    steenrod.check_prime(p)
    out: dict = {}
    for (sigma, fs, _q1, fin), mult in normal_form(expr, p).items():
        # T(x1 (x) ... (x) xk) = prod(xi + T xi) - prod(xi), with T Fin = 0
        prod: dict = {_make_term(0, (0,), 0, []): 1}
        for n in fs:
            prod = _nf_tensor(prod, {_make_term(0, (i,), 0, []): 1
                                     for i in range(n + 1)})
        fins = [fin] if fin is not None else []
        if fins:
            prod = _nf_tensor(prod, {_make_term(0, (), 0, fins): 1})
        prod = _nf_add(prod, {_make_term(0, fs, 0, fins): 1}, mult=-1)
        for (s2, f2, q2, fin2), m in prod.items():
            t = _make_term(s2 + sigma, f2, q2, [fin2] if fin2 is not None else [])
            if t is None:
                continue
            out[t] = out.get(t, 0) + m * mult
            if not out[t]:
                del out[t]
    return Normal(_merge_finite(out))


@dataclass
class KrullReport:
    """Result of a Krull-degree computation."""

    degree: int | None
    trace: list = field(default_factory=list)  # successive iterates, as exprs

    @property
    def determined(self) -> bool:
        return self.degree is not None

    def trace_strings(self) -> list[str]:
        return [format_expr(e) for e in self.trace]


def krull_degree(expr: ModuleExpr, p: int = 2,
                 max_iterations: int = 64) -> KrullReport:
    """Least n with T^{n+1}(expr) = 0, with the full iterate trace.

    The trace includes the input and the terminal zero, so its length is
    degree + 2 for a determined computation.
    """
    steenrod.check_prime(p)
    current = Normal(normal_form(expr, p))
    trace = [current]
    if not current.terms:
        # the zero module sits at the bottom of the filtration
        return KrullReport(0, [current, ZERO])
    for n in range(max_iterations):
        current = tbar(current, p=p)
        trace.append(current)
        if not current.terms:
            return KrullReport(n, trace)
    return KrullReport(None, trace)


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
    """Pretty-print an expression; parse(format(e)) == e in normal form."""
    nf = normal_form(expr)
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
        body = "*".join(atoms)
        for _ in range(sigma):
            body = f"Sigma({body})"
        if mult > 1:
            if len(atoms) == 1 and sigma == 0:
                body = f"{body}^{mult}"
            else:
                parts.extend([body] * (mult - 1))
        parts.append(body)
    return " + ".join(parts)
