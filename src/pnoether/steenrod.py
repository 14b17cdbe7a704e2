"""Mod-p Steenrod algebra word arithmetic: admissibility, Adem reduction, excess.

Word encodings
--------------
p = 2:   a word is a tuple of positive superscripts ``(i1, ..., ik)`` standing
         for ``Sq^{i1} ... Sq^{ik}``; the identity is ``()``.

odd p:   a word is a flat tuple ``(e0, s1, e1, s2, e2, ..., sk, ek)`` with
         ``e* in {0, 1}`` standing for
         ``b^{e0} P^{s1} b^{e1} ... P^{sk} b^{ek}`` (``b`` = Bockstein);
         the identity is ``(0,)`` and the bare Bockstein is ``(1,)``.

Admissibility: ``i_j >= 2 i_{j+1}`` at p = 2; ``s_j >= p s_{j+1} + e_j`` at
odd p (the flag *between* two powers constrains the left one).

Excess convention
-----------------
p = 2:   ``excess(i1, ..., ik) = i1 - (i2 + ... + ik)``.

odd p:   ``excess(b^{e0} P^{s1} w) = 2 s1 + e0 - degree(w)`` where ``w`` is
         the tail after the leading ``b^{e0} P^{s1}``.  The bare Bockstein has
         excess 1 and the identity excess 0.  Callers that enumerate algebra
         generators of Eilenberg-MacLane spaces use the *reduced* excess
         ``excess(w) - e0`` (a leading Bockstein does not raise the effective
         excess); see :func:`reduced_excess`.

Text DSL: ``Sq[i1,i2,...]`` groups at p = 2 and ``bP[e0;s1,e1;s2,e2;...]``
groups at odd p; juxtaposed groups compose, ``1`` is the identity.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .errors import DSLSyntaxError, InputError

# ---------------------------------------------------------------------------
# primes and binomials

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def check_prime(p) -> int:
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise InputError(f"p must be a prime number, got {p!r}")
    return p


def padic_valuation(p: int, n: int) -> tuple:
    """(v, u) with n = p^v · u and p ∤ u; undefined for n = 0."""
    if n == 0:
        raise InputError("the zero integer has no finite valuation")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def binom_mod(n: int, k: int, p: int) -> int:
    """Binomial coefficient C(n, k) mod p via Lucas; 0 outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return 0
    out = 1
    while n or k:
        ni, ki = n % p, k % p
        if ki > ni:
            return 0
        num = den = 1
        for t in range(ki):
            num = num * (ni - t) % p
            den = den * (t + 1) % p
        out = out * num * pow(den, p - 2, p) % p
        n //= p
        k //= p
    return out


# ---------------------------------------------------------------------------
# words

def identity_word(p: int) -> tuple:
    return () if p == 2 else (0,)


def word_degree(p: int, word: tuple) -> int:
    if p == 2:
        return sum(word)
    total = word[0]
    for j in range(1, len(word), 2):
        total += 2 * word[j] * (p - 1) + word[j + 1]
    return total


def is_admissible(p: int, word: tuple) -> bool:
    if p == 2:
        return all(word[j] >= 2 * word[j + 1] for j in range(len(word) - 1))
    # flat odd-p word: powers at odd indices, flags at even indices
    for j in range(1, len(word) - 2, 2):
        s, e, s2 = word[j], word[j + 1], word[j + 2]
        if s < p * s2 + e:
            return False
    return True


def excess(p: int, word: tuple) -> int:
    if p == 2:
        if not word:
            return 0
        return 2 * word[0] - sum(word)
    if len(word) == 1:
        return word[0]
    return 2 * word[1] + word[0] - word_degree(p, word[2:])


def leading_bockstein(p: int, word: tuple) -> int:
    return 0 if p == 2 else word[0]


def trailing_bockstein(p: int, word: tuple) -> bool:
    if p == 2:
        return bool(word) and word[-1] == 1
    return word[-1] == 1


def reduced_excess(p: int, word: tuple) -> int:
    """Excess with a leading Bockstein not counted (generator enumeration)."""
    return excess(p, word) - leading_bockstein(p, word)


def _validate_word_shape(p: int, word: tuple) -> None:
    if p == 2:
        if any((not isinstance(i, int)) or i <= 0 for i in word):
            raise InputError(f"p=2 word entries must be positive integers: {word}")
        return
    if len(word) % 2 == 0 or not word:
        raise InputError(f"odd-p word must have odd flat length: {word}")
    for j, x in enumerate(word):
        if j % 2 == 0:
            if x not in (0, 1):
                raise InputError(f"Bockstein flag must be 0/1 in {word}")
        elif (not isinstance(x, int)) or x <= 0:
            raise InputError(f"power entries must be positive integers: {word}")


# ---------------------------------------------------------------------------
# letters (single operations) and composition

def word_to_letters(p: int, word: tuple) -> list[tuple]:
    """Flatten a word into single-operation letters, leftmost first."""
    if p == 2:
        return [("Sq", i) for i in word]
    out: list[tuple] = []
    if word[0]:
        out.append(("B",))
    for j in range(1, len(word), 2):
        out.append(("P", word[j]))
        if word[j + 1]:
            out.append(("B",))
    return out


def letters_to_word(p: int, letters) -> tuple | None:
    """Assemble letters into a raw word tuple; None if it collapses (b*b = 0)."""
    if p == 2:
        word = []
        for tag, *rest in letters:
            if tag != "Sq":
                raise InputError(f"letter {tag} is not valid at p=2")
            word.append(rest[0])
        return tuple(word)
    word: list[int] = [0]
    for letter in letters:
        tag = letter[0]
        if tag == "B":
            if word[-1] == 1:
                return None
            word[-1] = 1
        elif tag == "P":
            word.extend((letter[1], 0))
        else:
            raise InputError(f"letter {tag} is not valid at odd p")
    return tuple(word)


# ---------------------------------------------------------------------------
# Adem reduction

@lru_cache(maxsize=None)
def _adem_pair_2(a: int, b: int) -> tuple:
    """Adem expansion of Sq^a Sq^b for a < 2b, as ((word, coeff), ...)."""
    acc: dict[tuple, int] = {}
    for c in range(a // 2 + 1):
        if binom_mod(b - c - 1, a - 2 * c, 2):
            w = (a + b - c, c) if c else (a + b - c,)
            acc[w] = (acc.get(w, 0) + 1) % 2
    return tuple(sorted((w, v) for w, v in acc.items() if v))


@lru_cache(maxsize=None)
def _reduce_2(word: tuple) -> tuple:
    """Fully Adem-reduce a p=2 word; returns ((admissible_word, coeff), ...)."""
    for j in range(len(word) - 1):
        if word[j] < 2 * word[j + 1]:
            acc: dict[tuple, int] = {}
            for pair, c in _adem_pair_2(word[j], word[j + 1]):
                sub = word[:j] + pair + word[j + 2:]
                for w2, c2 in _reduce_2(sub):
                    acc[w2] = (acc.get(w2, 0) + c * c2) % 2
            return tuple(sorted((w, v) for w, v in acc.items() if v))
    return ((word, 1),)


def _odd_relation(p: int, a: int, e: int, b: int) -> list[tuple[int, int, int, int]]:
    """Adem expansion terms for P^a b^e P^b (inadmissible pair).

    Each term is (coeff, lead_beta, segment...) encoded as
    (coeff, lb, s1, mid_e, s2) with s2 = 0 meaning the P^t factor vanished
    (t = 0), in which case mid_e is the flag trailing P^{s1}.
    """
    terms = []
    if e == 0:
        for t in range(a // p + 1):
            coeff = (-1) ** (a + t) * binom_mod((p - 1) * (b - t) - 1, a - p * t, p)
            coeff %= p
            if coeff:
                terms.append((coeff, 0, a + b - t, 0, t))
    else:
        for t in range(a // p + 1):
            c1 = (-1) ** (a + t) * binom_mod((p - 1) * (b - t), a - p * t, p)
            c1 %= p
            if c1:
                terms.append((c1, 1, a + b - t, 0, t))
            c2 = (-1) ** (a + t - 1) * binom_mod((p - 1) * (b - t) - 1, a - p * t - 1, p)
            c2 %= p
            if c2:
                terms.append((c2, 0, a + b - t, 1, t))
    return terms


@lru_cache(maxsize=None)
def _reduce_odd(p: int, word: tuple) -> tuple:
    """Fully Adem-reduce an odd-p flat word; ((admissible_word, coeff), ...)."""
    for j in range(1, len(word) - 2, 2):
        a, e, b = word[j], word[j + 1], word[j + 2]
        if a < p * b + e:
            acc: dict[tuple, int] = {}
            for coeff, lb, s1, mid_e, t in _odd_relation(p, a, e, b):
                prefix = list(word[:j])
                suffix = list(word[j + 3:])  # starts with the flag after b
                if lb:
                    if prefix[-1] == 1:
                        continue  # b*b = 0
                    prefix[-1] = 1
                if t == 0:
                    # P^{s1} b^{mid_e} then merge with the suffix flag
                    if mid_e and suffix[0] == 1:
                        continue
                    seg = [s1, mid_e or suffix[0]]
                    new = tuple(prefix + seg + suffix[1:])
                else:
                    new = tuple(prefix + [s1, mid_e, t] + suffix)
                for w2, c2 in _reduce_odd(p, new):
                    acc[w2] = (acc.get(w2, 0) + coeff * c2) % p
            return tuple(sorted((w, v) for w, v in acc.items() if v))
    return ((word, 1),)


class SteenrodSum:
    """A finite F_p-linear combination of admissible words, all of one degree."""

    def __init__(self, p: int, terms: dict):
        check_prime(p)
        self.p = p
        clean = {}
        deg = None
        for w, c in terms.items():
            c %= p
            if not c:
                continue
            if not is_admissible(p, w):
                raise InputError(f"SteenrodSum term {w} is not admissible")
            d = word_degree(p, w)
            if deg is None:
                deg = d
            elif d != deg:
                raise InputError("SteenrodSum terms must share one degree")
            clean[w] = c
        self.terms = clean

    @property
    def degree(self) -> int | None:
        if not self.terms:
            return None
        return word_degree(self.p, next(iter(self.terms)))

    def is_zero(self) -> bool:
        return not self.terms

    def words(self) -> list[tuple]:
        return sorted(self.terms)

    def __eq__(self, other):
        return (isinstance(other, SteenrodSum)
                and self.p == other.p and self.terms == other.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms):
            c = self.terms[w]
            body = format_word(self.p, w)
            parts.append(body if c == 1 else f"{c}*{body}")
        return " + ".join(parts)

    def __repr__(self):
        return f"SteenrodSum(p={self.p}, {self})"


def adem_reduce(p: int, letters) -> SteenrodSum:
    """Reduce a composite of single operations to admissible form.

    ``letters`` is a sequence of ``("Sq", i)``, ``("P", s)``, ``("B",)``
    single-operation letters (or a raw word tuple), leftmost operation first.
    """
    check_prime(p)
    if isinstance(letters, tuple) and (not letters or not isinstance(letters[0], tuple)):
        word = letters  # already a raw word tuple
        _validate_word_shape(p, word)
    else:
        word = letters_to_word(p, letters)
        if word is None:
            return SteenrodSum(p, {})
        _validate_word_shape(p, word)
    if p == 2:
        return SteenrodSum(p, dict(_reduce_2(word)))
    return SteenrodSum(p, dict(_reduce_odd(p, word)))


# ---------------------------------------------------------------------------
# enumeration

def admissible_words(p: int, max_degree: int,
                     max_excess: int | None = None) -> list[tuple]:
    """Admissible words of degree <= max_degree, identity included.

    With ``max_excess`` set, only the words whose :func:`reduced_excess`
    (excess with a leading Bockstein not counted) is <= max_excess, in the
    order the unbounded list has them.

    Words are built by prepending letters on the left, so each admissible
    word is produced exactly once.  Prepending a letter never lowers the
    reduced excess: at p = 2, ``i >= 2 w_0`` gives
    ``i - |w| >= 2 w_0 - |w|``; at odd p, prepending ``b^f P^s`` to
    ``w = b^{e_0} P^{s_1} ...`` gives reduced excess ``2s - |w|``, and
    ``s >= p s_1 + e_0`` makes that at least ``2 p s_1 + e_0 - |w|``, the
    reduced excess of ``w``.  So a word over the bound has no descendant
    under it, and the new letter is capped directly (``i <= max_excess + |w|``
    at p = 2, ``2s - |w| <= max_excess`` at odd p): every word built is kept.
    """
    check_prime(p)
    if max_degree < 0 or (max_excess is not None and max_excess < 0):
        return []
    if max_excess is None:
        max_excess = max_degree  # no word's excess exceeds its degree
    if p == 2:
        out = [()]
        frontier = [((), 0)]
        while frontier:
            new = []
            for w, d in frontier:
                lo = 2 * w[0] if w else 1
                for i in range(lo, min(max_degree - d, max_excess + d) + 1):
                    nw = (i,) + w
                    out.append(nw)
                    new.append((nw, d + i))
            frontier = new
        return out
    out = [(0,)]
    frontier = [((0,), 0)]
    if max_degree >= 1:
        out.append((1,))
        frontier.append(((1,), 1))
    unit = 2 * (p - 1)
    while frontier:
        new = []
        for w, d in frontier:
            lead_s = w[1] if len(w) > 1 else 0
            hi = min((max_degree - d) // unit, (max_excess + d) // 2)
            for s in range(max(1, p * lead_s + w[0]), hi + 1):
                nd = d + s * unit
                for flag in (0, 1) if nd < max_degree else (0,):
                    nw = (flag, s) + w
                    out.append(nw)
                    new.append((nw, nd + flag))
        frontier = new
    return out


# ---------------------------------------------------------------------------
# text DSL

_GROUP_RE = re.compile(r"\s*(Sq|bP)\[([^\]]*)\]\s*")


def parse_word_expr(p: int, text: str) -> list[tuple]:
    """Parse the word DSL into a letter list; ``1`` is the identity."""
    check_prime(p)
    stripped = text.strip()
    if stripped == "1":
        return []
    pos = 0
    letters: list[tuple] = []
    while pos < len(text):
        m = _GROUP_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise DSLSyntaxError("expected Sq[...] or bP[...] group", text, pos)
        tag, body = m.group(1), m.group(2)
        if tag == "Sq":
            if p != 2:
                raise DSLSyntaxError("Sq[...] groups need p = 2", text, pos)
            for piece in body.split(",") if body.strip() else []:
                i = _parse_int(piece, text, pos)
                if i <= 0:
                    raise DSLSyntaxError("superscripts must be positive", text, pos)
                letters.append(("Sq", i))
        else:
            if p == 2:
                raise DSLSyntaxError("bP[...] groups need an odd prime", text, pos)
            groups = body.split(";")
            e0 = _parse_int(groups[0], text, pos)
            if e0 not in (0, 1):
                raise DSLSyntaxError("Bockstein flag must be 0 or 1", text, pos)
            if e0:
                letters.append(("B",))
            for grp in groups[1:]:
                parts = grp.split(",")
                if len(parts) != 2:
                    raise DSLSyntaxError("expected 's,e' pair", text, pos)
                s = _parse_int(parts[0], text, pos)
                e = _parse_int(parts[1], text, pos)
                if s <= 0:
                    raise DSLSyntaxError("superscripts must be positive", text, pos)
                if e not in (0, 1):
                    raise DSLSyntaxError("Bockstein flag must be 0 or 1", text, pos)
                letters.append(("P", s))
                if e:
                    letters.append(("B",))
        pos = m.end()
    return letters


def _parse_int(piece: str, text: str, pos: int) -> int:
    piece = piece.strip()
    if not re.fullmatch(r"-?\d+", piece):
        raise DSLSyntaxError(f"expected integer, got {piece!r}", text, pos)
    return int(piece)


def format_word(p: int, word: tuple) -> str:
    """Render a word in the bracket DSL (identity renders as ``1``)."""
    if word == identity_word(p):
        return "1"
    if p == 2:
        return "Sq[" + ",".join(map(str, word)) + "]"
    groups = [str(word[0])]
    for j in range(1, len(word), 2):
        groups.append(f"{word[j]},{word[j + 1]}")
    return "bP[" + ";".join(groups) + "]"


def format_word_compact(p: int, word: tuple) -> str:
    """Identifier-safe rendering used in generator names (``Sq4Sq2``, ``bP3P1``)."""
    if word == identity_word(p):
        return ""
    if p == 2:
        return "".join(f"Sq{i}" for i in word)
    out = "b" if word[0] else ""
    for j in range(1, len(word), 2):
        out += f"P{word[j]}" + ("b" if word[j + 1] else "")
    return out
