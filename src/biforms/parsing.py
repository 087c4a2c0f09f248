"""Text grammar for polynomials, and the canonical printer.

Grammar (UTF-8 text):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | power
    power  := atom ('^' UINT)?
    atom   := UINT ('/' UINT)? | NAME | '(' expr ')'

Variables must be named exactly as in the target ring.  Juxtaposition is not
multiplication: write 3*X^2*Y, never 3X^2Y.  '^' binds tighter than '*',
which binds tighter than '+'/'-'.  Unary minus is allowed.  Factors nest at
most MAX_DEPTH deep (each parenthesis and unary minus opens one more), so
hostile input raises ParseError instead of exhausting the interpreter's
recursion limit.  For the same reason one parse does at most MAX_WORK term
operations, each counted before it is done, and an integer literal has at
most MAX_DIGITS digits.

to_string() prints the canonical form (terms in descending lexicographic
order) and refuses a coefficient whose numerator or denominator has more than
MAX_DIGITS digits; parse -> print -> parse is the identity within that cap.
There is one printer, format_terms, on integers: it takes each term as its
monomial text and an integer numerator over a denominator, which to_string
reads off a polynomial's Fractions and a form off its storage, and builds
no Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

from .poly import MPoly

# Each nesting level costs the recursive-descent parser at most five stack frames;
# 100 levels stay well inside the default recursion limit of 1000.
MAX_DEPTH = 100
# A negation spends the terms it reads, a product the pairs of terms it
# multiplies, and a power the square of the monomials it can have (more than
# the pairs its repeated squaring multiplies).  Sums are free: no summand has
# more terms than the work that made it, or than one atom.  A value's
# coefficients have about as many bits as its text brings in: its literals'
# bit lengths, plus k * (b + log2 t) for a k-th power of t terms that bring in
# b.  So a pair of values that bring in b1 and b2 bits weighs
# (1 + b1 // WEIGHT_BITS) * (1 + b2 // WEIGHT_BITS).  Every registry, demo,
# test and benchmark input spends at most 181 term operations.
MAX_WORK = 100_000
WEIGHT_BITS = 1024
# Python's default int-string limit: a longer literal is refused with its
# position, and the printer refuses a longer coefficient, so every printed
# text parses back.
MAX_DIGITS = 4300
_TOO_LONG = 10 ** MAX_DIGITS


class ParseError(ValueError):
    """Syntax or semantic error in polynomial text, with a position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text):
    tokens = []  # (kind, value, pos)
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":   # ASCII only: str.isdecimal() also takes other scripts' digits
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j - i > MAX_DIGITS:
                raise ParseError(f"integer literal longer than {MAX_DIGITS} digits", i)
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch in "+-*^()/":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


def _describe(tok):
    return "end of input" if tok[0] == "end" else repr(tok[1])


class _Parser:
    def __init__(self, tokens, ring):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring
        self.depth = 0
        self.work = 0
        self.bits = 0   # brought in so far; a value brings in the growth over its text

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {_describe(tok)}", tok[2])
        return tok

    def spend(self, pos, work):
        """Count an operation before doing it, and refuse it past MAX_WORK."""
        self.work += work
        if self.work > MAX_WORK:
            raise ParseError(f"input needs more than {MAX_WORK} term operations", pos)

    def expr(self):
        # the summands go into one term map, so a long sum costs its length
        terms = dict(self.term()._terms)
        while self.peek()[0] in ("+", "-"):
            plus = self.next()[0] == "+"
            for exps, c in self.term()._terms.items():
                s = terms.get(exps, 0) + (c if plus else -c)
                if s:
                    terms[exps] = s
                else:
                    del terms[exps]
        return MPoly._trusted(self.ring, terms)

    def term(self):
        start = self.bits
        value = self.factor()
        while self.peek()[0] == "*":
            pos, mid = self.next()[2], self.bits
            rhs = self.factor()
            self.spend(pos, len(value._terms) * len(rhs._terms)
                       * (1 + (mid - start) // WEIGHT_BITS) * (1 + (self.bits - mid) // WEIGHT_BITS))
            value = value * rhs
        return value

    def factor(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", self.peek()[2])
        if self.peek()[0] == "-":
            pos = self.next()[2]
            value = self.factor()
            self.spend(pos, len(value._terms))
            value = -value
        else:
            value = self.power()
        self.depth -= 1
        return value

    def power(self):
        start = self.bits
        base = self.atom()
        if self.peek()[0] == "^":
            self.next()
            _, k, pos = self.expect("int")
            t = len(base._terms) or 1
            grown = k * (self.bits - start + (t - 1).bit_length())
            self.bits += grown
            self.spend(pos, comb(k + t - 1, k) ** 2 * (1 + grown // WEIGHT_BITS) ** 2)
            base = base ** k
        return base

    def atom(self):
        kind, value, pos = self.next()
        if kind == "int":
            self.bits += value.bit_length()
            if self.peek()[0] == "/":
                self.next()
                dtok = self.expect("int")
                if dtok[1] == 0:
                    raise ParseError("zero denominator literal", dtok[2])
                self.bits += dtok[1].bit_length()
                return MPoly.constant(self.ring, Fraction(value, dtok[1]))
            return MPoly.constant(self.ring, value)
        if kind == "name":
            if value not in self.ring:
                raise ParseError(f"unknown variable {value!r} for ring {self.ring}", pos)
            return MPoly.variable(self.ring, value)
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected {_describe((kind, value, pos))}", pos)


def parse_form(text: str, ring) -> MPoly:
    """Parse text into the canonical MPoly over the given ring."""
    parser = _Parser(_tokenize(text), tuple(ring))
    value = parser.expr()
    end = parser.next()
    if end[0] != "end":
        raise ParseError(f"trailing input {end[1]!r}", end[2])
    return value


def _monomial_str(ring, exps):
    parts = []
    for name, e in zip(ring, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def to_string(p: MPoly) -> str:
    """Canonical text form; parse_form(to_string(p), p.ring) == p."""
    ring = p.ring
    return format_terms([(_monomial_str(ring, exps), c.numerator, c.denominator)
                         for exps, c in p.items_sorted()])


def format_terms(terms) -> str:
    """Text of (monomial text, integer numerator, denominator) terms listed in
    canonical order, each numerator nonzero over a denominator > 0, the two
    not necessarily coprime; ValueError for a coefficient longer than
    MAX_DIGITS digits."""
    pieces = []
    for mono, n, q in terms:
        p = abs(n)
        if q != 1:
            g = gcd(p, q)
            p, q = p // g, q // g
        if p >= _TOO_LONG or q >= _TOO_LONG:
            raise ValueError(f"coefficient longer than {MAX_DIGITS} digits, "
                             "the longest literal the parser reads")
        if mono and p == 1 and q == 1:
            body = mono
        else:
            body = str(p) if q == 1 else f"{p}/{q}"
            if mono:
                body = f"{body}*{mono}"
        if pieces:
            pieces.append(f" + {body}" if n > 0 else f" - {body}")
        else:
            pieces.append(body if n > 0 else f"-{body}")
    return "".join(pieces) or "0"
