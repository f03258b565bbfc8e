"""Exact multivariate polynomials, truncated formal series in h, and a small parser.

Coefficients are `fractions.Fraction` at every public boundary: `terms` maps
exponent tuples to nonzero Fractions, and there is no floating point anywhere
in this module.  The inner loop of the polynomial product runs on integer
numerators over a common denominator and builds one Fraction per result term.
Values are immutable in practice: no method mutates its operands, every
operation returns a fresh object.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Union

Rational = Union[Fraction, int, str]


class DimensionMismatch(ValueError):
    """Operands live over polynomial rings of different dimensions."""


class PolyParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def as_fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class Polynomial:
    """Sparse polynomial in x1..xd over the rationals.

    Terms map an exponent tuple (length d, nonnegative ints) to a nonzero
    Fraction.  Variable indices are 0-based internally; the text form is
    1-based (x1..xd).
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[tuple, Rational] | None = None):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != dim:
                raise DimensionMismatch(f"exponent tuple {exps} has wrong length for dim {dim}")
            if any(e < 0 or not isinstance(e, int) for e in exps):
                raise ValueError(f"bad exponent tuple {exps}")
            coeff = as_fraction(coeff)
            if coeff:
                clean[exps] = coeff
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _trusted(cls, dim: int, terms: dict) -> "Polynomial":
        """Wrap exponent tuples of length dim with nonzero Fraction
        coefficients without checking them again."""
        self = object.__new__(cls)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def _from_integer_form(cls, dim: int, den: int, ints: dict) -> "Polynomial":
        """The polynomial with coefficients ints[e] / den; zeros are dropped."""
        return cls._trusted(dim, {e: Fraction(v, den) for e, v in ints.items() if v})

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim)

    @classmethod
    def constant(cls, dim: int, value: Rational) -> "Polynomial":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def one(cls, dim: int) -> "Polynomial":
        return cls.constant(dim, 1)

    @classmethod
    def variable(cls, index: int, dim: int) -> "Polynomial":
        """x_{index}, 0-based index."""
        if not 0 <= index < dim:
            raise ValueError(f"variable index {index} out of range for dim {dim}")
        exps = tuple(1 if i == index else 0 for i in range(dim))
        return cls(dim, {exps: 1})

    @classmethod
    def linear(cls, coeffs: Iterable[Rational], dim: int | None = None) -> "Polynomial":
        coeffs = list(coeffs)
        d = dim if dim is not None else len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            exps = tuple(1 if j == i else 0 for j in range(d))
            terms[exps] = c
        return cls(d, terms)

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self, deg: int) -> bool:
        return all(sum(e) == deg for e in self.terms)

    def is_linear_form(self) -> bool:
        return self.is_homogeneous(1)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.dim, Fraction(0))

    def linear_coefficients(self) -> list:
        """Coefficient vector of a linear form."""
        if not self.is_linear_form():
            raise ValueError("not a homogeneous linear form")
        out = [Fraction(0)] * self.dim
        for exps, c in self.terms.items():
            out[exps.index(1)] = c
        return out

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.dim, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            if s is None:
                terms[e] = c
                continue
            s += c
            if s:
                terms[e] = s
            else:
                del terms[e]
        return Polynomial._trusted(self.dim, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._trusted(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.dim, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, str)):
            k = as_fraction(other)
            if not k:
                return Polynomial.zero(self.dim)
            return Polynomial._trusted(self.dim, {e: c * k for e, c in self.terms.items()})
        self._check(other)
        d1, n1 = integer_form(self.terms)
        d2, n2 = integer_form(other.terms)
        acc: dict = {}
        for e1, a in n1.items():
            for e2, b in n2.items():
                e = tuple(map(add, e1, e2))
                acc[e] = acc.get(e, 0) + a * b
        return Polynomial._from_integer_form(self.dim, d1 * d2, acc)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial power must be a nonnegative integer")
        out = Polynomial.one(self.dim)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def partial(self, index: int) -> "Polynomial":
        """d/dx_{index}, 0-based."""
        if not 0 <= index < self.dim:
            raise DimensionMismatch(f"variable index {index} out of range")
        # lowering one exponent is injective on the terms it keeps
        terms = {}
        for exps, c in self.terms.items():
            n = exps[index]
            if n:
                terms[exps[:index] + (n - 1,) + exps[index + 1:]] = c * n if n > 1 else c
        return Polynomial._trusted(self.dim, terms)

    def partial_multi(self, multi: Iterable[int]) -> "Polynomial":
        out = self
        for i in multi:
            out = out.partial(i)
        return out

    def homogeneous_part(self, deg: int) -> "Polynomial":
        return Polynomial(self.dim, {e: c for e, c in self.terms.items() if sum(e) == deg})

    def evaluate(self, point: Iterable[Rational]) -> Fraction:
        point = [as_fraction(v) for v in point]
        if len(point) != self.dim:
            raise DimensionMismatch("evaluation point has wrong length")
        total = Fraction(0)
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                v *= x ** e
            total += v
        return total

    # -- comparison & text ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.dim, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def sorted_terms(self):
        """Graded-lex order: ascending total degree, then descending exponents."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), tuple(-e for e in t[0])))

    def __str__(self):
        if self.is_zero:
            return "0"
        pieces = []
        for exps, coeff in self.sorted_terms():
            pieces.append(_format_term(coeff, exps, hpow=0))
        return _join_terms(pieces)

    def __repr__(self):
        return f"Polynomial(d={self.dim}, {self})"


def integer_form(terms: Mapping[tuple, Fraction]) -> tuple:
    """(den, {exps: int}) with terms[e] == ints[e] / den, den the least
    common denominator."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return den, {e: c.numerator * (den // c.denominator) for e, c in terms.items()}


def _sum_of_products(dim: int, products: list) -> Polynomial:
    """Sum over `products` of the product of each tuple of Polynomials.

    Every distinct factor goes once to integer numerators over its least
    common denominator, with each exponent tuple packed into one int of
    `bits` bits per variable (Monagan and Pearce, CASC 2007).  2^bits exceeds
    the total degree of every product, and no exponent of a product monomial
    exceeds that degree, so adding packed ints adds exponent tuples without
    a carry between fields.  All products accumulate over one common
    denominator and the sum is unpacked once, one Fraction per term."""
    products = [p for p in products if all(f.terms for f in p)]
    forms: dict = {}
    for product in products:
        for f in product:
            if id(f) not in forms:
                forms[id(f)] = (f.degree(), *integer_form(f.terms))
    bound = max((sum(forms[id(f)][0] for f in p) for p in products), default=0)
    bits = max(bound, 1).bit_length()
    shifts = range(0, bits * dim, bits)
    packed = {
        key: {sum(e << s for e, s in zip(exps, shifts)): v for exps, v in ints.items()}
        for key, (_, _, ints) in forms.items()
    }
    dens = [math.prod(forms[id(f)][1] for f in p) for p in products]
    den = math.lcm(*dens)
    acc: dict = {}
    for product, d in zip(products, dens):
        *head, last = [packed[id(f)] for f in product]
        part = {0: den // d}
        for factor in head:
            nxt: dict = {}
            for k1, a in part.items():
                for k2, b in factor.items():
                    k = k1 + k2
                    nxt[k] = nxt.get(k, 0) + a * b
            part = nxt
        for k1, a in part.items():
            for k2, b in last.items():
                k = k1 + k2
                acc[k] = acc.get(k, 0) + a * b
    mask = (1 << bits) - 1
    return Polynomial._trusted(dim, {
        tuple(k >> s & mask for s in shifts): Fraction(v, den) for k, v in acc.items() if v
    })


def _format_term(coeff: Fraction, exps: tuple, hpow: int) -> str:
    factors = []
    if hpow == 1:
        factors.append("h")
    elif hpow > 1:
        factors.append(f"h^{hpow}")
    for i, e in enumerate(exps):
        if e == 1:
            factors.append(f"x{i + 1}")
        elif e > 1:
            factors.append(f"x{i + 1}^{e}")
    if not factors:
        return str(coeff)
    body = "*".join(factors)
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return f"{coeff}*{body}"


def _join_terms(pieces: list) -> str:
    out = pieces[0]
    for p in pieces[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out


class HSeries:
    """Formal series in h truncated at a fixed order N.

    Stores polynomials for h^0 .. h^N.  Mixed-order arithmetic truncates to
    the smaller order, so precision never silently inflates.
    """

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim: int, order: int, coeffs: Iterable[Polynomial] | None = None):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        cs = list(coeffs) if coeffs is not None else []
        if len(cs) > order + 1:
            cs = cs[: order + 1]
        while len(cs) < order + 1:
            cs.append(Polynomial.zero(dim))
        for p in cs:
            if p.dim != dim:
                raise DimensionMismatch("series coefficient has wrong dimension")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("HSeries is immutable")

    @classmethod
    def from_polynomial(cls, p: Polynomial, order: int) -> "HSeries":
        return cls(p.dim, order, [p])

    @classmethod
    def zero(cls, dim: int, order: int) -> "HSeries":
        return cls(dim, order)

    def coefficient(self, r: int) -> Polynomial:
        if 0 <= r <= self.order:
            return self.coeffs[r]
        return Polynomial.zero(self.dim)

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for p in self.coeffs)

    def truncate(self, order: int) -> "HSeries":
        return HSeries(self.dim, order, self.coeffs[: order + 1])

    def shift(self, k: int) -> "HSeries":
        """Multiply by h^k (same truncation order)."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        cs = [Polynomial.zero(self.dim)] * k + list(self.coeffs)
        return HSeries(self.dim, self.order, cs)

    def _common_order(self, other: "HSeries") -> int:
        if self.dim != other.dim:
            raise DimensionMismatch("series over different dimensions")
        return min(self.order, other.order)

    def __add__(self, other):
        if isinstance(other, Polynomial):
            other = HSeries.from_polynomial(other, self.order)
        n = self._common_order(other)
        return HSeries(self.dim, n, [self.coeffs[r] + other.coeffs[r] for r in range(n + 1)])

    def __neg__(self):
        return HSeries(self.dim, self.order, [-p for p in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, Polynomial):
            other = HSeries.from_polynomial(other, self.order)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, str)):
            k = as_fraction(other)
            return HSeries(self.dim, self.order, [p * k for p in self.coeffs])
        if isinstance(other, Polynomial):
            return HSeries(self.dim, self.order, [p * other for p in self.coeffs])
        n = self._common_order(other)
        cs = [Polynomial.zero(self.dim) for _ in range(n + 1)]
        for a in range(n + 1):
            if self.coeffs[a].is_zero:
                continue
            for b in range(n + 1 - a):
                if other.coeffs[b].is_zero:
                    continue
                cs[a + b] = cs[a + b] + self.coeffs[a] * other.coeffs[b]
        return HSeries(self.dim, n, cs)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, HSeries):
            return NotImplemented
        return (self.dim, self.order, self.coeffs) == (other.dim, other.order, other.coeffs)

    def __hash__(self):
        return hash((self.dim, self.order, self.coeffs))

    def __str__(self):
        pieces = []
        for r, poly in enumerate(self.coeffs):
            for exps, coeff in poly.sorted_terms():
                pieces.append(_format_term(coeff, exps, hpow=r))
        if not pieces:
            return "0"
        return _join_terms(pieces)

    def __repr__(self):
        return f"HSeries(order={self.order}, {self})"


# ---------------------------------------------------------------------------
# Parser for the CLI polynomial grammar:
#   expr   := term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := ('-')* base ('^' uint)?
#   base   := rational | variable | '(' expr ')'
# Rational literals are "p" or "p/q"; variables are x1..xd.  Implicit
# multiplication is rejected by construction (adjacent bases fail to parse).
# ---------------------------------------------------------------------------

def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise PolyParseError("expected denominator after '/'", j)
                tokens.append(("num", text[i:k], i))
                i = k
            else:
                tokens.append(("num", text[i:j], i))
                i = j
            continue
        if ch == "x":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise PolyParseError("expected variable index after 'x'", i)
            tokens.append(("var", text[i:j], i))
            i = j
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, dim: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.dim = dim

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, at = self.next()
        if kind != "op" or val != op:
            raise PolyParseError(f"expected {op!r}", at)

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, val, at = self.peek()
        if kind != "end":
            raise PolyParseError(f"unexpected token {val!r}", at)
        return p

    def expr(self) -> Polynomial:
        p = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                p = p * self.factor()
            else:
                return p

    def factor(self) -> Polynomial:
        kind, val, at = self.peek()
        sign = 1
        while kind == "op" and val == "-":
            self.next()
            sign = -sign
            kind, val, at = self.peek()
        p = self.base()
        kind, val, at = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, at = self.next()
            if kind != "num" or "/" in val:
                raise PolyParseError("exponent must be a nonnegative integer", at)
            p = p ** int(val)
        return p if sign == 1 else -p

    def base(self) -> Polynomial:
        kind, val, at = self.next()
        if kind == "num":
            return Polynomial.constant(self.dim, Fraction(val))
        if kind == "var":
            index = int(val[1:])
            if not 1 <= index <= self.dim:
                raise PolyParseError(f"variable {val} out of range for dimension {self.dim}", at)
            return Polynomial.variable(index - 1, self.dim)
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise PolyParseError(f"unexpected token {val!r}", at)


def parse_poly(text: str, dim: int) -> Polynomial:
    """Parse the canonical polynomial text form in variables x1..xd."""
    return _Parser(text, dim).parse()
