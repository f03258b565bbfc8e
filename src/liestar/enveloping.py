"""Universal enveloping algebra with PBW normal ordering, the symmetrization
map and its inverse, the Gutt star-product, the Campbell-Hausdorff series,
and the Bernoulli-number closed form for products with a linear factor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .algebra import LieAlgebra, poisson_tensor
from .poly import DimensionMismatch, HSeries, Polynomial, integer_form


class UEAElement:
    """Element of the enveloping algebra in the PBW basis.

    Words are nondecreasing tuples of 0-based basis indices; coefficients are
    exact rationals.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[tuple, Fraction] | None = None):
        clean = {}
        for word, coeff in (terms or {}).items():
            word = tuple(word)
            if any(word[t] > word[t + 1] for t in range(len(word) - 1)):
                raise ValueError(f"word {word} is not PBW-ordered")
            if any(not 0 <= i < dim for i in word):
                raise DimensionMismatch(f"basis index out of range in {word}")
            coeff = Fraction(coeff)
            if coeff:
                clean[word] = coeff
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("UEAElement is immutable")

    @classmethod
    def _trusted(cls, dim: int, terms: dict) -> "UEAElement":
        """Wrap PBW-ordered, in-range words with nonzero Fraction
        coefficients without checking them again."""
        self = object.__new__(cls)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def zero(cls, dim: int) -> "UEAElement":
        return cls(dim)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "UEAElement") -> "UEAElement":
        if self.dim != other.dim:
            raise DimensionMismatch("elements over different algebras")
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, Fraction(0)) + c
        return UEAElement(self.dim, terms)

    def __neg__(self):
        return UEAElement(self.dim, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        k = Fraction(scalar)
        return UEAElement(self.dim, {w: c * k for w, c in self.terms.items()})

    __rmul__ = __mul__

    def max_length(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def __eq__(self, other):
        if not isinstance(other, UEAElement):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __str__(self):
        if self.is_zero:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            body = "".join(f"X{i + 1}" for i in w) or "1"
            bits.append(f"{self.terms[w]}*{body}")
        return " + ".join(bits)


def _monomial_of_word(word: tuple, dim: int) -> tuple:
    exps = [0] * dim
    for i in word:
        exps[i] += 1
    return tuple(exps)


def _accumulate(acc: dict, terms: Mapping, scale: Fraction) -> None:
    for key, c in terms.items():
        acc[key] = acc.get(key, 0) + scale * c


def _nonzero(acc: dict) -> dict:
    return {key: c for key, c in acc.items() if c}


class _PBWEngine:
    """PBW normal ordering, symmetrization and Gutt monomial products for one
    Lie algebra.

    Elements are plain dicts {PBW word: Fraction}.  The caches are keyed by
    words and exponent tuples only; the engine itself stands for the
    algebra.  Cached dicts are shared and must not be mutated.
    """

    def __init__(self, g: LieAlgebra):
        d = g.dim
        self.dim = d
        # brackets[j][i]: nonzero (k, C_ji^k), the terms of [x_j, x_i]
        self._brackets = tuple(
            tuple(tuple((k, c) for k, c in enumerate(g.c[j][i]) if c) for i in range(d))
            for j in range(d)
        )
        self._words: dict = {}
        self._sym: dict = {}
        self._gutt: dict = {}

    def normalize(self, word: tuple) -> dict:
        """PBW rewrite of an arbitrary word.

        Rewrites the first descent x_j x_i -> x_i x_j + sum_k C_ji^k x_k.  The
        result is independent of the rewrite order (PBW theorem); a test
        checks it against rewrites of randomly chosen descents.
        """
        out = self._words.get(word)
        if out is None:
            out = self._words[word] = self._rewrite(word)
        return out

    def _rewrite(self, word: tuple) -> dict:
        for t in range(len(word) - 1):
            j, i = word[t], word[t + 1]
            if j > i:
                head, tail = word[:t], word[t + 2:]
                acc = dict(self.normalize(head + (i, j) + tail))
                for k, coeff in self._brackets[j][i]:
                    _accumulate(acc, self.normalize(head + (k,) + tail), coeff)
                return _nonzero(acc)
        return {word: Fraction(1)}

    def left_mul(self, i: int, u: dict) -> dict:
        """X_i * u."""
        acc: dict = {}
        for w, c in u.items():
            _accumulate(acc, self.normalize((i,) + w), c)
        return _nonzero(acc)

    def mul(self, u: dict, v: dict) -> dict:
        """u * v as a chain of left multiplications by single generators;
        products X_s * v are shared between words of u with a common suffix s."""
        suffixes = {(): v}

        def times_v(word):
            out = suffixes.get(word)
            if out is None:
                out = suffixes[word] = self.left_mul(word[0], times_v(word[1:]))
            return out

        acc: dict = {}
        for w, c in u.items():
            _accumulate(acc, times_v(w), c)
        return _nonzero(acc)

    def sym(self, exps: tuple) -> dict:
        """sigma(x^a), the average of all orderings of the letters of x^a.

        A share a_i/m of the orderings starts with letter i, so
        sigma(x^a) = sum_i (a_i/m) X_i sigma(x^(a - e_i)) with m = |a|.
        """
        out = self._sym.get(exps)
        if out is None:
            m = sum(exps)
            if m == 0:
                out = {(): Fraction(1)}
            else:
                acc: dict = {}
                for i, a in enumerate(exps):
                    if a:
                        lower = exps[:i] + (a - 1,) + exps[i + 1:]
                        _accumulate(acc, self.left_mul(i, self.sym(lower)), Fraction(a, m))
                out = _nonzero(acc)
            self._sym[exps] = out
        return out

    def symmetrize(self, p: Mapping) -> dict:
        acc: dict = {}
        for exps, coeff in p.items():
            _accumulate(acc, self.sym(exps), coeff)
        return _nonzero(acc)

    def unsymmetrize(self, u: Mapping) -> dict:
        """Inverse of sym, degree by degree: sigma is a filtered isomorphism
        whose leading term is the sorted word."""
        rest = dict(u)
        out: dict = {}
        while rest:
            m = max(len(w) for w in rest)
            layer = {_monomial_of_word(w, self.dim): c for w, c in rest.items() if len(w) == m}
            out.update(layer)
            for exps, c in layer.items():
                _accumulate(rest, self.sym(exps), -c)
            rest = _nonzero(rest)
            assert all(len(w) < m for w in rest)
        return out

    def gutt_monomial(self, e1: tuple, e2: tuple) -> tuple:
        """Gutt product of two monomials: ((r, den, {exps: int}), ...) for the
        nonzero h^r terms, in increasing r; coefficient = int / den."""
        key = (e1, e2)
        out = self._gutt.get(key)
        if out is None:
            total = sum(e1) + sum(e2)
            parts: dict = {}
            for exps, c in self.unsymmetrize(self.mul(self.sym(e1), self.sym(e2))).items():
                r = total - sum(exps)
                parts.setdefault(r, {})[exps] = c * 2 ** r
            out = self._gutt[key] = tuple(
                (r, *integer_form(part)) for r, part in sorted(parts.items())
            )
        return out


_ENGINES: dict = {}


def _engine(g: LieAlgebra) -> _PBWEngine:
    """The PBW engine of g; algebras that compare equal share one engine."""
    engine = _ENGINES.get(g)
    if engine is None:
        engine = _ENGINES[g] = _PBWEngine(g)
    return engine


def pbw_normalize(word, g: LieAlgebra) -> UEAElement:
    """Rewrite an arbitrary word of basis indices into the PBW basis."""
    word = tuple(word)
    if any(not 0 <= i < g.dim for i in word):
        raise DimensionMismatch(f"basis index out of range in {word}")
    return UEAElement._trusted(g.dim, dict(_engine(g).normalize(word)))


def _check_element(u: UEAElement, g: LieAlgebra) -> None:
    if u.dim != g.dim:
        raise DimensionMismatch("element dimension does not match the algebra")


def uea_mul(u: UEAElement, v: UEAElement, g: LieAlgebra) -> UEAElement:
    _check_element(u, g)
    _check_element(v, g)
    return UEAElement._trusted(g.dim, _engine(g).mul(u.terms, v.terms))


def symmetrize(p: Polynomial, g: LieAlgebra) -> UEAElement:
    """The symmetrization map from polynomials to the enveloping algebra."""
    if p.dim != g.dim:
        raise DimensionMismatch("polynomial dimension does not match the algebra")
    return UEAElement._trusted(g.dim, _engine(g).symmetrize(p.terms))


def unsymmetrize(u: UEAElement, g: LieAlgebra) -> Polynomial:
    """Inverse of symmetrize, computed degree by degree (sigma is a filtered
    isomorphism with identity leading term)."""
    _check_element(u, g)
    return Polynomial(g.dim, _engine(g).unsymmetrize(u.terms))


def gutt_product(p: Polynomial, q: Polynomial, g: LieAlgebra, order: int | None = None) -> HSeries:
    """Gutt star-product, exact (the series terminates at r = deg p + deg q - 1).

    The result is an HSeries truncated at `order` (default: high enough to
    hold every nonzero term).
    """
    if p.dim != g.dim or q.dim != g.dim:
        raise DimensionMismatch("polynomial dimension does not match the algebra")
    if order is None:
        order = max(p.degree() + q.degree(), 0)
    engine = _engine(g)
    dp, ip = integer_form(p.terms)
    dq, iq = integer_form(q.terms)
    # one pass for the common denominator L_r of each h^r, one to accumulate
    pairs = []
    lcms = [1] * (order + 1)
    for e1, n1 in ip.items():
        for e2, n2 in iq.items():
            parts = engine.gutt_monomial(e1, e2)
            pairs.append((n1 * n2, parts))
            for r, den, _ in parts:
                if r > order:
                    break
                lcms[r] = math.lcm(lcms[r], den)
    acc: list = [{} for _ in range(order + 1)]
    for weight, parts in pairs:
        for r, den, part in parts:
            if r > order:
                break
            terms, scale = acc[r], weight * (lcms[r] // den)
            for exps, num in part.items():
                terms[exps] = terms.get(exps, 0) + scale * num
    coeffs = [
        Polynomial._from_integer_form(g.dim, dp * dq * lcm, terms) for lcm, terms in zip(lcms, acc)
    ]
    return HSeries(g.dim, order, coeffs)


def gutt_power(x: Polynomial, k: int, g: LieAlgebra, order: int | None = None) -> HSeries:
    """x * x * ... * x (k Gutt factors)."""
    if order is None:
        order = max(x.degree() * k, 0)
    out = HSeries.from_polynomial(Polynomial.one(g.dim), order)
    for _ in range(k):
        acc = HSeries.zero(g.dim, order)
        for r in range(order + 1):
            acc = acc + gutt_product(out.coeffs[r], x, g, order=order).shift(r)
        out = acc
    return out


# -- Bernoulli numbers (B1 = -1/2 convention) --------------------------------


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    total = Fraction(0)
    for k in range(n):
        total += math.comb(n + 1, k) * bernoulli(k)
    return -total / (n + 1)


# -- Campbell-Hausdorff series ------------------------------------------------


@dataclass(frozen=True)
class CHTerm:
    """One coefficient c_i of the Campbell-Hausdorff series; `value` is a
    linear form with h-series coefficients (degree-1 homogeneous at every
    h-order)."""

    order: int
    value: HSeries


def _ch_terms(x: Polynomial, y: Polynomial, n: int, bracket):
    """c_1..c_n via the standard recursion, for an arbitrary bilinear bracket
    on linear forms.  Elements are kept as dicts h-order -> linear Polynomial;
    the `bracket` callback reports which h-order shift one bracket costs."""
    shift, pair = bracket
    dim = x.dim

    def lie(u: dict, v: dict) -> dict:
        out: dict = {}
        for a, ua in u.items():
            for b, vb in v.items():
                w = pair(ua, vb)
                if not w.is_zero:
                    key = a + b + shift
                    out[key] = out.get(key, Polynomial.zero(dim)) + w
        return {k: v for k, v in out.items() if not v.is_zero}

    def add(u: dict, v: dict) -> dict:
        out = dict(u)
        for k, p in v.items():
            out[k] = out.get(k, Polynomial.zero(dim)) + p
        return {k: v for k, v in out.items() if not v.is_zero}

    def scale(u: dict, s: Fraction) -> dict:
        return {k: p * s for k, p in u.items()} if s else {}

    xv = {0: x} if not x.is_zero else {}
    yv = {0: y} if not y.is_zero else {}
    xmy = add(xv, scale(yv, Fraction(-1)))
    xpy = add(xv, yv)
    cs = [None, xpy]  # cs[i] = c_i
    for n_cur in range(1, n):
        total = scale(lie(xmy, cs[n_cur]), Fraction(1, 2))
        for p in range(1, n_cur // 2 + 1):
            kcoef = bernoulli(2 * p) / Fraction(math.factorial(2 * p))
            inner: dict = {}
            for ks in itertools.product(range(1, n_cur + 1), repeat=2 * p):
                if sum(ks) != n_cur:
                    continue
                term = xpy
                for k in reversed(ks):
                    term = lie(cs[k], term)
                inner = add(inner, term)
            total = add(total, scale(inner, kcoef))
        cs.append(scale(total, Fraction(1, n_cur + 1)))
    return cs


def ch_series(x: Polynomial, y: Polynomial, n: int, g: LieAlgebra) -> list:
    """Campbell-Hausdorff coefficients c_1..c_n with [X, Y] = 2h * Pi(X, Y).

    c_i carries exactly one h^{i-1} factor; each value is returned as an
    HSeries of truncation order n-1.
    """
    if n < 1:
        raise ValueError("ch_series requires order >= 1")
    if not (x.is_linear_form() or x.is_zero) or not (y.is_linear_form() or y.is_zero):
        raise ValueError("ch_series expects linear forms")
    pi = poisson_tensor(g)
    bracket = (1, lambda u, v: pi.bracket(u, v) * 2)
    cs = _ch_terms(x, y, n, bracket)
    out = []
    for i in range(1, n + 1):
        coeffs = [cs[i].get(r, Polynomial.zero(g.dim)) for r in range(n)]
        out.append(CHTerm(order=i, value=HSeries(g.dim, n - 1, coeffs)))
    return out


def _partitions(r: int):
    """Partitions of r as {part_size: multiplicity} dicts."""
    def rec(remaining: int, max_part: int):
        if remaining == 0:
            yield {}
            return
        for m in range(min(remaining, max_part), 0, -1):
            for n in range(remaining // m, 0, -1):
                for rest in rec(remaining - m * n, m - 1):
                    d = dict(rest)
                    d[m] = n
                    yield d
    yield from rec(r, r)


def gutt_linear_cochain(r: int, x: Polynomial, f: Polynomial, g: LieAlgebra) -> Polynomial:
    """h^r coefficient of x * f for linear x, via the Bernoulli closed form:

        (-1)^r 2^r B_r / r! * sum Pi^{i1 j1} d_{i1} Pi^{i2 j2} ...
                              d_{i_{r-1}} Pi^{i_r j_r} d_{i_r} x d_{j1..jr} f
    """
    if r < 0:
        raise ValueError("cochain order must be >= 0")
    if not x.is_linear_form():
        raise ValueError("first factor must be a linear form")
    if r == 0:
        return x * f
    dim = g.dim
    br = bernoulli(r)
    if not br:
        return Polynomial.zero(dim)
    xc = x.linear_coefficients()
    pi = poisson_tensor(g)
    prefactor = Fraction((-1) ** r * 2 ** r) * br / math.factorial(r)
    out = Polynomial.zero(dim)
    # chain: for t >= 2 the factor d_{i_{t-1}} Pi^{i_t j_t} = C_{i_t j_t}^{i_{t-1}}
    for idx in itertools.product(range(dim), repeat=2 * r):
        i = idx[:r]
        j = idx[r:]
        scalar = xc[i[r - 1]]
        if not scalar:
            continue
        for t in range(1, r):
            scalar *= g.c[i[t]][j[t]][i[t - 1]]
            if not scalar:
                break
        if not scalar:
            continue
        head = pi.component(i[0], j[0])
        if head.is_zero:
            continue
        df = f.partial_multi(j)
        if df.is_zero:
            continue
        out = out + head * df * scalar
    return out * prefactor
