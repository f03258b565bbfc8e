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

from .algebra import LieAlgebra, _ad_xi, poisson_tensor
from .operators import DiffOperator
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

    @property
    def is_zero(self) -> bool:
        return not self.terms

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


class _PBWEngine:
    """PBW normal ordering, symmetrization and Gutt monomial products for one
    Lie algebra, in integers.

    Words are in the basis Y_i = D X_i, with D the least common denominator
    of the structure constants: the brackets D C_ji^k are integers, and a
    Y-word of length m is D^m times its X-word.  Elements are plain dicts
    {PBW word: int}.  The caches are keyed by words and exponent tuples
    only; the engine itself stands for the algebra.  Cached dicts are shared
    and must not be mutated.
    """

    def __init__(self, g: LieAlgebra):
        self.dim = g.dim
        self.scale = scale = math.lcm(*(c.denominator for plane in g.c for row in plane for c in row))
        # brackets[j][i]: nonzero (k, D C_ji^k), the terms of [Y_j, Y_i]
        self._brackets = tuple(
            tuple(tuple((k, int(c * scale)) for k, c in enumerate(row) if c) for row in plane) for plane in g.c
        )
        self._words: dict = {}
        self._sym: dict = {}
        self._gutt: dict = {}

    def normalize(self, word: tuple) -> dict:
        """PBW rewrite of an arbitrary Y-word.

        Rewrites the first descent Y_j Y_i -> Y_i Y_j + sum_k D C_ji^k Y_k.
        The result is independent of the rewrite order (PBW theorem); a test
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
                    for w, c in self.normalize(head + (k,) + tail).items():
                        acc[w] = acc.get(w, 0) + coeff * c
                return {w: c for w, c in acc.items() if c}
        return {word: 1}

    def _add_left_mul(self, acc: dict, i: int, u: dict) -> None:
        """acc += Y_i * u."""
        normalize = self.normalize
        for w, c in u.items():
            for v, n in normalize((i,) + w).items():
                acc[v] = acc.get(v, 0) + c * n

    def mul(self, u: dict, v: dict) -> dict:
        """u * v as a chain of left multiplications by single generators;
        products Y_s * v are shared between words of u with a common suffix s."""
        suffixes = {(): v}

        def times_v(word):
            out = suffixes.get(word)
            if out is None:
                acc: dict = {}
                self._add_left_mul(acc, word[0], times_v(word[1:]))
                out = suffixes[word] = {w: c for w, c in acc.items() if c}
            return out

        acc: dict = {}
        for w, c in u.items():
            for x, n in times_v(w).items():
                acc[x] = acc.get(x, 0) + c * n
        return {x: c for x, c in acc.items() if c}

    def sym(self, exps: tuple) -> tuple:
        """(M(a), N(a)) for a = exps, with sigma(y^a) = N(a) / M(a).

        The orderings that start with letter i are Y_i times those of
        y^(a - e_i), so N(a) = sum_i Y_i N(a - e_i) and M(a) = sum_i M(a - e_i).
        """
        out = self._sym.get(exps)
        if out is None:
            if not any(exps):
                out = (1, {(): 1})
            else:
                count = 0
                acc: dict = {}
                for i, a in enumerate(exps):
                    if a:
                        lower_count, lower = self.sym(exps[:i] + (a - 1,) + exps[i + 1:])
                        count += lower_count
                        self._add_left_mul(acc, i, lower)
                out = (count, {w: c for w, c in acc.items() if c})
            self._sym[exps] = out
        return out

    def unsymmetrize(self, den: int, u: dict) -> list:
        """sigma^-1(u / den) in y-monomials: [(m, L, {exps: int})], one entry
        per nonzero PBW length m from the top down, y^exps having coefficient
        int / L.  A top word with coefficient c leads (c / L) sigma(y^a) =
        (c / L) N(a) / M(a).  The rest and L are first multiplied by K, the
        lcm over the layer of M(a) / gcd(M(a), c), so that subtracting these
        stays integral; the top words cancel exactly."""
        rest = dict(u)
        layers = []
        while rest:
            m = max(len(w) for w in rest)
            top = [(_monomial_of_word(w, self.dim), c) for w, c in rest.items() if len(w) == m]
            k = 1
            for exps, c in top:
                count = self.sym(exps)[0]
                k = math.lcm(k, count // math.gcd(count, c))
            if k != 1:
                rest = {w: c * k for w, c in rest.items()}
            for exps, c in top:
                count, terms = self.sym(exps)
                s = c * k // count
                for w, n in terms.items():
                    rest[w] = rest.get(w, 0) - s * n
            rest = {w: c for w, c in rest.items() if c}
            assert all(len(w) < m for w in rest)
            layers.append((m, den, dict(top)))
            den *= k
        return layers

    def gutt_monomial(self, e1: tuple, e2: tuple) -> tuple:
        """Gutt product of two monomials: ((r, den, {exps: int}), ...) for the
        nonzero h^r terms, in increasing r; coefficient = int / den in lowest
        terms.  sigma(x^e) = N(e) / (D^|e| M(e)) and y^e = D^|e| x^e, so the
        layer r degrees below |e1| + |e2| carries 2^r / D^r."""
        key = (e1, e2)
        out = self._gutt.get(key)
        if out is None:
            count1, n1 = self.sym(e1)
            count2, n2 = self.sym(e2)
            total = sum(e1) + sum(e2)
            parts = []
            for m, den, layer in self.unsymmetrize(count1 * count2, self.mul(n1, n2)):
                r = total - m
                den *= self.scale ** r
                g = math.gcd(den, *(c << r for c in layer.values()))
                parts.append((r, den // g, {exps: (c << r) // g for exps, c in layer.items()}))
            out = self._gutt[key] = tuple(parts)
        return out

    def y_form(self, terms: Mapping) -> tuple:
        """(den, {word: int}) for an element with X-word keys and Fraction
        values: sum_w terms[w] X_w == sum_w ints[w] Y_w / den."""
        return integer_form({w: c / self.scale ** len(w) for w, c in terms.items()})

    def x_terms(self, den: int, terms: dict) -> dict:
        """The Fraction coefficients in the X basis of sum_w terms[w] Y_w / den."""
        scale = self.scale
        return {w: Fraction(c * scale ** len(w), den) for w, c in terms.items()}


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
    engine = _engine(g)
    return UEAElement._trusted(g.dim, engine.x_terms(engine.scale ** len(word), engine.normalize(word)))


def _check_element(u: UEAElement, g: LieAlgebra) -> None:
    if u.dim != g.dim:
        raise DimensionMismatch("element dimension does not match the algebra")


def uea_mul(u: UEAElement, v: UEAElement, g: LieAlgebra) -> UEAElement:
    _check_element(u, g)
    _check_element(v, g)
    engine = _engine(g)
    du, iu = engine.y_form(u.terms)
    dv, iv = engine.y_form(v.terms)
    return UEAElement._trusted(g.dim, engine.x_terms(du * dv, engine.mul(iu, iv)))


def symmetrize(p: Polynomial, g: LieAlgebra) -> UEAElement:
    """The symmetrization map from polynomials to the enveloping algebra."""
    if p.dim != g.dim:
        raise DimensionMismatch("polynomial dimension does not match the algebra")
    engine = _engine(g)
    # sigma(x^e) = N(e) / (D^|e| M(e)) in the Y basis
    den, ints = integer_form({e: c / (engine.scale ** sum(e) * engine.sym(e)[0]) for e, c in p.terms.items()})
    acc: dict = {}
    for exps, c in ints.items():
        for w, n in engine.sym(exps)[1].items():
            acc[w] = acc.get(w, 0) + c * n
    return UEAElement._trusted(g.dim, engine.x_terms(den, {w: c for w, c in acc.items() if c}))


def unsymmetrize(u: UEAElement, g: LieAlgebra) -> Polynomial:
    """Inverse of symmetrize, computed degree by degree (sigma is a filtered
    isomorphism with identity leading term)."""
    _check_element(u, g)
    engine = _engine(g)
    terms = {}
    # y^e = D^|e| x^e
    for m, den, layer in engine.unsymmetrize(*engine.y_form(u.terms)):
        power = engine.scale ** m
        terms.update((exps, Fraction(c * power, den)) for exps, c in layer.items())
    return Polynomial._trusted(g.dim, terms)


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


def gutt_linear_cochain(r: int, x: Polynomial, f: Polynomial, g: LieAlgebra) -> Polynomial:
    """h^r coefficient of x * f for linear x, via the Bernoulli closed form:

        (-1)^r 2^r B_r / r! * sum Pi^{i1 j1} d_{i1} Pi^{i2 j2} ...
                              d_{i_{r-1}} Pi^{i_r j_r} d_{i_r} x d_{j1..jr} f

    Each factor d_{i_{t-1}} Pi^{i_t j_t} = C_{i_t j_t}^{i_{t-1}} with d_{j_t}
    read as xi_{j_t} is a step u <- -ad_xi u, and so is the outer Pi^{i1 j1}
    = sum_k C_{i1 j1}^k x_k.  So the sum is sum_k x_k u_k(d) with
    u = (-ad_xi)^r applied to the coefficients of x."""
    if r < 0:
        raise ValueError("cochain order must be >= 0")
    if not x.is_linear_form():
        raise ValueError("first factor must be a linear form")
    dim = g.dim
    br = bernoulli(r)
    if not br:
        return Polynomial.zero(dim)
    zero = Polynomial.zero(dim)
    ad = _ad_xi(g)
    u = [Polynomial.constant(dim, c) for c in x.linear_coefficients()]
    for _ in range(r):
        u = [-sum((ad[a][b] * u[b] for b in range(dim)), zero) for a in range(dim)]
    out = zero
    for k in range(dim):
        out = out + Polynomial.variable(k, dim) * DiffOperator.from_symbol(u[k]).apply(f)
    return out * (Fraction((-1) ** r * 2 ** r) * br / math.factorial(r))
