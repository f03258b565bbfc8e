import itertools
import math
import random
from fractions import Fraction

import pytest

from liestar import enveloping
from liestar.algebra import algebra_from_brackets, catalog, catalog_names, poisson_tensor
from liestar.enveloping import (
    UEAElement,
    bernoulli,
    ch_series,
    gutt_linear_cochain,
    gutt_power,
    gutt_product,
    pbw_normalize,
    symmetrize,
    uea_mul,
    unsymmetrize,
)
from liestar.poly import DimensionMismatch, HSeries, Polynomial, parse_poly


# so3 with non-integral brackets: the least common denominator of the
# structure constants is D = 12, so the PBW engine works in Y_i = 12 X_i
SO3Q = algebra_from_brackets(
    3, [(1, 2, 3, Fraction(1, 2)), (2, 3, 1, Fraction(2, 3)), (1, 3, 2, Fraction(3, 4))], name="so3q"
)
ALGEBRAS = [catalog(name) for name in catalog_names()] + [SO3Q]


def lin(coeffs, d):
    return Polynomial.linear([Fraction(c) for c in coeffs], d)


def test_pbw_normalize_heis3():
    heis = catalog("heis3")
    # X2 X1 = X1 X2 - X3
    el = pbw_normalize((1, 0), heis)
    assert el.terms == {(0, 1): Fraction(1), (2,): Fraction(-1)}


def _normalize_random_descents(terms, g, rng):
    """PBW normal form of {word: Fraction} in Fraction arithmetic, rewriting
    a randomly chosen descent of each word."""
    todo = dict(terms)
    done = {}
    while todo:
        w, c = todo.popitem()
        descents = [t for t in range(len(w) - 1) if w[t] > w[t + 1]]
        if not descents:
            done[w] = done.get(w, 0) + c
            continue
        t = rng.choice(descents)
        j, i = w[t], w[t + 1]
        swapped = w[:t] + (i, j) + w[t + 2:]
        todo[swapped] = todo.get(swapped, 0) + c
        for k in range(g.dim):
            if g.c[j][i][k]:
                shorter = w[:t] + (k,) + w[t + 2:]
                todo[shorter] = todo.get(shorter, 0) + c * g.c[j][i][k]
    return {w: c for w, c in done.items() if c}


def test_pbw_normalize_confluent_under_random_rewrite_orders():
    # PBW theorem: the normal form does not depend on which descent is rewritten
    rng = random.Random(17)
    for g in ALGEBRAS:
        for _ in range(40):
            word = tuple(rng.randrange(g.dim) for _ in range(rng.randint(0, 6)))
            want = _normalize_random_descents({word: Fraction(1)}, g, rng)
            assert pbw_normalize(word, g).terms == want


def test_uea_mul_associative():
    so3 = catalog("so3")
    a = UEAElement(3, {(0,): Fraction(1)})
    b = UEAElement(3, {(1, 2): Fraction(1)})
    c = UEAElement(3, {(0, 0): Fraction(1), (): Fraction(2)})
    left = uea_mul(uea_mul(a, b, so3), c, so3)
    right = uea_mul(a, uea_mul(b, c, so3), so3)
    assert left == right


def test_uea_mul_and_unsymmetrize_reject_other_dimensions():
    so3 = catalog("so3")
    small = UEAElement(2, {(0,): Fraction(1)})
    with pytest.raises(DimensionMismatch):
        uea_mul(small, UEAElement(3, {(1,): Fraction(1)}), so3)
    with pytest.raises(DimensionMismatch):
        unsymmetrize(small, so3)


def test_symmetrize_round_trip():
    rng = random.Random(3)
    for name in ["so3", "heis3", "sl2"]:
        g = catalog(name)
        for _ in range(10):
            exps = tuple(rng.randrange(3) for _ in range(g.dim))
            p = Polynomial(g.dim, {exps: Fraction(rng.randrange(1, 5), rng.randrange(1, 4))})
            assert unsymmetrize(symmetrize(p, g), g) == p


def _monomials(dim, max_degree, max_vars):
    for exps in itertools.product(range(max_degree + 1), repeat=dim):
        if sum(exps) <= max_degree and sum(1 for e in exps if e) <= max_vars:
            yield exps


def test_symmetrize_matches_average_over_orderings():
    # the definition: sigma(x^a) averages pbw_normalize over the distinct
    # orderings of the word of x^a, each with weight prod(a_i!)/m!
    for g in ALGEBRAS:
        for exps in _monomials(g.dim, 5, 3):
            word = [i for i, e in enumerate(exps) for _ in range(e)]
            weight = Fraction(math.prod(math.factorial(e) for e in exps), math.factorial(len(word)))
            expected = {}
            for perm in set(itertools.permutations(word)):
                for w, c in pbw_normalize(perm, g).terms.items():
                    expected[w] = expected.get(w, 0) + weight * c
            expected = UEAElement(g.dim, expected)
            assert symmetrize(Polynomial(g.dim, {exps: Fraction(1)}), g) == expected


def _symmetrize_by_orderings(p, g, rng):
    """sigma(p) in Fraction arithmetic: each monomial averaged over the
    distinct orderings of its letters, then PBW-normalized."""
    words = {}
    for exps, c in p.terms.items():
        letters = [i for i, e in enumerate(exps) for _ in range(e)]
        orderings = set(itertools.permutations(letters))
        for word in orderings:
            words[word] = words.get(word, Fraction(0)) + c / len(orderings)
    return _normalize_random_descents(words, g, rng)


def test_rational_brackets_match_fraction_references():
    # SO3Q exercises the engine's rescaling by D: products, sigma and
    # sigma^-1 against plain Fraction arithmetic in the X basis
    rng = random.Random(29)
    coeffs = [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(3)]
    # degree 4 puts words with 4 and with 6 orderings into one top layer
    monos = list(_monomials(3, 4, 3))
    g = SO3Q

    def element():
        words = {}
        for _ in range(3):
            word = tuple(rng.randrange(3) for _ in range(rng.randint(0, 4)))
            words[word] = words.get(word, Fraction(0)) + rng.choice(coeffs)
        return UEAElement(3, _normalize_random_descents(words, g, rng))

    for _ in range(20):
        u, v = element(), element()
        concatenated = {}
        for w1, c1 in u.terms.items():
            for w2, c2 in v.terms.items():
                concatenated[w1 + w2] = concatenated.get(w1 + w2, Fraction(0)) + c1 * c2
        product = uea_mul(u, v, g)
        assert product.terms == _normalize_random_descents(concatenated, g, rng)
        p = unsymmetrize(u, g)
        assert _symmetrize_by_orderings(p, g, rng) == u.terms
        q = Polynomial(3, {e: rng.choice(coeffs) for e in rng.sample(monos, 3)})
        sq = symmetrize(q, g)
        assert sq.terms == _symmetrize_by_orderings(q, g, rng)
        assert unsymmetrize(sq, g) == q
        for terms in (product.terms, p.terms, sq.terms):
            assert all(type(c) is Fraction and c != 0 for c in terms.values())


def test_gutt_caches_do_not_leak_between_algebras(monkeypatch):
    # so3, sl2 and heis3 share dim 3, so their monomial caches see the same
    # exponent tuples; interleaved products must equal those of a fresh run
    # on each algebra alone
    names = ["so3", "sl2", "heis3"]
    monos = [e for e in _monomials(3, 2, 3) if sum(e)]
    pairs = [(e1, e2) for e1 in monos for e2 in monos]

    def product(e1, e2, g):
        return gutt_product(Polynomial(3, {e1: Fraction(1)}), Polynomial(3, {e2: Fraction(1)}), g)

    alone = {}
    for name in names:
        monkeypatch.setattr(enveloping, "_ENGINES", {})
        g = catalog(name)
        alone[name] = [product(e1, e2, g) for e1, e2 in pairs]
    assert alone["so3"] != alone["sl2"] != alone["heis3"] != alone["so3"]

    monkeypatch.setattr(enveloping, "_ENGINES", {})
    algebras = {name: catalog(name) for name in names}
    for k, (e1, e2) in enumerate(pairs):
        for name in names:
            assert product(e1, e2, algebras[name]) == alone[name][k]


def _gutt_reference(p, q, g, order):
    """Gutt product through the public maps, in Fraction arithmetic: h^r
    collects 2^r times the part of sigma^-1(sigma(x^e1) sigma(x^e2)) that is
    r degrees below |e1| + |e2|."""
    out = [{} for _ in range(order + 1)]
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            u = uea_mul(symmetrize(Polynomial(g.dim, {e1: 1}), g),
                        symmetrize(Polynomial(g.dim, {e2: 1}), g), g)
            for exps, c in unsymmetrize(u, g).terms.items():
                r = sum(e1) + sum(e2) - sum(exps)
                if r <= order:
                    out[r][exps] = out[r].get(exps, Fraction(0)) + c1 * c2 * c * 2 ** r
    return [{e: c for e, c in terms.items() if c} for terms in out]


def test_gutt_product_matches_fraction_reference():
    # mixed denominators in the factors and in the monomial parts, default
    # and truncated orders, and a product whose terms cancel
    rng = random.Random(23)
    coeffs = [Fraction(1, 2), Fraction(2, 3), Fraction(-5, 7), Fraction(3)]
    for g in ALGEBRAS:
        d = g.dim
        monos = [e for e in _monomials(d, 2, d) if sum(e)]
        cases = []
        for _ in range(4):
            p, q = ({e: rng.choice(coeffs) for e in rng.sample(monos, 3)} for _ in range(2))
            cases.append((Polynomial(d, p), Polynomial(d, q)))
        # the cross terms of (x1/2 + 2x2/3)(x1/2 - 2x2/3) cancel at h^0, and
        # so do those of (x1 + x2)(x1 - x2), whose coefficients are integers
        u = lin([Fraction(1, 2)] + [0] * (d - 1), d)
        v = lin([0, Fraction(2, 3)] + [0] * (d - 2), d)
        cases.append((u + v, u - v))
        cases.append((u * 2 + v * Fraction(3, 2), u * 2 - v * Fraction(3, 2)))
        for p, q in cases:
            full = p.degree() + q.degree()
            for order in (None, 1, full - 1):
                got = gutt_product(p, q, g, order=order)
                want = _gutt_reference(p, q, g, full if order is None else order)
                assert got.order == len(want) - 1
                for r, terms in enumerate(want):
                    assert got.coeffs[r].terms == terms
                    assert all(type(c) is Fraction and c != 0 for c in got.coeffs[r].terms.values())


def test_engine_lookup_does_not_rehash_the_algebra(monkeypatch):
    g = catalog("so3")
    calls = []
    real = Fraction.__hash__

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    x = Polynomial.variable(0, 3)
    for _ in range(3):
        gutt_product(x, x, g)
    assert calls == []


def test_gutt_product_builds_fractions_only_at_the_boundary(monkeypatch):
    # the PBW engine adds integers: on a fresh engine, a product makes one
    # Fraction per output coefficient and at most one per input term
    monkeypatch.setattr(enveloping, "_ENGINES", {})
    g = catalog("so3")
    p = parse_poly("x1^2*x2 + 1/2*x3^2 - x2*x3", 3)
    q = parse_poly("2/3*x1*x3^2 + x2^3 - x1", 3)
    made = []

    def counting_new(cls, *args, **kwargs):
        made.append(cls)
        return real_new(cls, *args, **kwargs)

    real_new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    if hasattr(Fraction, "_from_coprime_ints"):  # arithmetic skips __new__ from Python 3.12
        real_coprime = Fraction._from_coprime_ints

        def counting_coprime(cls, *args):
            made.append(cls)
            return real_coprime(*args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    out = gutt_product(p, q, g)
    monkeypatch.undo()
    assert sum(len(c.terms) for c in out.coeffs) > 20
    assert len(made) <= sum(len(c.terms) for c in out.coeffs) + len(p.terms) + len(q.terms)


def test_gutt_heis3_basic():
    heis = catalog("heis3")
    x1 = Polynomial.variable(0, 3)
    x2 = Polynomial.variable(1, 3)
    assert str(gutt_product(x1, x2, heis)) == "x1*x2 + h*x3"
    assert str(gutt_product(x2, x1, heis)) == "x1*x2 - h*x3"


def test_gutt_covariance():
    # X * Y - Y * X = 2 h [X, Y]
    for name in catalog_names():
        g = catalog(name)
        d = g.dim
        for i in range(d):
            for j in range(d):
                xi = Polynomial.variable(i, d)
                xj = Polynomial.variable(j, d)
                comm = gutt_product(xi, xj, g) - gutt_product(xj, xi, g)
                bracket = Polynomial.linear(
                    [g.bracket_coeff(i, j, k) for k in range(d)], d
                )
                expected = HSeries(d, comm.order, [Polynomial.zero(d), bracket * 2])
                assert comm == expected


def test_gutt_unit():
    so3 = catalog("so3")
    one = Polynomial.one(3)
    f = parse_poly("x1^2*x3 - x2", 3)
    assert gutt_product(one, f, so3) == HSeries.from_polynomial(f, 3)
    assert gutt_product(f, one, so3) == HSeries.from_polynomial(f, 3)


def test_gutt_weyl_property():
    sl2 = catalog("sl2")
    x = lin([1, -2, 3], 3)
    for k in range(7):
        p = gutt_power(x, k, sl2, order=6)
        assert p == HSeries.from_polynomial(x**k, 6)


def test_gutt_associativity_random():
    rng = random.Random(11)
    for name in ["so3", "aff1", "filiform4"]:
        g = catalog(name)
        d = g.dim
        for _ in range(5):
            polys = []
            for _ in range(3):
                exps = tuple(rng.randrange(2) for _ in range(d))
                polys.append(Polynomial(d, {exps: Fraction(rng.randrange(1, 4))}))
            f, p, q = polys
            order = f.degree() + p.degree() + q.degree()
            left = _series_mul(gutt_product(f, p, g, order=order), q, g, order)
            right = _series_mul_left(f, gutt_product(p, q, g, order=order), g, order)
            assert (left - right).is_zero


def _series_mul(a, q, g, order):
    out = HSeries.zero(a.dim, order)
    for r in range(order + 1):
        out = out + gutt_product(a.coefficient(r), q, g, order=order - r).shift(r)
    return out


def _series_mul_left(f, b, g, order):
    out = HSeries.zero(b.dim, order)
    for r in range(order + 1):
        out = out + gutt_product(f, b.coefficient(r), g, order=order - r).shift(r)
    return out


def test_bernoulli_numbers():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)


def test_ch_series_orders():
    # first orders of the composition series: z1 = x+y, z2 = [x,y] (bracket 2h Pi)
    so3 = catalog("so3")
    x = lin([1, 0, 0], 3)
    y = lin([0, 1, 0], 3)
    terms = ch_series(x, y, 3, so3)
    by_order = {t.order: t.value for t in terms}
    assert by_order[1].coefficient(0) == x + y
    # h coefficient of z2 is [x,y] = x3
    assert by_order[2].coefficient(1) == Polynomial.variable(2, 3)


def test_gutt_linear_cochain_matches_product():
    rng = random.Random(5)
    for name in ["so3", "sl2", "aff1"]:
        g = catalog(name)
        d = g.dim
        for _ in range(5):
            x = lin([rng.randrange(-2, 3) for _ in range(d)], d)
            exps = tuple(rng.randrange(3) for _ in range(d))
            f = Polynomial(d, {exps: Fraction(1)})
            prod = gutt_product(x, f, g, order=4)
            for r in range(5):
                assert gutt_linear_cochain(r, x, f, g) == prod.coefficient(r)


def _bernoulli_chain_by_index_walk(r, x, f, g):
    """The Bernoulli closed form summed over all d^(2r) index tuples
    (i1..ir, j1..jr): Pi^{i1 j1} * C_{i2 j2}^{i1} ... C_{ir jr}^{i(r-1)} *
    x_{ir} * d_{j1..jr} f, times (-1)^r 2^r B_r / r!."""
    if r == 0:
        return x * f
    d = g.dim
    pi = poisson_tensor(g)
    xc = x.linear_coefficients()
    out = Polynomial.zero(d)
    for idx in itertools.product(range(d), repeat=2 * r):
        i, j = idx[:r], idx[r:]
        scalar = xc[i[r - 1]]
        for t in range(1, r):
            scalar *= g.c[i[t]][j[t]][i[t - 1]]
        if scalar:
            out = out + pi.component(i[0], j[0]) * f.partial_multi(j) * scalar
    return out * (Fraction((-1) ** r * 2**r) * bernoulli(r) / math.factorial(r))


@pytest.mark.parametrize("g", ALGEBRAS, ids=lambda g: g.name)
def test_gutt_linear_cochain_matches_the_index_walk(g):
    rng = random.Random(11)
    d = g.dim
    f = Polynomial(d, {tuple(rng.randrange(4) for _ in range(d)): Fraction(1) for _ in range(3)})
    f = f + parse_poly("1/2", d)
    for x in (lin([1] * d, d), lin([rng.randrange(-2, 3) or 1 for _ in range(d)], d)):
        for r in range(5):
            assert gutt_linear_cochain(r, x, f, g) == _bernoulli_chain_by_index_walk(r, x, f, g), r


def test_gutt_linear_cochain_odd_orders_vanish():
    g = catalog("so3")
    x = lin([1, 1, 0], 3)
    f = parse_poly("x1^2*x2^2*x3", 3)
    assert gutt_linear_cochain(3, x, f, g).is_zero


def test_gutt_linear_cochain_rejects_nonlinear():
    g = catalog("so3")
    with pytest.raises(ValueError):
        gutt_linear_cochain(2, parse_poly("x1^2", 3), parse_poly("x2", 3), g)
