"""GuttStarProduct multiplies either through its cochains or through
gutt_product directly; both routes must give gutt_product's exact result."""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

import liestar.star
from liestar.algebra import catalog, catalog_names
from liestar.enveloping import gutt_product
from liestar.poly import HSeries, Polynomial
from liestar.star import GuttStarProduct, verify_equivalence
from liestar.weights import seed_table

from matrix_algebras import so_n


def dense(dim, degree, seed):
    """Every monomial of total degree <= degree, each with a nonzero
    coefficient, so the product of two of them is as large as it gets."""
    rng = random.Random(seed)
    pool = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3), Fraction(3)]
    exps = [e for e in product(range(degree + 1), repeat=dim) if sum(e) <= degree]
    return Polynomial(dim, {e: rng.choice(pool) for e in exps})


def monomial(dim, exps):
    return Polynomial(dim, {tuple(exps) + (0,) * (dim - len(exps)): 1})


def small_pair(dim):
    """x1^2 x2 and x2 x_dim (x1^2 and x1 x2 on aff1)."""
    last = [0] * dim
    last[min(1, dim - 1)] += 1
    last[dim - 1] += 1
    return monomial(dim, (2, 1)[:dim]), monomial(dim, last)


def exact_terms(series):
    """Each coefficient as sorted (exponents, value) pairs, with the value's
    type, so that equal results are equal Fraction for Fraction."""
    return [sorted((e, type(c), c) for e, c in p.terms.items()) for p in series.coeffs]


@pytest.fixture
def extractions(monkeypatch):
    calls = []
    original = liestar.star.extract_bidiff_operator

    def counted(func, dim, max_order):
        calls.append(max_order)
        return original(func, dim, max_order)

    monkeypatch.setattr(liestar.star, "extract_bidiff_operator", counted)
    return calls


@pytest.mark.parametrize("name", catalog_names())
def test_both_routes_equal_gutt_product(name, extractions):
    g = catalog(name)
    f, h = dense(g.dim, 4, 1), dense(g.dim, 4, 2)
    x, y = small_pair(g.dim)
    for k in range(5):
        want = exact_terms(gutt_product(f, h, g, order=k))
        star = GuttStarProduct(g, k)
        extractions.clear()
        got = star.multiply(f, h)
        # a dense degree-4 pair has as many monomial pairs as the probes of
        # C_4 alone: more than extracting C_1..C_k probes up to k = 3, and
        # fewer than C_1..C_4 do at k = 4, where gutt_product is faster
        assert extractions == (list(range(1, k + 1)) if k <= 3 else [])
        assert exact_terms(got) == want
        # the cochains themselves, whichever route multiply took
        applied = [star.cochain(r).apply(f, h) for r in range(k + 1)]
        assert exact_terms(HSeries(g.dim, k, applied)) == want
        extractions.clear()
        got = GuttStarProduct(g, k).multiply(x, y)
        assert extractions == []  # gutt_product directly
        assert exact_terms(got) == exact_terms(gutt_product(x, y, g, order=k))


def series_product(a, b, g, n):
    """The h^0..h^n terms of a * b from gutt_product on each coefficient pair."""
    coeffs = [Polynomial.zero(g.dim)] * (n + 1)
    for i, p in enumerate(a.coeffs):
        for j, q in enumerate(b.coeffs):
            if i + j <= n:
                for r, c in enumerate(gutt_product(p, q, g, order=n - i - j).coeffs, i + j):
                    coeffs[r] = coeffs[r] + c
    return HSeries(g.dim, n, coeffs)


@pytest.mark.parametrize("name", catalog_names())
def test_multiply_series_takes_either_route_exactly(name):
    g = catalog(name)
    k = 3
    x, y = small_pair(g.dim)
    zero = Polynomial.zero(g.dim)
    # dense and small coefficients, and a zero one, on both sides
    a = HSeries(g.dim, k, [dense(g.dim, 4, 3), x, zero, dense(g.dim, 2, 4)])
    b = HSeries(g.dim, k, [y, dense(g.dim, 3, 5), zero, x])
    want = series_product(a, b, g, k)
    for star in (GuttStarProduct(g, k), GuttStarProduct(g, k + 1)):
        assert exact_terms(star.multiply_series(a, b)) == exact_terms(want)
        # again, with the cochains the first call extracted cached
        assert exact_terms(star.multiply_series(a, b)) == exact_terms(want)


def test_small_product_never_extracts(monkeypatch):
    def refuse(*args):
        raise AssertionError("a small product extracted a cochain")

    monkeypatch.setattr(liestar.star, "extract_bidiff_operator", refuse)
    g = catalog("so3")
    f, h = monomial(3, (2, 1, 0)), monomial(3, (0, 1, 1))
    got = GuttStarProduct(g, 4).multiply(f, h)
    assert exact_terms(got) == exact_terms(gutt_product(f, h, g, order=4))


def test_changed_gutt_coefficient_reaches_both_routes(monkeypatch):
    """A fault planted in gutt_product shows in small products, which call
    it, and in dense ones, whose cochains are extracted from it."""
    g = catalog("so3")
    pairs = [small_pair(3), (dense(3, 4, 6), dense(3, 4, 7))]
    before = [GuttStarProduct(g, 2).multiply(f, h) for f, h in pairs]
    original = liestar.star.gutt_product

    def doubled_second_cochain(p, q, alg, order=None):
        series = original(p, q, alg, order)
        coeffs = list(series.coeffs)
        if len(coeffs) > 2:
            coeffs[2] = coeffs[2] * 2
        return HSeries(series.dim, series.order, coeffs)

    monkeypatch.setattr(liestar.star, "gutt_product", doubled_second_cochain)
    after = [GuttStarProduct(g, 2).multiply(f, h) for f, h in pairs]
    for old, new in zip(before, after):
        assert old.coefficient(2) != new.coefficient(2)
        assert old.coefficient(1) == new.coefficient(1)


def test_so4_equivalence_with_the_cli_defaults():
    """A user algebra of dimension 6 checks at order 2 with compare's
    defaults (10 trials of degree 4) in seconds, not tens of seconds."""
    # CPU time of this process, so that load from other processes on the
    # machine does not count
    started = time.process_time()
    report = verify_equivalence(so_n(4), 2, seed_table())
    elapsed = time.process_time() - started
    assert report["defect_free"] and report["rho_matches_normalization"]
    assert not report["rho_identity"]
    assert elapsed < 15, f"took {elapsed:.1f} s"
