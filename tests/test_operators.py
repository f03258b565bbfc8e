import random
from fractions import Fraction

import pytest

from liestar.algebra import catalog, poisson_tensor
from liestar.operators import (
    BiDiffOperator,
    DiffOperator,
    ExtractionError,
    extract_bidiff_operator,
    extract_diff_operator,
    hochschild_coboundary,
    multi_factorial,
    normalize_multi,
    sub_multisets,
)
from liestar.poly import HSeries, Polynomial, parse_poly
from liestar.star import GuttStarProduct, assemble_kontsevich, random_polynomial
from liestar.weights import seed_table


def test_normalize_multi():
    assert normalize_multi([2, 0, 1, 0]) == (0, 0, 1, 2)


def test_sub_multisets_partition():
    pairs = list(sub_multisets((0, 0, 1), 2))
    assert ((), (0, 0, 1)) in pairs
    assert ((0, 0, 1), ()) in pairs
    assert ((0,), (0, 1)) in pairs
    assert len(pairs) == 6


def test_multi_factorial():
    assert multi_factorial((0, 0, 1), 2) == 2
    assert multi_factorial((1, 1, 1), 2) == 6


def test_identity_and_zero():
    ident = DiffOperator.identity(2)
    p = parse_poly("x1*x2 + 3", 2)
    assert ident.apply(p) == p
    assert DiffOperator.zero(2).apply(p).is_zero


def test_apply_multiset_derivative():
    op = DiffOperator(2, {(0, 0): Polynomial.one(2)})
    assert op.apply(parse_poly("x1^3", 2)) == parse_poly("6*x1", 2)


def test_apply_hseries():
    op = DiffOperator(1, {(0,): Polynomial.one(1)})
    s = HSeries(1, 1, [parse_poly("x1^2", 1), parse_poly("x1", 1)])
    out = op.apply(s)
    assert out.coefficient(0) == parse_poly("2*x1", 1)
    assert out.coefficient(1) == Polynomial.one(1)


def test_compose_leibniz():
    d1 = DiffOperator(1, {(0,): Polynomial.one(1)})
    x = Polynomial.variable(0, 1)
    mul_x = DiffOperator(1, {(): x})
    # d/dx . (x .) = 1 + x d/dx
    comp = d1.compose(mul_x)
    p = parse_poly("x1^2", 1)
    assert comp.apply(p) == d1.apply(x * p)


def test_symbol_constant_coefficient():
    op = DiffOperator(2, {(0, 1): Polynomial.constant(2, Fraction(3))})
    sym = op.symbol()
    assert sym == parse_poly("3*x1*x2", 2)


def test_bidiff_multiplication():
    m = BiDiffOperator.multiplication(2)
    f = parse_poly("x1", 2)
    g = parse_poly("x2^2", 2)
    assert m.apply(f, g) == f * g


def test_bidiff_apply():
    # f_x * g_y
    op = BiDiffOperator(2, {((0,), (1,)): Polynomial.one(2)})
    f = parse_poly("x1^2", 2)
    g = parse_poly("x2^3", 2)
    assert op.apply(f, g) == parse_poly("6*x1*x2^2", 2)


def test_hochschild_coboundary_of_derivation_vanishes():
    eta = DiffOperator(2, {(0,): Polynomial.one(2)})
    delta = hochschild_coboundary(eta)
    f = parse_poly("x1*x2", 2)
    g = parse_poly("x1 + x2^2", 2)
    assert delta.apply(f, g).is_zero


def test_hochschild_coboundary_second_order():
    # eta = d^2/dx^2: delta eta (f,g) = -2 f_x g_x
    eta = DiffOperator(1, {(0, 0): Polynomial.one(1)})
    delta = hochschild_coboundary(eta)
    f = parse_poly("x1^2", 1)
    g = parse_poly("x1^3", 1)
    assert delta.apply(f, g) == parse_poly("-12*x1^3", 1)


def test_extract_diff_operator():
    target = DiffOperator(2, {(0,): parse_poly("x2", 2), (1, 1): Polynomial.one(2)})
    recovered = extract_diff_operator(target.apply, 2, 2)
    assert recovered == target


def test_extract_bidiff_operator():
    target = BiDiffOperator(
        2,
        {
            ((0,), (1,)): parse_poly("x1", 2),
            ((0, 0), (1,)): Polynomial.one(2),
        },
    )
    recovered = extract_bidiff_operator(target.apply, 2, 2)
    assert recovered == target


def test_extract_detects_overflow():
    # a third-order operator cannot be captured at max_order 1
    target = DiffOperator(1, {(0, 0, 0): Polynomial.one(1)})
    with pytest.raises(ExtractionError):
        extract_diff_operator(target.apply, 1, 1)


# -- operator application against an all-Fraction reference -------------------
#
# The reference works on {exponent tuple: Fraction} dicts with tuple addition,
# one product of terms at a time, independent of Polynomial arithmetic.


def _ref_partial(terms: dict, multi) -> dict:
    for i in multi:
        lowered = {}
        for e, c in terms.items():
            if e[i]:
                lowered[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
        terms = lowered
    return terms


def _ref_product(factors, dim: int) -> dict:
    out = {(0,) * dim: Fraction(1)}
    for terms in factors:
        nxt: dict = {}
        for e1, a in out.items():
            for e2, b in terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                nxt[e] = nxt.get(e, Fraction(0)) + a * b
        out = nxt
    return out


def _ref_sum(parts, dim: int) -> Polynomial:
    total: dict = {}
    for part in parts:
        for e, c in part.items():
            total[e] = total.get(e, Fraction(0)) + c
    return Polynomial(dim, {e: c for e, c in total.items() if c})


def ref_diff_apply(op: DiffOperator, f: Polynomial) -> Polynomial:
    return _ref_sum(
        (_ref_product([c.terms, _ref_partial(f.terms, m)], op.dim) for m, c in op.terms.items()),
        op.dim,
    )


def ref_bidiff_apply(op: BiDiffOperator, f: Polynomial, g: Polynomial) -> Polynomial:
    return _ref_sum(
        (
            _ref_product([c.terms, _ref_partial(f.terms, mi), _ref_partial(g.terms, mj)], op.dim)
            for (mi, mj), c in op.terms.items()
        ),
        op.dim,
    )


POOL = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-3, 7)]


def _random_poly(rng, dim: int, degree: int, count: int) -> Polynomial:
    terms = {}
    for _ in range(count):
        total = rng.randint(0, degree)
        exps = [0] * dim
        for _ in range(total):
            exps[rng.randrange(dim)] += 1
        terms[tuple(exps)] = rng.choice(POOL)
    return Polynomial(dim, terms)


def _random_multi(rng, dim: int, size: int):
    return tuple(sorted(rng.randrange(dim) for _ in range(size)))


def _random_bidiff(rng, dim: int, max_order: int, coeff_degree: int) -> BiDiffOperator:
    terms = {}
    for _ in range(rng.randint(1, 6)):
        key = (_random_multi(rng, dim, rng.randint(0, max_order)),
               _random_multi(rng, dim, rng.randint(0, max_order)))
        terms[key] = _random_poly(rng, dim, coeff_degree, rng.randint(1, 3))
    return BiDiffOperator(dim, terms)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_apply_matches_fraction_reference_on_random_operators(dim):
    rng = random.Random(1000 + dim)
    for _ in range(25):
        # derivative orders up to 5 exceed some operand degrees: those terms vanish
        op = _random_bidiff(rng, dim, 5, 2)
        f = _random_poly(rng, dim, 5, 8)
        g = _random_poly(rng, dim, 5, 8)
        assert op.apply(f, g) == ref_bidiff_apply(op, f, g)
        single = DiffOperator(dim, {mi: c for (mi, _), c in op.terms.items()})
        assert single.apply(f) == ref_diff_apply(single, f)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_apply_with_cancelling_terms_gives_exact_zero(dim):
    rng = random.Random(2000 + dim)
    for _ in range(10):
        f = _random_poly(rng, dim, 4, 6)
        c = _random_poly(rng, dim, 2, 3)
        i, j = rng.randrange(dim), rng.randrange(dim)
        # c (d_i f d_j g - d_j f d_i g) vanishes on (f, f); in dim 1, or for
        # i == j, the two keys coincide and the operator is zero
        bracket = BiDiffOperator(dim, {((i,), (j,)): c}) - BiDiffOperator(dim, {((j,), (i,)): c})
        assert bracket.apply(f, f).is_zero
        # d_i (c f) - c d_i f - (d_i c) f
        leibniz = DiffOperator(dim, {(): c.partial(i) * -1, (i,): c * -1})
        reference = DiffOperator(dim, {(i,): Polynomial.one(dim)})
        assert (reference.apply(c * f) + leibniz.apply(f)).is_zero


@pytest.mark.parametrize("total", [7, 8, 15, 16])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_apply_at_packing_boundaries(dim, total):
    # products whose degree is 2^k - 1 or 2^k fill one exponent field to the
    # top; one bit too few per variable would carry into the next field
    half = total // 2
    rest = total - half - 2  # deg c + deg f + deg g == total
    x = [Polynomial.variable(i, dim) for i in range(dim)]
    c = x[-1] * Fraction(3, 5) + Fraction(-1, 2)
    f = x[0] ** (half + 1) + x[-1] ** (half + 1) * Fraction(1, 3)
    g = x[0] ** rest - x[-1] ** rest * Fraction(2, 7) + Polynomial.constant(dim, 5)
    op = BiDiffOperator(dim, {((), ()): c, ((0,), ()): c * 2, ((), (dim - 1,)): Polynomial.one(dim)})
    out = op.apply(f, g)
    assert out == ref_bidiff_apply(op, f, g)
    assert out.degree() == total
    diff = DiffOperator(dim, {(): c, (0,): Polynomial.one(dim)})
    assert diff.apply(f * g) == ref_diff_apply(diff, f * g)


# -- series products -------------------------------------------------------


def untruncated_multiply_series(s, a: HSeries, b: HSeries) -> HSeries:
    """Every pair of series coefficients through the full product, then
    truncated: the double loop the truncated product must agree with."""
    n = min(s.order, a.order, b.order)
    coeffs = [Polynomial.zero(s.dim) for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(n + 1 - i):
            prod = s.multiply(a.coefficient(i), b.coefficient(j))
            for r in range(n + 1 - i - j):
                coeffs[i + j + r] = coeffs[i + j + r] + prod.coefficient(r)
    return HSeries(s.dim, n, coeffs)


@pytest.mark.parametrize("name", ["so3", "aff1", "heis3"])
def test_multiply_series_matches_the_untruncated_double_loop(name):
    g = catalog(name)
    products = [GuttStarProduct(g, 2), assemble_kontsevich(poisson_tensor(g), 2, seed_table())]
    rng = random.Random(name)
    for s in products:
        for orders in [(2, 2), (2, 1), (1, 2)]:
            series = []
            for order in orders:
                cs = [_random_poly(rng, g.dim, 3, 4) for _ in range(order + 1)]
                cs[rng.randrange(order + 1)] = Polynomial.zero(g.dim)  # a zero coefficient
                series.append(HSeries(g.dim, order, cs))
            a, b = series
            assert s.multiply_series(a, b) == untruncated_multiply_series(s, a, b)


def test_kontsevich_apply_makes_no_polynomial_products(monkeypatch):
    c2 = assemble_kontsevich(poisson_tensor(catalog("so3")), 2, seed_table()).cochain(2)
    rng = random.Random(4)
    f, g = random_polynomial(3, 4, rng), random_polynomial(3, 4, rng)
    expected = ref_bidiff_apply(c2, f, g)
    calls = []
    original = Polynomial.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    monkeypatch.setattr(Polynomial, "__rmul__", counting)
    assert c2.apply(f, g) == expected
    assert not calls


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_extract_recovers_random_operators(dim):
    rng = random.Random(3000 + dim)
    for _ in range(4):
        # a multiplication term makes every probe subtract a known term
        # scaled by 1 / (I! J!), with squared derivatives among I, J
        op = _random_bidiff(rng, dim, 2, 2) + BiDiffOperator(dim, {((), ()): _random_poly(rng, dim, 2, 2)})
        assert extract_bidiff_operator(op.apply, dim, 2) == op
        single = DiffOperator(dim, {mi: c for (mi, _), c in op.terms.items()})
        assert extract_diff_operator(single.apply, dim, 2) == single
