import random
from fractions import Fraction

import pytest

from liestar.poly import (
    DimensionMismatch,
    HSeries,
    Polynomial,
    PolyParseError,
    parse_poly,
)


def test_zero_and_constant():
    z = Polynomial.zero(3)
    assert z.is_zero
    assert str(z) == "0"
    c = Polynomial.constant(3, Fraction(2, 3))
    assert c.constant_term() == Fraction(2, 3)
    assert not c.is_zero


def test_arithmetic():
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x


def test_pow():
    x = Polynomial.variable(0, 1)
    assert x**0 == Polynomial.one(1)
    assert (x + Polynomial.one(1)) ** 2 == x * x + x * 2 + Polynomial.one(1)
    with pytest.raises(ValueError):
        x ** (-1)


def test_partial():
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    p = x * x * y
    assert p.partial(0) == x * y * 2
    assert p.partial(1) == x * x
    assert p.partial_multi([0, 0, 1]) == Polynomial.constant(2, 2)


def test_homogeneous_part_and_degree():
    p = parse_poly("x1^2 + x1*x2 + x2 + 3", 2)
    assert p.degree() == 2
    assert p.homogeneous_part(1) == parse_poly("x2", 2)
    assert p.homogeneous_part(2) == parse_poly("x1^2 + x1*x2", 2)


def test_evaluate():
    p = parse_poly("x1^2 - 2*x2", 2)
    assert p.evaluate([Fraction(3), Fraction(1, 2)]) == 8


def test_linear_form_helpers():
    p = parse_poly("2*x1 - x3", 3)
    assert p.is_linear_form()
    assert p.linear_coefficients() == [Fraction(2), Fraction(0), Fraction(-1)]
    assert not parse_poly("x1^2", 3).is_linear_form()


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Polynomial.variable(0, 2) + Polynomial.variable(0, 3)


def test_str_graded_lex():
    p = parse_poly("x2 + x1 + x1^2", 2)
    assert str(p) == "x1 + x2 + x1^2"
    assert str(parse_poly("-x1 + 1/2", 1)) == "1/2 - x1"


def test_parse_rationals_and_powers():
    p = parse_poly("1/2*x1^3 - 4", 1)
    x = Polynomial.variable(0, 1)
    assert p == x**3 * Fraction(1, 2) - Polynomial.constant(1, 4)


def test_parse_parentheses_and_unary_minus():
    assert parse_poly("-(x1 - x2)", 2) == parse_poly("x2 - x1", 2)
    assert parse_poly("(x1 + x2)^2", 2) == parse_poly("x1^2 + 2*x1*x2 + x2^2", 2)


def test_parse_errors():
    for bad in ["x4", "x1 +", "1//2", "x1 x2", "(x1", "x1^-2", ""]:
        with pytest.raises(PolyParseError):
            parse_poly(bad, 3)


def test_hseries_truncation():
    x = Polynomial.variable(0, 1)
    a = HSeries(1, 2, [x, x, x])
    b = HSeries(1, 1, [x, x])
    assert (a + b).order == 1
    assert (a * b).order == 1
    assert a.shift(1).coefficient(0).is_zero
    assert a.shift(1).coefficient(2) == x


def test_hseries_str_uses_h():
    x3 = Polynomial.variable(2, 3)
    s = HSeries(3, 2, [Polynomial.variable(0, 3) * Polynomial.variable(1, 3), x3])
    assert str(s) == "x1*x2 + h*x3"
    s2 = HSeries(3, 2, [Polynomial.zero(3), Polynomial.zero(3), Polynomial.constant(3, Fraction(1, 3))])
    assert str(s2) == "1/3*h^2"


def test_hseries_scalar_mul():
    x = Polynomial.variable(0, 1)
    s = HSeries.from_polynomial(x, 2)
    assert (s * 2).coefficient(0) == x * 2
    assert (Fraction(1, 2) * s).coefficient(0) == x * Fraction(1, 2)


# -- the integer-numerator kernel against a naive all-Fraction reference -----

_COEFFS = [Fraction(1, 2), Fraction(2, 3), Fraction(-5, 7), Fraction(3), Fraction(-1, 6), Fraction(7, 4)]


def _random_terms(rng, dim, max_degree=3, size=4):
    terms = {}
    for _ in range(size):
        exps = tuple(rng.randrange(max_degree + 1) for _ in range(dim))
        terms[exps] = terms.get(exps, Fraction(0)) + rng.choice(_COEFFS)
    return {e: c for e, c in terms.items() if c}


def _ref_add(t1, t2):
    out = {}
    for terms in (t1, t2):
        for e, c in terms.items():
            out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def _ref_scale(t, k):
    return {e: c * k for e, c in t.items() if c * k}


def _ref_mul(t1, t2):
    out = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_partial(t, i):
    out = {}
    for e, c in t.items():
        if e[i]:
            lower = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[lower] = out.get(lower, Fraction(0)) + c * e[i]
    return {e: c for e, c in out.items() if c}


def assert_terms(p, want):
    assert p.terms == want
    assert all(type(v) is Fraction and v != 0 for v in p.terms.values())


def _cases(seed, count=40):
    rng = random.Random(seed)
    x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    half, third = Fraction(1, 2), Fraction(2, 3)
    # products whose cross terms cancel: (x/2 + 2y/3)(x/2 - 2y/3), the same
    # with integer coefficients, and a factor of -1 that cancels a whole sum
    yield x * half + y * third, x * half - y * third
    yield x + y, x - y
    yield x * half + y * third, -(x * half + y * third)
    for _ in range(count):
        dim = rng.randrange(1, 4)
        yield (Polynomial(dim, _random_terms(rng, dim)), Polynomial(dim, _random_terms(rng, dim)))


def test_kernel_add_sub_neg_match_fraction_reference():
    for p, q in _cases(5):
        assert_terms(p + q, _ref_add(p.terms, q.terms))
        assert_terms(p - q, _ref_add(p.terms, _ref_scale(q.terms, Fraction(-1))))
        assert_terms(-p, _ref_scale(p.terms, Fraction(-1)))
        assert_terms(p + (-p), {})


def test_kernel_mul_matches_fraction_reference():
    for p, q in _cases(6):
        assert_terms(p * q, _ref_mul(p.terms, q.terms))
        assert_terms(q * p, _ref_mul(p.terms, q.terms))
        for k in (0, 3, Fraction(-5, 7), "2/9"):
            assert_terms(p * k, _ref_scale(p.terms, Fraction(k)))
            assert_terms(k * p, _ref_scale(p.terms, Fraction(k)))
    x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    assert_terms((x * Fraction(1, 2) + y) * (x * Fraction(1, 2) - y),
                 {(2, 0): Fraction(1, 4), (0, 2): Fraction(-1)})


def test_kernel_partial_matches_fraction_reference():
    rng = random.Random(7)
    for p, _ in _cases(8):
        for i in range(p.dim):
            assert_terms(p.partial(i), _ref_partial(p.terms, i))
        multi = [rng.randrange(p.dim) for _ in range(rng.randrange(4))]
        want = p.terms
        for i in multi:
            want = _ref_partial(want, i)
        assert_terms(p.partial_multi(multi), want)
