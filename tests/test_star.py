import math
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest

from liestar.algebra import algebra_from_brackets, catalog, catalog_names, poisson_tensor, trace_operator
from liestar.enveloping import bernoulli
from liestar.graphs import canonicalize, wheel1_graph
from liestar.operators import BiDiffOperator, DiffOperator
from liestar.poly import HSeries, Polynomial, parse_poly
from liestar.star import (
    ESTIMATED,
    EXACT,
    EquivalenceOperator,
    EtaError,
    GuttStarProduct,
    StarProductError,
    assemble_kontsevich,
    associator_defect,
    covariance_defect,
    eta_from_bidiff,
    kontsevich_gutt_rho,
    random_polynomial,
    star_power,
    verify_equivalence,
    weyl_defect,
    weyl_normalize,
)
from liestar.weights import WeightEstimate, seed_table, table_weight


def kontsevich(name, order=2):
    g = catalog(name)
    return g, assemble_kontsevich(poisson_tensor(g), order, seed_table())


def test_gutt_so3_example():
    s = GuttStarProduct(catalog("so3"), 2)
    out = s.multiply(parse_poly("x1", 3), parse_poly("x2", 3))
    assert str(out) == "x1*x2 + h*x3"


def test_kontsevich_so3_square():
    _, s = kontsevich("so3")
    out = s.multiply(parse_poly("x1", 3), parse_poly("x1", 3))
    assert str(out) == "x1^2 + 1/3*h^2"


def test_kontsevich_unit():
    g, s = kontsevich("so3")
    one = parse_poly("1", 3)
    f = parse_poly("x1^2*x3", 3)
    assert s.multiply(one, f) == HSeries.from_polynomial(f, 2)
    assert s.multiply(f, one) == HSeries.from_polynomial(f, 2)


def test_kontsevich_first_cochain_is_poisson():
    g, s = kontsevich("sl2")
    pi = poisson_tensor(g)
    x = parse_poly("x1*x2", 3)
    y = parse_poly("x3^2", 3)
    assert s.cochain(1).apply(x, y) == pi.bracket(x, y)


def test_second_cochain_closed_form():
    """C_2 agrees with the explicit index contraction: a half of the squared
    bracket, a third of the mixed one-derivative terms, minus a sixth of the
    trace-type term."""
    for name in ["so3", "sl2", "aff1"]:
        g, s = kontsevich(name)
        pi = poisson_tensor(g)
        dim = g.dim
        rng = random.Random(42)
        for _ in range(8):
            f = random_polynomial(dim, 3, rng)
            h = random_polynomial(dim, 3, rng)
            expected = Polynomial.zero(dim)
            idx = range(dim)
            for i1, j1, i2, j2 in product(idx, repeat=4):
                p1 = pi.component(i1, j1)
                p2 = pi.component(i2, j2)
                if not p1.is_zero and not p2.is_zero:
                    expected = expected + Fraction(1, 2) * p1 * p2 * (
                        f.partial(i1).partial(i2) * h.partial(j1).partial(j2)
                    )
                if not p1.is_zero:
                    dp2 = p2.partial(i1)
                    if not dp2.is_zero:
                        expected = expected + Fraction(1, 3) * p1 * dp2 * (
                            f.partial(j1).partial(j2) * h.partial(i2)
                            + f.partial(i2) * h.partial(j1).partial(j2)
                        )
                dp1 = p1.partial(j2)
                dp2 = p2.partial(j1)
                if not dp1.is_zero and not dp2.is_zero:
                    expected = expected - Fraction(1, 6) * dp1 * dp2 * (
                        f.partial(i1) * h.partial(i2)
                    )
            assert s.cochain(2).apply(f, h) == expected


def test_kontsevich_associative_through_order_two():
    for name in ["so3", "sl2", "aff1", "heis3"]:
        g, s = kontsevich(name)
        rng = random.Random(5)
        for _ in range(5):
            f = random_polynomial(g.dim, 3, rng)
            p = random_polynomial(g.dim, 3, rng)
            q = random_polynomial(g.dim, 3, rng)
            assert associator_defect(s, f, p, q).is_zero


def test_kontsevich_covariance():
    for name in ["so3", "sl2", "aff1"]:
        g, s = kontsevich(name)
        assert covariance_defect(s, poisson_tensor(g)).is_zero


def test_abelian_kontsevich_is_pointwise_product():
    g, s = kontsevich("abelian3")
    f = parse_poly("x1^2", 3)
    h = parse_poly("x2^3", 3)
    assert s.multiply(f, h) == HSeries.from_polynomial(f * h, 2)


def test_missing_weight_raises():
    from liestar.weights import WeightTable

    with pytest.raises(StarProductError):
        assemble_kontsevich(poisson_tensor(catalog("so3")), 2, WeightTable())


def test_union_class_takes_its_exact_weight_over_a_loaded_estimate():
    # 3:(L,R)(L,3)(R,2) is 1:(L,R) beside the two-vertex wheel, so its weight
    # is exactly -1/288; a Monte Carlo estimate of it in the table must not
    # replace that value in C_3
    from liestar.graphs import canonical_classes, enumerate_graphs, parse_graph
    from liestar.star import bidiff_of_graph
    from liestar.weights import WeightEstimate

    union = "3:(L,R)(L,3)(R,2)"
    pi = poisson_tensor(catalog("so3"))
    assert not bidiff_of_graph(parse_graph(union), pi).is_zero

    def c3(union_weight):
        table = seed_table()
        for cls in canonical_classes(enumerate_graphs(3)):
            if cls.key != union and not cls.representative.is_bad():
                table.add_estimate(WeightEstimate(cls.key, 0.0, 1e-4, 20000, 7))
        union_weight(table)
        return assemble_kontsevich(pi, 3, table).cochain(3)

    estimated = c3(lambda t: t.add_estimate(WeightEstimate(union, -0.00197, 1e-4, 20000, 7)))
    exact = c3(lambda t: t.set_exact(union, Fraction(-1, 288)))
    assert estimated == exact


def test_gutt_weyl_defect_vanishes():
    s = GuttStarProduct(catalog("sl2"), 3)
    x = parse_poly("x1 - 2*x2 + x3", 3)
    assert all(d.is_zero for d in weyl_defect(s, x, 6))


def test_kontsevich_weyl_defect_so3():
    g, s = kontsevich("so3")
    x = parse_poly("x1", 3)
    defects = weyl_defect(s, x, 3)
    assert defects[0].is_zero and defects[1].is_zero
    # squared generator picks up the trace correction h^2/3
    d2 = defects[2]
    assert not d2.is_zero
    assert d2.coefficient(2) == parse_poly("1/3", 3)


def test_kontsevich_weyl_defect_nilpotent_zero():
    g, s = kontsevich("heis3")
    x = parse_poly("x1 + x2 + x3", 3)
    assert all(d.is_zero for d in weyl_defect(s, x, 4))


def test_star_power():
    s = GuttStarProduct(catalog("so3"), 2)
    x = parse_poly("x1 + x2", 3)
    assert star_power(s, x, 0) == HSeries.from_polynomial(parse_poly("1", 3), 2)
    assert star_power(s, x, 1) == HSeries.from_polynomial(x, 2)
    two = star_power(s, x, 2)
    assert two == s.multiply(x, x)


def test_eta_from_bidiff_constant_coefficients():
    # phi = a d_1 (x) d_2 with |J| = 1 gives eta = -(a/2) d_1 d_2
    dim = 2
    phi = BiDiffOperator(
        dim, {((0,), (1,)): Polynomial.constant(dim, Fraction(3))}
    )
    eta = eta_from_bidiff(phi)
    expected = DiffOperator(
        dim, {(0, 1): Polynomial.constant(dim, Fraction(-3, 2))}
    )
    assert eta == expected


def test_eta_from_bidiff_rejects_higher_first_slot():
    dim = 2
    phi = BiDiffOperator(
        dim, {((0, 0), (1,)): Polynomial.constant(dim, Fraction(1))}
    )
    with pytest.raises(EtaError):
        eta_from_bidiff(phi)


def test_weyl_normalize_gutt_is_identity():
    rho = weyl_normalize(GuttStarProduct(catalog("sl2"), 2))
    assert rho.is_identity


def test_weyl_normalize_abelian_is_identity():
    _, s = kontsevich("abelian3")
    assert weyl_normalize(s).is_identity


def test_weyl_normalize_so3():
    g, s = kontsevich("so3")
    rho = weyl_normalize(s)
    # order-2 term is laplacian / 6
    expected = DiffOperator(
        3,
        {
            (0, 0): Polynomial.constant(3, Fraction(1, 6)),
            (1, 1): Polynomial.constant(3, Fraction(1, 6)),
            (2, 2): Polynomial.constant(3, Fraction(1, 6)),
        },
    )
    assert rho.terms[1].is_zero
    assert rho.terms[2] == expected


def test_closed_form_rho_matches_normalization():
    table = seed_table()
    for name in ["so3", "sl2", "aff1"]:
        g = catalog(name)
        rho = kontsevich_gutt_rho(g, 2, table)
        s = assemble_kontsevich(poisson_tensor(g), 2, table)
        normalized = weyl_normalize(s)
        for r in range(3):
            assert rho.terms[r] == normalized.terms[r]


def test_closed_form_rho_aff1():
    rho = kontsevich_gutt_rho(catalog("aff1"), 2, seed_table())
    expected = DiffOperator(
        2, {(0, 0): Polynomial.constant(2, Fraction(-1, 12))}
    )
    assert rho.terms[2] == expected


def test_rho_identity_on_nilpotent():
    table = seed_table()
    for name in ["heis3", "filiform4"]:
        rho = kontsevich_gutt_rho(catalog(name), 2, table)
        assert rho.is_identity


def test_rho_exponential_coefficient():
    # single order-2 exponent: term equals 4 * 1! * w * D_2 with w = -1/48
    g = catalog("so3")
    rho = kontsevich_gutt_rho(g, 2, seed_table())
    d2 = trace_operator(g, 2)
    assert rho.terms[2] == d2 * Fraction(-1, 12)
    (r, coeff, op) = rho.exponent[0]
    assert r == 2 and coeff == Fraction(-1, 12)


def _wheel_table(estimated=()):
    """seed_table plus the one-spoke wheels r = 3..6 at their closed form
    w_r = -B_r / (2r r! (r-1)!), except that the orders in `estimated` get
    a nonzero Monte Carlo entry instead."""
    table = seed_table()
    for r in range(3, 7):
        cls = canonicalize(wheel1_graph(r))
        if r in estimated:
            table.add_estimate(WeightEstimate(cls.key, cls.sign * 1.5e-3 / r, 1e-4, 1000, r))
        else:
            value = -bernoulli(r) / (2 * r * math.factorial(r) * math.factorial(r - 1))
            table.set_exact(cls.key, cls.sign * value)
    return table


def _partitions(n, largest=None):
    """Partitions of n as non-increasing tuples of parts."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _rho_by_partitions(g, order, table):
    """exp(sum_r c_r D_r) through h^order as a sum over partitions of n of
    the composed loaded operators divided by the multiplicity factorials,
    with c_r = 2^r (r-1)! w_r; returns (exponent, terms)."""
    exponent = []
    for r in range(2, order + 1):
        d_r = trace_operator(g, r)
        coeff = 2**r * math.factorial(r - 1) * table_weight(wheel1_graph(r), table)[0]
        if not d_r.is_zero and coeff:
            exponent.append((r, coeff, d_r))
    loaded = {r: op * c for r, c, op in exponent}
    terms = [DiffOperator.identity(g.dim)]
    for n in range(1, order + 1):
        total = DiffOperator.zero(g.dim)
        for parts in _partitions(n):
            if any(p not in loaded for p in parts):
                continue
            piece = DiffOperator.identity(g.dim)
            for p in parts:
                piece = piece.compose(loaded[p])
            denom = math.prod(math.factorial(m) for m in Counter(parts).values())
            total = total + piece * Fraction(1, denom)
        terms.append(total)
    return exponent, terms


SO3Q = algebra_from_brackets(
    3, [(1, 2, 3, Fraction(1, 2)), (2, 3, 1, Fraction(2, 3)), (1, 3, 2, Fraction(3, 4))], name="so3q"
)


@pytest.mark.parametrize("estimated", [(), (3,), (3, 4, 5, 6)], ids=["exact", "mixed", "estimated"])
def test_rho_equals_the_partition_sum_of_composed_operators(estimated):
    table = _wheel_table(estimated)
    for g in [catalog(name) for name in catalog_names()] + [SO3Q]:
        for order in range(2, 7):
            rho = kontsevich_gutt_rho(g, order, table)
            exponent, terms = _rho_by_partitions(g, order, table)
            assert list(rho.exponent) == exponent, (g.name, order)
            assert list(rho.terms) == terms, (g.name, order)


def test_rho_provenance_follows_sums_of_loaded_orders():
    # on aff1 every D_r is nonzero and w_5 = 0, so h^n is estimated exactly
    # when n is a sum of loaded orders 2, 3, 4, 6 that uses 3: h^4 = D_2^2/2
    # + D_4 is exact although w_3 is estimated
    g = catalog("aff1")
    table = _wheel_table(estimated=(3,))
    got = {}
    for order in (4, 5, 6):
        rho = kontsevich_gutt_rho(g, order, table)
        got[order] = [r for r in range(order + 1) if rho.term_provenance(r) == ESTIMATED]
    assert got == {4: [3], 5: [3, 5], 6: [3, 5, 6]}


def test_equivalence_operator_identity_helper():
    rho = EquivalenceOperator.identity(3, 2)
    f = parse_poly("x1^2*x2", 3)
    assert rho.apply(f) == HSeries.from_polynomial(f, 2)
    assert rho.is_identity


def test_apply_series_shifts_orders():
    rho = kontsevich_gutt_rho(catalog("so3"), 2, seed_table())
    f = parse_poly("x1^2", 3)
    series = HSeries.from_polynomial(f, 2)
    out = rho.apply_series(series)
    assert out.coefficient(0) == f
    assert out.coefficient(2) == parse_poly("1/3", 3)


def test_verify_equivalence_semisimple_and_solvable():
    table = seed_table()
    for name in ["so3", "sl2", "aff1"]:
        report = verify_equivalence(catalog(name), 2, table, trials=4, degree=3)
        assert report["defect_free"]
        assert report["rho_matches_normalization"]
        assert report["provenance"] == EXACT


def test_verify_equivalence_nilpotent_identity():
    report = verify_equivalence(catalog("heis3"), 2, seed_table(), trials=4)
    assert report["defect_free"] and report["rho_identity"]


def test_wheel_free_product_normalizes_to_identity():
    """Dropping the one-spoke wheel class removes the entire order-2
    correction: the remaining product is already Weyl."""
    g = catalog("so3")
    s = assemble_kontsevich(poisson_tensor(g), 2, seed_table(), include_wheels=False)
    assert weyl_normalize(s).is_identity


def _product_filter_polynomial(dim, degree, rng):
    """random_polynomial as a walk over all (degree + 1)^dim exponent
    tuples that keeps those of total degree <= degree."""
    pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2), Fraction(1, 3)]
    terms = {}
    for exps in product(range(degree + 1), repeat=dim):
        if sum(exps) <= degree:
            c = rng.choice(pool)
            if c:
                terms[exps] = c
    return Polynomial(dim, terms)


@pytest.mark.parametrize("dim", range(6))
def test_random_polynomial_matches_the_product_filter(dim):
    for degree in range(5):
        rng, ref_rng = random.Random(100 * dim + degree), random.Random(100 * dim + degree)
        assert random_polynomial(dim, degree, rng) == _product_filter_polynomial(dim, degree, ref_rng)
        assert rng.random() == ref_rng.random()


def test_random_polynomial_in_fourteen_variables():
    # the product filter would walk 5^14 = 6.1e9 tuples for these 3060
    rng, ref_rng = random.Random(14), random.Random(14)
    p = random_polynomial(14, 4, rng)
    assert p.terms and all(sum(e) <= 4 for e in p.terms)
    for _ in range(math.comb(18, 4)):
        ref_rng.choice(range(7))  # one draw from the 7-element pool per monomial
    assert rng.random() == ref_rng.random()
