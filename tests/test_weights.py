import json
import math
from fractions import Fraction

import pytest

from liestar.graphs import Graph, GraphError, parse_graph, wheel2_graph
from liestar.weights import (
    PROVENANCE_ANALYTIC,
    PROVENANCE_ESTIMATED,
    PROVENANCE_PAPER,
    WeightError,
    WeightEstimate,
    WeightTable,
    estimate_weight,
    factorized_weight,
    integrand,
    known_weight,
    phi,
    phi_gradient,
    seed_table,
    table_weight,
)

UPPER = [complex(0.3, 0.7), complex(1.1, 0.4), complex(-0.5, 1.3)]


def test_phi_examples():
    assert phi(1j, 1.0) == pytest.approx(math.pi / 2)
    assert phi(1j, 2j) == pytest.approx(0.0)
    assert phi(1j, 0.0) == pytest.approx(0.0)


def test_phi_coincident_points_rejected():
    with pytest.raises(WeightError):
        phi(1j, 1j)


def test_phi_gradient_matches_finite_differences():
    z1, z2 = complex(0.4, 0.9), complex(1.3, 0.5)
    eps = 1e-7
    grads = phi_gradient(z1, z2)
    num = [
        (phi(z1 + eps, z2) - phi(z1 - eps, z2)) / (2 * eps),
        (phi(z1 + eps * 1j, z2) - phi(z1 - eps * 1j, z2)) / (2 * eps),
        (phi(z1, z2 + eps) - phi(z1, z2 - eps)) / (2 * eps),
        (phi(z1, z2 + eps * 1j) - phi(z1, z2 - eps * 1j)) / (2 * eps),
    ]
    for a, b in zip(grads, num):
        assert a == pytest.approx(b, abs=1e-6)


def test_phi_gradient_boundary_target():
    # finite differences along the real axis still match at a boundary target
    z1 = complex(0.2, 0.8)
    g = phi_gradient(z1, complex(1.5, 0.0))
    eps = 1e-7
    fd = (phi(z1, 1.5 + eps) - phi(z1, 1.5 - eps)) / (2 * eps)
    assert g[2] == pytest.approx(fd, abs=1e-5)


def test_integrand_domain_checks():
    g = parse_graph("1:(L,R)")
    with pytest.raises(ValueError):
        integrand(g, [complex(0.5, -0.1)])  # lower half-plane
    with pytest.raises(ValueError):
        integrand(g, [complex(0.0, 0.0)])  # collides with L
    g2 = parse_graph("2:(L,R)(L,R)")
    with pytest.raises(ValueError):
        integrand(g2, [complex(0.3, 0.4), complex(0.3, 0.4)])


def test_integrand_single_edge_nonzero_somewhere():
    g = parse_graph("1:(L,R)")
    assert integrand(g, [complex(0.5, 0.5)]) != 0.0


def test_wheel2_integrand_vanishes_pointwise():
    assert abs(integrand(wheel2_graph(2), UPPER[:2])) < 1e-15
    assert abs(integrand(wheel2_graph(3), UPPER)) < 1e-15


def test_estimate_weight_n1():
    est = estimate_weight(parse_graph("1:(L,R)"), samples=20000, seed=11)
    assert abs(est.mean - 0.5) < 3 * est.stderr
    assert est.stderr < 0.05


def test_estimate_weight_needs_two_blocks_for_an_error_bar():
    g = parse_graph("1:(L,R)")
    with pytest.raises(WeightError):
        estimate_weight(g, samples=1, seed=11)
    with pytest.raises(WeightError):
        estimate_weight(g, samples=100, seed=11, blocks=1)
    est = estimate_weight(g, samples=2, seed=11)
    assert est.stderr > 0 and est.method == "MedianOfMeans"
    # the empty graph has the exact weight 1 from any number of draws
    assert estimate_weight(parse_graph("0:"), samples=1, seed=11).stderr == 0.0


def test_estimate_weight_reproducible():
    g = parse_graph("2:(L,R)(L,1)")
    a = estimate_weight(g, samples=5000, seed=3)
    b = estimate_weight(g, samples=5000, seed=3)
    assert a.mean == b.mean and a.stderr == b.stderr
    c = estimate_weight(g, samples=5000, seed=4)
    assert c.mean != a.mean


def test_seed_table_values_and_parity():
    table = seed_table()
    assert known_weight(parse_graph("1:(L,R)"), table) == Fraction(1, 2)
    # edge swap flips the sign
    assert known_weight(parse_graph("1:(R,L)"), table) == Fraction(-1, 2)
    assert known_weight(parse_graph("2:(L,R)(L,R)"), table) == Fraction(1, 8)
    assert known_weight(parse_graph("2:(L,R)(L,1)"), table) == Fraction(1, 24)
    # mirror of the previous class
    assert known_weight(parse_graph("2:(R,L)(R,1)"), table) == Fraction(1, 24)
    assert known_weight(parse_graph("2:(L,2)(R,1)"), table) == Fraction(-1, 48)
    assert known_weight(parse_graph("2:(L,2)(L,1)"), table) == 0
    assert known_weight(parse_graph("2:(R,2)(R,1)"), table) == 0


def test_table_weight_provenance():
    table = seed_table()
    value, err, prov = table_weight(parse_graph("2:(L,R)(L,R)"), table)
    assert value == Fraction(1, 8) and err == 0
    assert prov == PROVENANCE_PAPER
    value, err, prov = table_weight(parse_graph("1:(L,R)"), table)
    assert prov == PROVENANCE_ANALYTIC
    assert table_weight(parse_graph("3:(L,R)(L,R)(L,R)"), table) is None


def test_factorized_weight_two_fold_union():
    value, err, prov = factorized_weight(parse_graph("2:(L,R)(L,R)"), seed_table())
    assert value == Fraction(1, 8)
    assert err == 0 and prov == PROVENANCE_ANALYTIC


def test_factorized_weight_three_fold_union():
    value, err, prov = factorized_weight(
        parse_graph("3:(L,R)(L,R)(L,R)"), seed_table()
    )
    assert value == Fraction(1, 48)
    assert err == 0


def test_factorized_weight_requires_decomposable():
    with pytest.raises(GraphError):
        factorized_weight(parse_graph("1:(L,R)"), seed_table())
    with pytest.raises(GraphError):
        factorized_weight(Graph(0, ()), seed_table())


def test_factorized_weight_propagates_error():
    table = WeightTable()
    table.add_estimate(
        WeightEstimate(graph="1:(L,R)", mean=0.5, stderr=0.01, samples=1000, seed=0)
    )
    value, err, prov = factorized_weight(parse_graph("2:(L,R)(L,R)"), table)
    assert float(value) == pytest.approx(0.125)
    assert err > 0
    assert prov == PROVENANCE_ESTIMATED


def test_weight_table_json_round_trip(tmp_path):
    table = seed_table()
    table.add_estimate(
        WeightEstimate(
            graph="3:(L,2)(3,L)(R,2)", mean=0.0123, stderr=0.002, samples=500, seed=9
        )
    )
    path = tmp_path / "weights.json"
    table.save(path)
    loaded = WeightTable.load(path)
    assert loaded.to_json() == table.to_json()
    rows = json.loads(path.read_text())
    keys = {row["graph"] for row in rows}
    assert "1:(L,R)" in keys and "3:(L,2)(3,L)(R,2)" in keys


def test_weight_table_merge_exact_wins():
    a = WeightTable()
    a.add_estimate(
        WeightEstimate(graph="1:(L,R)", mean=0.49, stderr=0.01, samples=100, seed=1)
    )
    merged = a.merge(seed_table())
    value, err, prov = table_weight(parse_graph("1:(L,R)"), merged)
    assert value == Fraction(1, 2) and prov == PROVENANCE_ANALYTIC
    # and an exact entry is not displaced by an incoming estimate
    merged2 = seed_table().merge(a)
    value, err, prov = table_weight(parse_graph("1:(L,R)"), merged2)
    assert value == Fraction(1, 2)


def test_add_estimate_does_not_displace_exact():
    table = seed_table()
    table.add_estimate(
        WeightEstimate(graph="1:(L,R)", mean=0.49, stderr=0.01, samples=100, seed=1)
    )
    assert known_weight(parse_graph("1:(L,R)"), table) == Fraction(1, 2)


def test_estimate_provenance():
    table = WeightTable()
    table.add_estimate(
        WeightEstimate(
            graph="2:(L,R)(L,1)", mean=0.0417, stderr=0.001, samples=100, seed=2
        )
    )
    value, err, prov = table_weight(parse_graph("2:(L,R)(L,1)"), table)
    assert prov == PROVENANCE_ESTIMATED
    assert err == 0.001
