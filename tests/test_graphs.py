import itertools
from collections import Counter

import pytest

from liestar.graphs import (
    L,
    R,
    Graph,
    GraphError,
    bidiff_of_graph,
    canonical_classes,
    canonicalize,
    classify,
    decompose,
    enumerate_graphs,
    good_classes,
    has_internal_cycle,
    parse_graph,
    wheel1_graph,
    wheel2_graph,
)
from liestar.algebra import PoissonTensor, catalog, catalog_names, poisson_tensor
from liestar.poly import Polynomial, parse_poly


def test_enumeration_counts():
    assert len(enumerate_graphs(0)) == 1
    assert len(enumerate_graphs(1)) == 2
    assert len(enumerate_graphs(2)) == 36
    assert len(enumerate_graphs(3)) == 1728


def test_enumeration_cap():
    with pytest.raises(GraphError):
        enumerate_graphs(5)


def test_no_loops_or_parallel_edges():
    with pytest.raises(GraphError):
        parse_graph("1:(1,R)")  # loop
    with pytest.raises(GraphError):
        parse_graph("2:(L,L)(R,1)")  # parallel pair


def test_encode_round_trip():
    text = "3:(L,2)(3,L)(R,2)"
    assert parse_graph(text).encode() == text


def test_parse_errors():
    for bad in ["2:(L,R)", "1:(L,Q)", "1:(L,2)", "x:(L,R)"]:
        with pytest.raises(GraphError):
            parse_graph(bad)


def test_two_vertex_census():
    census = Counter(canonicalize(g).key for g in enumerate_graphs(2))
    by_kind = Counter()
    for key, count in census.items():
        kind = classify(parse_graph(key))
        by_kind[str(kind)] += count
    assert by_kind["union[1:(L,R), 1:(L,R)]"] == 4
    assert by_kind["other"] == 16  # the two Gamma_2-type classes, 8 each
    assert by_kind["wheel1(2)"] == 8
    # wheel2(2)'s four members are also bad graphs, giving 8 with weight zero
    assert by_kind["bad"] + by_kind["wheel2(2)"] == 8


def test_classify_examples():
    assert str(classify(parse_graph("2:(R,2)(R,1)"))) == "wheel2(2)"
    assert str(classify(parse_graph("2:(L,2)(R,1)"))) == "wheel1(2)"
    assert str(classify(parse_graph("2:(L,2)(L,1)"))) == "bad"
    assert str(classify(parse_graph("2:(L,R)(L,R)"))) == "union[1:(L,R), 1:(L,R)]"
    assert str(classify(parse_graph("1:(L,R)"))) == "other"


def test_wheel_constructors():
    assert wheel1_graph(2).encode() == "2:(L,2)(R,1)"
    assert wheel2_graph(2).encode() == "2:(R,2)(R,1)"
    w3 = wheel1_graph(3)
    assert str(classify(w3)) == "wheel1(3)"
    assert str(classify(wheel2_graph(3))) == "wheel2(3)"


def test_bad_detection():
    assert parse_graph("2:(L,2)(L,1)").is_bad()
    assert not parse_graph("2:(L,R)(L,R)").is_bad()
    assert not parse_graph("1:(L,R)").is_bad()  # n < 2 never bad


def test_canonicalize_is_lex_min_and_stable():
    g = parse_graph("2:(2,L)(R,L)")
    cls = canonicalize(g)
    assert cls.key == canonicalize(cls.representative).key
    assert cls.symmetry_count == 8
    # every member of the orbit canonicalizes to the same representative
    for member in enumerate_graphs(2):
        if canonicalize(member).key == cls.key:
            assert canonicalize(member).representative == cls.representative


def _orbit_walk(g):
    """(least member, orbit size, sign) from every vertex relabeling and
    every edge-swap mask; sign 0 when the least member is reached with both
    swap parities."""
    n = g.n
    seen = {}
    for perm in itertools.permutations(range(n)):
        moved = lambda t: t if t < 2 else perm[t - 2] + 2
        relabeled = [None] * n
        for k, (a, b) in enumerate(g.targets):
            relabeled[perm[k]] = (moved(a), moved(b))
        for mask in range(1 << n):
            member = tuple(
                (b, a) if mask >> k & 1 else (a, b) for k, (a, b) in enumerate(relabeled)
            )
            parity = -1 if bin(mask).count("1") % 2 else 1
            seen[member] = parity if seen.get(member, parity) == parity else 0
    best = min(seen)
    return best, len(seen), seen[best]


def test_canonicalize_matches_orbit_walk():
    graphs = [g for n in (1, 2, 3) for g in enumerate_graphs(n)]
    graphs += [wheel(r) for wheel in (wheel1_graph, wheel2_graph) for r in range(2, 6)]
    for g in graphs:
        best, size, sign = _orbit_walk(g)
        cls = canonicalize(g)
        assert cls.representative.targets == best, g
        assert cls.symmetry_count == size, g
        assert cls.sign == (sign or 1), g


def test_canonicalize_sign_of_edge_swap():
    a = parse_graph("1:(L,R)")
    b = parse_graph("1:(R,L)")
    ca, cb = canonicalize(a), canonicalize(b)
    assert ca.key == cb.key
    assert ca.sign == -cb.sign


def test_symmetry_counts_partition_the_census():
    classes = canonical_classes(enumerate_graphs(2))
    assert sum(c.symmetry_count for c in classes) == 36
    assert len(classes) == 6


def test_decompose():
    g = parse_graph("2:(L,R)(L,R)")
    comps = decompose(g)
    assert [c.encode() for c in comps] == ["1:(L,R)", "1:(L,R)"]
    assert len(decompose(parse_graph("2:(L,2)(R,1)"))) == 1


def test_decompose_three_components():
    g = parse_graph("3:(L,R)(L,R)(L,R)")
    assert len(decompose(g)) == 3


def test_has_internal_cycle():
    assert has_internal_cycle(wheel1_graph(2))
    assert has_internal_cycle(wheel2_graph(3))
    assert not has_internal_cycle(parse_graph("2:(L,R)(L,R)"))
    assert not has_internal_cycle(parse_graph("2:(2,L)(R,L)"))


def test_bidiff_of_single_edge_pair():
    pi = poisson_tensor(catalog("so3"))
    op = bidiff_of_graph(parse_graph("1:(L,R)"), pi)
    f = parse_poly("x1", 3)
    g = parse_poly("x2", 3)
    assert op.apply(f, g) == parse_poly("x3", 3)
    assert op.apply(g, f) == parse_poly("-x3", 3)


def test_bidiff_empty_graph_is_multiplication():
    pi = poisson_tensor(catalog("so3"))
    op = bidiff_of_graph(Graph(0, ()), pi)
    f = parse_poly("x1*x2", 3)
    g = parse_poly("x3^2", 3)
    assert op.apply(f, g) == f * g


def test_bidiff_class_invariance():
    """w(G) B_G is constant on a class: vertex relabel preserves B, edge swap
    flips it."""
    pi = poisson_tensor(catalog("sl2"))
    g = parse_graph("2:(2,L)(R,L)")
    cls = canonicalize(g)
    b_g = bidiff_of_graph(g, pi)
    b_rep = bidiff_of_graph(cls.representative, pi)
    f = parse_poly("x1^2*x2", 3)
    h = parse_poly("x2*x3", 3)
    assert (b_g * cls.sign).apply(f, h) == b_rep.apply(f, h)


def test_good_classes_are_the_classes_that_are_not_bad():
    for n in range(4):
        expected = [c for c in canonical_classes(enumerate_graphs(n)) if not c.representative.is_bad()]
        assert list(good_classes(n)) == expected
    assert len(good_classes(3)) == 31


def _brute_force_bidiff(g, pi):
    """(key, coefficient) pairs of B_G, in order of first appearance, from
    every one of the d^(2n) index assignments: the product over vertices, in
    vertex order, of d_{incoming(k)} pi^{assign of k}."""
    d, n = pi.dim, g.n
    into = [[2 * v + which for v, which in g.incoming(t)] for t in range(n + 2)]
    one = Polynomial.one(d)
    terms = {}
    for assign in itertools.product(range(d), repeat=2 * n):
        factor = one
        for k in range(n):
            comp = pi.components.get((assign[2 * k], assign[2 * k + 1]))
            if comp is None:
                break
            factor = factor * comp.partial_multi(assign[s] for s in into[k + 2])
            if factor.is_zero:
                break
        else:
            key = tuple(tuple(sorted(assign[s] for s in into[side])) for side in (L, R))
            terms[key] = terms.get(key, Polynomial.zero(d)) + factor
    return [(key, c) for key, c in terms.items() if not c.is_zero]


def _compiled_graphs(max_wheel):
    graphs = [c.representative for n in range(4) for c in canonical_classes(enumerate_graphs(n))]
    return graphs + [wheel(r) for wheel in (wheel1_graph, wheel2_graph) for r in range(2, max_wheel + 1)]


@pytest.mark.parametrize("name", catalog_names())
def test_bidiff_of_graph_matches_every_assignment(name):
    """Every class of G_0..G_3 and the wheels up to r = 4: the same terms,
    in the same order, as the sum over all d^(2n) assignments."""
    pi = poisson_tensor(catalog(name))
    for g in _compiled_graphs(4):
        assert list(bidiff_of_graph(g, pi).terms.items()) == _brute_force_bidiff(g, pi), g


def test_bidiff_of_graph_matches_every_assignment_on_a_nonlinear_tensor():
    """Quadratic and cubic components have nonzero second derivatives, so
    vertices with two incoming edges contribute too."""
    comps = {
        (0, 1): parse_poly("x3^2 + x1", 3),
        (0, 2): parse_poly("x1*x2*x3", 3),
        (1, 2): parse_poly("x2", 3),
    }
    comps.update({(j, i): -p for (i, j), p in list(comps.items())})
    pi = PoissonTensor(3, comps)
    nonzero = 0
    for g in _compiled_graphs(3):
        expected = _brute_force_bidiff(g, pi)
        assert list(bidiff_of_graph(g, pi).terms.items()) == expected, g
        nonzero += bool(expected) and any(len(g.incoming(t)) == 2 for t in range(2, g.n + 2))
    assert nonzero > 0  # some compiled graph differentiates a component twice


def test_bidiff_of_graph_multiplies_only_along_surviving_branches(monkeypatch):
    """The 31 good classes of G_3 on filiform4 take a few hundred polynomial
    products; walking all 4^6 assignments of each class takes 10 792."""
    pi = poisson_tensor(catalog("filiform4"))
    calls = 0
    original = Polynomial.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return original(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    for cls in good_classes(3):
        bidiff_of_graph(cls.representative, pi)
    assert calls <= 300
