import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from liestar.algebra import (
    AntisymmetryViolation,
    JacobiViolation,
    algebra_from_brackets,
    algebra_to_json,
    algebra_from_json,
    catalog,
    catalog_names,
    is_nilpotent_probe,
    poisson_tensor,
    trace_operator,
    validate_algebra,
)
from liestar.poly import Polynomial, parse_poly


def test_catalog_names():
    names = catalog_names()
    for expected in ["abelian3", "heis3", "so3", "sl2", "aff1", "filiform4"]:
        assert expected in names


def test_so3_brackets():
    g = catalog("so3")
    assert g.dim == 3
    assert g.bracket_coeff(0, 1, 2) == 1
    assert g.bracket_coeff(1, 0, 2) == -1
    assert g.bracket_coeff(1, 2, 0) == 1
    assert g.bracket_coeff(0, 2, 1) == -1


def test_validate_rejects_antisymmetry_violation():
    # c[0][1][2] = 1 but c[1][0][2] = 0
    c = [[[0] * 2 for _ in range(2)] for _ in range(2)]
    c[0][1][0] = 1
    with pytest.raises(AntisymmetryViolation) as err:
        validate_algebra(c)
    assert err.value.indices[:2] == (1, 2)


def test_validate_rejects_jacobi_violation():
    # [e1,e2]=e3, [e1,e3]=e1 breaks Jacobi
    with pytest.raises(JacobiViolation):
        algebra_from_brackets(3, [(1, 2, 3, 1), (1, 3, 1, 1)])


def _first_jacobi_violation(c):
    """1-based (i, j, k, l) of the first nonzero Jacobiator entry in
    lexicographic order, from the dense d^5 sum; None when there is none."""
    d = len(c)
    for i, j, k, l in itertools.product(range(d), repeat=4):
        total = sum(
            c[i][j][m] * c[m][k][l] + c[j][k][m] * c[m][i][l] + c[k][i][m] * c[m][j][l]
            for m in range(d)
        )
        if total:
            return i + 1, j + 1, k + 1, l + 1
    return None


def test_jacobi_violation_names_the_first_failing_indices():
    """Random antisymmetric constants: the sparse check accepts exactly the
    algebras the dense sum accepts and names the same (i, j, k, l)."""
    rng = random.Random(11)
    seen = set()
    for _ in range(150):
        d = rng.randint(2, 4)
        c = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
        density = rng.random()
        for i, j in itertools.combinations(range(d), 2):
            for k in range(d):
                if rng.random() < density:
                    c[i][j][k] = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                    c[j][i][k] = -c[i][j][k]
        expected = _first_jacobi_violation(c)
        seen.add(expected is None)
        if expected is None:
            validate_algebra(c)
            continue
        with pytest.raises(JacobiViolation) as err:
            validate_algebra(c)
        assert err.value.indices == expected
    assert seen == {True, False}


def test_poisson_tensor_linear_and_antisymmetric():
    for name in catalog_names():
        pi = poisson_tensor(catalog(name))
        assert pi.is_linear()
        for i in range(pi.dim):
            assert pi.component(i, i).is_zero
            for j in range(pi.dim):
                assert pi.component(i, j) == -pi.component(j, i)
        assert pi.satisfies_jacobi()


def test_poisson_bracket_so3():
    pi = poisson_tensor(catalog("so3"))
    x1 = Polynomial.variable(0, 3)
    x2 = Polynomial.variable(1, 3)
    assert pi.bracket(x1, x2) == Polynomial.variable(2, 3)


def test_trace_operator_so3_is_minus_two_laplacian():
    d2 = trace_operator(catalog("so3"), 2)
    expected = {((0, 0),), ((1, 1),), ((2, 2),)}
    assert set(d2.terms) == {(0, 0), (1, 1), (2, 2)} or set(d2.terms) == {
        (0, 0),
        (1, 1),
        (2, 2),
    }
    for key in d2.terms:
        assert d2.terms[key] == Polynomial.constant(3, -2)


def test_trace_operator_aff1():
    d2 = trace_operator(catalog("aff1"), 2)
    assert d2.terms == {(0, 0): Polynomial.one(2)}
    d3 = trace_operator(catalog("aff1"), 3)
    assert d3.terms == {(0, 0, 0): Polynomial.one(2)}


def test_trace_operator_nilpotent_vanishes():
    for name in ["abelian3", "heis3", "filiform4"]:
        g = catalog(name)
        for r in range(2, 6):
            assert trace_operator(g, r).is_zero


def test_nilpotent_probe():
    assert is_nilpotent_probe(catalog("heis3"))
    assert is_nilpotent_probe(catalog("filiform4"))
    assert is_nilpotent_probe(catalog("abelian3"))
    assert not is_nilpotent_probe(catalog("so3"))
    assert not is_nilpotent_probe(catalog("sl2"))
    assert not is_nilpotent_probe(catalog("aff1"))


# [e1, e_j] = M e_j on the abelian ideal span(e2, e3, e4): solvable, not
# nilpotent, with a Jordan block and a fractional entry
SOLVABLE4 = (4, [(1, 2, 2, 1), (1, 3, 2, 1), (1, 3, 3, "1/2"), (1, 4, 4, -2)])
# [e1, e_i] = e_{i+1} for i = 2..4: nilpotent of class 4
FILIFORM5 = (5, [(1, 2, 3, 1), (1, 3, 4, 1), (1, 4, 5, 1)])


def _word_sum_trace_operator(g, r):
    """sum over ordered words (i1..ir) of Tr(ad_{e_i1} ... ad_{e_ir}),
    collected by multiset, with each prefix product computed once."""
    d = g.dim
    ad = [[[g.c[i][b][a] for b in range(d)] for a in range(d)] for i in range(d)]
    acc = {}

    def walk(word, prod):
        if len(word) == r:
            key = tuple(sorted(word))
            acc[key] = acc.get(key, Fraction(0)) + sum(prod[a][a] for a in range(d))
            return
        for i, m in enumerate(ad):
            walk(
                word + (i,),
                [[sum(prod[a][s] * m[s][b] for s in range(d)) for b in range(d)] for a in range(d)],
            )

    walk((), [[Fraction(int(a == b)) for b in range(d)] for a in range(d)])
    return {k: v for k, v in acc.items() if v}


def _lower_central_series_nilpotent(g):
    """g^1 = g, g^{k+1} = [g, g^k]; nilpotent iff the ranks reach 0."""
    d = g.dim

    def basis(vectors):
        rows, out = [list(v) for v in vectors], []
        for col in range(d):
            pivot = next((row for row in rows if row[col]), None)
            if pivot is None:
                continue
            rows.remove(pivot)
            out.append(pivot)
            rows = [[x - row[col] / pivot[col] * y for x, y in zip(row, pivot)] for row in rows]
        return out

    unit = [[Fraction(int(a == b)) for b in range(d)] for a in range(d)]
    term = unit
    while term:
        nxt = basis(g.bracket(x, y) for x in unit for y in term)
        if len(nxt) == len(term):
            return False
        term = nxt
    return True


@pytest.mark.parametrize("name", catalog_names() + ["solvable4"])
def test_trace_operator_equals_word_sum(name):
    g = algebra_from_brackets(*SOLVABLE4) if name == "solvable4" else catalog(name)
    for r in range(2, 6):
        terms = trace_operator(g, r).terms
        assert all(c.is_constant() for c in terms.values())
        assert {k: c.constant_term() for k, c in terms.items()} == _word_sum_trace_operator(g, r)


@pytest.mark.parametrize("name", catalog_names() + ["solvable4", "filiform5"])
def test_nilpotent_probe_matches_lower_central_series(name):
    extra = {"solvable4": SOLVABLE4, "filiform5": FILIFORM5}
    g = algebra_from_brackets(*extra[name]) if name in extra else catalog(name)
    assert is_nilpotent_probe(g) == _lower_central_series_nilpotent(g)
    if name == "filiform5":
        assert is_nilpotent_probe(g)


def test_readme_algebra_json_is_heis3():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"```json\n(.*?)\n```", readme, re.S).group(1)
    assert algebra_from_json(json.loads(block)) == catalog("heis3")


def test_json_round_trip(tmp_path):
    g = catalog("sl2")
    data = algebra_to_json(g)
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(data))
    g2 = algebra_from_json(json.loads(path.read_text()))
    assert g2.dim == g.dim
    assert g2.c == g.c


def test_json_fractions():
    data = {
        "dim": 2,
        "name": "half",
        "brackets": [[1, 2, 2, "1/2"]],
    }
    g = algebra_from_json(data)
    assert g.bracket_coeff(0, 1, 1) == Fraction(1, 2)


def test_adjoint_traces_match_c2_trace_term():
    # the coefficient of d_k d_l in D_2 is the sum of Tr(ad_{e_i} ad_{e_j})
    # over the ordered pairs (i, j) with multiset {k, l}; on so3
    # Tr(ad_1 ad_1) = -2
    for name in catalog_names():
        g = catalog(name)
        d = g.dim
        ad = [[[g.c[i][b][a] for b in range(d)] for a in range(d)] for i in range(d)]
        expected = {}
        for i, j in itertools.product(range(d), repeat=2):
            trace = sum(ad[i][a][b] * ad[j][b][a] for a in range(d) for b in range(d))
            key = tuple(sorted((i, j)))
            expected[key] = expected.get(key, 0) + trace
        d2 = trace_operator(g, 2)
        assert d2.is_constant_coefficient()
        got = {multi: coeff.constant_term() for multi, coeff in d2.terms.items()}
        assert got == {k: v for k, v in expected.items() if v}, name
    assert trace_operator(catalog("so3"), 2).terms[(0, 0)] == Polynomial.constant(3, -2)
