"""Independent computations the benchmark checks liestar's outputs against.

Nothing here calls liestar.  Polynomials are plain dicts {exponent tuple:
Fraction}, and an algebra is given by its structure constants c[i][j][k],
the coefficient of e_k in [e_i, e_j].
"""

from __future__ import annotations

from fractions import Fraction


def padd(p: dict, q: dict, scale=1) -> dict:
    """p + scale * q."""
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def pmul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def pscale(p: dict, k) -> dict:
    return {e: c * k for e, c in p.items() if c * k}


def pderiv(p: dict, i: int) -> dict:
    out: dict = {}
    for e, c in p.items():
        if e[i]:
            low = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[low] = out.get(low, 0) + c * e[i]
    return {e: c for e, c in out.items() if c}


def pevaluate(p: dict, point) -> Fraction:
    total = Fraction(0)
    for e, c in p.items():
        v = Fraction(c)
        for x, k in zip(point, e):
            v *= Fraction(x) ** k
        total += v
    return total


def is_homogeneous(p: dict, degree: int) -> bool:
    return all(sum(e) == degree for e in p)


def variable(i: int, dim: int) -> dict:
    return {tuple(1 if m == i else 0 for m in range(dim)): Fraction(1)}


def poisson_component(c, i: int, j: int) -> dict:
    """pi^{ij} = sum_k C_ij^k x_k."""
    dim = len(c)
    out: dict = {}
    for k in range(dim):
        out = padd(out, variable(k, dim), c[i][j][k])
    return out


def poisson_bracket(c, f: dict, g: dict) -> dict:
    """{f, g} = sum_ij pi^{ij} d_i f d_j g."""
    dim = len(c)
    out: dict = {}
    for i in range(dim):
        df = pderiv(f, i)
        if not df:
            continue
        for j in range(dim):
            pij = poisson_component(c, i, j)
            if pij:
                out = padd(out, pmul(pij, pmul(df, pderiv(g, j))))
    return out


def adjoint_linear(c) -> list:
    """ad_xi as a matrix of linear forms in xi: (ad_xi)^a_b = sum_i xi_i C_ib^a."""
    dim = len(c)
    unit = [tuple(int(m == i) for m in range(dim)) for i in range(dim)]
    return [
        [{unit[i]: c[i][b][a] for i in range(dim) if c[i][b][a]} for b in range(dim)]
        for a in range(dim)
    ]


def _matmul_poly(x: list, y: list) -> list:
    dim = len(x)
    out = []
    for a in range(dim):
        row = []
        for b in range(dim):
            acc: dict = {}
            for m in range(dim):
                if x[a][m] and y[m][b]:
                    acc = padd(acc, pmul(x[a][m], y[m][b]))
            row.append(acc)
        out.append(row)
    return out


def trace_power_symbol(c, r: int) -> dict:
    """Tr(ad_xi^r) as a polynomial in xi, by r - 1 products of matrices of
    linear forms."""
    ad = adjoint_linear(c)
    power = ad
    for _ in range(r - 1):
        power = _matmul_poly(power, ad)
    out: dict = {}
    for a in range(len(c)):
        out = padd(out, power[a][a])
    return out


def trace_power_at(c, r: int, xi) -> Fraction:
    """Tr(ad_xi^r) at a rational point, by repeated matrix products."""
    dim = len(c)
    xi = [Fraction(v) for v in xi]
    ad = [[sum((xi[i] * c[i][b][a] for i in range(dim)), Fraction(0)) for b in range(dim)] for a in range(dim)]
    power = ad
    for _ in range(r - 1):
        power = [
            [sum((power[a][m] * ad[m][b] for m in range(dim)), Fraction(0)) for b in range(dim)]
            for a in range(dim)
        ]
    return sum((power[a][a] for a in range(dim)), Fraction(0))


def _rank(vectors: list) -> int:
    rows = [list(v) for v in vectors if any(v)]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                k = rows[r][col] / rows[rank][col]
                rows[r] = [a - k * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _basis(vectors: list) -> list:
    """A maximal independent subset of the vectors."""
    out: list = []
    for v in vectors:
        if _rank(out + [v]) > len(out):
            out.append(v)
    return out


def is_nilpotent(c) -> bool:
    """Lower central series g, [g, g], [g, [g, g]], ... reaches 0."""
    dim = len(c)
    span = [[Fraction(int(k == i)) for k in range(dim)] for i in range(dim)]
    for _ in range(dim + 1):
        if not span:
            return True
        brackets = [
            [sum((v[j] * c[i][j][k] for j in range(dim)), Fraction(0)) for k in range(dim)]
            for i in range(dim)
            for v in span
        ]
        nxt = _basis(brackets)
        if len(nxt) == len(span):
            return False
        span = nxt
    return not span
