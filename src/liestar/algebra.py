"""Lie-algebra data: structure constants, validation, the linear Poisson
tensor, trace operators read off their symbols, and a catalog of named test
algebras.

Structure constants are stored densely as nested tuples of Fractions, indexed
0-based as c[i][j][k] for the coefficient of e_k in [e_i, e_j].  All inputs
and outputs at the JSON/text boundary are 1-based.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .operators import DiffOperator
from .poly import DimensionMismatch, Polynomial, as_fraction


class AntisymmetryViolation(ValueError):
    """C_ij^k != -C_ji^k; indices reported 1-based."""

    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"antisymmetry violated at (i,j,k)=({i},{j},{k})")
        self.indices = (i, j, k)


class JacobiViolation(ValueError):
    """Jacobi identity fails; indices reported 1-based."""

    def __init__(self, i: int, j: int, k: int, l: int):
        super().__init__(f"Jacobi identity violated at (i,j,k,l)=({i},{j},{k},{l})")
        self.indices = (i, j, k, l)


class AlgebraFormatError(ValueError):
    """Algebra JSON whose fields do not have the documented types."""


@dataclass(frozen=True)
class LieAlgebra:
    """Validated structure constants of a finite-dimensional Lie algebra."""

    dim: int
    c: tuple  # c[i][j][k], nested tuples of Fraction
    name: str | None = None
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # algebras key the PBW engines; hash the nested Fraction tuple once
        object.__setattr__(self, "_hash", hash((self.dim, self.c)))

    def __hash__(self):
        return self._hash

    def bracket_coeff(self, i: int, j: int, k: int) -> Fraction:
        return self.c[i][j][k]

    def bracket(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> list:
        """[X, Y] in coordinates."""
        d = self.dim
        out = [Fraction(0)] * d
        for i in range(d):
            if not x[i]:
                continue
            for j in range(d):
                if not y[j]:
                    continue
                for k in range(d):
                    out[k] += x[i] * y[j] * self.c[i][j][k]
        return out

    def __str__(self):
        return f"LieAlgebra({self.name or 'unnamed'}, dim={self.dim})"


class PoissonTensor:
    """Antisymmetric bivector with polynomial components pi^{ij}."""

    __slots__ = ("dim", "components")

    def __init__(self, dim: int, components: Mapping[tuple, Polynomial]):
        comps = {}
        for (i, j), p in components.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise DimensionMismatch(f"component index ({i},{j}) out of range")
            if p.dim != dim:
                raise DimensionMismatch("component has wrong dimension")
            if not p.is_zero:
                comps[(i, j)] = p
        for (i, j), p in comps.items():
            q = comps.get((j, i), Polynomial.zero(dim))
            if q != -p:
                raise ValueError(f"Poisson tensor not antisymmetric at ({i + 1},{j + 1})")
        for i in range(dim):
            if (i, i) in comps:
                raise ValueError("Poisson tensor has a nonzero diagonal component")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):
        raise AttributeError("PoissonTensor is immutable")

    def component(self, i: int, j: int) -> Polynomial:
        return self.components.get((i, j), Polynomial.zero(self.dim))

    @property
    def is_zero(self) -> bool:
        return not self.components

    def is_linear(self) -> bool:
        return all(p.is_linear_form() for p in self.components.values())

    def bracket(self, f: Polynomial, g: Polynomial) -> Polynomial:
        out = Polynomial.zero(self.dim)
        for (i, j), p in self.components.items():
            df = f.partial(i)
            if df.is_zero:
                continue
            dg = g.partial(j)
            if dg.is_zero:
                continue
            out = out + p * df * dg
        return out

    def jacobi_defects(self):
        """Polynomials sum_l (pi^{lk} d_l pi^{ij} + cyclic) for all i<j<k."""
        d = self.dim
        out = {}
        for i in range(d):
            for j in range(i + 1, d):
                for k in range(j + 1, d):
                    total = Polynomial.zero(d)
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        for l in range(d):
                            total = total + self.component(l, c) * self.component(a, b).partial(l)
                    out[(i, j, k)] = total
        return out

    def satisfies_jacobi(self) -> bool:
        return all(p.is_zero for p in self.jacobi_defects().values())


def validate_algebra(c, name: str | None = None) -> LieAlgebra:
    """Check shape, antisymmetry, and the Jacobi identity; return the algebra."""
    rows = list(c)
    d = len(rows)
    table = []
    for i, row in enumerate(rows):
        row = list(row)
        if len(row) != d:
            raise ValueError(f"structure constants are not cubical at index {i + 1}")
        cols = []
        for j, col in enumerate(row):
            col = [as_fraction(v) for v in col]
            if len(col) != d:
                raise ValueError(f"structure constants are not cubical at index ({i + 1},{j + 1})")
            cols.append(tuple(col))
        table.append(tuple(cols))
    table = tuple(table)

    for i in range(d):
        for j in range(d):
            for k in range(d):
                if table[i][j][k] != -table[j][i][k]:
                    raise AntisymmetryViolation(i + 1, j + 1, k + 1)
    # Jacobiator J_ijk^l = sum_m C_ij^m C_mk^l + C_jk^m C_mi^l + C_ki^m C_mj^l,
    # summed over the nonzero constants only: each product C_ab^m C_mz^l
    # is the first term at (a, b, z), the second at (z, a, b) and the
    # third at (b, z, a)
    nonzero = [(i, j, m, v) for i in range(d) for j in range(d) for m, v in enumerate(table[i][j]) if v]
    by_first: dict = {}
    for m, k, l, v in nonzero:
        by_first.setdefault(m, []).append((k, l, v))
    jacobiator: dict = {}
    for a, b, m, u in nonzero:
        for z, l, v in by_first.get(m, ()):
            for key in ((a, b, z, l), (z, a, b, l), (b, z, a, l)):
                jacobiator[key] = jacobiator.get(key, 0) + u * v
    violations = [key for key, total in jacobiator.items() if total]
    if violations:
        raise JacobiViolation(*(t + 1 for t in min(violations)))
    return LieAlgebra(dim=d, c=table, name=name)


def algebra_from_brackets(dim: int, brackets: Iterable[tuple], name: str | None = None) -> LieAlgebra:
    """Build from 1-based (i, j, k, coeff) entries with i < j; antisymmetric
    completion is implied."""
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, v in brackets:
        if not (1 <= i < j <= dim and 1 <= k <= dim):
            raise ValueError(f"bad bracket entry ({i},{j},{k})")
        v = as_fraction(v)
        c[i - 1][j - 1][k - 1] += v
        c[j - 1][i - 1][k - 1] -= v
    return validate_algebra(c, name=name)


def poisson_tensor(g: LieAlgebra) -> PoissonTensor:
    """Kirillov-Poisson tensor: pi^{ij} = sum_k C_ij^k x^k."""
    d = g.dim
    comps = {}
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            p = Polynomial(d, {
                tuple(1 if m == k else 0 for m in range(d)): g.c[i][j][k] for k in range(d)
            })
            if not p.is_zero:
                comps[(i, j)] = p
    tensor = PoissonTensor(d, comps)
    assert tensor.satisfies_jacobi()  # follows from the Jacobi identity for C
    return tensor


def _ad_xi(g: LieAlgebra) -> list:
    """ad_xi = sum_i xi_i ad_{e_i} as a d x d matrix of linear forms in xi:
    (ad_xi)^a_b = sum_i xi_i C_ib^a."""
    d = g.dim
    return [
        [Polynomial.linear([g.c[i][b][a] for i in range(d)], d) for b in range(d)]
        for a in range(d)
    ]


def _power_traces(g: LieAlgebra):
    """Tr(ad_xi^r) for r = 2, 3, ..., one matrix product per step."""
    d = g.dim
    zero = Polynomial.zero(d)
    ad = power = _ad_xi(g)
    while True:
        power = [
            [sum((power[a][t] * ad[t][b] for t in range(d)), zero) for b in range(d)]
            for a in range(d)
        ]
        yield sum((power[a][a] for a in range(d)), zero)


def trace_operator(g: LieAlgebra, r: int) -> DiffOperator:
    """Constant-coefficient operator D_r whose symbol is Tr(ad_xi^r).

    The r-th power of ad_xi takes r - 1 matrix products.  The coefficient of
    xi^a in the trace is the sum of Tr(ad_{e_{i1}} ... ad_{e_{ir}}) over the
    ordered words (i1..ir) with multiset a, and becomes the coefficient of
    the derivative d_a."""
    if r < 2:
        raise ValueError("trace operator requires r >= 2")
    return DiffOperator.from_symbol(next(itertools.islice(_power_traces(g), r - 2, None)))


def is_nilpotent_probe(g: LieAlgebra, rmax: int | None = None) -> bool:
    """True iff Tr(ad_xi^r) = 0 for 2 <= r <= rmax (default: the dimension d).

    Exact at the default: ad_xi xi = 0 leaves ad_xi at most d - 1 nonzero
    eigenvalues, and vanishing power sums p_2..p_d force them all to 0, so
    ad_xi is nilpotent for every xi (Engel).  Stops at the first nonzero
    trace."""
    rmax = g.dim if rmax is None else rmax
    return all(t.is_zero for _, t in zip(range(2, rmax + 1), _power_traces(g)))


_CATALOG_BRACKETS = {
    "abelian3": (3, []),
    "heis3": (3, [(1, 2, 3, 1)]),
    "so3": (3, [(1, 2, 3, 1), (2, 3, 1, 1), (1, 3, 2, -1)]),
    "sl2": (3, [(1, 2, 2, 2), (1, 3, 3, -2), (2, 3, 1, 1)]),
    "aff1": (2, [(1, 2, 2, 1)]),
    "filiform4": (4, [(1, 2, 3, 1), (1, 3, 4, 1)]),
}


def catalog(name: str) -> LieAlgebra:
    """Named test algebras: abelian3, heis3, so3, sl2, aff1, filiform4."""
    try:
        dim, brackets = _CATALOG_BRACKETS[name]
    except KeyError:
        raise KeyError(f"unknown algebra {name!r}; choose from {sorted(_CATALOG_BRACKETS)}")
    return algebra_from_brackets(dim, brackets, name=name)


def catalog_names() -> list:
    return sorted(_CATALOG_BRACKETS)


# -- JSON interchange --------------------------------------------------------
# {"dim": d, "name": str, "brackets": [[i, j, k, "p/q"], ...]} with i < j,
# 1-based indices, antisymmetric completion implied.  Brackets may also be
# given as {"i,j": {"k": "p/q"}}; algebra_to_json writes the list form.


def algebra_to_json(g: LieAlgebra) -> dict:
    brackets = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in range(g.dim):
                v = g.c[i][j][k]
                if v:
                    brackets.append([i + 1, j + 1, k + 1, str(v)])
    return {"dim": g.dim, "name": g.name, "brackets": brackets}


def algebra_from_json(data: dict) -> LieAlgebra:
    if not isinstance(data, dict):
        raise AlgebraFormatError("algebra JSON must be an object")
    if "dim" not in data:
        raise KeyError('algebra JSON has no "dim" field')
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise AlgebraFormatError(f'"dim" must be a nonnegative integer, not {dim!r}')
    entries = data.get("brackets", [])
    if isinstance(entries, dict):
        if not all(isinstance(row, dict) for row in entries.values()):
            raise AlgebraFormatError('"brackets" rows must map "k" to a coefficient')
        entries = [
            (*pair.split(","), k, v) for pair, row in entries.items() for k, v in row.items()
        ]
    if not isinstance(entries, list):
        raise AlgebraFormatError('"brackets" must be a list or an object')
    brackets = []
    for entry in entries:
        try:
            i, j, k, v = entry
            brackets.append((int(i), int(j), int(k), as_fraction(v)))
        except (TypeError, ValueError) as exc:
            raise AlgebraFormatError(f"bad bracket entry {entry!r}: {exc}") from exc
    return algebra_from_brackets(dim, brackets, name=data.get("name"))


def load_algebra(path: str) -> LieAlgebra:
    with open(path) as fh:
        return algebra_from_json(json.load(fh))


def save_algebra(g: LieAlgebra, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(algebra_to_json(g), fh, indent=2)
