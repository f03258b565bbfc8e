"""Differential and bidifferential operators with polynomial coefficients.

Derivative multi-indices are unordered multisets of variable indices, stored
as sorted tuples, so operator keys are canonical and application order does
not matter.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add
from typing import Callable, Iterable, Mapping

from .poly import DimensionMismatch, HSeries, Polynomial, _sum_of_products, as_fraction

Multi = tuple  # sorted tuple of 0-based variable indices


def normalize_multi(multi: Iterable[int]) -> Multi:
    return tuple(sorted(multi))


def multi_counts(multi: Multi, dim: int) -> list:
    counts = [0] * dim
    for i in multi:
        counts[i] += 1
    return counts


def sub_multisets(multi: Multi, dim: int):
    """All sub-multisets A of `multi`, yielded with the complement B = multi - A."""
    counts = multi_counts(multi, dim)
    support = [i for i in range(dim) if counts[i]]
    ranges = [range(counts[i] + 1) for i in support]
    for picks in itertools.product(*ranges):
        a, b = [], []
        for i, k in zip(support, picks):
            a.extend([i] * k)
            b.extend([i] * (counts[i] - k))
        yield tuple(a), tuple(b)


def split_multiplicity(multi: Multi, part: Multi, dim: int) -> int:
    """Number of ways to pick the sub-multiset `part` out of `multi`."""
    cm = multi_counts(multi, dim)
    cp = multi_counts(part, dim)
    total = 1
    for i in range(dim):
        total *= math.comb(cm[i], cp[i])
    return total


def multi_factorial(multi: Multi, dim: int) -> int:
    return math.prod(math.factorial(c) for c in multi_counts(multi, dim))


def monomial_of_multi(multi: Multi, dim: int) -> Polynomial:
    exps = [0] * dim
    for i in multi:
        exps[i] += 1
    return Polynomial(dim, {tuple(exps): 1})


def all_multisets(dim: int, max_size: int):
    """All derivative multi-indices with 0 <= |J| <= max_size, by size."""
    for size in range(max_size + 1):
        yield from itertools.combinations_with_replacement(range(dim), size)


class DiffOperator:
    """Sum_J c_J(x) d_J with unordered multi-indices J and polynomial c_J."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[Multi, Polynomial] | None = None):
        clean = {}
        for multi, coeff in (terms or {}).items():
            multi = normalize_multi(multi)
            if any(not 0 <= i < dim for i in multi):
                raise DimensionMismatch(f"derivative index out of range in {multi}")
            if isinstance(coeff, (int, Fraction, str)):
                coeff = Polynomial.constant(dim, as_fraction(coeff))
            if coeff.dim != dim:
                raise DimensionMismatch("coefficient has wrong dimension")
            if not coeff.is_zero:
                clean[multi] = clean.get(multi, Polynomial.zero(dim)) + coeff
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", {k: v for k, v in clean.items() if not v.is_zero})

    def __setattr__(self, name, value):
        raise AttributeError("DiffOperator is immutable")

    @classmethod
    def zero(cls, dim: int) -> "DiffOperator":
        return cls(dim)

    @classmethod
    def identity(cls, dim: int) -> "DiffOperator":
        return cls(dim, {(): Polynomial.one(dim)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant_coefficient(self) -> bool:
        return all(c.is_constant() for c in self.terms.values())

    def apply(self, f):
        if isinstance(f, HSeries):
            return HSeries(f.dim, f.order, [self.apply(p) for p in f.coeffs])
        if f.dim != self.dim:
            raise DimensionMismatch("operand has wrong dimension")
        return _sum_of_products(
            self.dim, [(coeff, f.partial_multi(multi)) for multi, coeff in self.terms.items()]
        )

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        if self.dim != other.dim:
            raise DimensionMismatch("operators over different dimensions")
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, Polynomial.zero(self.dim)) + v
        return DiffOperator(self.dim, terms)

    def __neg__(self):
        return DiffOperator(self.dim, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        k = as_fraction(scalar)
        return DiffOperator(self.dim, {m: c * k for m, c in self.terms.items()})

    __rmul__ = __mul__

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """Operator product self o other (apply `other` first)."""
        if self.dim != other.dim:
            raise DimensionMismatch("operators over different dimensions")
        terms: dict = {}
        for j1, c1 in self.terms.items():
            for j2, c2 in other.terms.items():
                # d_{j1}(c2 d_{j2} f) by Leibniz over the multiset j1
                for a, b in sub_multisets(j1, self.dim):
                    coeff = c1 * c2.partial_multi(a) * split_multiplicity(j1, a, self.dim)
                    if coeff.is_zero:
                        continue
                    key = normalize_multi(b + j2)
                    terms[key] = terms.get(key, Polynomial.zero(self.dim)) + coeff
        return DiffOperator(self.dim, terms)

    @classmethod
    def from_symbol(cls, symbol: Polynomial) -> "DiffOperator":
        """Constant-coefficient operator with the given symbol: x^J -> d_J."""
        dim = symbol.dim
        return cls(dim, {
            tuple(i for i, e in enumerate(exps) for _ in range(e)): Polynomial.constant(dim, v)
            for exps, v in symbol.terms.items()
        })

    def symbol(self) -> Polynomial:
        """Polynomial symbol of a constant-coefficient operator: d_J -> x^J."""
        if not self.is_constant_coefficient():
            raise ValueError("symbol is defined for constant-coefficient operators only")
        out = Polynomial.zero(self.dim)
        for multi, coeff in self.terms.items():
            out = out + monomial_of_multi(multi, self.dim) * coeff.constant_term()
        return out

    def __eq__(self, other):
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset((k, hash(v)) for k, v in self.terms.items())))

    def __str__(self):
        if self.is_zero:
            return "0"
        bits = []
        for multi in sorted(self.terms, key=lambda m: (len(m), m)):
            ds = "".join(f"d{i + 1}" for i in multi) or "id"
            bits.append(f"({self.terms[multi]})*{ds}")
        return " + ".join(bits)

    def __repr__(self):
        return f"DiffOperator({self})"


class BiDiffOperator:
    """Sum_{I,J} c_{I,J}(x) d_I f d_J g, keys = pairs of derivative multisets."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[tuple, Polynomial] | None = None):
        clean: dict = {}
        for (mi, mj), coeff in (terms or {}).items():
            key = (normalize_multi(mi), normalize_multi(mj))
            if any(not 0 <= i < dim for m in key for i in m):
                raise DimensionMismatch(f"derivative index out of range in {key}")
            if isinstance(coeff, (int, Fraction, str)):
                coeff = Polynomial.constant(dim, as_fraction(coeff))
            if coeff.dim != dim:
                raise DimensionMismatch("coefficient has wrong dimension")
            if not coeff.is_zero:
                clean[key] = clean.get(key, Polynomial.zero(dim)) + coeff
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", {k: v for k, v in clean.items() if not v.is_zero})

    def __setattr__(self, name, value):
        raise AttributeError("BiDiffOperator is immutable")

    @classmethod
    def _trusted(cls, dim: int, terms: dict) -> "BiDiffOperator":
        """Wrap keys of two sorted in-range multi-indices with nonzero
        coefficients of dimension dim without checking them again."""
        self = object.__new__(cls)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def zero(cls, dim: int) -> "BiDiffOperator":
        return cls(dim)

    @classmethod
    def multiplication(cls, dim: int) -> "BiDiffOperator":
        return cls(dim, {((), ()): Polynomial.one(dim)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def apply(self, f: Polynomial, g: Polynomial) -> Polynomial:
        if f.dim != self.dim or g.dim != self.dim:
            raise DimensionMismatch("operand has wrong dimension")
        dfs: dict = {}
        dgs: dict = {}
        products = []
        for (mi, mj), coeff in self.terms.items():
            df = dfs.get(mi)
            if df is None:
                df = dfs[mi] = f.partial_multi(mi)
            if df.is_zero:
                continue
            dg = dgs.get(mj)
            if dg is None:
                dg = dgs[mj] = g.partial_multi(mj)
            if not dg.is_zero:
                products.append((coeff, df, dg))
        return _sum_of_products(self.dim, products)

    def __add__(self, other: "BiDiffOperator") -> "BiDiffOperator":
        if self.dim != other.dim:
            raise DimensionMismatch("operators over different dimensions")
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, Polynomial.zero(self.dim)) + v
        return BiDiffOperator(self.dim, terms)

    def __neg__(self):
        return BiDiffOperator(self.dim, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        k = as_fraction(scalar)
        return BiDiffOperator(self.dim, {m: c * k for m, c in self.terms.items()})

    __rmul__ = __mul__

    def compose_second(self, op: DiffOperator) -> "BiDiffOperator":
        """(f, g) -> self(f, op(g)) as a bidifferential operator."""
        if self.dim != op.dim:
            raise DimensionMismatch("operators over different dimensions")
        terms: dict = {}
        for (mi, mj), coeff in self.terms.items():
            chained = DiffOperator(self.dim, {mj: Polynomial.one(self.dim)}).compose(op)
            for mk, c2 in chained.terms.items():
                key = (mi, mk)
                add = coeff * c2
                terms[key] = terms.get(key, Polynomial.zero(self.dim)) + add
        return BiDiffOperator(self.dim, terms)

    def first_slot_linear_part(self) -> "BiDiffOperator":
        """Keys with exactly one derivative on the first argument."""
        return BiDiffOperator(self.dim, {k: v for k, v in self.terms.items() if len(k[0]) == 1})

    def __eq__(self, other):
        if not isinstance(other, BiDiffOperator):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __str__(self):
        if self.is_zero:
            return "0"
        bits = []
        for mi, mj in sorted(self.terms, key=lambda k: (len(k[0]) + len(k[1]), k)):
            di = "".join(f"d{i + 1}" for i in mi) or "id"
            dj = "".join(f"d{i + 1}" for i in mj) or "id"
            bits.append(f"({self.terms[(mi, mj)]})*{di}(x){dj}")
        return " + ".join(bits)

    def __repr__(self):
        return f"BiDiffOperator({self})"


def hochschild_coboundary(eta: DiffOperator) -> BiDiffOperator:
    """Hochschild coboundary (d eta)(f, g) = f*eta(g) - eta(f*g) + eta(f)*g."""
    dim = eta.dim
    terms: dict = {}
    for multi, coeff in eta.terms.items():
        if not multi:
            # eta acts by multiplication: (d eta)(f, g) = coeff * f * g
            key = ((), ())
            terms[key] = terms.get(key, Polynomial.zero(dim)) + coeff
            continue
        for a, b in sub_multisets(multi, dim):
            if not a or not b:
                continue  # the boundary splits cancel against f*eta(g) and eta(f)*g
            key = (a, b)
            add = coeff * (-split_multiplicity(multi, a, dim))
            terms[key] = terms.get(key, Polynomial.zero(dim)) + add
    return BiDiffOperator(dim, terms)


class ExtractionError(ValueError):
    """The sampled map is not a differential operator within the order bound."""


def _divided_monomials(dim: int, max_order: int) -> dict:
    """Each multi-index M with |M| <= max_order, by size, mapped to the
    exponent tuple of x^M and 1 / M!."""
    return {
        m: (tuple(multi_counts(m, dim)), Fraction(1, multi_factorial(m, dim)))
        for m in all_multisets(dim, max_order)
    }


def _subtract_shifted(value: dict, known: Polynomial, shift: tuple, scale: Fraction) -> None:
    """value -= scale * x^shift * known, on exponent tuples in place."""
    for exps, c in known.terms.items():
        e = tuple(map(add, exps, shift))
        value[e] = value.get(e, 0) - c * scale


def extract_diff_operator(
    func: Callable[[Polynomial], Polynomial],
    dim: int,
    max_order: int,
    verify_degree: int = 2,
) -> DiffOperator:
    """Recover the operator behind a linear map on polynomials.

    Applies `func` to divided monomials x^J / J! in order of increasing |J|
    and solves the triangular system for the coefficients: d_A x^J / J! is
    x^(J-A) / (J-A)!.  Raises ExtractionError if the reconstruction fails on
    probe monomials beyond `max_order` (operator order larger than the
    bound, or map not a differential operator at all).
    """
    divided = _divided_monomials(dim, max_order)
    coeffs: dict = {}
    for multi, (exps, inv) in divided.items():
        value = dict(func(Polynomial._trusted(dim, {exps: inv})).terms)
        for part, rest in sub_multisets(multi, dim):
            known = coeffs.get(part)  # None for part == multi, not solved yet
            if known is not None:
                _subtract_shifted(value, known, *divided[rest])
        value = {e: c for e, c in value.items() if c}
        if value:
            coeffs[multi] = Polynomial._trusted(dim, value)
    op = DiffOperator(dim, coeffs)
    for probe in all_multisets(dim, max_order + verify_degree):
        if len(probe) <= max_order:
            continue
        mono = monomial_of_multi(probe, dim)
        if op.apply(mono) != func(mono):
            raise ExtractionError(
                f"map is not a differential operator of order <= {max_order}"
            )
    return op


def extract_bidiff_operator(
    func: Callable[[Polynomial, Polynomial], Polynomial],
    dim: int,
    max_order: int,
) -> BiDiffOperator:
    """Bidifferential analogue of extract_diff_operator (same order bound per slot)."""
    divided = _divided_monomials(dim, max_order)
    probes = {m: Polynomial._trusted(dim, {exps: inv}) for m, (exps, inv) in divided.items()}
    splits = {m: list(sub_multisets(m, dim)) for m in divided}
    coeffs: dict = {}
    for mi in divided:
        for mj in divided:
            value = dict(func(probes[mi], probes[mj]).terms)
            for ai, bi in splits[mi]:
                for aj, bj in splits[mj]:
                    known = coeffs.get((ai, aj))  # None for (mi, mj), not solved yet
                    if known is None:
                        continue
                    (ei, si), (ej, sj) = divided[bi], divided[bj]
                    _subtract_shifted(value, known, tuple(map(add, ei, ej)), si * sj)
            value = {e: c for e, c in value.items() if c}
            if value:
                coeffs[(mi, mj)] = Polynomial._trusted(dim, value)
    return BiDiffOperator(dim, coeffs)
