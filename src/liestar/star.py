"""Star products and the equivalence operator between them.

Builds the graph-weighted product from canonical graph classes, wraps the
enveloping-algebra product behind the same interface, solves the
normalization recurrence that makes a product Weyl, and constructs the
closed-form equivalence exponential from wheel weights and trace operators.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import LieAlgebra, PoissonTensor, poisson_tensor, trace_operator
from .enveloping import gutt_product
from .graphs import bidiff_of_graph, good_classes, has_internal_cycle, wheel1_graph
from .operators import (
    BiDiffOperator,
    DiffOperator,
    extract_bidiff_operator,
    normalize_multi,
)
from .poly import HSeries, Polynomial
from .weights import (
    PROVENANCE_ESTIMATED,
    WeightTable,
    factorized_weight,
    table_weight,
)

EXACT = "exact"
ESTIMATED = "estimated"


class StarProductError(ValueError):
    pass


class StarProduct:
    """Bilinear product f, g -> formal series; subclasses provide the
    per-order cochains."""

    dim: int
    order: int

    def cochain(self, r: int) -> BiDiffOperator:
        raise NotImplementedError

    def order_provenance(self, r: int) -> str:
        return EXACT

    def multiply(self, f: Polynomial, g: Polynomial) -> HSeries:
        if f.dim != self.dim or g.dim != self.dim:
            raise StarProductError("dimension mismatch")
        return HSeries(self.dim, self.order, self._multiply_to(f, g, self.order))

    def _multiply_to(self, f: Polynomial, g: Polynomial, k: int) -> list:
        """The h^0..h^k coefficients of f * g."""
        return [self.cochain(r).apply(f, g) for r in range(k + 1)]

    def multiply_series(self, a: HSeries, b: HSeries) -> HSeries:
        if a.dim != self.dim or b.dim != self.dim:
            raise StarProductError("dimension mismatch")
        n = min(self.order, a.order, b.order)
        coeffs = [Polynomial.zero(self.dim) for _ in range(n + 1)]
        for i, f in enumerate(a.coeffs[: n + 1]):
            if f.is_zero:
                continue
            for j, g in enumerate(b.coeffs[: n + 1 - i]):
                if g.is_zero:
                    continue
                # h^(i+j) f * g contributes up to h^n only through h^(n-i-j)
                for r, p in enumerate(self._multiply_to(f, g, n - i - j), i + j):
                    coeffs[r] = coeffs[r] + p
        return HSeries(self.dim, n, coeffs)


class CochainStarProduct(StarProduct):
    def __init__(self, cochains, provenance=None):
        if not cochains:
            raise StarProductError("need at least the order-0 cochain")
        self.dim = cochains[0].dim
        self.order = len(cochains) - 1
        self.cochains = tuple(cochains)
        self.provenance = tuple(provenance or [EXACT] * len(cochains))

    def cochain(self, r: int) -> BiDiffOperator:
        return self.cochains[r]

    def order_provenance(self, r: int) -> str:
        return self.provenance[r]


class GuttStarProduct(StarProduct):
    """Enveloping-algebra product truncated at a fixed series order."""

    def __init__(self, algebra: LieAlgebra, order: int):
        self.algebra = algebra
        self.dim = algebra.dim
        self.order = order
        self._cochains: dict = {}

    def multiply(self, f: Polynomial, g: Polynomial) -> HSeries:
        if f.dim != self.dim or g.dim != self.dim:
            raise StarProductError("dimension mismatch")
        return gutt_product(f, g, self.algebra, order=self.order)

    def _multiply_to(self, f: Polynomial, g: Polynomial, k: int) -> list:
        return list(gutt_product(f, g, self.algebra, order=k).coeffs)

    def cochain(self, r: int) -> BiDiffOperator:
        if r not in self._cochains:
            alg = self.algebra

            def component(f, g, _r=r):
                return gutt_product(f, g, alg, order=_r).coefficient(_r)

            self._cochains[r] = extract_bidiff_operator(component, self.dim, r)
        return self._cochains[r]


def _class_weight(rep, table: WeightTable):
    """(value, stderr, provenance) of a good class, or None: the product of
    its components' weights when they are all exact, else its table entry,
    else the product of estimated component weights."""
    factored = None
    if rep.n >= 2:
        try:
            factored = factorized_weight(rep, table)
        except (ValueError, KeyError):  # indecomposable, or a component has no weight
            pass
    if factored is not None and factored[2] != PROVENANCE_ESTIMATED:
        return factored
    return table_weight(rep, table) or factored


def assemble_kontsevich(
    pi: PoissonTensor,
    order: int,
    table: WeightTable,
    include_wheels: bool = True,
) -> CochainStarProduct:
    """Graph-weighted star product: C_r sums symmetry_count * weight *
    operator over the canonical classes with r internal vertices."""
    cochains = [BiDiffOperator.multiplication(pi.dim)]
    provenance = [EXACT]
    for r in range(1, order + 1):
        total = BiDiffOperator.zero(pi.dim)
        tag = EXACT
        for cls in good_classes(r):
            rep = cls.representative
            if not include_wheels and has_internal_cycle(rep):
                continue
            looked = _class_weight(rep, table)
            if looked is None:
                raise StarProductError(f"missing weight for class {cls.key}")
            w, _, prov = looked
            if prov == PROVENANCE_ESTIMATED:
                tag = ESTIMATED
            if w == 0:
                continue
            op = bidiff_of_graph(rep, pi)
            total = total + op * (w * cls.symmetry_count)
        cochains.append(total)
        provenance.append(tag)
    return CochainStarProduct(cochains, provenance)


# -- defects ------------------------------------------------------------------


def associator_defect(s: StarProduct, f: Polynomial, g: Polynomial, h: Polynomial) -> HSeries:
    left = s.multiply_series(s.multiply(f, g), HSeries.from_polynomial(h, s.order))
    right = s.multiply_series(HSeries.from_polynomial(f, s.order), s.multiply(g, h))
    return left - right


def covariance_defect(s: StarProduct, pi: PoissonTensor) -> HSeries:
    """Worst defect of X*Y - Y*X - 2hbar {X,Y} over basis pairs."""
    if not pi.is_linear():
        raise StarProductError("covariance needs a linear Poisson structure")
    worst = HSeries.zero(s.dim, s.order)
    worst_size = -1
    for i in range(s.dim):
        xi = Polynomial.variable(i, s.dim)
        for j in range(i + 1, s.dim):
            xj = Polynomial.variable(j, s.dim)
            defect = s.multiply(xi, xj) - s.multiply(xj, xi)
            defect = defect - HSeries.from_polynomial(pi.component(i, j) * 2, s.order).shift(1)
            size = sum(len(c.terms) for c in defect.coeffs)
            if size > worst_size:
                worst, worst_size = defect, size
    return worst


def star_power(s: StarProduct, x: Polynomial, k: int) -> HSeries:
    out = HSeries.from_polynomial(Polynomial.one(s.dim), s.order)
    for _ in range(k):
        out = s.multiply_series(out, HSeries.from_polynomial(x, s.order))
    return out


def weyl_defect(s: StarProduct, x: Polynomial, kmax: int) -> list:
    """X^{*k} - X^k for k = 0..kmax."""
    out = []
    for k in range(kmax + 1):
        out.append(star_power(s, x, k) - HSeries.from_polynomial(x**k, s.order))
    return out


# -- normalization recurrence -------------------------------------------------


class EtaError(ValueError):
    pass


def eta_from_bidiff(phi: BiDiffOperator) -> DiffOperator:
    """The operator eta with coboundary matching phi on powers of a linear
    form: eta = -sum over (i, J) of phi^{i,J}/(1 + |J|) applied as one
    derivative batch."""
    terms: dict = {}
    for (first, second), coeff in phi.terms.items():
        if coeff.is_zero:
            continue
        if len(first) != 1:
            raise EtaError(
                f"first-slot derivative order {len(first)} is not 1 for key {(first, second)}"
            )
        multi = normalize_multi(first + second)
        scale = Fraction(-1, 1 + len(second))
        prev = terms.get(multi, Polynomial.zero(phi.dim))
        terms[multi] = prev + coeff * scale
    return DiffOperator(phi.dim, terms)


@dataclass(frozen=True)
class EquivalenceOperator:
    """Formal series of differential operators with identity leading term."""

    dim: int
    order: int
    terms: tuple  # DiffOperator for each series order
    exponent: tuple = ()  # (r, coefficient, trace operator) triples
    provenance: tuple = field(default=())

    def __post_init__(self):
        if len(self.terms) != self.order + 1:
            raise StarProductError("wrong number of operator terms")

    def term_provenance(self, r: int) -> str:
        if not self.provenance:
            return EXACT
        return self.provenance[r]

    @property
    def is_identity(self) -> bool:
        return all(self.terms[r].is_zero for r in range(1, self.order + 1))

    def apply(self, f: Polynomial) -> HSeries:
        coeffs = [self.terms[r].apply(f) for r in range(self.order + 1)]
        return HSeries(self.dim, self.order, coeffs)

    def apply_series(self, a: HSeries) -> HSeries:
        n = min(self.order, a.order)
        coeffs = [Polynomial.zero(self.dim) for _ in range(n + 1)]
        for i in range(n + 1):
            for r in range(n + 1 - i):
                coeffs[i + r] = coeffs[i + r] + self.terms[r].apply(a.coefficient(i))
        return HSeries(self.dim, n, coeffs)

    @classmethod
    def identity(cls, dim: int, order: int) -> "EquivalenceOperator":
        terms = [DiffOperator.identity(dim)]
        terms += [DiffOperator.zero(dim) for _ in range(order)]
        return cls(dim, order, tuple(terms))


def weyl_normalize(s: StarProduct, probe_orders: int = 2) -> EquivalenceOperator:
    """Solve order by order for the operator sending a product to Weyl form.

    At each order the defect cochain, restricted to a linear first slot,
    feeds eta_from_bidiff; the recurrence mirrors rho(X^k) = X^{*k}."""
    dim, order = s.dim, s.order
    rho = [DiffOperator.identity(dim)]
    for r in range(1, order + 1):
        phi = s.cochain(r)
        for b in range(1, r):
            phi = phi + s.cochain(r - b).compose_second(rho[b])
        try:
            eta = eta_from_bidiff(phi.first_slot_linear_part())
        except EtaError as exc:
            raise StarProductError(f"normalization failed at order {r}: {exc}") from exc
        rho.append(-eta)
    out = EquivalenceOperator(dim, order, tuple(rho))
    _check_weyl(s, out, kmax=order + probe_orders)
    return out


def _check_weyl(s: StarProduct, rho: EquivalenceOperator, kmax: int):
    rng = random.Random(20240)
    pool = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(-1, 3)]
    for _ in range(3):
        x = Polynomial.zero(s.dim)
        for i in range(s.dim):
            x = x + Polynomial.variable(i, s.dim) * rng.choice(pool)
        for k in range(kmax + 1):
            lhs = rho.apply(x**k)
            rhs = star_power(s, x, k)
            if not (lhs - rhs).is_zero:
                raise StarProductError(
                    f"normalized operator fails on power {k} of a linear form"
                )


# -- closed-form equivalence --------------------------------------------------


def kontsevich_gutt_rho(
    algebra: LieAlgebra, order: int, table: WeightTable
) -> EquivalenceOperator:
    """Equivalence operator exp(sum over r >= 2 of h^r 2^r (r-1)! w_r D_r)
    with w_r the one-spoke wheel weight and D_r the order-r trace operator.

    The D_r have constant coefficients, so they compose by multiplying their
    symbols: the exponential is taken of the h-series of symbols S and each
    h^n coefficient is read back as an operator.  h^n is estimated when n is
    a sum of loaded orders of which one has an estimated weight."""
    dim = algebra.dim
    exponent = []
    estimated = set()
    symbols = [Polynomial.zero(dim)] * (order + 1)
    for r in range(2, order + 1):
        d_r = trace_operator(algebra, r)
        if d_r.is_zero:
            continue
        looked = table_weight(wheel1_graph(r), table)
        if looked is None:
            raise StarProductError(f"missing wheel weight at order {r}")
        w, _, prov = looked
        coeff = Fraction(2**r * math.factorial(r - 1)) * w
        if coeff == 0:
            continue
        exponent.append((r, coeff, d_r))
        symbols[r] = d_r.symbol() * coeff
        if prov == PROVENANCE_ESTIMATED:
            estimated.add(r)
    s = HSeries(dim, order, symbols)
    power = total = HSeries.from_polynomial(Polynomial.one(dim), order)
    for k in range(1, order // 2 + 1):  # S starts at h^2
        power = power * s * Fraction(1, k)
        total = total + power
    # reachable[n]: n is a sum of loaded orders; tainted[n]: one such sum
    # uses an estimated order
    reachable = [True] + [False] * order
    tainted = [False] * (order + 1)
    for n in range(1, order + 1):
        for r, _, _ in exponent:
            if r <= n and reachable[n - r]:
                reachable[n] = True
                tainted[n] = tainted[n] or tainted[n - r] or r in estimated
    return EquivalenceOperator(
        dim,
        order,
        tuple(DiffOperator.from_symbol(p) for p in total.coeffs),
        tuple(exponent),
        tuple(ESTIMATED if t else EXACT for t in tainted),
    )


def random_polynomial(dim: int, degree: int, rng: random.Random) -> Polynomial:
    pool = [
        Fraction(0),
        Fraction(1),
        Fraction(-1),
        Fraction(1, 2),
        Fraction(-1, 2),
        Fraction(2),
        Fraction(1, 3),
    ]
    out = Polynomial.zero(dim)
    for exps in itertools.product(range(degree + 1), repeat=dim):
        if sum(exps) > degree:
            continue
        c = rng.choice(pool)
        if c:
            out = out + Polynomial(dim, {exps: c})
    return out


def verify_equivalence(
    algebra: LieAlgebra,
    order: int,
    table: WeightTable,
    trials: int = 10,
    degree: int = 4,
    seed: int = 7,
) -> dict:
    """Check rho(f *G g) = rho(f) *K rho(g) on random polynomials and
    cross-validate the closed-form operator against the normalization
    recurrence."""
    pi = poisson_tensor(algebra)
    kontsevich = assemble_kontsevich(pi, order, table)
    gutt = GuttStarProduct(algebra, order)
    rho = kontsevich_gutt_rho(algebra, order, table)
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        f = random_polynomial(algebra.dim, degree, rng)
        g = random_polynomial(algebra.dim, degree, rng)
        lhs = rho.apply_series(gutt.multiply(f, g))
        rhs = kontsevich.multiply_series(rho.apply(f), rho.apply(g))
        defect = lhs - rhs
        if not defect.is_zero:
            failures.append({"trial": trial, "defect": str(defect)})
    normalized = weyl_normalize(kontsevich)
    rho_match = all(
        normalized.terms[r] == rho.terms[r] for r in range(order + 1)
    )
    estimated = any(
        rho.term_provenance(r) == ESTIMATED for r in range(order + 1)
    ) or any(kontsevich.order_provenance(r) == ESTIMATED for r in range(order + 1))
    return {
        "algebra": algebra.name,
        "order": order,
        "trials": trials,
        "degree": degree,
        "seed": seed,
        "failures": failures,
        "defect_free": not failures,
        "rho_matches_normalization": rho_match,
        "rho_identity": rho.is_identity,
        "provenance": ESTIMATED if estimated else EXACT,
    }
