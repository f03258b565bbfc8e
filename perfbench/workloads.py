"""The benchmark's four workloads, each a fixed sequence of operations.

An operation is one user-level call into liestar (one product, one rho, one
weight estimate, one equivalence trial, ...).  `run(state)` makes the call;
`check(out, state)` returns None when the output is right and a message
otherwise.  `state` lives for one round, as the objects of one CLI
invocation do.  Checks compare against `reference` (code that does not call
liestar) or against a property the mathematics forces, never against stored
output.

liestar functions are looked up on their module at call time, so the
wrappers of the traced run see every call.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import liestar as ls

import reference as ref

EQUIVALENCE_ALGEBRAS = ("so3", "sl2", "aff1", "heis3", "filiform4")
GUTT_ALGEBRAS = ("abelian3", "aff1", "filiform4", "heis3", "sl2", "so3")
ORDER3_ALGEBRAS = ("so3", "sl2", "heis3", "filiform4")
RHO_ORDERS = (("so3", 6), ("sl2", 6), ("aff1", 6), ("heis3", 4), ("filiform4", 4))
# filiform4 is left out: its nilpotency probe alone walks 4^6 words for about
# 18 s, which made one round fill a whole run and its median operation
# latency jump between neighbouring operations from run to run.
VALIDATE_ALGEBRAS = ("abelian3", "aff1", "heis3", "sl2", "so3")
NILPOTENT_HIGH_ORDER = ("heis3", "filiform4")

EQUIVALENCE_TRIALS = 6
ORDER3_SAMPLES = 40000
WHEEL_SAMPLES = 20000
WHEEL_ORDERS = (3, 4, 5, 6)
# An estimate may differ from the exact weight by this many standard errors.
SIGMA_BOUND = 5
# Union classes whose exact weight is 0 have an integrand that cancels to
# rounding error; their estimates and standard errors are both near 1e-18.
ROUNDING_FLOOR = 1e-12

COEFFICIENTS = tuple(Fraction(n, d) for n in (1, -1, 2, -2, 3) for d in (1, 2, 3))


@dataclass
class Op:
    label: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], "str | None"]
    # ops to run next, made from this op's output (the classes found decide
    # which weights are estimated)
    expand: "Callable[[object, dict], list] | None" = None


# -- inputs -------------------------------------------------------------------


def dense(rng: random.Random, dim: int, degree: int, homogeneous: bool = False, variables=None) -> dict:
    """Every monomial of degree <= degree (or == degree) in the given
    variables (default all), with a random nonzero coefficient.  Only the
    coefficients depend on the seed, so the cost barely does."""
    variables = range(dim) if variables is None else variables
    return {
        e: rng.choice(COEFFICIENTS)
        for e in itertools.product(range(degree + 1), repeat=dim)
        if (sum(e) == degree if homogeneous else sum(e) <= degree)
        and all(e[i] == 0 for i in range(dim) if i not in variables)
    }


def linear(rng: random.Random, dim: int) -> dict:
    return {tuple(int(m == i) for m in range(dim)): rng.choice(COEFFICIENTS) for i in range(dim)}


def point(rng: random.Random, dim: int) -> tuple:
    return tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(dim))


def make_inputs(workload: str, seed: int, dims: dict) -> dict:
    """All of a workload's inputs, as plain data, from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "equivalence":
        return {
            name: [(dense(rng, dims[name], 4), dense(rng, dims[name], 4)) for _ in range(EQUIVALENCE_TRIALS)]
            for name in EQUIVALENCE_ALGEBRAS
        }
    if workload == "gutt":
        out = {}
        for name in GUTT_ALGEBRAS:
            d = dims[name]
            first, last = (0, 1), (d - 2, d - 1)
            out[name] = {
                "triples": [tuple(dense(rng, d, 2) for _ in range(3)) for _ in range(3)],
                "x": linear(rng, d),
                "f": dense(rng, d, 3),
                # high-degree factors in two variables each; the two products
                # reach different PBW words
                "products": [
                    (dense(rng, d, 5, True, first), dense(rng, d, 6, True, last)),
                    (dense(rng, d, 5, True, last), dense(rng, d, 6, True, first)),
                ],
            }
        return out
    if workload == "order3":
        return {
            "mc_seed": rng.randrange(2**31),
            "determinism_pick": rng.randrange(2**31),
            "pairs": {
                name: [
                    (dense(rng, dims[name], 2, True), dense(rng, dims[name], 3, True)),
                    (dense(rng, dims[name], 3, True), dense(rng, dims[name], 3, True)),
                ]
                for name in ORDER3_ALGEBRAS
            },
        }
    if workload == "operator":
        return {
            "mc_seed": rng.randrange(2**31),
            "points": {name: [point(rng, dims[name]) for _ in range(3)] for name, _ in RHO_ORDERS},
        }
    raise ValueError(f"unknown workload {workload!r}")


# -- helpers ------------------------------------------------------------------


def _poly(dim: int, terms: dict):
    return ls.Polynomial(dim, terms)


def _bidiff_terms(op) -> dict:
    return {key: dict(p.terms) for key, p in op.terms.items()}


def _poisson_bidiff(c) -> dict:
    dim = len(c)
    out = {}
    for i in range(dim):
        for j in range(dim):
            comp = ref.poisson_component(c, i, j)
            if comp:
                out[((i,), (j,))] = comp
    return out


def _swapped(op) -> dict:
    return {(b, a): dict(p.terms) for (a, b), p in op.terms.items()}


def _algebra(state: dict, name: str):
    """The algebra as a CLI invocation resolves it, once per round."""
    key = ("algebra", name)
    if key not in state:
        state[key] = ls.catalog(name)
    return state[key]


def _same_estimate(memo: dict, label: str, est) -> "str | None":
    """MC estimates are deterministic in the seed: every round must repeat
    the first round's estimate bit for bit."""
    first = memo.setdefault(label, (est.mean, est.stderr))
    if first != (est.mean, est.stderr):
        return f"{label}: estimate changed between rounds: {first} then {(est.mean, est.stderr)}"
    if not (math.isfinite(est.mean) and math.isfinite(est.stderr) and est.stderr >= 0):
        return f"{label}: bad estimate {est}"
    return None


# -- equivalence --------------------------------------------------------------


def equivalence_ops(inputs: dict, ctx: dict) -> list:
    ops = []
    for name in EQUIVALENCE_ALGEBRAS:
        c = ctx["algebras"][name].c
        dim = len(c)

        def assemble(state, name=name):
            alg = _algebra(state, name)
            table = ls.seed_table()
            state[(name, "K")] = ls.assemble_kontsevich(ls.poisson_tensor(alg), 2, table)
            state[(name, "G")] = ls.GuttStarProduct(alg, 2)
            state[(name, "table")] = table
            return state[(name, "K")]

        def check_assemble(k, state, c=c, name=name):
            if _bidiff_terms(k.cochain(1)) != _poisson_bidiff(c):
                return f"{name}: Kontsevich C_1 is not the Poisson bivector"
            return None

        def rho(state, name=name):
            alg = _algebra(state, name)
            state[(name, "rho")] = ls.kontsevich_gutt_rho(alg, 2, state[(name, "table")])
            return state[(name, "rho")]

        def check_rho(r, state, c=c, name=name):
            want = ref.pscale(ref.trace_power_symbol(c, 2), Fraction(-1, 12))
            if dict(r.terms[2].symbol().terms) != want:
                return f"{name}: symbol of rho_2 is not -(1/12) Tr(ad_xi^2)"
            if not r.terms[1].is_zero:
                return f"{name}: rho_1 is not zero"
            if ref.is_nilpotent(c) and not r.is_identity:
                return f"{name}: rho is not the identity on a nilpotent algebra"
            return None

        ops.append(Op(f"{name}:assemble", assemble, check_assemble))
        ops.append(Op(f"{name}:rho", rho, check_rho))
        for k, (f, g) in enumerate(inputs[name]):

            def trial(state, name=name, f=_poly(dim, f), g=_poly(dim, g)):
                r, gutt, kont = state[(name, "rho")], state[(name, "G")], state[(name, "K")]
                lhs = r.apply_series(gutt.multiply(f, g))
                rhs = kont.multiply_series(r.apply(f), r.apply(g))
                return lhs - rhs

            def check_trial(defect, state, label=f"{name}:trial{k}"):
                return None if defect.is_zero else f"{label}: rho(f *G g) != rho(f) *K rho(g)"

            ops.append(Op(f"{name}:trial{k}", trial, check_trial))

        def normalize(state, name=name):
            return ls.weyl_normalize(state[(name, "K")])

        def check_normalize(out, state, name=name):
            closed = state[(name, "rho")]
            if any(out.terms[r] != closed.terms[r] for r in range(3)):
                return f"{name}: weyl_normalize differs from the closed-form rho"
            return None

        ops.append(Op(f"{name}:weyl_normalize", normalize, check_normalize))
    return ops


# -- gutt ---------------------------------------------------------------------


def gutt_ops(inputs: dict, ctx: dict) -> list:
    ops = []
    memo: dict = {}
    for name in GUTT_ALGEBRAS:
        c = ctx["algebras"][name].c
        dim = len(c)
        data = inputs[name]

        def star(state, name=name):
            key = (name, "star")
            if key not in state:
                state[key] = ls.GuttStarProduct(_algebra(state, name), 3)
            return state[key]

        for k, triple in enumerate(data["triples"]):

            def assoc(state, star=star, triple=tuple(_poly(dim, p) for p in triple)):
                return ls.associator_defect(star(state), *triple)

            def check_assoc(defect, state, label=f"{name}:assoc{k}"):
                return None if defect.is_zero else f"{label}: associator is not zero"

            ops.append(Op(f"{name}:assoc{k}", assoc, check_assoc))

        x = _poly(dim, data["x"])

        def weyl(state, star=star, x=x):
            return ls.weyl_defect(star(state), x, 6)

        def check_weyl(defects, state, name=name):
            return None if all(d.is_zero for d in defects) else f"{name}: x^(*k) != x^k"

        def covariance(state, star=star, name=name):
            return ls.covariance_defect(star(state), ls.poisson_tensor(_algebra(state, name)))

        def check_covariance(defect, state, name=name):
            return None if defect.is_zero else f"{name}: covariance defect is not zero"

        ops.append(Op(f"{name}:weyl", weyl, check_weyl))
        ops.append(Op(f"{name}:covariance", covariance, check_covariance))

        f = _poly(dim, data["f"])

        def linear_product(state, name=name, x=x, f=f):
            return ls.gutt_product(x, f, _algebra(state, name), order=5)

        def check_linear(series, state, name=name, x=x, f=f):
            key = (name, "linear")
            if key not in memo:
                alg = ctx["algebras"][name]
                memo[key] = [ls.gutt_linear_cochain(r, x, f, alg) for r in range(6)]
            for r, want in enumerate(memo[key]):
                if series.coefficient(r) != want:
                    return f"{name}: h^{r} of x * f differs from the Bernoulli closed form"
            if not (series.coefficient(3).is_zero and series.coefficient(5).is_zero):
                return f"{name}: odd h^3 or h^5 term of x * f is not zero"
            return None

        ops.append(Op(f"{name}:linear", linear_product, check_linear))

        for k, (p, q) in enumerate(data["products"]):

            def product(state, name=name, p=_poly(dim, p), q=_poly(dim, q)):
                return ls.gutt_product(p, q, _algebra(state, name))

            def check_product(series, state, c=c, p=p, q=q, label=f"{name}:product{k}"):
                if dict(series.coefficient(0).terms) != ref.pmul(p, q):
                    return f"{label}: h^0 is not the pointwise product"
                if dict(series.coefficient(1).terms) != ref.poisson_bracket(c, p, q):
                    return f"{label}: h^1 is not the Poisson bracket"
                for r in range(series.order + 1):
                    if not ref.is_homogeneous(dict(series.coefficient(r).terms), 11 - r):
                        return f"{label}: h^{r} is not homogeneous of degree {11 - r}"
                return None

            ops.append(Op(f"{name}:product{k}", product, check_product))

        for r in (1, 2, 3):

            def cochain(state, star=star, r=r):
                return star(state).cochain(r)

            def check_cochain(op, state, c=c, name=name, r=r):
                if _swapped(op) != _bidiff_terms(op * (-1) ** r):
                    return f"{name}: C_{r}(f, g) != (-1)^{r} C_{r}(g, f)"
                if r == 1 and _bidiff_terms(op) != _poisson_bidiff(c):
                    return f"{name}: Gutt C_1 is not the Poisson bivector"
                if r == 2 and name in NILPOTENT_HIGH_ORDER:
                    key = (name, "kontsevich C_2")
                    if key not in memo:
                        alg = ctx["algebras"][name]
                        memo[key] = ls.assemble_kontsevich(ls.poisson_tensor(alg), 2, ls.seed_table()).cochain(2)
                    if op != memo[key]:
                        return f"{name}: Gutt C_2 differs from Kontsevich C_2 on a nilpotent algebra"
                return None

            ops.append(Op(f"{name}:cochain{r}", cochain, check_cochain))
    return ops


# -- order3 -------------------------------------------------------------------


def order3_ops(inputs: dict, ctx: dict) -> list:
    mc_seed = inputs["mc_seed"]
    memo: dict = {}
    nproc = ctx["nproc"]

    def classes(state):
        out = ls.graphs.canonical_classes(ls.graphs.enumerate_graphs(3))
        state["classes"] = out
        return out

    def check_classes(out, state):
        total = sum(cls.symmetry_count for cls in out)
        return None if total == (3 * 4) ** 3 else f"symmetry counts of G_3 sum to {total}, not 1728"

    exact_table = ls.seed_table()

    def estimate_op(key: str) -> Op:
        def estimate(state):
            est = ls.estimate_weight(ls.parse_graph(key), ORDER3_SAMPLES, mc_seed)
            state.setdefault("estimates", []).append(est)
            return est

        def check_estimate(est, state):
            problem = _same_estimate(memo, f"estimate {key}", est)
            graph = ls.parse_graph(key)
            if problem or ls.classify(graph).kind != "union":
                return problem
            exact, _, _ = ls.factorized_weight(graph, exact_table)
            if abs(est.mean - float(exact)) > SIGMA_BOUND * est.stderr + ROUNDING_FLOOR:
                return f"union class {key}: estimate {est.mean} +- {est.stderr} is not near {exact}"
            return None

        return Op(f"estimate:{key}", estimate, check_estimate)

    def estimate_good_classes(classes, state) -> list:
        # as `liestar weights --n 3` does: one estimate per class that is not bad
        return [estimate_op(cls.key) for cls in classes if not cls.representative.is_bad()]

    ops = [Op("classes", classes, check_classes, expand=estimate_good_classes)]

    def single_worker(state):
        est = state["estimates"][inputs["determinism_pick"] % len(state["estimates"])]
        saved = os.environ.get("STARFORGE_THREADS")
        os.environ["STARFORGE_THREADS"] = "1"
        try:
            return ls.estimate_weight(ls.parse_graph(est.graph), ORDER3_SAMPLES, mc_seed)
        finally:
            if saved is None:
                del os.environ["STARFORGE_THREADS"]
            else:
                os.environ["STARFORGE_THREADS"] = saved

    def check_single_worker(est, state):
        other = state["estimates"][inputs["determinism_pick"] % len(state["estimates"])]
        if (est.mean, est.stderr) != (other.mean, other.stderr):
            return (
                f"{est.graph}: 1 worker gives {est.mean}, {nproc} workers give {other.mean}"
            )
        return None

    ops.append(Op("estimate:1-worker", single_worker, check_single_worker))

    for name in ORDER3_ALGEBRAS:
        c = ctx["algebras"][name].c
        dim = len(c)

        def assemble(state, name=name):
            table = ls.seed_table()
            for est in state["estimates"]:
                table.add_estimate(est)
            table = table.merge(ls.seed_table())
            pi = ls.poisson_tensor(_algebra(state, name))
            state[(name, "K")] = ls.assemble_kontsevich(pi, 3, table)
            return state[(name, "K")]

        def check_assemble(k, state, c=c, name=name):
            if _bidiff_terms(k.cochain(1)) != _poisson_bidiff(c):
                return f"{name}: order-3 Kontsevich C_1 is not the Poisson bivector"
            return None

        ops.append(Op(f"{name}:assemble", assemble, check_assemble))
        for k, (f, g) in enumerate(inputs["pairs"][name]):
            fp, gp = _poly(dim, f), _poly(dim, g)

            def product(state, name=name, fp=fp, gp=gp):
                return state[(name, "K")].multiply(fp, gp)

            def check_product(series, state, name=name, fp=fp, gp=gp, label=f"{name}:product{k}"):
                total = fp.degree() + gp.degree()
                for r in range(4):
                    if not ref.is_homogeneous(dict(series.coefficient(r).terms), total - r):
                        return f"{label}: h^{r} is not homogeneous of degree {total - r}"
                if name not in NILPOTENT_HIGH_ORDER:
                    return None
                if label not in memo:
                    memo[label] = _gutt_and_tolerance(ctx["algebras"][name], fp, gp, state)
                gutt, tolerance = memo[label]
                for r in range(3):
                    if series.coefficient(r) != gutt.coefficient(r):
                        return f"{label}: exact h^{r} differs from Gutt's"
                diff = ref.padd(dict(series.coefficient(3).terms), dict(gutt.coefficient(3).terms), -1)
                for mono, value in diff.items():
                    if abs(float(value)) > tolerance.get(mono, 0.0):
                        return f"{label}: h^3 differs from Gutt's at {mono} by {float(value)}, allowed {tolerance.get(mono, 0.0)}"
                return None

            ops.append(Op(f"{name}:product{k}", product, check_product))
    return ops


def _gutt_and_tolerance(alg, f, g, state) -> tuple:
    """Gutt's product, and per monomial of the h^3 term the error that the
    weight estimates allow: the sum over good classes of
    symmetry_count * max(SIGMA_BOUND * stderr, ROUNDING_FLOOR) * |B_G(f, g)|."""
    pi = ls.poisson_tensor(alg)
    stderr = {est.graph: est.stderr for est in state["estimates"]}
    tolerance: dict = {}
    for cls in state["classes"]:
        rep = cls.representative
        if rep.is_bad():
            continue
        allowed = cls.symmetry_count * max(SIGMA_BOUND * stderr[cls.key], ROUNDING_FLOOR)
        for mono, value in ls.graphs.bidiff_of_graph(rep, pi).apply(f, g).terms.items():
            tolerance[mono] = tolerance.get(mono, 0.0) + allowed * abs(float(value))
    return ls.gutt_product(f, g, alg, order=3), tolerance


# -- operator -----------------------------------------------------------------


def operator_ops(inputs: dict, ctx: dict) -> list:
    mc_seed = inputs["mc_seed"]
    memo: dict = {}
    ops = []
    for r in WHEEL_ORDERS:
        text = ls.wheel1_graph(r).encode()

        def wheel(state, text=text, r=r):
            est = ls.estimate_weight(ls.parse_graph(text), WHEEL_SAMPLES, mc_seed)
            state.setdefault("wheels", {})[r] = est
            return est

        def check_wheel(est, state, text=text):
            problem = _same_estimate(memo, f"wheel {text}", est)
            return problem or (None if est.samples == WHEEL_SAMPLES else f"{text}: wrong sample count")

        ops.append(Op(f"wheel{r}", wheel, check_wheel))

    for name, order in RHO_ORDERS:
        c = ctx["algebras"][name].c
        points = inputs["points"][name]

        def rho(state, name=name, order=order):
            table = ls.seed_table()
            for est in state["wheels"].values():
                table.add_estimate(est)
            table = table.merge(ls.seed_table())
            return ls.kontsevich_gutt_rho(_algebra(state, name), order, table)

        def check_rho(out, state, c=c, name=name, order=order, points=points):
            wheel = {2: Fraction(-1, 48)}
            wheel.update({r: Fraction(est.mean) for r, est in state["wheels"].items()})
            exponent = {}
            for r, coeff, op in out.exponent:
                if coeff != 2**r * math.factorial(r - 1) * wheel[r]:
                    return f"{name}: exponent coefficient at r={r} is not 2^r (r-1)! w_r"
                symbol = dict(op.symbol().terms)
                for xi in points:
                    if ref.pevaluate(symbol, xi) != ref.trace_power_at(c, r, xi):
                        return f"{name}: symbol of D_{r} at {xi} is not Tr(ad_xi^{r})"
                exponent[r] = ref.pscale(symbol, coeff)
            for r in range(2, order + 1):
                if r not in exponent and any(ref.trace_power_at(c, r, xi) for xi in points):
                    return f"{name}: D_{r} is missing but Tr(ad_xi^{r}) is not zero"
            if name in ("so3", "sl2") and (3 in exponent or 5 in exponent):
                return f"{name}: D_3 or D_5 does not vanish"
            symbols = [dict(out.terms[r].symbol().terms) for r in range(order + 1)]
            for r in range(1, order + 1):
                rhs: dict = {}
                for a, e_a in exponent.items():
                    if a <= r:
                        rhs = ref.padd(rhs, ref.pmul(e_a, symbols[r - a]), a)
                if ref.pscale(symbols[r], r) != rhs:
                    return f"{name}: r rho_r != sum_a a e_a rho_(r-a) at r={r}"
            if ref.is_nilpotent(c) and not out.is_identity:
                return f"{name}: rho is not the identity on a nilpotent algebra"
            return None

        ops.append(Op(f"{name}:rho{order}", rho, check_rho))

    for name in VALIDATE_ALGEBRAS:
        c = ctx["algebras"][name].c

        def validate(state, name=name):
            alg = ls.catalog(name)
            ls.poisson_tensor(alg)
            return ls.algebra.is_nilpotent_probe(alg)

        def check_validate(verdict, state, c=c, name=name):
            if verdict != ref.is_nilpotent(c):
                return f"{name}: validate says nilpotent={verdict}, the lower central series disagrees"
            return None

        ops.append(Op(f"{name}:validate", validate, check_validate))
    return ops


OP_LISTS = {
    "equivalence": equivalence_ops,
    "gutt": gutt_ops,
    "order3": order3_ops,
    "operator": operator_ops,
}
WORKLOADS = tuple(OP_LISTS)


def build(workload: str, seed: int, ctx: dict) -> list:
    dims = {name: alg.dim for name, alg in ctx["algebras"].items()}
    return OP_LISTS[workload](make_inputs(workload, seed, dims), ctx)
