"""Tests of the benchmark itself: each kind of correctness check fails on a
planted fault, inputs depend on the seed alone, and the metric names match
BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import liestar as ls  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, metric_units  # noqa: E402

CTX = {"algebras": {name: ls.catalog(name) for name in ls.catalog_names()}, "nproc": 2}
DIMS = {name: alg.dim for name, alg in CTX["algebras"].items()}


def problems_of(workload: str, prefixes: tuple, seed: int = 3) -> list:
    """Run one round of the workload's ops whose labels start with a prefix."""
    ops = [op for op in workloads.build(workload, seed, CTX) if op.label.startswith(prefixes)]
    assert ops
    tally = run.Tally()
    run.run_round(ls, ops, tally)
    assert tally.failed == 0, tally.errors
    return tally.problems


def patch_everywhere(monkeypatch, original, replacement) -> None:
    """Replace a function in every liestar module that holds it."""
    for name, module in list(sys.modules.items()):
        if name == "liestar" or name.startswith("liestar."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


def perturbed_seed_table():
    table = ORIGINAL_SEED_TABLE()
    wheel = ls.canonicalize(ls.wheel1_graph(2)).key
    table.set_exact(wheel, table.get(wheel).exact + Fraction(1, 100))
    return table


ORIGINAL_SEED_TABLE = ls.seed_table


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_on_the_seed_alone(workload):
    first = workloads.make_inputs(workload, 11, DIMS)
    assert first == workloads.make_inputs(workload, 11, DIMS)
    assert first != workloads.make_inputs(workload, 12, DIMS)


@pytest.mark.parametrize("workload", ("equivalence", "gutt"))
def test_checks_pass_on_the_program(workload):
    assert problems_of(workload, ("aff1:", "heis3:")) == []


def test_perturbed_w2_fails_the_rho_symbol_check(monkeypatch):
    # With w_2 perturbed in the one table both products read, the order-2
    # defect stays zero: the wheel term at order 2 is a Hochschild
    # coboundary that rho absorbs.  The symbol of rho_2 catches it.
    patch_everywhere(monkeypatch, ORIGINAL_SEED_TABLE, perturbed_seed_table)
    found = problems_of("equivalence", ("aff1:",))
    assert any("-(1/12) Tr(ad_xi^2)" in p for p in found), found


def test_w2_perturbed_on_one_side_makes_the_defect_nonzero(monkeypatch):
    original = ls.kontsevich_gutt_rho

    def rho_from_perturbed_table(algebra, order, table):
        return original(algebra, order, perturbed_seed_table())

    patch_everywhere(monkeypatch, original, rho_from_perturbed_table)
    found = problems_of("equivalence", ("aff1:",))
    assert any("rho(f *G g) != rho(f) *K rho(g)" in p for p in found), found


def test_changed_gutt_coefficient_fails_associativity(monkeypatch):
    original = ls.gutt_product

    def doubled_second_cochain(p, q, g, order=None):
        series = original(p, q, g, order)
        coeffs = list(series.coeffs)
        if len(coeffs) > 2:
            coeffs[2] = coeffs[2] * 2
        return ls.HSeries(series.dim, series.order, coeffs)

    patch_everywhere(monkeypatch, original, doubled_second_cochain)
    found = problems_of("gutt", ("so3:assoc",))
    assert found and all("associator is not zero" in p for p in found), found


def test_off_by_one_trace_operator_fails_the_operator_check(monkeypatch):
    original = ls.trace_operator
    patch_everywhere(monkeypatch, original, lambda g, r: original(g, r + 1))
    found = problems_of("operator", ("wheel", "aff1:rho"))
    assert any("aff1" in p for p in found), found


def test_wrong_nilpotency_verdict_fails_validate(monkeypatch):
    original = ls.algebra.is_nilpotent_probe
    patch_everywhere(monkeypatch, original, lambda g, rmax=6: original(g, rmax=1))
    found = problems_of("operator", ("so3:validate",))
    assert found == ["so3: validate says nilpotent=True, the lower central series disagrees"]


def small_estimate(original, shift_stderrs=0.0, seed_offset=None):
    """estimate_weight on fewer samples, optionally biased or made to depend
    on the worker count."""

    def estimate(g, samples, seed, blocks=32):
        if seed_offset:
            seed += seed_offset()
        est = original(g, 4000, seed, blocks)
        return dataclasses.replace(est, mean=est.mean + shift_stderrs * est.stderr)

    return estimate


def test_biased_union_estimates_fail_order3(monkeypatch):
    patch_everywhere(monkeypatch, ls.estimate_weight, small_estimate(ls.estimate_weight, 10.0))
    found = problems_of("order3", ("classes",))
    assert sum("union class" in p for p in found) >= 4, found


def test_unbiased_small_estimates_pass_order3(monkeypatch):
    patch_everywhere(monkeypatch, ls.estimate_weight, small_estimate(ls.estimate_weight))
    assert problems_of("order3", ("classes", "estimate:1-worker")) == []


def test_worker_dependent_estimates_fail_the_determinism_check(monkeypatch):
    worker_count = ls.weights.worker_count
    patched = small_estimate(ls.estimate_weight, seed_offset=worker_count)
    patch_everywhere(monkeypatch, ls.estimate_weight, patched)
    monkeypatch.setenv("STARFORGE_THREADS", "2")
    found = problems_of("order3", ("classes", "estimate:1-worker"))
    assert any("1 worker gives" in p for p in found), found


def test_traced_round_passes_its_checks_and_restores_the_library():
    before = ls.Polynomial.__mul__, ls.star.gutt_product
    tracer = Tracer()
    tracer.install()
    try:
        assert ls.star.gutt_product is not before[1]
        ops = [op for op in workloads.build("gutt", 3, CTX) if op.label.startswith("heis3:")]
        tally = run.Tally()
        run.run_round(ls, ops, tally, tracer)
    finally:
        tracer.uninstall()
    assert (ls.Polynomial.__mul__, ls.star.gutt_product) == before
    assert tally.problems == [] and tally.failed == 0
    assert tracer.calls["enveloping.gutt_product"] > 0
    assert tracer.calls["operators.extract"] == 3
    assert all(row[4] is None or row[4] < row[0] for row in tracer.span_rows())


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == metric_units()
    tally = run.Tally()
    tally.walls, tally.latencies = [1.0], {"op": [0.5]}
    e2e = run.end_to_end(0.25, tally)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in e2e.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_harrell_davis_median_is_a_smooth_median():
    assert run.harrell_davis_median([4.0]) == pytest.approx(4.0)
    assert run.harrell_davis_median([3.0, 1.0, 2.0]) == pytest.approx(2.0)
    assert run.harrell_davis_median([5.0] * 7) == pytest.approx(5.0)
    # unlike the plain median of an even count, it moves by less than either
    # middle value does
    base = run.harrell_davis_median([1, 2, 3, 4, 5, 6, 7, 8])
    moved = run.harrell_davis_median([1, 2, 3, 4.5, 5, 6, 7, 8])
    assert 4 < base < 5 and 0 < moved - base < 0.25


def test_op_p50_takes_each_operations_median_over_rounds():
    slow_first_round = {"a": [0.010, 0.001, 0.001], "b": [0.2, 0.01, 0.01], "c": [0.1, 0.1, 0.1]}
    assert run.op_p50_ms(slow_first_round) == pytest.approx(10.0)
