"""Run one benchmark workload of liestar and print its metrics.

    python3 perfbench/run.py --workload gutt --seed 1 --seconds 32 --trace 0

The workload's operations run in whole rounds while the next round, taking
as long as the last, would end within --seconds (at least one round).  Each
round starts with liestar's process-wide caches emptied, as a new CLI
invocation would, and with a garbage collection outside the timed region.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  The full result (and, when traced, the spans) goes to perfbench/out/.

--trace 1 first runs untraced rounds for half the time, then traced rounds
for the rest, at least two of each; `trace.overhead_s` is the difference of
their median round times.  End-to-end figures come only from --trace 0.

Exits with 2, printing no result, when liestar's sources are not in the
checkout.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NPROC = len(os.sched_getaffinity(0))


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_liestar():
    package = ROOT / "src" / "liestar"
    if not (package / "__init__.py").is_file():
        _fail(f"no liestar sources under {package.relative_to(ROOT)}")
    # MC runs at most one worker thread per CPU this process may use, and
    # each worker's linear algebra stays on its own thread.
    os.environ["STARFORGE_THREADS"] = str(NPROC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import liestar

    if Path(liestar.__file__).resolve().parent != package.resolve():
        _fail(f"imported liestar from {liestar.__file__}, not from the checkout")
    return liestar


def reset_caches(liestar) -> None:
    """Empty the caches a fresh process starts without: the PBW engines and
    every functools cache of the package."""
    engines = getattr(liestar.enveloping, "_ENGINES", None)
    if isinstance(engines, dict):
        engines.clear()
    for name, module in list(sys.modules.items()):
        if name == "liestar" or name.startswith("liestar."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.errors: list = []
        self.latencies: dict = {}
        self.walls: list = []
        self.cpus: list = []
        self.engine: dict | None = {}


def run_round(liestar, ops, tally: Tally, tracer=None) -> None:
    from tracer import engine_cache_sizes

    reset_caches(liestar)
    gc.collect()
    state: dict = {}
    queue = list(ops)
    wall = cpu = 0.0
    while queue:
        op = queue.pop(0)
        tally.attempted += 1
        if tracer:
            tracer.begin(op.label)
        cpu0, start = time.process_time(), time.perf_counter()
        try:
            out = op.run(state)
        except Exception as exc:  # an operation that raises is a failed operation
            tally.failed += 1
            tally.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        finally:
            elapsed = time.perf_counter() - start
            cpu += time.process_time() - cpu0
            wall += elapsed
            if tracer:
                tracer.end()
        tally.latencies.setdefault(op.label, []).append(elapsed)
        if tracer:
            sizes = engine_cache_sizes()
            if sizes is None:
                tally.engine = None
            elif tally.engine is not None:
                for key, value in sizes.items():
                    tally.engine[key] = max(tally.engine.get(key, 0), value)
        try:
            problem = op.check(out, state)
            if op.expand:
                queue[0:0] = op.expand(out, state)
        except Exception as exc:  # a check that cannot run has not passed
            problem = f"{op.label}: check raised {type(exc).__name__}: {exc}"
        if problem:
            tally.problems.append(problem)
    tally.walls.append(wall)
    tally.cpus.append(cpu)


def run_for(liestar, ops, seconds: float, tracer=None, min_rounds: int = 1) -> Tally:
    """Whole rounds, while one more round as long as the last would end
    within `seconds`; at least `min_rounds`."""
    tally = Tally()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        run_round(liestar, ops, tally, tracer)
        now = time.perf_counter()
        if len(tally.walls) >= min_rounds and now - start + (now - round_start) > seconds:
            return tally


def _beta_mass(lo: float, hi: float, a: float, steps: int = 64) -> float:
    """Mass of the Beta(a, a) distribution on [lo, hi], by Simpson's rule."""
    log_norm = 2 * math.lgamma(a) - math.lgamma(2 * a)

    def density(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp((a - 1) * (math.log(t) + math.log1p(-t)) - log_norm)

    width = (hi - lo) / steps
    total = density(lo) + density(hi)
    total += sum((4 if k % 2 else 2) * density(lo + k * width) for k in range(1, steps))
    return total * width / 3


def harrell_davis_median(values) -> float:
    """The Harrell-Davis estimate of the median: a Beta-weighted mean of all
    order statistics, so no single value decides it."""
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    weights = [_beta_mass(i / n, (i + 1) / n, a) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def op_p50_ms(latencies: dict) -> float:
    """Median latency of one operation.  Each operation of the workload has
    its median over the run's rounds; the median over operations is the
    Harrell-Davis estimate on log latencies.  Operations differ in size by
    three orders of magnitude, so the plain middle value sits between two of
    them and follows the noise of those two alone."""
    per_op = [statistics.median(times) for times in latencies.values()]
    return 1000 * math.exp(harrell_davis_median([math.log(t) for t in per_op]))


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup_s: float, tally: Tally) -> dict:
    return {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(statistics.median(tally.walls), "s"),
        "op_p50_ms": _metric(op_p50_ms(tally.latencies), "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, traced: Tally, plain: Tally) -> dict:
    from tracer import COUNTERS, ENGINE_CACHES, LAYERS, TARGETS, UNATTRIBUTED, metric_units

    rounds = len(traced.walls)
    values: dict = {}
    for name in TARGETS:
        values[f"{name}.calls"] = tracer.calls.get(name, 0) / rounds
        values[f"{name}.self_s"] = tracer.self_s.get(name, 0.0) / rounds
    for name in COUNTERS:
        values[name] = tracer.counters.get(name, 0) / (1 if name == "weights.workers" else rounds)
    for name in ENGINE_CACHES:
        values[name] = None if traced.engine is None else traced.engine.get(name, 0)
    mc_time = tracer.inclusive_s.get("weights.estimate_weight", 0.0)
    values["weights.samples_per_s"] = tracer.counters.get("weights.samples", 0) / mc_time if mc_time else 0.0
    for layer in LAYERS + (UNATTRIBUTED,):
        values[f"layer.{layer}.self_s"] = tracer.layer_self.get(layer, 0.0) / rounds
    values["process.cpu_s"] = statistics.median(plain.cpus)
    values["trace.overhead_s"] = statistics.median(traced.walls) - statistics.median(plain.walls)
    values["trace.spans"] = len(tracer.spans) / rounds
    units = metric_units()
    out = {}
    for name, unit in units.items():
        out[name] = _metric(values[name], unit)
        if values[name] is None:
            out[name]["absent"] = True
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    liestar = _import_liestar()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    ctx = {
        "algebras": {name: liestar.catalog(name) for name in liestar.catalog_names()},
        "nproc": NPROC,
    }
    liestar.seed_table()
    ops = workloads.build(args.workload, args.seed, ctx)
    setup_s = time.perf_counter() - _STARTED

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "nproc": NPROC}
    if args.trace:
        from tracer import Tracer

        plain = run_for(liestar, ops, args.seconds / 2, min_rounds=2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_for(liestar, ops, args.seconds / 2, tracer, min_rounds=2)
        finally:
            tracer.uninstall()
        tallies = (plain, traced)
        metrics = per_layer(tracer, traced, plain)
        record["layer_shares"] = tracer.shares()
        record["spans"] = {
            "fields": ["id", "name", "start_s", "end_s", "parent", "op"],
            "ops": tracer.ops,
            "rows": tracer.span_rows(),
        }
    else:
        tallies = (run_for(liestar, ops, args.seconds),)
        metrics = end_to_end(setup_s, tallies[0])
    problems = [p for t in tallies for p in t.problems]
    errors = [e for t in tallies for e in t.errors]
    result = {
        "correct": not problems,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": metrics,
    }
    record.update(result)
    record.update({
        "rounds": [len(t.walls) for t in tallies],
        "round_wall_s": [t.walls for t in tallies],
        "problems": problems,
        "errors": errors,
    })
    OUT.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    with open(OUT / f"{args.workload}-seed{args.seed}{suffix}.json", "w") as fh:
        json.dump(record, fh)
    for line in problems + errors:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
