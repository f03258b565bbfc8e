"""Command-line front end.

Subcommands: validate, product, compare, weights, rho.  Every command emits
a JSON run report on stdout (or indented text with --pretty) and exits
nonzero when a validation or verification fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .algebra import (
    AlgebraFormatError,
    LieAlgebra,
    catalog,
    catalog_names,
    is_nilpotent_probe,
    load_algebra,
    poisson_tensor,
)
from .graphs import GraphError, good_classes, parse_graph
from .poly import parse_poly
from .star import (
    ESTIMATED,
    GuttStarProduct,
    assemble_kontsevich,
    kontsevich_gutt_rho,
    verify_equivalence,
)
from .weights import WeightTable, estimate_weight, seed_table


class CliError(Exception):
    pass


def _resolve_algebra(spec: str) -> LieAlgebra:
    if spec in catalog_names():
        return catalog(spec)
    path = Path(spec)
    if path.exists():
        try:
            return load_algebra(path)
        except KeyError as exc:  # no "dim" field
            raise CliError(exc.args[0]) from exc
    raise CliError(f"unknown algebra {spec!r}: not a catalog name or file")


def _check_counts(args, *flags) -> None:
    """Reject a negative value of any of the named integer flags."""
    for flag in flags:
        value = getattr(args, flag)
        if value < 0:
            raise CliError(f"--{flag} must be nonnegative, got {value}")


def _load_table(path) -> WeightTable:
    if not path:
        return seed_table()
    # exact seed entries win over loaded estimates
    return WeightTable.load(path).merge(seed_table())


def _series_json(series) -> dict:
    return {
        "text": str(series),
        "order": series.order,
        "coefficients": [str(p) for p in series.coeffs],
    }


def _report(command: str, config: dict, results: dict, provenance: str, started: float) -> dict:
    return {
        "command": command,
        "config": config,
        "results": results,
        "provenance": provenance,
        "wall_clock_seconds": round(time.monotonic() - started, 6),
    }


def cmd_validate(args) -> tuple:
    started = time.monotonic()
    try:
        if args.catalog:
            alg = catalog(args.catalog)
        else:
            alg = load_algebra(args.file)
    except (KeyError, AlgebraFormatError) as exc:  # unknown catalog name, malformed algebra JSON
        raise CliError(exc.args[0]) from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{args.file} is not JSON: {exc}") from exc
    except ValueError as exc:
        return (
            _report(
                "validate",
                {"catalog": args.catalog, "file": args.file},
                {"valid": False, "violation": f"{type(exc).__name__}: {exc}"},
                "exact",
                started,
            ),
            1,
        )
    pi = poisson_tensor(alg)
    nilpotent = is_nilpotent_probe(alg)
    components = {
        f"pi[{i + 1},{j + 1}]": str(pi.component(i, j))
        for i in range(alg.dim)
        for j in range(i + 1, alg.dim)
    }
    results = {
        "valid": True,
        "name": alg.name,
        "dim": alg.dim,
        "nilpotent_probe": nilpotent,
        "poisson": components,
    }
    return _report("validate", {"catalog": args.catalog, "file": args.file}, results, "exact", started), 0


def cmd_product(args) -> tuple:
    started = time.monotonic()
    _check_counts(args, "order")
    alg = _resolve_algebra(args.algebra)
    f = parse_poly(args.f, alg.dim)
    g = parse_poly(args.g, alg.dim)
    if args.star == "gutt":
        star = GuttStarProduct(alg, args.order)
    else:
        table = _load_table(args.weights)
        star = assemble_kontsevich(
            poisson_tensor(alg), args.order, table, include_wheels=not args.no_wheels
        )
    series = star.multiply(f, g)
    estimated = [
        r for r in range(args.order + 1) if star.order_provenance(r) == ESTIMATED
    ]
    results = {"series": _series_json(series), "estimated_orders": estimated}
    config = {
        "algebra": alg.name,
        "star": args.star,
        "order": args.order,
        "f": args.f,
        "g": args.g,
        "no_wheels": bool(args.no_wheels),
    }
    provenance = "estimated" if estimated else "exact"
    return _report("product", config, results, provenance, started), 0


def cmd_compare(args) -> tuple:
    started = time.monotonic()
    _check_counts(args, "order", "degree")
    if args.trials < 1:  # with no trials no pair would be checked
        raise CliError(f"--trials must be at least 1, got {args.trials}")
    alg = _resolve_algebra(args.algebra)
    table = _load_table(args.weights)
    report = verify_equivalence(
        alg,
        args.order,
        table,
        trials=args.trials,
        degree=args.degree,
        seed=args.seed,
    )
    ok = report["defect_free"] and report["rho_matches_normalization"]
    config = {
        "algebra": alg.name,
        "order": args.order,
        "degree": args.degree,
        "trials": args.trials,
        "seed": args.seed,
    }
    return _report("compare", config, report, report["provenance"], started), (0 if ok else 1)


def cmd_weights(args) -> tuple:
    started = time.monotonic()
    _check_counts(args, "seed")
    if args.samples < 2:
        # one draw has no standard error; a saved table would pass it as exact
        raise CliError(f"--samples must be at least 2, got {args.samples}")
    if args.graph:
        graphs = [parse_graph(args.graph)]
    else:
        graphs = [c.representative for c in good_classes(args.n)]
    estimates = []
    table = seed_table()
    for g in graphs:
        est = estimate_weight(g, args.samples, args.seed)
        estimates.append(est)
        table.add_estimate(est)
    if args.out:
        table.save(args.out)
    results = {
        "estimates": [
            {
                "graph": e.graph,
                "estimate": e.mean,
                "stderr": e.stderr,
                "samples": e.samples,
                "seed": e.seed,
                "method": e.method,
            }
            for e in estimates
        ],
        "out": args.out,
    }
    config = {"n": args.n, "graph": args.graph, "samples": args.samples, "seed": args.seed}
    return _report("weights", config, results, "estimated", started), 0


def cmd_rho(args) -> tuple:
    started = time.monotonic()
    _check_counts(args, "order")
    alg = _resolve_algebra(args.algebra)
    table = _load_table(args.weights)
    rho = kontsevich_gutt_rho(alg, args.order, table)
    results = {
        "identity": rho.is_identity,
        "exponent": [
            {"order": r, "coefficient": str(c), "operator": str(op)}
            for r, c, op in rho.exponent
        ],
        "terms": {f"h^{r}": str(rho.terms[r]) for r in range(args.order + 1)},
        "estimated_orders": [
            r for r in range(args.order + 1) if rho.term_provenance(r) == ESTIMATED
        ],
    }
    provenance = "estimated" if results["estimated_orders"] else "exact"
    config = {"algebra": alg.name, "order": args.order}
    return _report("rho", config, results, provenance, started), 0


def _pretty_lines(report: dict, indent: str = "") -> list:
    lines = []
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_pretty_lines(value, indent + "  "))
        elif isinstance(value, list):
            lines.append(f"{indent}{key}:")
            for item in value:
                if isinstance(item, dict):
                    lines.extend(_pretty_lines(item, indent + "  "))
                else:
                    lines.append(f"{indent}  - {item}")
        else:
            lines.append(f"{indent}{key}: {value}")
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liestar",
        description="Star products on the dual of a Lie algebra",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="human-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a Lie algebra definition", parents=[common])
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--file", help="algebra JSON file")
    group.add_argument("--catalog", help="built-in algebra name")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("product", help="multiply two polynomials", parents=[common])
    p.add_argument("--algebra", required=True)
    p.add_argument("--star", choices=["gutt", "kontsevich"], default="gutt")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--weights", help="weight-table JSON file")
    p.add_argument("--no-wheels", action="store_true")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("compare", help="verify product equivalence", parents=[common])
    p.add_argument("--algebra", required=True)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--weights", help="weight-table JSON file")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("weights", help="estimate graph weights", parents=[common])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--graph", help="single graph encoding")
    p.add_argument("--out", help="weight-table JSON output file")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("rho", help="build the equivalence operator", parents=[common])
    p.add_argument("--algebra", required=True)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--weights", help="weight-table JSON file")
    p.set_defaults(func=cmd_rho)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.func(args)
    except (CliError, GraphError, ValueError, OSError) as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 2
    if getattr(args, "pretty", False):
        print("\n".join(_pretty_lines(report)))
    else:
        print(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
