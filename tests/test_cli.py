import json

import pytest

from liestar.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


def test_validate_catalog(capsys):
    code, report, _ = run_json(capsys, "validate", "--catalog", "so3")
    assert code == 0
    assert report["results"]["valid"] is True
    assert report["command"] == "validate"
    assert "wall_clock_seconds" in report


def test_validate_file(capsys, tmp_path):
    from liestar.algebra import catalog, save_algebra

    path = tmp_path / "heis3.json"
    save_algebra(catalog("heis3"), path)
    code, report, _ = run_json(capsys, "validate", "--file", str(path))
    assert code == 0 and report["results"]["valid"] is True


def test_validate_invalid_algebra_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.json"
    # brackets violating the Jacobi identity on a 3-dimensional algebra
    path.write_text(
        json.dumps(
            {
                "name": "bad",
                "dim": 3,
                "brackets": {"1,2": {"3": "1"}, "1,3": {"1": "1"}, "2,3": {"2": "1"}},
            }
        )
    )
    code, report, _ = run_json(capsys, "validate", "--file", str(path))
    assert code == 1
    assert report["results"]["valid"] is False


def test_validate_dict_form_jacobi_violation_is_named(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "name": "bad",
                "dim": 3,
                "brackets": {"1,2": {"3": "1"}, "1,3": {"1": "1"}, "2,3": {"2": "1"}},
            }
        )
    )
    code, report, _ = run_json(capsys, "validate", "--file", str(path))
    assert code == 1
    assert report["results"]["violation"].startswith("JacobiViolation")


def test_validate_unknown_catalog_exits_two(capsys):
    code, out, err = run(capsys, "validate", "--catalog", "nosuch")
    assert code == 2 and not out
    assert "nosuch" in json.loads(err)["error"]


def test_validate_file_without_dim_exits_two(capsys, tmp_path):
    path = tmp_path / "nodim.json"
    path.write_text(json.dumps({"name": "x", "brackets": [[1, 2, 2, "1"]]}))
    code, out, err = run(capsys, "validate", "--file", str(path))
    assert code == 2 and not out
    assert '"dim"' in json.loads(err)["error"]


def test_validate_file_with_non_integer_dim_exits_two(capsys, tmp_path):
    path = tmp_path / "strdim.json"
    path.write_text(json.dumps({"dim": "3", "brackets": []}))
    code, out, err = run(capsys, "validate", "--file", str(path))
    assert code == 2 and not out
    assert '"dim"' in json.loads(err)["error"]


@pytest.mark.parametrize(
    "data",
    [
        3,
        {"dim": 3, "brackets": [[1, 2, 3]]},
        {"dim": 3, "brackets": 5},
        {"dim": 3, "brackets": {"1,2": 4}},
        {"dim": 3, "brackets": [[1, 2, 3, 0.5]]},
    ],
)
def test_validate_malformed_algebra_json_exits_two(capsys, tmp_path, data):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", "--file", str(path))
    assert code == 2 and not out
    assert json.loads(err)["error"].startswith("CliError")


def test_validate_missing_file_exits_two(capsys, tmp_path):
    path = tmp_path / "missing.json"
    code, out, err = run(capsys, "validate", "--file", str(path))
    assert code == 2 and not out
    assert "FileNotFoundError" in json.loads(err)["error"]


def test_validate_malformed_json_exits_nonzero(capsys, tmp_path):
    # a file that is not JSON is an input error, like JSON of the wrong shape
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "validate", "--file", str(path))
    assert code == 2 and not out
    assert json.loads(err)["error"].startswith(f"CliError: {path} is not JSON")


def test_product_gutt_so3(capsys):
    code, report, _ = run_json(
        capsys, "product", "--algebra", "so3", "--f", "x1", "--g", "x2"
    )
    assert code == 0
    assert report["results"]["series"]["text"] == "x1*x2 + h*x3"


def test_product_kontsevich_so3_square(capsys):
    code, report, _ = run_json(
        capsys,
        "product",
        "--algebra",
        "so3",
        "--star",
        "kontsevich",
        "--f",
        "x1",
        "--g",
        "x1",
    )
    assert code == 0
    assert report["results"]["series"]["text"] == "x1^2 + 1/3*h^2"


def test_product_with_unit(capsys):
    code, report, _ = run_json(
        capsys, "product", "--algebra", "sl2", "--f", "1", "--g", "x1"
    )
    assert code == 0
    assert report["results"]["series"]["text"] == "x1"


def test_product_bad_polynomial_exits_two(capsys):
    code, out, err = run(
        capsys, "product", "--algebra", "so3", "--f", "x9", "--g", "x1"
    )
    assert code == 2
    assert json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("compare", "--algebra", "so3", "--trials", "-1"), "--trials"),
        (("compare", "--algebra", "so3", "--degree", "-1"), "--degree"),
        (("compare", "--algebra", "so3", "--order", "-1"), "--order"),
        (("rho", "--algebra", "so3", "--order", "-2"), "--order"),
        (("product", "--algebra", "so3", "--f", "x1", "--g", "x2", "--order", "-1"), "--order"),
        (("weights", "--n", "1", "--samples", "10", "--seed", "-3"), "--seed"),
        # one draw has no standard error, yet would be reported with 0.0
        (("weights", "--graph", "1:(L,R)", "--samples", "1"), "--samples"),
    ],
    ids=[
        "compare-trials", "compare-degree", "compare-order", "rho-order", "product-order",
        "weights-seed", "weights-samples",
    ],
)
def test_negative_count_exits_two_naming_the_flag(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert flag in json.loads(err)["error"]


def test_compare_without_trials_exits_two_naming_the_flag(capsys):
    # no trial would check no pair, yet report "defect_free": true
    code, out, err = run(capsys, "compare", "--algebra", "so3", "--trials", "0")
    assert code == 2 and not out
    assert "--trials" in json.loads(err)["error"]


def test_compare_exit_zero_and_report(capsys):
    code, report, _ = run_json(
        capsys, "compare", "--algebra", "aff1", "--trials", "3", "--degree", "3"
    )
    assert code == 0
    assert report["results"]["defect_free"] is True
    assert report["results"]["rho_matches_normalization"] is True


@pytest.fixture(scope="module")
def order3_weights(tmp_path_factory):
    path = tmp_path_factory.mktemp("weights") / "t.json"
    assert main(["weights", "--n", "3", "--samples", "20000", "--seed", "7", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("algebra, code", [("aff1", 1), ("so3", 1), ("heis3", 0)])
def test_compare_with_mc_weights_at_order_three(capsys, order3_weights, algebra, code):
    """MC noise is a failed check (exit 1), never bad input (exit 2): on
    aff1 it also makes the Weyl normalization fail."""
    got, report, err = run_json(
        capsys, "compare", "--algebra", algebra, "--order", "3",
        "--weights", str(order3_weights), "--trials", "1", "--degree", "3",
    )
    assert (got, err) == (code, "")
    results = report["results"]
    assert results["provenance"] == "estimated"
    assert results["defect_free"] is (code == 0)
    if algebra == "aff1":
        assert results["rho_matches_normalization"] is False
        assert "fails on power 3" in results["normalization_error"]
    else:
        assert "normalization_error" not in results


def test_compare_nilpotent_rho_identity(capsys):
    code, report, _ = run_json(
        capsys, "compare", "--algebra", "heis3", "--trials", "2"
    )
    assert code == 0
    assert report["results"]["rho_identity"] is True


def test_weights_single_graph_wheel2(capsys):
    code, report, _ = run_json(
        capsys,
        "weights",
        "--graph",
        "2:(R,2)(R,1)",
        "--samples",
        "4000",
        "--seed",
        "1",
    )
    assert code == 0
    rows = report["results"]["estimates"]
    assert len(rows) == 1
    assert abs(rows[0]["estimate"]) <= 3 * rows[0]["stderr"] + 1e-12


def test_weights_table_written(capsys, tmp_path):
    out_path = tmp_path / "table.json"
    code, report, _ = run_json(
        capsys,
        "weights",
        "--n",
        "1",
        "--samples",
        "2000",
        "--seed",
        "5",
        "--out",
        str(out_path),
    )
    assert code == 0
    from liestar.weights import WeightTable, table_weight
    from liestar.graphs import parse_graph

    table = WeightTable.load(out_path)
    # seed exactness is preserved when the table is saved
    value, err, prov = table_weight(parse_graph("1:(L,R)"), table)
    assert str(value) == "1/2"


def test_weights_deterministic(capsys):
    args = ["weights", "--graph", "1:(L,R)", "--samples", "3000", "--seed", "9"]
    code1, rep1, _ = run_json(capsys, *args)
    code2, rep2, _ = run_json(capsys, *args)
    assert rep1["results"] == rep2["results"]


def test_rho_report(capsys):
    code, report, _ = run_json(capsys, "rho", "--algebra", "aff1")
    assert code == 0
    results = report["results"]
    assert results["identity"] is False
    assert any("-1/12" in str(v) for v in results["terms"].values())


def test_rho_report_operator_text_on_sl2(capsys):
    # the operators' text form is part of the report
    code, report, _ = run_json(capsys, "rho", "--algebra", "sl2", "--order", "2")
    assert code == 0
    results = report["results"]
    assert results["exponent"] == [
        {"order": 2, "coefficient": "-1/12", "operator": "(8)*d1d1 + (8)*d2d3"}
    ]
    assert results["terms"] == {"h^0": "(1)*id", "h^1": "0", "h^2": "(-2/3)*d1d1 + (-2/3)*d2d3"}


def test_validate_file_on_a_solvable_algebra_with_vanishing_low_traces(capsys, tmp_path):
    # e1 permutes e2..e8 cyclically: Tr(ad_xi^r) = 0 for r = 2..6 only
    brackets = [[1, k, k + 1, "1"] for k in range(2, 8)] + [[1, 8, 2, "1"]]
    path = tmp_path / "cyclic8.json"
    path.write_text(json.dumps({"dim": 8, "brackets": brackets}))
    code, report, _ = run_json(capsys, "validate", "--file", str(path))
    assert code == 0 and report["results"]["nilpotent_probe"] is False


def test_rho_identity_nilpotent(capsys):
    code, report, _ = run_json(capsys, "rho", "--algebra", "filiform4")
    assert code == 0
    assert report["results"]["identity"] is True


def test_pretty_output_is_text(capsys):
    code, out, err = run(capsys, "validate", "--catalog", "so3", "--pretty")
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    assert "valid" in out


def test_unknown_algebra_exits_two(capsys):
    code, out, err = run(capsys, "product", "--algebra", "nope", "--f", "x1", "--g", "x1")
    assert code == 2
