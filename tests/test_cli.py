import csv
import json

import numpy as np
import pytest

from raresig import DegenerateDataError, ValidationError
from raresig.cli import _emit, ingest_csv, main
from raresig.pipeline import MethodConfig, run_test


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return str(path)


@pytest.fixture
def separated_csv(tmp_path):
    # every case value exceeds every control value
    rng = np.random.default_rng(0)
    rows = [[f"{v:.6f}", 0] for v in rng.random(40)]
    rows += [[f"{v + 10:.6f}", 1] for v in rng.random(8)]
    return _write_csv(tmp_path / "sep.csv", ["x", "label"], rows)


def test_ingest_drops_incomplete_rows(tmp_path):
    path = _write_csv(
        tmp_path / "a.csv",
        ["x", "y", "label"],
        [["1.0", "2.0", "0"], ["3.0", "", "1"], ["4.0", "5.0", "1"]],
    )
    sample, dropped = ingest_csv(path, "label")
    assert sample.n == 2
    assert dropped == 1


def test_ingest_multiclass_labels(tmp_path):
    path = _write_csv(
        tmp_path / "b.csv",
        ["x", "label"],
        [["0.5", "0"], ["1.5", "1"], ["2.5", "2"]],
    )
    sample, dropped = ingest_csv(path, "label")
    assert dropped == 0
    assert sample.n_classes == 3


def test_ingest_missing_label_column_names_available(tmp_path):
    path = _write_csv(tmp_path / "c.csv", ["a", "b"], [["1", "2"]])
    with pytest.raises(ValidationError, match="available: a, b"):
        ingest_csv(path, "label")


def test_ingest_zero_usable_rows(tmp_path):
    path = _write_csv(tmp_path / "d.csv", ["x", "label"], [["", "0"], ["oops", "1"]])
    with pytest.raises(DegenerateDataError, match="zero usable rows"):
        ingest_csv(path, "label")


def test_ingest_non_integer_label(tmp_path):
    path = _write_csv(tmp_path / "e.csv", ["x", "label"], [["1.0", "0.5"]])
    with pytest.raises(ValidationError, match="non-integer label"):
        ingest_csv(path, "label")


def test_ingest_roundtrip_group_counts(tmp_path):
    rng = np.random.default_rng(1)
    rows = [[f"{rng.random():.8f}", int(lab)] for lab in rng.integers(0, 2, 50)]
    path = _write_csv(tmp_path / "f.csv", ["x", "label"], rows)
    sample, _ = ingest_csv(path, "label")
    back = tmp_path / "g.csv"
    _write_csv(
        back,
        ["x", "label"],
        [[repr(float(v)), int(l)] for v, l in zip(sample.features[:, 0], sample.labels)],
    )
    sample2, _ = ingest_csv(str(back), "label")
    assert np.array_equal(sample.labels, sample2.labels)
    assert np.array_equal(sample.features, sample2.features)


# ---------------------------------------------------------------------------
# run_test
# ---------------------------------------------------------------------------


def _test_json(capsys, *argv):
    code = main(["test", *argv])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def test_run_test_separated_data_permutation(separated_csv, capsys):
    result = _test_json(capsys, "--input", separated_csv, "--kernel", "kendall",
                        "--inference", "permutation", "--B", "99", "--seed", "4")
    assert result["statistic"] == 1.0
    assert result["p_value"] == 1 / 100
    assert result["method"] == "permutation"
    assert result["B"] == 99
    assert result["n0"] == 40 and result["n1"] == 8


def test_run_test_deterministic_modulo_walltime(tmp_path, capsys):
    rng = np.random.default_rng(9)
    rows = [[f"{v:.6f}", 0] for v in rng.standard_normal(120)]
    rows += [[f"{v + 0.4:.6f}", 1] for v in rng.standard_normal(15)]
    path = _write_csv(tmp_path / "mix.csv", ["x", "label"], rows)
    argv = ["--input", path, "--kernel", "kendall", "--seed", "9"]
    a = _test_json(capsys, *argv)
    b = _test_json(capsys, *argv)
    a.pop("wall_time_ms"), b.pop("wall_time_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_test_degenerate_separation_asymptotic_errors(separated_csv):
    # fully separated cases leave the case-side plug-in variance at zero
    sample, _ = ingest_csv(separated_csv, "label")
    method = MethodConfig(kernel="kendall", inference="asymptotic", xi_basis="cases")
    with pytest.raises(DegenerateDataError, match="permutation"):
        run_test(sample, method, 9)


def test_run_test_auto_falls_back_to_permutation(separated_csv, capsys):
    result = _test_json(capsys, "--input", separated_csv, "--kernel", "kendall",
                        "--seed", "9", "--B", "99")
    assert result["statistic"] == 1.0
    assert result["method"] == "permutation"
    assert result["p_value"] == 1 / 100
    assert any("fell back" in w for w in result["warnings"])


def test_run_test_bit_and_standardize(tmp_path, capsys):
    rng = np.random.default_rng(5)
    rows = [[f"{v:.6f}", 0] for v in rng.standard_normal(400) * 3 + 1]
    rows += [[f"{v:.6f}", 1] for v in rng.standard_normal(20) * 3 + 1]
    path = _write_csv(tmp_path / "h.csv", ["x", "label"], rows)
    result = _test_json(capsys, "--input", path, "--kernel", "pearson", "--method",
                        "bit", "--s", "5", "--standardize", "--seed", "1")
    assert result["s"] == 5
    assert result["method"] == "asymptotic_first"
    assert 0 < result["p_value"] <= 1


def test_run_test_multiclass(tmp_path, capsys):
    rng = np.random.default_rng(6)
    rows = [[f"{v:.6f}", 0] for v in rng.standard_normal(300)]
    rows += [[f"{v:.6f}", 1] for v in rng.standard_normal(30)]
    rows += [[f"{v:.6f}", 2] for v in rng.standard_normal(30)]
    path = _write_csv(tmp_path / "i.csv", ["x", "label"], rows)
    result = _test_json(capsys, "--input", path, "--kernel", "multi-kendall",
                        "--seed", "2")
    assert result["method"] == "asymptotic_first"
    assert 0 < result["p_value"] <= 1


def test_cli_test_rejects_removed_alpha_flag(separated_csv, capsys):
    assert main(["test", "--input", separated_csv, "--alpha", "0.5"]) == 2


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_test_command_json(separated_csv, capsys):
    code = main(
        ["--seed", "3", "test", "--input", separated_csv, "--kernel", "kendall",
         "--inference", "permutation", "--B", "99"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["statistic"] == 1.0


def test_cli_exit_2_on_ratio_exceeding_one(separated_csv, capsys):
    code = main(
        ["test", "--input", separated_csv, "--method", "bit", "--s", "10"]
    )
    assert code == 2
    assert "ratio exceeds 1" in capsys.readouterr().err


def test_cli_exit_3_on_degenerate_partition(tmp_path, capsys):
    path = _write_csv(
        tmp_path / "allzero.csv", ["x", "label"], [["1.0", "0"], ["2.0", "0"]]
    )
    code = main(["test", "--input", path])
    assert code == 3
    assert "degenerate" in capsys.readouterr().err


def test_cli_exit_2_on_unknown_flag(capsys):
    assert main(["test", "--no-such-flag"]) == 2


def test_cli_select_s_variance(capsys):
    assert main(["select-s", "variance", "--n1", "100", "--epsilon", "0.001"]) == 0
    assert capsys.readouterr().out.strip() == "10"


def test_cli_power_first_order_null_is_alpha(capsys):
    code = main(
        ["power", "first-order", "--mu0", "0", "--n1", "100", "--xi01", "0.3333",
         "--alpha", "0.05"]
    )
    assert code == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.05, abs=1e-12)


def test_cli_power_local_threshold(capsys):
    code = main(
        ["power", "local-threshold", "--beta", "0.2", "--alpha", "0.05",
         "--mu-g1", "1.0", "--xi", "0.333333333333"]
    )
    assert code == 0
    value = float(capsys.readouterr().out)
    assert value == pytest.approx(0.6457, abs=1e-3)


def test_cli_subsample_plan(capsys):
    code = main(
        ["--seed", "5", "subsample-plan", "--n0", "1000", "--n1", "20", "--s", "10"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["expected_count"] == 200
    assert 100 < out["realized_count"] < 300


def test_cli_simulate_raw_family_csv(capsys):
    code = main(
        ["--format", "csv", "simulate", "--family", "first_order_eg1", "--n", "600",
         "--n1", "30", "--M", "25", "--kernel", "kendall", "--method", "rit"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert row["family"] == "first_order_eg1"
    assert 0.0 <= float(row["erp"]) <= 1.0


def test_cli_simulate_rejects_unknown_family(capsys):
    assert main(["simulate", "--family", "bogus"]) == 2


def test_cli_simulate_table_preset_smoke(capsys):
    code = main(
        ["simulate", "--family", "table3_pearson_eg1", "--n", "3000", "--n1", "50",
         "--M", "20", "--n1s", "200"]
    )
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    settings = [r["setting"] for r in rows]
    assert settings == ["size", "power", "power"]
    assert rows[2]["n1s"] == 200


def test_cli_bench_json(capsys):
    code = main(
        ["bench", "--kernel", "kendall", "--sizes", "2000,4000", "--trials", "2"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["rows"]) == 2
    assert "loglog_slope" in out


def test_cli_output_file(tmp_path, separated_csv):
    target = tmp_path / "result.json"
    code = main(
        ["--output", str(target), "test", "--input", separated_csv,
         "--inference", "permutation", "--B", "19"]
    )
    assert code == 0
    data = json.loads(target.read_text())
    assert data["statistic"] == 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["--sizes", "2000"],
        ["--sizes", "2000,2000"],
        ["--mode", "bit", "--n1", "20", "--s-grid", "4"],
    ],
)
def test_cli_bench_rejects_single_point_grid(argv, capsys):
    code = main(["bench", "--kernel", "kendall", "--trials", "1", *argv])
    assert code == 2
    assert "at least two distinct" in capsys.readouterr().err


def test_emit_refuses_non_finite_json(capsys):
    with pytest.raises(ValueError):
        _emit({"value": float("nan")}, "json", None)
    _emit({"value": 1.5}, "json", None)
    assert json.loads(capsys.readouterr().out) == {"value": 1.5}
