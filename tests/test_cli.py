import csv
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from raresig import DegenerateDataError, RaresigError, ValidationError, cli
from raresig.inference import power_first_order
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


@pytest.mark.parametrize("cell", ["nan", "inf", "1e300"])
def test_ingest_unrepresentable_label_is_a_validation_error(tmp_path, capsys, cell):
    path = _write_csv(tmp_path / "lab.csv", ["x", "label"],
                      [["1.0", "0"], ["2.0", "1"], ["3.0", cell]])
    with pytest.raises(ValidationError, match="label"):
        ingest_csv(path, "label")
    assert main(["test", "--input", path]) == 2
    assert repr(cell) in capsys.readouterr().err


@pytest.mark.parametrize("where", ["header", "body"])
def test_ingest_non_utf8_file_is_a_validation_error(tmp_path, capsys, where):
    # a Latin-1 byte in the header, or past the first read buffer of the body
    body = "".join(f"{i % 2},{i}.5\n" for i in range(4000)).encode()
    text = (b"label,caf\xe9\n" + body if where == "header"
            else b"label,x\n" + body + b"1,caf\xe9\n")
    path = tmp_path / "latin.csv"
    path.write_bytes(text)
    with pytest.raises(ValidationError, match="latin.csv: not valid UTF-8"):
        ingest_csv(str(path), "label")
    assert main(["test", "--input", str(path)]) == 2
    assert "not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_ingest_clean_file_takes_the_vectorised_path(tmp_path, monkeypatch, newline):
    def no_row_loop(*args):
        raise AssertionError("the row loop ran on a clean file")

    monkeypatch.setattr(cli, "_parse_rows", no_row_loop)
    path = tmp_path / "clean.csv"
    path.write_bytes(newline.join(["x,label,y", "1.5,0,a", "-2e-3,1,b", " 7 ,0,c", ""])
                     .encode())
    got = ingest_csv(str(path), "label", ["x"])
    sample, dropped = got
    assert got.reader == "vectorised" and dropped == 0
    assert sample.features[:, 0].tolist() == [1.5, -2e-3, 7.0]
    assert sample.labels.tolist() == [0, 1, 0]


def test_ingest_reparses_only_the_rejected_block(tmp_path, monkeypatch):
    seen = []
    row_loop = cli._parse_rows

    def spy(body, *args):
        seen.append(body)
        return row_loop(body, *args)

    monkeypatch.setattr(cli, "_parse_rows", spy)
    monkeypatch.setattr(cli, "_BLOCK_LINES", 2)
    rows = [["1.5", "0"], ["2.5", "1"], ["3.5", "0"], ["oops", "1"], ["4.5", "1"]]
    got = ingest_csv(_write_csv(tmp_path / "d.csv", ["x", "label"], rows), "label")
    sample, dropped = got
    assert (got.reader, dropped) == ("row-loop", 1)
    assert seen == ["3.5,0\r\noops,1\r\n"]
    assert sample.features[:, 0].tolist() == [1.5, 2.5, 3.5, 4.5]
    assert sample.labels.tolist() == [0, 1, 0, 1]



@pytest.mark.parametrize("header, features, name", [
    (["x0", "x0", "label"], None, "x0"),
    (["x", "label", "label"], None, "label"),
    (["x0", "x1", "label"], ["x0", "x0"], "x0"),
    (["x0", "x1", "x1", "label"], ["x1"], "x1"),
], ids=["feature-in-header-twice", "label-in-header-twice", "feature-listed-twice",
        "selected-feature-in-header-twice"])
@pytest.mark.parametrize("bad_row", [False, True], ids=["clean", "one-bad-row"])
def test_ingest_refuses_an_ambiguous_column(tmp_path, capsys, header, features, name,
                                            bad_row):
    # a name that resolves to two columns, or one column read twice, is
    # refused before either reader runs
    rows = [[f"{i}.5"] * (len(header) - 1) + [i % 2] for i in range(6)]
    rows += [["oops"] * (len(header) - 1) + [1]] if bad_row else []
    path = _write_csv(tmp_path / "dup.csv", header, rows)
    with pytest.raises(ValidationError, match=repr(name)):
        ingest_csv(path, "label", features)
    listed = ["--features", ",".join(features)] if features else []
    assert main(["test", "--input", path, *listed]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(name) in err and len(err.splitlines()) == 1


def test_ingest_allows_a_repeated_name_among_unselected_columns(tmp_path):
    rows = [["1.5", "a", "b", "0"], ["2.5", "c", "d", "1"]]
    path = _write_csv(tmp_path / "ok.csv", ["x", "note", "note", "label"], rows)
    sample, dropped = ingest_csv(path, "label", ["x"])
    assert dropped == 0 and sample.features[:, 0].tolist() == [1.5, 2.5]

def test_run_test_reports_the_reader(tmp_path, capsys):
    rows = [[f"{v:.6f}", 0] for v in np.random.default_rng(2).standard_normal(60)]
    rows += [[f"{v + 1:.6f}", 1] for v in np.random.default_rng(3).standard_normal(8)]
    clean = _write_csv(tmp_path / "clean.csv", ["x", "label"], rows)
    dirty = _write_csv(tmp_path / "dirty.csv", ["x", "label"], rows + [["oops", 1]])
    a = _test_json(capsys, "--input", clean, "--seed", "1")
    b = _test_json(capsys, "--input", dirty, "--seed", "1")
    assert (a["ingest"], b["ingest"]) == ("vectorised", "row-loop")
    assert b["warnings"][0].startswith("dropped 1 rows")
    for out in (a, b):
        out.pop("ingest"), out.pop("wall_time_ms"), out.pop("warnings")
    assert a == b


# Cells for the differential test: clean numbers both readers parse,
# and kinds of dirt that the rules drop, that raise, or that one reader
# rejects and the other accepts.
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6, allow_nan=False).map(lambda v: f"{v:.17g}"),
    st.sampled_from(["0", "1.5", "-2.25", ".5", "3.", "+4", "-0.0", "1e3", "1E-3",
                     "+1.5e+2", "2.5e-310", "1e308"]),
    st.builds("{}e{}".format, st.integers(-99, 99), st.integers(-320, 320)),
)
_PAD = st.sampled_from(["", " ", "  ", "\t", "\x0c", "\x85", "\xa0"])
_CLEAN = st.builds("{}{}{}".format, _PAD, _NUMBERS, _PAD)
_DIRT = {
    "cells": st.sampled_from(["", "  ", "nan", "inf", "-inf", "1e500", "NaN",
                              "Infinity", "oops", "#", "1#", "1_0", "0x10", "1d5",
                              "\u0661", "1 5"]),
    "quotes": st.builds('"{}"'.format, _CLEAN) | st.sampled_from(
        ['"1"5', ' "1"', '"1" ', '1"5"', '""', '"1,5"', '"1.5"e3', '"2']),
    "labels": st.sampled_from(["", "oops", "-1", "0.5", "nan", "inf", "1e300", "2e19",
                               "#"]),
}
_LABELS = st.sampled_from(["0", "0", "1", "1", "2", " 1 ", "1.0", "+1", "-0", "1e0"])


@st.composite
def _csv_files(draw):
    """``(text, label column, feature columns or None)``: a header of 2-4
    columns and up to 12 rows.  Each file enables its own kinds of dirt
    (none for a clean file), so one kind at a time can meet the fast
    path."""
    width = draw(st.integers(2, 4))
    names = [f"c{j}" for j in range(width)]
    label = draw(st.sampled_from(names))
    others = [c for c in names if c != label]
    features = draw(st.none() | st.lists(st.sampled_from(others), min_size=1,
                                         max_size=len(others), unique=True))
    dirt = draw(st.sets(st.sampled_from(["cells", "quotes", "labels", "blank", "short",
                                         "long"]), max_size=2))

    def cell(clean, dirt_kinds):
        kinds = [k for k in dirt_kinds if k in dirt]
        if kinds and draw(st.integers(0, 3)) == 0:
            return draw(_DIRT[draw(st.sampled_from(kinds))])
        return draw(clean)

    cell_dirt = ["cells", "quotes"]
    shapes = ["full", "full", *sorted(dirt & {"blank", "short", "long"})]
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 12))):
        row = [cell(_LABELS, ["labels"]) if c == label else cell(_CLEAN, cell_dirt)
               for c in names]
        shape = draw(st.sampled_from(shapes))
        if shape == "blank":
            row = []
        elif shape == "short":
            row = row[: draw(st.integers(1, width - 1))]
        elif shape == "long":
            row += [cell(_CLEAN, cell_dirt) for _ in range(draw(st.integers(1, 2)))]
        lines.append(",".join(row))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    end = draw(st.sampled_from([newline, ""]))
    return newline.join(lines) + end, label, features


def _ingest_outcome(path, label, features):
    try:
        return ingest_csv(path, label, features)
    except RaresigError as exc:
        return type(exc), str(exc)


@settings(max_examples=300)
@given(_csv_files(), st.integers(1, 4))
# loadtxt skips blank lines and accepts a short row that holds every
# used column; the row loop drops both
@example(("c0,c1\r\n1,0\r\r\n2,1\r\n", "c1", None), 2)
@example(("c0,c1,c2\n0,1.5,9\n1,2.5\n", "c0", ["c1"]), 1)
# an open quote runs on over the following lines, across blocks
@example(('c0,c1\n1,0\n"2,0\n3,1\n4,1\n5,0\n', "c1", None), 2)
def test_ingest_vectorised_path_equals_row_loop(tmp_path_factory, case, block_lines):
    # small blocks, so a rejected file mixes vectorised and row-loop blocks
    text, label, features = case
    path = tmp_path_factory.mktemp("diff") / "f.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(cli, "_BLOCK_LINES", block_lines):
        fast = _ingest_outcome(str(path), label, features)
    # every loadtxt try rejected: the row loop reads the body as one block
    with mock.patch.object(cli, "_load_clean", return_value=None):
        loop = _ingest_outcome(str(path), label, features)
    if isinstance(fast, cli.Ingested):
        assert loop.reader == "row-loop"
        (a, a_dropped), (b, b_dropped) = fast, loop
        assert a_dropped == b_dropped
        assert a.features.dtype == b.features.dtype and a.features.shape == b.features.shape
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
    else:
        assert fast == loop


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


@pytest.mark.parametrize("inference", ["asymptotic", "permutation"])
def test_run_test_bit_takes_any_rare_class_sizes(inference, tmp_path, capsys):
    # n1 = 20 is at most 0.2 n2 = 24: the subsampled multi-class test runs
    rng = np.random.default_rng(12)
    labels = np.r_[np.zeros(400, np.int64), np.ones(20, np.int64), np.full(120, 2)]
    rows = [[f"{v:.6f}", k] for v, k in zip(rng.standard_normal(labels.size), labels)]
    path = _write_csv(tmp_path / "three.csv", ["x", "label"], rows)
    result = _test_json(capsys, "--input", path, "--kernel", "multi-kendall",
                        "--method", "bit", "--s", "3", "--inference", inference,
                        "--B", "99")
    assert result["s"] == 3 and 0 < result["p_value"] <= 1


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


@pytest.mark.parametrize("kernel", ["kendall", "multi-kendall"])
def test_run_test_auto_falls_back_without_a_second_case(kernel, tmp_path, capsys):
    # one case leaves no case-side projection variance to estimate
    rng = np.random.default_rng(8)
    rows = [[f"{v:.6f}", 0] for v in rng.standard_normal(100)] + [["0.5", 1]]
    path = _write_csv(tmp_path / "one.csv", ["x", "label"], rows)
    argv = ["--input", path, "--kernel", kernel, "--B", "99", "--seed", "3"]
    perm = _test_json(capsys, *argv, "--inference", "permutation")
    result = _test_json(capsys, *argv)
    assert result["method"] == "permutation"
    assert result["p_value"] == perm["p_value"]
    assert any("need at least two class-1 points" in w and "fell back" in w
               for w in result["warnings"])
    assert main(["test", *argv, "--inference", "asymptotic"]) == 3
    assert "need at least two class-1 points" in capsys.readouterr().err


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


def test_threads_environment_variable_is_not_read(separated_csv, capsys, monkeypatch):
    # --threads is the one way to set the worker count
    monkeypatch.setenv("RARE_SIG_THREADS", "abc")
    result = _test_json(capsys, "--input", separated_csv, "--kernel", "kendall",
                        "--inference", "permutation", "--B", "99")
    assert result["statistic"] == 1.0


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_highdim_runs_at_ten_thousand_cases(tmp_path, capsys):
    # xi02 holds no n1 x n1 array, so 10,000 cases need no guard
    rng = np.random.default_rng(4)
    rows = [[f"{a:.4f}", f"{b:.4f}", 0] for a, b in rng.standard_normal((200, 2))]
    rows += [[f"{a:.4f}", f"{b:.4f}", 1] for a, b in rng.standard_normal((10_000, 2))]
    path = _write_csv(tmp_path / "many.csv", ["x", "y", "label"], rows)
    code = main(["test", "--input", path, "--kernel", "dcov", "--inference", "highdim"])
    out = capsys.readouterr().out
    assert code == 0
    result = json.loads(out, parse_constant=_reject_constant)
    assert result["method"] == "asymptotic_highdim" and result["n1"] == 10_000
    assert 0 < result["p_value"] <= 1 and result["warnings"] == []


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


LEAVES = {
    "variance": ["select-s", "variance", "--n1", "100", "--epsilon", "0.001"],
    "power-floor": ["select-s", "power-floor", "--n1", "100", "--xi01", "0.33",
                    "--xi10", "0.33", "--mu0", "0.3", "--beta", "0.8"],
    "power-gap": ["select-s", "power-gap", "--n1", "100", "--xi01", "0.33",
                  "--xi10", "0.33", "--mu0", "0.3", "--epsilon", "0.01"],
    "first-order": ["power", "first-order", "--mu0", "0.1", "--n1", "100",
                    "--xi01", "0.3"],
    "highdim": ["power", "highdim", "--mu0", "0.1", "--n1", "50", "--xi02", "0.5"],
    "local-threshold": ["power", "local-threshold", "--beta", "0.2", "--mu-g1", "1.0",
                        "--xi", "0.33"],
}


@pytest.mark.parametrize("flag", ["format", "output"])
@pytest.mark.parametrize("leaf", list(LEAVES))
def test_cli_global_flags_after_a_nested_subcommand(leaf, flag, tmp_path, capsys):
    assert main(LEAVES[leaf]) == 0
    expected = capsys.readouterr().out
    if flag == "format":
        assert main([*LEAVES[leaf], "--format", "json"]) == 0
        assert capsys.readouterr().out == expected
    else:
        path = tmp_path / "out.txt"
        assert main([*LEAVES[leaf], "--output", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text() == expected


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


HIGHDIM = ["power", "highdim", "--mu0", "0.1", "--n1", "100", "--xi02", "1"]
FIRST = ["power", "first-order", "--mu0", "0.1", "--n1", "100", "--xi01", "0.3"]
LOCAL = ["power", "local-threshold", "--beta", "0.2", "--mu-g1", "1", "--xi", "0.3"]
GAP = ["select-s", "power-gap", "--n1", "100", "--xi01", "0.3", "--xi10", "0.3",
       "--mu0", "0.3", "--epsilon", "0.01"]
FLOOR = [*GAP[:1], "power-floor", *GAP[2:10], "--beta", "0.5"]
CSV = "<csv>"  # stands for a binary CSV written by the test


def test_cli_power_first_order_takes_a_real_ratio(capsys):
    # the full-sample ratio n0/n1 need not be an integer
    assert main([*FIRST, "--s", "999.5", "--xi10", "0.3"]) == 0
    expected = power_first_order(0.1, 100, 1, 1, 0.3, 0.05, s=999.5, xi10=0.3)
    assert capsys.readouterr().out.strip() == f"{expected:.12g}"


@pytest.mark.parametrize("argv", [
    [*HIGHDIM, "--m1", "1"],
    [*HIGHDIM[:5], "0", *HIGHDIM[6:]],
    [*HIGHDIM[:5], "1", *HIGHDIM[6:]],
    [*HIGHDIM, "--alpha", "2"],
    [*HIGHDIM, "--alpha", "-1"],
    [*FIRST, "--alpha", "-1"],
    [*LOCAL, "--alpha", "-1"],
    [*GAP, "--alpha", "-1"],
    [*GAP, "--alpha", "2"],
], ids=["highdim-m1", "highdim-n1-0", "highdim-n1-1", "highdim-alpha-2",
        "highdim-alpha-neg", "first-order-alpha-neg", "local-threshold-alpha-neg",
        "power-gap-alpha-neg", "power-gap-alpha-2"])
def test_cli_power_refuses_bad_input(argv, capsys):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["power", "first-order", "--mu0", "0.1", "--n1", "10", "--xi01", "1", "--s", "0",
     "--xi10", "1"],
    ["power", "first-order", "--mu0", "0.1", "--n1", "10", "--xi01", "1", "--s", "-2",
     "--xi10", "1"],
    ["select-s", "power-gap", "--n1", "10", "--xi01", "1", "--xi10", "-1", "--mu0", "0.1",
     "--epsilon", "0.1"],
    ["bench", "--kernel", "dcov", "--sizes", "100,200", "--trials", "0"],
    ["subsample-plan", "--n0", "-5", "--n1", "3", "--s", "2"],
    # the scalar families generate one feature, and a level lies in (0, 1)
    ["simulate", "--family", "first_order_eg1", "--n", "400", "--M", "2", "--p", "5"],
    ["simulate", "--family", "mixture_local", "--n", "400", "--M", "2", "--p", "7"],
    ["simulate", "--family", "intro_fixed_p", "--n", "400", "--M", "2", "--p", "2"],
    ["simulate", "--family", "first_order_eg1", "--n", "400", "--M", "2", "--alpha", "1.5"],
    ["simulate", "--family", "first_order_eg2", "--n", "400", "--M", "2", "--alpha", "0"],
    ["simulate", "--family", "figure1", "--M", "2", "--alpha", "-1"],
    ["simulate", "--family", "table3_kendall_eg1", "--M", "2", "--alpha", "1"],
    # a sampling ratio only means something to the boosted test, and a
    # worker count is at least one
    ["simulate", "--family", "first_order_eg1", "--n", "400", "--M", "2", "--s", "5"],
    ["simulate", "--family", "first_order_eg1", "--n", "400", "--M", "2", "--threads", "0"],
    ["simulate", "--family", "first_order_eg1", "--n", "400", "--M", "2", "--threads", "-3"],
    # a calculator refuses a NaN or infinite input, and a rule whose bound
    # on s overflows
    [*FIRST[:3], "nan", *FIRST[4:]],
    [*FIRST[:7], "nan"],
    [*FIRST, "--s", "3", "--xi10", "nan"],
    [*HIGHDIM[:3], "nan", *HIGHDIM[4:]],
    [*HIGHDIM[:7], "nan"],
    [*LOCAL[:5], "nan", *LOCAL[6:]],
    [*LOCAL[:7], "inf"],
    ["select-s", "variance", "--n1", "100", "--epsilon", "nan"],
    ["select-s", "variance", "--n1", "1", "--epsilon", "1e-320"],
    [*FLOOR[:5], "nan", *FLOOR[6:]],
    [*FLOOR[:7], "nan", *FLOOR[8:]],
    [*FLOOR[:9], "nan", *FLOOR[10:]],
    [*GAP[:5], "nan", *GAP[6:]],
    [*GAP[:7], "nan", *GAP[8:]],
    [*GAP[:9], "nan", *GAP[10:]],
    [*GAP[:11], "nan"],
    # the test command: the label is no feature, and c_sigma2 is finite
    ["test", "--input", CSV, "--features", "label"],
    ["test", "--input", CSV, "--kernel", "ipcov", "--c-sigma2", "nan"],
    ["test", "--input", CSV, "--kernel", "ipcov", "--c-sigma2", "inf"],
], ids=["first-order-s-0", "first-order-s-neg", "power-gap-xi10-neg", "bench-trials-0",
        "subsample-plan-n0-neg", "simulate-eg1-p-5", "simulate-mixture-p-7",
        "simulate-intro-p-2", "simulate-alpha-1.5", "simulate-alpha-0",
        "simulate-figure1-alpha-neg", "simulate-table3-alpha-1", "simulate-rit-s",
        "simulate-threads-0", "simulate-threads-neg",
        "first-order-mu0-nan", "first-order-xi01-nan", "first-order-xi10-nan",
        "highdim-mu0-nan", "highdim-xi02-nan", "local-threshold-mu-g1-nan",
        "local-threshold-xi-inf", "variance-epsilon-nan", "variance-s-overflow",
        "power-floor-xi01-nan", "power-floor-xi10-nan", "power-floor-mu0-nan",
        "power-gap-xi01-nan", "power-gap-xi10-nan", "power-gap-mu0-nan",
        "power-gap-epsilon-nan", "test-features-label", "test-c-sigma2-nan",
        "test-c-sigma2-inf"])
def test_cli_refuses_bad_input_with_one_error_line(argv, separated_csv, capsys):
    argv = [separated_csv if a == CSV else a for a in argv]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and len(out.err.splitlines()) == 1


_GAP_AT = ["select-s", "power-gap", "--n1", "50", "--xi01", "0.33", "--xi10", "0.33",
           "--mu0", "0.3", "--epsilon", "0.01"]
_FLOOR_AT = [*_GAP_AT[:1], "power-floor", *_GAP_AT[2:10], "--beta", "0.8"]
_FIRST_AT = ["power", "first-order", "--mu0", "0.1", "--n1", "50", "--xi01", "0.33"]


@pytest.mark.parametrize("argv", [
    [*_GAP_AT, "--m1", "0"],
    [*_FIRST_AT, "--m1", "-1"],
    [*_FLOOR_AT, "--m0", "-1"],
    [*_FLOOR_AT, "--m1", "0"],
    [*_FIRST_AT, "--m1", "0"],
], ids=["power-gap-m1-0", "first-order-m1-neg", "power-floor-m0-neg", "power-floor-m1-0",
        "first-order-m1-0"])
def test_cli_calculators_refuse_a_block_order_below_one(argv, capsys):
    # the variance formula checks the orders: no traceback, no answer for
    # another order, and no exit 3 as if the data were at fault
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and len(out.err.splitlines()) == 1
    assert "block orders" in out.err

@pytest.mark.parametrize("argv, expected", [([*FIRST, "--alpha", "1e-320"], "0"),
                                            ([*LOCAL, "--alpha", "1e-320"], "inf")],
                         ids=["first-order", "local-threshold"])
def test_cli_power_at_a_level_whose_upper_quantile_is_inf(argv, expected, capsys):
    # 1 - alpha/2 rounds to 1, whose normal quantile is +inf
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == expected


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


def _erp_rows(shared: dict, *rows: dict) -> list:
    return [{"alpha": 0.05, **shared, **row} for row in rows]


# simulate argv and its rows, run time aside
PINNED_ROWS = [
    (["--family", "first_order_eg1", "--n", "600", "--n1", "30", "--M", "25"],
     _erp_rows({"family": "first_order_eg1", "n": 600, "n1": 30, "p": 1, "M": 25},
               {"effect": 0.3, "method": "kendall:rit:asymptotic", "erp": 0.36,
                "mc_se": 0.096})),
    (["--family", "table3_pearson_eg1", "--n", "3000", "--n1", "50", "--M", "20",
      "--n1s", "200"],
     _erp_rows({"family": "first_order_eg1", "n": 3000, "n1": 50, "p": 1, "M": 20},
               {"setting": "size", "effect": 0.0, "method": "pearson:rit:asymptotic",
                "erp": 0.05, "mc_se": 0.04873397172404482},
               {"setting": "power", "effect": 0.3, "method": "pearson:rit:asymptotic",
                "erp": 0.5, "mc_se": 0.11180339887498948},
               {"setting": "power", "effect": 0.3, "method": "pearson:bit:s=4:asymptotic",
                "erp": 0.3, "mc_se": 0.10246950765959598, "n1s": 200})),
    (["--family", "table_d4_dcov_eg1", "--n", "1100", "--p", "10", "--M", "4", "--B", "19"],
     _erp_rows({"family": "second_order_eg1", "n": 1100, "n1": 50, "p": 10, "M": 4,
                "method": "dcov:bit:s=20:permutation", "n1s": 1000},
               {"setting": "size", "effect": 0.0, "erp": 0.25, "mc_se": 0.21650635094610965},
               {"setting": "power", "effect": 0.4, "erp": 1.0, "mc_se": 0.0})),
]


def test_cli_simulate_table_preset_smoke(capsys):
    # a generic family, table3 and table_d4 (default budget) through the
    # one runner: the rows each preset gave before it, plus table_d4's n1s
    for argv, expected in PINNED_ROWS:
        assert main(["simulate", *argv]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [{k: v for k, v in r.items() if k != "seconds_total"} for r in rows] == expected


def test_cli_simulate_table_d4_runs_every_budget(capsys):
    code = main(["simulate", "--family", "table_d4_dcov_eg1", "--M", "2", "--n", "400",
                 "--n1", "20", "--n1s", "100,200", "--B", "19"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert [(r["setting"], r["method"], r["n1s"]) for r in rows] == [
        ("size", "dcov:bit:s=5:permutation", 100),
        ("power", "dcov:bit:s=5:permutation", 100),
        ("size", "dcov:bit:s=10:permutation", 200),
        ("power", "dcov:bit:s=10:permutation", 200),
    ]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "first_order_eg1", "--M", "0"],
        ["--family", "first_order_eg1", "--n", "400", "--M", "2", "--B", "0"],
        ["--family", "second_order_eg1", "--n", "400", "--M", "2", "--p", "0"],
        ["--family", "first_order_eg1", "--n", "400", "--M", "2", "--n1", "0"],
        ["--family", "table3_kendall_eg1", "--M", "0"],
        ["--family", "table_d4_dcov_eg1", "--M", "2", "--s", "0"],
        ["--family", "figure1", "--M", "0"],
        ["--family", "table3_kendall_eg1", "--M", "2", "--n1s", "0"],
    ],
)
def test_cli_simulate_refuses_an_explicit_zero(argv, capsys):
    # a 0 is a value given, not a missing flag: it is refused, not
    # replaced by the default
    assert main(["simulate", *argv]) == 2
    out = capsys.readouterr()
    assert out.out == "" and len(out.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--kernel", "dcov", "--sizes", "0,5"],
        ["--kernel", "dcov", "--sizes", "100,200", "--p", "0"],
        ["--kernel", "dcov", "--mode", "bit", "--n1", "0", "--s-grid", "2,4"],
    ],
)
def test_cli_bench_refuses_bad_sizes_and_p(argv, capsys):
    assert main(["bench", "--trials", "1", *argv]) == 2
    out = capsys.readouterr()
    assert out.out == "" and len(out.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [["test", "--method", "rit", "--s", "5"], ["test", "--threads", "0"],
     ["--threads", "-3", "test"]],
    ids=["rit-s", "threads-0", "global-threads-neg"],
)
def test_cli_test_refuses_a_ratio_outside_bit_and_threads_below_one(argv, separated_csv,
                                                                     capsys):
    assert main([*argv, "--input", separated_csv]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and len(out.err.splitlines()) == 1
