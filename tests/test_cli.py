import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dsvkernel import cli, errors
from dsvkernel import experiment as exp
from dsvkernel.data import load_csv, recode_labels
from dsvkernel.experiment import apply_transform_chain
from dsvkernel.fock import MAX_CUTOFF
from dsvkernel.svm import load_model, predict_labels

from gram_reference import gram_csv_text
from report_reference import reports_equal_ignoring_timings


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_json(out: str) -> dict:
    return json.loads(out)


class TestDataGenerate:
    def test_writes_csv_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "moons.csv"
        code, stdout, _ = run_cli(
            capsys, "data", "generate", "--dataset", "moons", "--n", "60",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        payload = parse_json(stdout)
        assert payload["n_samples"] == 60
        assert out.exists()
        assert (tmp_path / "moons.provenance.json").exists()
        data = load_csv(out, "label")
        assert data.n_samples == 60

    @pytest.mark.parametrize("command", [["data", "generate"], ["sweep"]], ids="-".join)
    @pytest.mark.parametrize("dataset, flag, other", [
        ("moons", ["--radius-ratio", "0.3"], "--radius-ratio"),
        ("moons", ["--turns", "3"], "--turns"),
        ("moons", ["--turns", "3", "--radius-ratio", "0.9"], "--radius-ratio, --turns"),
        ("circles", ["--turns", "3"], "--turns"),
        ("spirals", ["--radius-ratio", "0.3"], "--radius-ratio"),
    ], ids=["moons-ratio", "moons-turns", "moons-both", "circles-turns", "spirals-ratio"])
    def test_a_shape_flag_of_another_kind_exits_2(self, tmp_path, capsys, command, dataset,
                                                  flag, other):
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, *command, "--dataset", dataset,
                                    "--n", "40", *flag, "--out", str(out))
        assert code == 2 and stdout == ""
        assert err == f"dsvkernel: error: --dataset {dataset} takes no {other}\n"
        assert list(tmp_path.iterdir()) == []

    def test_invalid_n_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "data", "generate", "--dataset", "moons", "--n", "61",
            "--out", str(tmp_path / "m.csv"),
        )
        assert code == 2
        assert "error" in err


class TestKernelEval:
    def test_direct_gamma(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "kernel", "eval", "--xp", "0,0", "--xq", "1,1", "--gamma", "1.0",
        )
        assert code == 0
        assert abs(parse_json(stdout)["value"] - math.exp(-2.0)) <= 1e-12

    def test_squeeze_derived_gamma(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "kernel", "eval", "--xp", "0", "--xq", "1",
            "--r", "0.3", "--theta", "0.0",
        )
        assert code == 0
        payload = parse_json(stdout)
        assert abs(payload["gamma"] - math.exp(0.6)) <= 1e-12

    def test_both_gamma_sources_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "kernel", "eval", "--xp", "0", "--xq", "1",
            "--gamma", "1.0", "--r", "0.3",
        )
        assert code == 2

    def test_dimension_mismatch_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "kernel", "eval", "--xp", "0,1", "--xq", "1", "--gamma", "1.0",
        )
        assert code == 2

    def test_strong_widening_squeeze(self, capsys):
        code, stdout, err = run_cli(
            capsys, "kernel", "eval", "--xp", "0", "--xq", "1",
            "--r", "10", "--theta", repr(math.pi / 2),
        )
        assert (code, err) == (0, "")
        assert abs(parse_json(stdout)["gamma"] - math.exp(-20.0)) <= 1e-12 * math.exp(-20.0)

    def test_squeeze_whose_width_overflows_exits_2(self, capsys, tmp_path, iris_csv):
        for argv in (["kernel", "eval", "--xp", "0", "--xq", "1"],
                     ["train", "--data", str(iris_csv), "--label-column", "species",
                      "--out", str(tmp_path / "model.json")]):
            code, stdout, err = run_cli(capsys, *argv, "--r", "400")
            assert (code, stdout) == (2, ""), argv
            assert err.splitlines() == [
                "dsvkernel: error: squeezing r = 400.0 overflows the kernel width formula"
            ]
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_distance_gives_zero_without_a_warning(self, capsys):
        code, stdout, err = run_cli(
            capsys, "kernel", "eval", "--xp", "1e200", "--xq=-1e200", "--gamma", "1",
        )
        assert (code, err) == (0, "")
        assert parse_json(stdout)["value"] == 0.0


class TestKernelGram:
    @pytest.mark.filterwarnings("error")
    def test_overflowing_distance_gives_zero_without_a_warning(self, tmp_path, capsys):
        data = tmp_path / "far.csv"
        data.write_text("x,label\n1e200,a\n-1e200,b\n")
        out = tmp_path / "gram.csv"
        code, _, err = run_cli(capsys, "kernel", "gram", "--data", str(data),
                               "--gamma", "1", "--out", str(out))
        assert (code, err) == (0, "")
        values = np.loadtxt(out, delimiter=",", comments="#")
        assert np.array_equal(values, np.eye(2))

    def test_writes_gram_csv(self, tmp_path, capsys, iris_csv):
        out = tmp_path / "gram.csv"
        code, stdout, _ = run_cli(
            capsys, "kernel", "gram", "--data", str(iris_csv),
            "--label-column", "species", "--gamma", "0.5",
            "--validate", "--out", str(out),
        )
        assert code == 0
        payload = parse_json(stdout)
        assert payload["size"] == 150
        # a verdict against size^2 * eps, not the thread-dependent eigenvalue
        assert payload["positive_semidefinite"] is True
        assert "min_eigenvalue" not in payload
        header = out.read_text().splitlines()[0]
        assert header == "# gamma=0.5"

    def test_features_selects_columns(self, tmp_path, capsys, iris_csv):
        out = tmp_path / "gram.csv"
        code, _, _ = run_cli(
            capsys, "kernel", "gram", "--data", str(iris_csv), "--label-column", "species",
            "--features", "sepal_width,petal_width", "--gamma", "1", "--out", str(out),
        )
        assert code == 0
        columns = load_csv(iris_csv, "species", ["sepal_width", "petal_width"]).features
        assert out.read_bytes() == gram_csv_text(columns, 1.0).encode()

    def test_pca_reduces_the_selected_columns(self, tmp_path, capsys, iris_csv):
        def run(*flags):
            out = tmp_path / "gram.csv"
            code, stdout, _ = run_cli(
                capsys, "kernel", "gram", "--data", str(iris_csv), "--label-column",
                "species", "--gamma", "1", "--out", str(out), *flags,
            )
            assert code == 0
            values = np.loadtxt(out, delimiter=",", comments="#")
            return parse_json(stdout)["fingerprint"], values

        flagless, _ = run()
        fingerprint, values = run("--features", "sepal_width", "--pca", "1")
        assert fingerprint != flagless
        # one principal component of one standardized column is that column, up to sign
        x = load_csv(iris_csv, "species", ["sepal_width"]).features
        z = (x - x.mean()) / x.std()
        assert np.allclose(values, np.exp(-((z - z.T) ** 2)), rtol=0.0, atol=1e-12)


class TestSimulate:
    def test_overlap_record(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "simulate", "overlap", "--xp", "0", "--xq", "1",
            "--r", "0", "--theta", "0",
        )
        assert code == 0
        payload = parse_json(stdout)
        assert abs(payload["probability"] - math.exp(-1.0)) <= 1e-9
        assert payload["abs_error"] <= 1e-9

    def test_cutoff_exceeded_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "overlap", "--xp", "0", "--xq", "3.9",
            "--r", "0", "--theta", "0", "--cutoff", "16",
        )
        assert code == 2
        assert "cutoff" in err

    def test_amplitude_whose_square_overflows_exits_2(self, capsys):
        code, stdout, err = run_cli(
            capsys, "simulate", "overlap", "--xp", "1e200", "--xq", "0", "--r", "0.3",
        )
        assert (code, stdout) == (2, "")
        assert "Traceback" not in err
        assert err.splitlines() == [
            "dsvkernel: error: |x|^2 = inf exceeds cutoff/4 = 16; no cutoff holds it"
        ]

    def test_cutoff_above_the_ceiling_exits_2(self, capsys):
        code, stdout, err = run_cli(
            capsys, "simulate", "overlap", "--xp", "0", "--xq", "1", "--r", "2",
            "--cutoff", str(MAX_CUTOFF + 1),
        )
        assert (code, stdout) == (2, "")
        assert err.splitlines() == [
            f"dsvkernel: error: cutoff must be in [2, {MAX_CUTOFF}], got {MAX_CUTOFF + 1}"
        ]

    @pytest.mark.parametrize("flags", [["--xp", "0", "--r", "5"], ["--xp", "20", "--r", "0"]],
                             ids=["squeeze", "displacement"])
    def test_no_hint_names_a_cutoff_above_the_ceiling(self, capsys, flags):
        code, _, err = run_cli(capsys, "simulate", "overlap", "--xq", "0", *flags)
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.rstrip().endswith("no cutoff holds it")


class TestTrainEvaluateBoundary:
    @pytest.fixture()
    def moons_csv(self, tmp_path, capsys):
        out = tmp_path / "moons.csv"
        run_cli(capsys, "data", "generate", "--dataset", "moons", "--n", "120",
                "--seed", "0", "--out", str(out))
        return out

    def test_full_workflow(self, tmp_path, capsys, moons_csv):
        model_path = tmp_path / "model.json"
        code, stdout, _ = run_cli(
            capsys, "train", "--data", str(moons_csv), "--gamma", "1.5",
            "--seed", "0", "--out", str(model_path),
        )
        assert code == 0
        train_payload = parse_json(stdout)
        assert train_payload["converged"]
        assert train_payload["test_acc"] >= 0.8

        code, stdout, _ = run_cli(
            capsys, "evaluate", "--model", str(model_path), "--data", str(moons_csv),
        )
        assert code == 0
        assert parse_json(stdout)["accuracy"] >= 0.9

        grid_path = tmp_path / "grid.csv"
        code, stdout, _ = run_cli(
            capsys, "boundary", "--model", str(model_path), "--data", str(moons_csv),
            "--resolution", "10", "--out", str(grid_path),
        )
        assert code == 0
        lines = grid_path.read_text().splitlines()
        assert lines[0] == "x1,x2,decision_value,label"
        assert len(lines) == 1 + 100

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_tol_of_one_exits_2_before_writing(self, tmp_path, capsys, moons_csv, command):
        # at alpha = 0 the violation gap is exactly 2, so tol 1 would stop at
        # once with no support vector
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, command, "--data", str(moons_csv), "--gamma", "1",
                                    "--tol", "1", "--out", str(out))
        assert code == 2 and stdout == ""
        assert "tol must be in (0, 1), got 1.0" in err
        assert not out.exists()

    def test_tol_just_below_one_trains(self, tmp_path, capsys, moons_csv):
        model_path = tmp_path / "model.json"
        code, stdout, err = run_cli(capsys, "train", "--data", str(moons_csv), "--gamma", "1",
                                    "--tol", "0.999", "--out", str(model_path))
        assert code == 0, err
        assert parse_json(stdout)["n_sv"] > 0
        code, _, err = run_cli(capsys, "evaluate", "--model", str(model_path),
                               "--data", str(moons_csv))
        assert code == 0, err

    @pytest.mark.parametrize("train_flags, boundary_flags, message", [
        (["--data", "iris", "--label-column", "species", "--features", "sepal_width",
          "--gamma", "1"], ["--data", "iris"], "boundary grids need 2-feature models, got 1"),
        (["--data", "moons", "--gamma", "1.5"], ["--data", "iris", "--label-column", "species"],
         "feature dimensions differ: train 2, test 4"),
    ], ids=["one-feature-model", "moons-model-on-iris"])
    def test_boundary_of_data_of_another_width_exits_2(self, tmp_path, capsys, iris_csv,
                                                        moons_csv, train_flags,
                                                        boundary_flags, message):
        paths = {"iris": str(iris_csv), "moons": str(moons_csv)}
        model_path, grid_path = tmp_path / "model.json", tmp_path / "grid.csv"
        code, _, err = run_cli(capsys, "train", *[paths.get(f, f) for f in train_flags],
                               "--out", str(model_path))
        assert code == 0, err
        code, stdout, err = run_cli(capsys, "boundary", "--model", str(model_path),
                                    *[paths.get(f, f) for f in boundary_flags],
                                    "--out", str(grid_path))
        assert (code, stdout, err) == (2, "", f"dsvkernel: error: {message}\n")
        assert not grid_path.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_boundary_of_non_finite_data_exits_2(self, tmp_path, capsys, moons_csv, cell):
        model_path = tmp_path / "model.json"
        code, _, err = run_cli(capsys, "train", "--data", str(moons_csv), "--gamma", "1.5",
                               "--out", str(model_path))
        assert code == 0, err
        header, first, *rest = moons_csv.read_text().splitlines()
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("\n".join([header, cell + first[first.index(","):], *rest]) + "\n")
        grid_path = tmp_path / "newdir" / "grid.csv"
        code, stdout, err = run_cli(capsys, "boundary", "--model", str(model_path),
                                    "--data", str(bad_csv), "--out", str(grid_path))
        assert code == 2 and stdout == ""
        assert err == f"dsvkernel: error: {bad_csv}: row 2, column 'x1': not finite: {cell}\n"
        # the --out directory is made only once the data and lattice are valid
        assert not grid_path.parent.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    @pytest.mark.parametrize("command", [["train"], ["kernel", "gram"], ["sweep"]],
                             ids=["train", "kernel-gram", "sweep"])
    def test_pca_of_non_finite_data_exits_2(self, tmp_path, capsys, iris_csv, command, cell):
        header, first, *rest = iris_csv.read_text().splitlines()
        cells = first.split(",")
        cells[1] = cell
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
        out = tmp_path / "out" / "result"
        code, stdout, err = run_cli(capsys, *command, "--data", str(bad_csv), "--label-column",
                                    "species", "--pca", "2", "--gamma", "1", "--out", str(out))
        assert code == 2 and stdout == ""
        # one line, checked before PCA or any other step runs
        assert err == (f"dsvkernel: error: {bad_csv}: row 2, column 'sepal_width': "
                       f"not finite: {cell}\n")
        assert not out.parent.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cell", ["nan", "inf"])
    @pytest.mark.parametrize("command", [["train", "--standardize"], ["sweep", "--standardize"],
                                         ["kernel", "gram"]],
                             ids=["train", "sweep", "kernel-gram"])
    def test_non_finite_cell_is_one_error_line(self, tmp_path, capsys, iris_csv, command,
                                               cell):
        # numpy warns on inf - inf; the cell is rejected before any arithmetic
        lines = iris_csv.read_text().splitlines()
        cells = lines[3].split(",")
        cells[2] = cell
        lines[3] = ",".join(cells)
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out" / "result"
        code, stdout, err = run_cli(capsys, *command, "--data", str(bad_csv), "--label-column",
                                    "species", "--gamma", "1", "--out", str(out))
        assert code == 2 and stdout == ""
        assert err == (f"dsvkernel: error: {bad_csv}: row 4, column 'petal_length': "
                       f"not finite: {cell}\n")
        assert not out.parent.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_cell_in_a_dropped_column_is_read(self, tmp_path, capsys, iris_csv,
                                                         cell):
        # evaluate and boundary read only the columns the model's chain
        # selects, so only they must be finite
        model_path = tmp_path / "model.json"
        code, _, err = run_cli(capsys, "train", "--data", str(iris_csv), "--label-column",
                               "species", "--features", "sepal_width,petal_width",
                               "--standardize", "--gamma", "1", "--out", str(model_path))
        assert code == 0, err
        header, first, *rest = iris_csv.read_text().splitlines()
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("\n".join([header, cell + first[first.index(","):], *rest]) + "\n")
        for command, extra in (("evaluate", []),
                               ("boundary", ["--out", str(tmp_path / "grid.csv")])):
            outputs = [run_cli(capsys, command, "--model", str(model_path), "--data", str(csv),
                               *extra) for csv in (iris_csv, bad_csv)]
            assert outputs[0][0] == 0 and outputs[1] == outputs[0], command

    @pytest.mark.parametrize("cell, problem", [("inf", "not finite: inf"),
                                               ("zz", "not numeric: 'zz'")])
    def test_a_bad_cell_after_a_blank_line_names_its_file_line(self, tmp_path, capsys,
                                                               moons_csv, cell, problem):
        # both checks count file lines, blank ones included
        lines = moons_csv.read_text().splitlines()
        lines[3] = cell + lines[3][lines[3].index(","):]
        lines.insert(2, "")
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("\n".join(lines) + "\n")
        code, stdout, err = run_cli(capsys, "train", "--data", str(bad_csv), "--gamma", "1",
                                    "--out", str(tmp_path / "model.json"))
        assert code == 2 and stdout == ""
        assert err == f"dsvkernel: error: {bad_csv}: row 5, column 'x1': {problem}\n"

    def test_train_with_a_non_finite_test_row_writes_no_model(self, tmp_path, capsys,
                                                              moons_csv):
        # a non-finite cell of a test row is rejected when the file is read,
        # before the split, and its file line is named
        dataset = load_csv(moons_csv, "label")
        _, _, test, _ = exp.prepare(exp.ExperimentSpec(
            dataset=exp.FileSpec(path=str(moons_csv)), gammas=(1.0,), seed=0))
        row = next(i for i, x in enumerate(dataset.features) if (x == test.features[0]).all())
        lines = moons_csv.read_text().splitlines()
        lines[row + 1] = "nan" + lines[row + 1][lines[row + 1].index(","):]
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("\n".join(lines) + "\n")
        model_path = tmp_path / "out" / "model.json"
        code, stdout, err = run_cli(capsys, "train", "--data", str(bad_csv), "--gamma", "1",
                                    "--out", str(model_path))
        assert code == 2 and stdout == ""
        assert err == (f"dsvkernel: error: {bad_csv}: row {row + 2}, column 'x1': "
                       "not finite: nan\n")
        assert not model_path.parent.exists()

    def test_train_with_feature_selection_and_standardize(self, tmp_path, capsys, iris_csv):
        model_path = tmp_path / "iris.json"
        code, stdout, _ = run_cli(
            capsys, "train", "--data", str(iris_csv), "--label-column", "species",
            "--features", "sepal_width,petal_width", "--standardize",
            "--gamma", "1.0", "--seed", "0", "--out", str(model_path),
        )
        assert code == 0
        payload = json.loads(model_path.read_text())
        kinds = [entry["kind"] for entry in payload["preprocessing"]]
        assert kinds == ["select", "standardize"]

        code, stdout, _ = run_cli(
            capsys, "evaluate", "--model", str(model_path), "--data", str(iris_csv),
        )
        assert code == 0
        assert parse_json(stdout)["accuracy"] >= 0.9

    @pytest.fixture()
    def iris_model(self, tmp_path, capsys, iris_csv):
        model_path = tmp_path / "iris.json"
        code, _, _ = run_cli(
            capsys, "train", "--data", str(iris_csv), "--label-column", "species",
            "--features", "sepal_width,petal_width", "--standardize",
            "--gamma", "1.5", "--seed", "0", "--out", str(model_path),
        )
        assert code == 0
        return model_path

    def test_evaluate_file_with_a_subset_of_classes(self, tmp_path, capsys, iris_csv, iris_model):
        header, *rows = iris_csv.read_text().splitlines()
        subset = tmp_path / "versicolor.csv"
        subset.write_text("\n".join([header] + [r for r in rows if r.endswith(",versicolor")]))
        code, stdout, err = run_cli(
            capsys, "evaluate", "--model", str(iris_model), "--data", str(subset),
        )
        assert code == 0, err
        payload = parse_json(stdout)
        assert payload["n_samples"] == 50

        model, doc = load_model(iris_model)
        data = apply_transform_chain(subset, "species", doc["preprocessing"])
        versicolor = doc["label_names"].index("versicolor")
        correct = np.count_nonzero(predict_labels(model, data.features) == versicolor)
        assert payload["accuracy"] == correct / 50

        # the full file is scored as before: labels coded by the model's names
        code, stdout, _ = run_cli(
            capsys, "evaluate", "--model", str(iris_model), "--data", str(iris_csv),
        )
        full = apply_transform_chain(iris_csv, "species", doc["preprocessing"])
        assert full.label_names == tuple(doc["label_names"])
        correct = np.count_nonzero(predict_labels(model, full.features) == full.labels)
        assert code == 0 and parse_json(stdout)["accuracy"] == correct / 150

    def test_evaluate_unknown_label_exits_2(self, tmp_path, capsys, iris_csv, iris_model):
        header, *rows = iris_csv.read_text().splitlines()
        path = tmp_path / "hybrid.csv"
        path.write_text("\n".join([header, rows[0], rows[60].rsplit(",", 1)[0] + ",hybrid"]))
        code, _, err = run_cli(
            capsys, "evaluate", "--model", str(iris_model), "--data", str(path),
        )
        assert code == 2
        assert "hybrid" in err

    def test_missing_data_file_exits_4(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "train", "--data", str(tmp_path / "nope.csv"),
            "--gamma", "1.0", "--out", str(tmp_path / "m.json"),
        )
        assert code == 4
        assert "i/o" in err

    def test_non_utf8_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"a,b,label\n1,2,0\n3,4,\xff\xfe\n")
        code, _, err = run_cli(
            capsys, "train", "--data", str(path), "--gamma", "1.0",
            "--out", str(tmp_path / "m.json"),
        )
        assert code == 2
        assert "UTF-8" in err

    @pytest.mark.parametrize("text, hint", [
        ("{not json", "not a JSON model file"),
        ('{"version": 1}', "unsupported model version: 1; retrain to write version 2"),
        ('{"version": 2}', "'kernel'"),
    ], ids=["not-json", "version-1", "no-kernel"])
    def test_malformed_model_file_exits_2(self, tmp_path, capsys, moons_csv, text, hint):
        model_path = tmp_path / "bad.json"
        model_path.write_text(text)
        grid_path = tmp_path / "grid.csv"
        for command, extra in (("evaluate", []), ("boundary", ["--out", str(grid_path)])):
            code, _, err = run_cli(
                capsys, command, "--model", str(model_path), "--data", str(moons_csv), *extra,
            )
            assert code == 2, (command, err)
            assert hint in err
        assert not grid_path.exists()

    @pytest.mark.parametrize("field, value, commands", [
        ("preprocessing", [{"kind": "standardize"}], ("evaluate", "boundary")),
        ("preprocessing", [{"kind": "pca", "model": {"mean": [0.0, 0.0]}}],
         ("evaluate", "boundary")),
        ("preprocessing", 5, ("evaluate", "boundary")),
        ("preprocessing", ["select"], ("evaluate", "boundary")),
        ("preprocessing", [{"kind": "select", "names": [["x1"], "x2"]}], ("evaluate", "boundary")),
        ("label_names", 5, ("evaluate",)),
    ], ids=["standardize-no-scaler", "pca-no-components", "chain-not-a-list",
            "entry-not-a-dict", "select-names-unhashable", "label-names-not-a-list"])
    def test_malformed_replay_field_exits_2(self, tmp_path, capsys, moons_csv,
                                            field, value, commands):
        model_path = tmp_path / "model.json"
        code, _, _ = run_cli(
            capsys, "train", "--data", str(moons_csv), "--gamma", "1.5",
            "--standardize", "--out", str(model_path),
        )
        assert code == 0
        doc = json.loads(model_path.read_text())
        doc[field] = value
        model_path.write_text(json.dumps(doc))
        for command in commands:
            extra = ["--out", str(tmp_path / "grid.csv")] if command == "boundary" else []
            code, _, err = run_cli(
                capsys, command, "--model", str(model_path), "--data", str(moons_csv), *extra,
            )
            assert code == 2, (command, err)
            assert err.startswith(f"dsvkernel: error: malformed {field}: "), err

    def test_missing_model_file_exits_4(self, tmp_path, capsys, moons_csv):
        code, _, err = run_cli(
            capsys, "evaluate", "--model", str(tmp_path / "nope.json"),
            "--data", str(moons_csv),
        )
        assert code == 4
        assert "i/o" in err

    def test_single_class_exits_2(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("a,b,label\n" + "\n".join(f"{i},{i},0" for i in range(10)) + "\n")
        code, _, _ = run_cli(
            capsys, "train", "--data", str(path), "--gamma", "1.0",
            "--out", str(tmp_path / "m.json"),
        )
        assert code == 2

    def test_nonconvergence_exits_3(self, tmp_path, capsys, diabetes_csv):
        # one pass of pair updates is far too few for this 537-row machine
        model_path = tmp_path / "m.json"
        code, _, err = run_cli(
            capsys, "train", "--data", str(diabetes_csv), "--pca", "2", "--standardize",
            "--gamma", "1", "--max-passes", "1", "--out", str(model_path),
        )
        assert code == 3
        assert "non-convergence" in err
        # the best-effort model is still saved
        payload = json.loads(model_path.read_text())
        assert payload["machines"][0]["converged"] is False

    def test_large_c_converges(self, tmp_path, capsys, iris_csv):
        model_path = tmp_path / "m.json"
        code, stdout, _ = run_cli(
            capsys, "train", "--data", str(iris_csv), "--label-column", "species",
            "--gamma", "1", "--c", "1e12", "--out", str(model_path),
        )
        assert code == 0
        assert parse_json(stdout)["converged"] is True
        payload = json.loads(model_path.read_text())
        assert all(machine["converged"] is True for machine in payload["machines"])



def _accuracy_from_model_file(model_path: Path, csv: Path, label_column: str) -> float:
    """Accuracy counted point by point from the model file's own numbers: one
    support vector at a time, then the one-vs-one vote (most wins, then the
    largest summed |decision value|, then the lowest class)."""
    doc = json.loads(model_path.read_text())
    data = apply_transform_chain(csv, label_column, doc["preprocessing"])
    gamma = doc["kernel"]["gamma"]
    correct = 0
    for x, label in zip(data.features.tolist(), data.labels.tolist()):
        votes = {c: [0, 0.0] for c in doc["classes"]}
        for machine in doc["machines"]:
            d = machine["bias"] + sum(
                ay * math.exp(-gamma * sum((a - b) ** 2 for a, b in zip(x, sv)))
                for ay, sv in zip(machine["alpha_y"], machine["support_vectors"])
            )
            neg, pos = machine["pair"]
            votes[pos if d >= 0.0 else neg][0] += 1
            votes[neg][1] += abs(d)
            votes[pos][1] += abs(d)
        predicted = max(doc["classes"], key=lambda c: (*votes[c], -c))
        correct += doc["label_names"][predicted] == data.label_names[label]
    return correct / len(data.labels)


class TestEdgeContracts:
    """`train` then `evaluate` at the edges: both exit 0, and the reported
    accuracy is the one the saved model gives point by point."""

    def _train_and_evaluate(self, capsys, tmp_path, csv, *train_args):
        model_path = tmp_path / "model.json"
        code, _, err = run_cli(capsys, "train", "--data", str(csv), "--label-column",
                               "species", *train_args, "--out", str(model_path))
        assert code == 0, err
        code, stdout, err = run_cli(capsys, "evaluate", "--model", str(model_path),
                                    "--data", str(csv))
        assert code == 0, err
        accuracy = parse_json(stdout)["accuracy"]
        assert accuracy == _accuracy_from_model_file(model_path, csv, "species")
        return accuracy

    def test_gamma_1e_minus_300_every_kernel_value_is_one(self, tmp_path, capsys, iris_csv):
        # every curvature is TAU, every decision value the same: one class wins
        accuracy = self._train_and_evaluate(
            capsys, tmp_path, iris_csv, "--features", "sepal_width,petal_width",
            "--gamma", "1e-300",
        )
        assert accuracy == 1 / 3

    def test_gamma_1e300_the_gram_is_the_identity(self, tmp_path, capsys, iris_csv):
        accuracy = self._train_and_evaluate(
            capsys, tmp_path, iris_csv, "--features", "sepal_width,petal_width",
            "--gamma", "1e300",
        )
        assert accuracy == 136 / 150

    def test_a_class_of_two_rows(self, tmp_path, capsys, iris_csv):
        header, *rows = iris_csv.read_text().splitlines()
        setosa = [r for r in rows if r.endswith(",setosa")]
        others = [r for r in rows if not r.endswith(",setosa")]
        path = tmp_path / "two_setosa.csv"
        path.write_text("\n".join([header, *others, *setosa[:2]]) + "\n")
        accuracy = self._train_and_evaluate(capsys, tmp_path, path, "--gamma", "1")
        assert accuracy == 98 / 102


class TestTinyClasses:
    """`train` on a CSV with a class of 1-3 rows, exact duplicate rows and
    contradictory rows (the same features under another label), then
    `evaluate` on the same file."""

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
        st.sampled_from(["0.5", "1", "10"]),
    )
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_train_then_evaluate(self, capsys, seed, tiny, n_duplicates, n_contradictions,
                                 gamma):
        rng = np.random.default_rng(seed)
        counts = {"big": int(rng.integers(6, 12)), "mid": int(rng.integers(6, 12)),
                  "tiny": tiny}
        rows = [(rng.normal(size=2).tolist(), name)
                for name, n in counts.items() for _ in range(n)]
        # exact copies of rows of the larger classes, and any rows' features
        # under another of those classes, so the tiny class keeps its size
        big = [row for row in rows if row[1] != "tiny"]
        for k in rng.integers(0, len(big), size=n_duplicates):
            rows.append(big[k])
        for features, name in [rows[k] for k in rng.integers(0, len(rows), n_contradictions)]:
            rows.append((features, "mid" if name == "big" else "big"))
        rows = [rows[k] for k in rng.permutation(len(rows))]
        with tempfile.TemporaryDirectory() as tmp:
            csv, model_path = Path(tmp) / "tiny.csv", Path(tmp) / "out" / "model.json"
            csv.write_text("x1,x2,label\n" + "".join(
                f"{a!r},{b!r},{name}\n" for (a, b), name in rows))
            code, stdout, err = run_cli(capsys, "train", "--data", str(csv), "--gamma", gamma,
                                        "--seed", str(seed % 5), "--out", str(model_path))
            assert "Traceback" not in err
            if tiny == 1:
                assert code == 2 and stdout == ""
                assert "stratified split needs >= 2 samples per class; too small" in err
                assert not model_path.exists()
                return
            assert code in (0, 3), err
            assert model_path.exists()
            code, stdout, err = run_cli(capsys, "evaluate", "--model", str(model_path),
                                        "--data", str(csv))
            assert code == 0, err
            model, payload = load_model(model_path)
            data = recode_labels(load_csv(csv, "label"), payload["label_names"])
            correct = sum(int(predict_labels(model, x[None, :])[0] == label)
                          for x, label in zip(data.features, data.labels))
            assert parse_json(stdout)["accuracy"] == correct / len(rows)


def _no_machines(doc):
    doc["machines"] = []


def _unknown_class(doc):
    doc["machines"][0]["pair"] = [0, 5]


def _short_alpha_y(doc):
    doc["machines"][0]["alpha_y"].pop()


def _binary(doc):
    doc["type"] = "binary"
    doc["machine"] = doc.pop("machines")[0]


def _non_finite(field, value):
    """JSON's ``NaN`` or ``Infinity`` in a machine's ``field``: the first
    number of an array, or the number itself."""
    def corrupt(doc):
        machine = doc["machines"][0]
        if field == "bias":
            machine["bias"] = value
        elif field == "alpha_y":
            machine["alpha_y"][0] = value
        else:
            machine["support_vectors"][0][0] = value
    return corrupt


def _support_vector_width(n_columns):
    """A third class whose last machine's support vectors are ``n_columns``
    wide while the other two machines' are 2."""
    def corrupt(doc):
        machine = doc["machines"][0]
        odd = [[row[0]] * n_columns for row in machine["support_vectors"]]
        doc["classes"] = [0, 1, 2]
        doc["machines"] = [machine, {**machine, "pair": [0, 2]},
                           {**machine, "pair": [1, 2], "support_vectors": odd}]
    return corrupt


class TestMalformedOneVsOneModel:
    """A model file whose machines do not fit its classes, or that is not
    one-vs-one, exits 2 from both commands that read models."""

    @pytest.mark.parametrize("corrupt, hint", [
        (_no_machines, "machine pairs [] are not the class pairs of [0, 1]"),
        (_unknown_class, "machine pairs [(0, 5)] are not the class pairs of [0, 1]"),
        (_short_alpha_y, "do not agree"),
        (_binary, "unknown model type: binary"),
        (_support_vector_width(1), "machines' support vectors have widths [2, 2, 1]"),
        (_support_vector_width(3), "machines' support vectors have widths [2, 2, 3]"),
        (_non_finite("bias", math.nan), "machine [0, 1]: bias holds a non-finite number"),
        (_non_finite("alpha_y", math.inf),
         "machine [0, 1]: alpha_y holds a non-finite number"),
        (_non_finite("support_vectors", math.nan),
         "machine [0, 1]: support_vectors holds a non-finite number"),
    ], ids=["no-machines", "unknown-class", "short-alpha-y", "binary", "width-1", "width-3",
            "nan-bias", "inf-alpha-y", "nan-support-vector"])
    def test_exits_2(self, tmp_path, capsys, corrupt, hint):
        csv, model_path = tmp_path / "moons.csv", tmp_path / "model.json"
        run_cli(capsys, "data", "generate", "--dataset", "moons", "--n", "60",
                "--seed", "1", "--out", str(csv))
        code, _, err = run_cli(capsys, "train", "--data", str(csv), "--gamma", "1.5",
                               "--out", str(model_path))
        assert code == 0, err
        doc = json.loads(model_path.read_text())
        corrupt(doc)
        model_path.write_text(json.dumps(doc))
        for command, extra in (("evaluate", []),
                               ("boundary", ["--out", str(tmp_path / "grid.csv")])):
            code, _, err = run_cli(capsys, command, "--model", str(model_path),
                                   "--data", str(csv), *extra)
            assert code == 2, (command, err)
            assert err.startswith("dsvkernel: error: ") and hint in err, err
        assert not (tmp_path / "grid.csv").exists()


class TestExitStatus:
    """``main`` prints one stderr line led by the error class's label and
    returns its exit code; an OSError gives 4."""

    @pytest.mark.parametrize("error, code, label", [
        (errors.InvalidInputError, 2, "error"),
        (errors.DatasetParseError, 2, "error"),
        (errors.CutoffExceededError, 2, "error"),
        (errors.NonConvergenceError, 3, "non-convergence"),
        (OSError, 4, "i/o error"),
    ], ids=lambda value: value.__name__ if isinstance(value, type) else None)
    def test_an_error_class_sets_the_exit_status_and_label(self, monkeypatch, capsys, error,
                                                           code, label):
        def fail(args):
            raise error("what went wrong")

        monkeypatch.setattr(cli, "_cmd_simulate_overlap", fail)
        assert run_cli(capsys, "simulate", "overlap", "--xp", "0", "--xq", "1", "--r", "0") == (
            code, "", f"dsvkernel: {label}: what went wrong\n")


class TestSweepCli:
    def test_generator_sweep(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code, stdout, _ = run_cli(
            capsys, "sweep", "--dataset", "moons", "--n", "80", "--seed", "0",
            "--gamma", "1.0", "--gamma", "1.5", "--out", str(out_dir),
        )
        assert code == 0
        payload = parse_json(stdout)
        assert payload["selected_gamma"] in (1.0, 1.5)
        assert (out_dir / "report.json").exists()
        assert (out_dir / "model_gamma_1.5.json").exists()

    @pytest.fixture(params=["moons", "diabetes"])
    def file_sweep(self, request, tmp_path, capsys, diabetes_csv):
        """A two-gamma sweep over a CSV whose training rows are standardized:
        moons as generated, diabetes reduced to 2 principal components."""
        if request.param == "moons":
            csv = tmp_path / "moons.csv"
            run_cli(capsys, "data", "generate", "--dataset", "moons", "--n", "300",
                    "--seed", "1", "--out", str(csv))
            flags = ["--gamma", "1.5"]
        else:
            csv = diabetes_csv
            flags = ["--pca", "2", "--gamma", "0.5"]
        out_dir = tmp_path / "sweep"
        code, _, err = run_cli(capsys, "sweep", "--data", str(csv), *flags, "--standardize",
                               "--seed", "3", "--out", str(out_dir))
        assert code == 0, err
        return csv, flags, out_dir

    def test_sweep_model_files_score_their_source_csv(self, capsys, file_sweep):
        csv, _, out_dir = file_sweep
        report = json.loads((out_dir / "report.json").read_text())
        _, train, test, _ = exp.prepare(exp.spec_from_dict(report["spec"]))
        n = train.n_samples + test.n_samples
        for row in report["rows"]:
            model_path = out_dir / f"model_gamma_{row['gamma']!r}.json"
            code, stdout, err = run_cli(
                capsys, "evaluate", "--model", str(model_path), "--data", str(csv),
            )
            assert code == 0, err
            correct = (round(row["train_acc"] * train.n_samples)
                       + round(row["test_acc"] * test.n_samples))
            assert parse_json(stdout) == {"accuracy": correct / n, "n_samples": n}

    def test_train_saves_the_sweep_machines_at_the_same_gamma(
        self, tmp_path, capsys, file_sweep
    ):
        csv, flags, out_dir = file_sweep
        model_path = tmp_path / "train.json"
        code, stdout, err = run_cli(capsys, "train", "--data", str(csv), *flags,
                                    "--standardize", "--seed", "3", "--out", str(model_path))
        assert code == 0, err
        trained = json.loads(model_path.read_text())
        gamma = trained["kernel"]["gamma"]
        report = json.loads((out_dir / "report.json").read_text())
        row = next(r for r in report["rows"] if r["gamma"] == gamma)
        printed = parse_json(stdout)
        for key in ("train_acc", "test_acc", "n_sv", "converged"):
            assert printed[key] == row[key], key
        swept = json.loads((out_dir / f"model_gamma_{gamma!r}.json").read_text())
        assert trained["preprocessing"] == swept["preprocessing"]
        assert len(trained["machines"]) == len(swept["machines"]) == 1
        for a, b in zip(trained["machines"], swept["machines"]):
            for key in ("alpha_y", "bias", "support_vectors"):
                assert a[key] == b[key]

    @pytest.mark.parametrize("kind", ["circles", "spirals"])
    def test_report_replays_with_the_cli_defaults(self, tmp_path, capsys, kind):
        out_dir = tmp_path / "sweep"
        code, _, err = run_cli(capsys, "sweep", "--dataset", kind, "--n", "60",
                               "--gamma", "0.8", "--out", str(out_dir))
        assert code == 0, err
        report = json.loads((out_dir / "report.json").read_text())
        assert report["spec"]["dataset"] == exp.GeneratorSpec(kind, n=60).to_dict()
        spec = exp.spec_from_dict(report["spec"])
        replayed = exp.sweep(spec, spec.gammas, out_dir=tmp_path / "replay")
        assert reports_equal_ignoring_timings(replayed.to_json_dict(), report)
        assert ((tmp_path / "replay" / "model_gamma_0.8.json").read_bytes()
                == (out_dir / "model_gamma_0.8.json").read_bytes())

    def test_dataset_and_data_conflict(self, tmp_path, capsys, iris_csv):
        code, _, _ = run_cli(
            capsys, "sweep", "--dataset", "moons", "--data", str(iris_csv),
            "--out", str(tmp_path),
        )
        assert code == 2

    @pytest.mark.parametrize("flag", [
        ["--dataset", "moons", "--label-column", "species"],
        ["--dataset", "moons", "--features", "x1"],
        ["--dataset", "moons", "--pca", "1"],
        ["--data", "IRIS", "--n", "40"],
        ["--data", "IRIS", "--noise-sigma", "0.1"],
        ["--data", "IRIS", "--radius-ratio", "0.3"],
        ["--data", "IRIS", "--turns", "5"],
    ], ids=lambda flag: flag[2])
    def test_a_flag_of_the_other_source_exits_2(self, tmp_path, capsys, iris_csv, flag):
        argv = [str(iris_csv) if a == "IRIS" else a for a in flag]
        out_dir = tmp_path / "sweep"
        code, stdout, err = run_cli(capsys, "sweep", *argv, "--gamma", "1.5",
                                    "--out", str(out_dir))
        assert code == 2 and stdout == ""
        other = "--data" if flag[0] == "--dataset" else "--dataset"
        assert err == f"dsvkernel: error: {other} flags given with {flag[0]}: {flag[2]}\n"
        assert not out_dir.exists()

    def test_repeated_gamma_exits_2(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code, stdout, err = run_cli(capsys, "sweep", "--dataset", "moons", "--n", "60",
                                    "--gamma", "1", "--gamma", "0.5", "--gamma", "1.0",
                                    "--out", str(out_dir))
        assert code == 2 and stdout == ""
        assert err == "dsvkernel: error: gamma list repeats a value: [1.0, 0.5, 1.0]\n"
        assert not out_dir.exists()


#: Runs CLI commands in a fresh interpreter in which ``import scipy`` fails.
NO_SCIPY_SCRIPT = """
import json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
from dsvkernel import cli

codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_cli_runs_without_scipy(tmp_path, iris_csv):
    csv, model = str(tmp_path / "moons.csv"), str(tmp_path / "model.json")
    commands = [
        ["data", "generate", "--dataset", "moons", "--n", "60", "--seed", "1", "--out", csv],
        ["train", "--data", csv, "--gamma", "1.5", "--out", model],
        ["evaluate", "--model", model, "--data", csv],
        ["boundary", "--model", model, "--data", csv, "--resolution", "20",
         "--out", str(tmp_path / "boundary.csv")],
        ["kernel", "gram", "--data", str(iris_csv), "--label-column", "species",
         "--gamma", "0.7", "--validate", "--out", str(tmp_path / "gram.csv")],
        ["simulate", "overlap", "--xp", "0.3", "--xq", "-0.2", "--r", "0.4", "--theta", "0.7"],
    ]
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0] * len(commands), "scipy": []}
