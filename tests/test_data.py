import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import dsvkernel
from dsvkernel.data import (
    SPIRAL_RADIUS_PER_TURN,
    ColumnScaler,
    LabeledDataset,
    PcaModel,
    SplitSpec,
    atomic_write_text,
    load_csv,
    make_circles,
    make_moons,
    make_spirals,
    pca_fit,
    pca_transform,
    pretty_json,
    save_csv,
    select_features,
    split,
    standardize_apply,
    standardize_fit,
)
from dsvkernel.errors import (
    DatasetParseError,
    DegenerateLabelsError,
    InvalidInputError,
)


class TestMoons:
    def test_balanced_300(self):
        data = make_moons(300, 0.15, seed=0)
        assert data.n_samples == 300
        assert np.count_nonzero(data.labels == 0) == 150
        assert np.count_nonzero(data.labels == 1) == 150

    def test_noiseless_class0_on_unit_upper_semicircle(self):
        data = make_moons(200, 0.0, seed=1)
        class0 = data.features[data.labels == 0]
        radii = np.linalg.norm(class0, axis=1)
        assert np.max(np.abs(radii - 1.0)) <= 1e-12
        assert np.min(class0[:, 1]) >= -1e-12

    def test_seed_determinism(self):
        a = make_moons(100, 0.2, seed=7)
        b = make_moons(100, 0.2, seed=7)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_odd_n_rejected(self):
        with pytest.raises(InvalidInputError):
            make_moons(301, 0.1, seed=0)


class TestCircles:
    def test_balanced(self):
        data = make_circles(300, 0.5, 0.08, seed=0)
        assert np.count_nonzero(data.labels == 0) == 150
        assert np.count_nonzero(data.labels == 1) == 150

    def test_noiseless_radii(self):
        data = make_circles(200, 0.5, 0.0, seed=2)
        radii = np.linalg.norm(data.features, axis=1)
        assert np.max(np.abs(radii[data.labels == 0] - 1.0)) <= 1e-12
        assert np.max(np.abs(radii[data.labels == 1] - 0.5)) <= 1e-12

    def test_ratio_validated(self):
        with pytest.raises(InvalidInputError):
            make_circles(100, 1.5, 0.1, seed=0)

    def test_not_linearly_separable(self):
        # a linear-Gram SVM stays near chance on concentric circles
        from dsvkernel.svm import solve_dual

        data = make_circles(120, 0.5, 0.0, seed=3)
        X = data.features
        y = np.where(data.labels == 1, 1.0, -1.0)
        lin = X @ X.T
        alpha, bias, _, _ = solve_dual(lin, y, 1e3, 1e-4, 50)
        scores = lin @ (alpha * y) + bias
        train_acc = float(np.mean(np.where(scores >= 0, 1.0, -1.0) == y))
        assert train_acc <= 0.60


class TestSpirals:
    def test_balanced(self):
        data = make_spirals(300, 2.0, 0.5, seed=0)
        assert np.count_nonzero(data.labels == 0) == 150

    def test_noiseless_arm_geometry(self):
        data = make_spirals(200, 2.0, 0.0, seed=4)
        arm0 = data.features[data.labels == 0]
        arm1 = data.features[data.labels == 1]
        # second arm is the first rotated by pi at equal radius
        assert np.max(np.abs(arm1 + arm0)) <= 1e-12
        radii = np.linalg.norm(arm0, axis=1)
        assert radii.max() <= SPIRAL_RADIUS_PER_TURN * 2.0 + 1e-9
        angles = np.arctan2(arm0[:, 1], arm0[:, 0])
        spiral_angle = radii * (2.0 * math.pi * 2.0) / (SPIRAL_RADIUS_PER_TURN * 2.0)
        wrapped = np.mod(spiral_angle - angles, 2.0 * math.pi)
        assert np.max(np.minimum(wrapped, 2.0 * math.pi - wrapped)) <= 1e-9

    def test_turns_validated(self):
        with pytest.raises(InvalidInputError):
            make_spirals(100, 0.0, 0.1, seed=0)

    def test_seed_determinism(self):
        assert np.array_equal(
            make_spirals(80, 2.0, 0.3, seed=9).features,
            make_spirals(80, 2.0, 0.3, seed=9).features,
        )


class TestLoadCsv:
    def test_iris_shape(self, iris_csv):
        data = load_csv(iris_csv, "species")
        assert data.n_samples == 150
        assert data.n_features == 4
        assert len(data.label_names) == 3
        assert data.label_names == ("setosa", "versicolor", "virginica")

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", "label")

    def test_non_numeric_cell_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["a,b,label"] + [f"{i},{i},0" for i in range(5)] + ["oops,3,1"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DatasetParseError, match="row 7.*'a'"):
            load_csv(path, "label")

    @pytest.mark.parametrize("cell, shown", [("nan", "nan"), ("Infinity", "inf"),
                                             ("-inf", "-inf")])
    def test_non_finite_cell_names_its_file_line(self, tmp_path, cell, shown):
        # line 3 is blank, so the bad cell is on line 4, the second data row
        path = tmp_path / "bad.csv"
        path.write_text(f"a,b,label\n1,2,0\n\n1,{cell},1\n")
        with pytest.raises(DatasetParseError) as err:
            load_csv(path, "label")
        assert str(err.value) == f"{path}: row 4, column 'b': not finite: {shown}"
        assert load_csv(path, "label", ["a"]).features.tolist() == [[1.0], [1.0]]

    def test_malformed_row_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n1,2,0\n1,2\n")
        with pytest.raises(DatasetParseError, match="row 3"):
            load_csv(path, "label")

    def test_unknown_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n1,2,0\n")
        with pytest.raises(DatasetParseError, match="unknown label column"):
            load_csv(path, "target")

    def test_unknown_feature_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n1,2,0\n")
        with pytest.raises(DatasetParseError, match="unknown feature column"):
            load_csv(path, "label", ["a", "zz"])

    def test_numeric_labels_sorted_numerically(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("a,label\n0,10\n1,2\n2,10\n")
        data = load_csv(path, "label")
        assert data.label_names == ("2", "10")
        assert data.labels.tolist() == [1, 0, 1]

    @pytest.mark.parametrize("text, features, name", [
        ("a,a,b,label\n1,100,5,0\n2,200,6,1\n", ["a"], "a"),
        ("x,label,label\n1,0,1\n2,1,0\n", None, "label"),
        ("a,a,b,label\n1,100,5,0\n2,200,6,1\n", None, "a"),
    ], ids=["requested-feature", "label", "no-features-given"])
    def test_a_column_read_twice_in_the_header_is_rejected(self, tmp_path, text, features, name):
        path = tmp_path / "dup.csv"
        path.write_text(text)
        with pytest.raises(DatasetParseError) as err:
            load_csv(path, "label", features)
        assert str(err.value) == f"{path}: column {name!r} appears twice in the header"

    def test_a_repeated_column_that_is_not_read_is_allowed(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,a,b,label\n1,100,5,0\n2,200,6,1\n")
        assert load_csv(path, "label", ["b"]).features.tolist() == [[5.0], [6.0]]
        with pytest.raises(DatasetParseError, match="duplicate feature columns requested"):
            load_csv(path, "label", ["b", "b"])

    def test_labels_of_equal_value_keep_one_order_under_every_hash_seed(self, tmp_path):
        path = tmp_path / "ties.csv"
        path.write_text("a,label\n0,1\n1, 1\n2,01\n3,2\n4,1\n")
        script = ("import json, sys; from dsvkernel.data import load_csv; "
                  "print(json.dumps(load_csv(sys.argv[1], 'label').label_names))")
        src = str(Path(dsvkernel.__file__).resolve().parent.parent)
        orders = set()
        for seed in range(8):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p))
            proc = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            orders.add(tuple(json.loads(proc.stdout)))
        assert orders == {(" 1", "01", "1", "2")}

    def test_hash_stable_across_loads(self, iris_csv):
        a = load_csv(iris_csv, "species")
        b = load_csv(iris_csv, "species")
        assert a.provenance["sha256"] == b.provenance["sha256"]


class TestSelectFeatures:
    def test_iris_two_columns(self, iris_csv):
        data = load_csv(iris_csv, "species")
        narrowed = select_features(data, ["sepal_width", "petal_width"])
        assert narrowed.feature_names == ("sepal_width", "petal_width")
        assert narrowed.n_samples == 150
        assert_allclose(narrowed.features[:, 0], data.features[:, 1])

    def test_identity_selection(self, iris_csv):
        data = load_csv(iris_csv, "species")
        same = select_features(data, list(data.feature_names))
        assert np.array_equal(same.features, data.features)

    def test_duplicates_rejected(self, iris_csv):
        data = load_csv(iris_csv, "species")
        with pytest.raises(InvalidInputError):
            select_features(data, ["petal_width", "petal_width"])

    def test_unknown_name_rejected(self, iris_csv):
        data = load_csv(iris_csv, "species")
        with pytest.raises(InvalidInputError):
            select_features(data, ["petal_girth"])


def _line_dataset(n=40, seed=0):
    rng = np.random.default_rng(seed)
    t = rng.normal(size=n)
    feats = np.column_stack([3.0 * t + 1.0, -1.5 * t + 2.0])
    return LabeledDataset(
        features=feats,
        labels=np.zeros(n, dtype=int),
        feature_names=("x1", "x2"),
        label_names=("0",),
        provenance={},
    )


class TestPca:
    def test_line_data_first_component(self):
        data = _line_dataset()
        model = pca_fit(data, 2)
        direction = np.array([3.0, -1.5])
        direction /= np.linalg.norm(direction)
        assert min(
            np.linalg.norm(model.components[0] - direction),
            np.linalg.norm(model.components[0] + direction),
        ) <= 1e-10
        assert model.explained_variance[1] <= 1e-20

    def test_components_orthonormal(self, iris_csv):
        data = load_csv(iris_csv, "species")
        model = pca_fit(data, 4)
        gram_err = np.max(np.abs(model.components @ model.components.T - np.eye(4)))
        assert gram_err <= 1e-10

    def test_full_rank_reconstruction(self, iris_csv):
        data = load_csv(iris_csv, "species")
        model = pca_fit(data, 4)
        projected = pca_transform(model, data)
        reconstructed = projected.features @ model.components + model.mean
        assert np.max(np.abs(reconstructed - data.features)) <= 1e-10

    def test_variance_totals(self, iris_csv):
        data = load_csv(iris_csv, "species")
        model = pca_fit(data, 4)
        total = np.var(data.features, axis=0, ddof=1).sum()
        assert abs(model.explained_variance.sum() - total) <= 1e-8

    def test_sign_convention(self, iris_csv):
        data = load_csv(iris_csv, "species")
        model = pca_fit(data, 2)
        for row in model.components:
            assert row[int(np.argmax(np.abs(row)))] > 0.0

    def test_k_validated(self, iris_csv):
        data = load_csv(iris_csv, "species")
        with pytest.raises(InvalidInputError):
            pca_fit(data, 5)

    def test_transform_names(self, iris_csv):
        data = load_csv(iris_csv, "species")
        projected = pca_transform(pca_fit(data, 2), data)
        assert projected.feature_names == ("pc1", "pc2")

    def test_dict_round_trip_is_bitwise(self, iris_csv):
        model = pca_fit(load_csv(iris_csv, "species"), 3)
        again = PcaModel.from_dict(json.loads(json.dumps(model.to_dict())))
        for name in ("mean", "components", "explained_variance"):
            assert getattr(again, name).tobytes() == getattr(model, name).tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field, value, message", [
        ("mean", [math.inf, 0.0], "PCA model: mean holds a non-finite number"),
        ("components", [[math.nan, 0.0]], "PCA model: components holds a non-finite number"),
        ("explained_variance", [math.nan], "PCA model: explained_variance holds a non-finite"),
        ("components", [[1e308, 0.0]], r"components not orthonormal \(error inf\)"),
    ], ids=["inf-mean", "nan-components", "nan-explained-variance", "huge-components"])
    def test_bad_numbers_refused_before_arithmetic(self, field, value, message):
        fields = {"mean": [0.0, 0.0], "components": [[1.0, 0.0]], "explained_variance": [1.0],
                  field: value}
        with pytest.raises(InvalidInputError, match=message):
            PcaModel(**{name: np.array(v) for name, v in fields.items()})


class TestStandardize:
    def test_fixed_point(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(200, 3))
        feats = (feats - feats.mean(axis=0)) / feats.std(axis=0)
        data = LabeledDataset(
            features=feats, labels=np.zeros(200, dtype=int),
            feature_names=("a", "b", "c"), label_names=("0",), provenance={},
        )
        scaler = standardize_fit(data)
        out = standardize_apply(scaler, data)
        assert np.max(np.abs(out.features - data.features)) <= 1e-12

    def test_constant_column_flagged_untouched(self):
        feats = np.column_stack([np.arange(10.0), np.full(10, 3.5)])
        data = LabeledDataset(
            features=feats, labels=np.zeros(10, dtype=int),
            feature_names=("a", "b"), label_names=("0",), provenance={},
        )
        scaler = standardize_fit(data)
        assert scaler.constant_columns == (1,)
        out = standardize_apply(scaler, data)
        assert np.array_equal(out.features[:, 1], feats[:, 1])
        assert abs(out.features[:, 0].mean()) <= 1e-12

    @pytest.mark.parametrize("column", [
        [1.53e308, 1.7e308] * 20,  # the sum, and so the mean, overflows
        [1e308, -1e308] * 20,  # the mean is 0, the squared deviations overflow
    ], ids=["mean", "std"])
    def test_overflowing_column_refused_without_a_warning(self, column):
        data = LabeledDataset(
            features=np.column_stack([np.arange(40.0), column]), labels=np.zeros(40, dtype=int),
            feature_names=("a", "b"), label_names=("0",), provenance={},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="deviation of column 'b' overflows"):
                standardize_fit(data)

    def test_train_statistics_applied_to_test(self):
        train = LabeledDataset(
            features=np.array([[0.0], [2.0]]), labels=np.array([0, 0]),
            feature_names=("a",), label_names=("0",), provenance={},
        )
        test = LabeledDataset(
            features=np.array([[4.0]]), labels=np.array([0]),
            feature_names=("a",), label_names=("0",), provenance={},
        )
        scaler = standardize_fit(train)
        out = standardize_apply(scaler, test)
        # train mean 1, std 1 -> 4 maps to 3; test statistics never enter
        assert_allclose(out.features, [[3.0]])

    def test_dict_round_trip_is_bitwise(self, iris_csv):
        data = load_csv(iris_csv, "species")
        feats = np.column_stack([data.features, np.full(data.n_samples, 0.1)])
        scaler = standardize_fit(replace(data, features=feats,
                                         feature_names=(*data.feature_names, "constant")))
        assert scaler.constant_columns == (4,)
        again = ColumnScaler.from_dict(json.loads(json.dumps(scaler.to_dict())))
        assert again.mean.tobytes() == scaler.mean.tobytes()
        assert again.scale.tobytes() == scaler.scale.tobytes()
        assert again.constant_columns == scaler.constant_columns

    @pytest.mark.parametrize("field, value, message", [
        ("mean", [math.nan, 0.0], "scaler: mean holds a non-finite number"),
        ("scale", [1.0, math.inf], "scaler: scale holds a non-finite number"),
        ("scale", [1.0, 0.0], "scaler: scale holds a number that is not positive"),
        ("scale", [-2.0, 1.0], "scaler: scale holds a number that is not positive"),
    ], ids=["nan-mean", "inf-scale", "zero-scale", "negative-scale"])
    def test_bad_numbers_refused(self, field, value, message):
        fields = {"mean": [0.0, 0.0], "scale": [1.0, 1.0], field: value}
        with pytest.raises(InvalidInputError, match=message):
            ColumnScaler(mean=np.array(fields["mean"]), scale=np.array(fields["scale"]),
                         constant_columns=())


class TestSplit:
    def test_300_balanced_gives_210_90(self):
        data = make_moons(300, 0.1, seed=0)
        train, test = split(data, SplitSpec(0.7, seed=1, stratified=True))
        assert train.n_samples == 210
        assert test.n_samples == 90

    def test_iris_per_class_counts(self, iris_csv):
        data = load_csv(iris_csv, "species")
        train, test = split(data, SplitSpec(0.7, seed=0, stratified=True))
        assert train.n_samples == 105 and test.n_samples == 45
        for c in range(3):
            assert np.count_nonzero(train.labels == c) == 35
            assert np.count_nonzero(test.labels == c) == 15

    def test_same_seed_same_partition(self):
        data = make_circles(120, 0.5, 0.05, seed=3)
        a_train, a_test = split(data, SplitSpec(0.7, seed=5, stratified=True))
        b_train, b_test = split(data, SplitSpec(0.7, seed=5, stratified=True))
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_test.features, b_test.features)

    def test_partition_preserves_rows(self):
        data = make_moons(100, 0.2, seed=2)
        train, test = split(data, SplitSpec(0.7, seed=0, stratified=True))
        combined = np.vstack([train.features, test.features])
        assert np.array_equal(
            np.sort(combined, axis=0), np.sort(data.features, axis=0)
        )
        assert train.n_samples + test.n_samples == data.n_samples

    def test_unstratified_split(self):
        data = make_moons(100, 0.2, seed=2)
        train, test = split(data, SplitSpec(0.7, seed=0, stratified=False))
        assert train.n_samples == 70 and test.n_samples == 30

    def test_remainder_tops_up_to_global_floor(self):
        # classes of 7 and 7 at 0.7: floors give 4+4, global floor is 9
        feats = np.arange(28.0).reshape(14, 2)
        data = LabeledDataset(
            features=feats, labels=np.array([0] * 7 + [1] * 7),
            feature_names=("a", "b"), label_names=("0", "1"), provenance={},
        )
        train, test = split(data, SplitSpec(0.7, seed=0, stratified=True))
        assert train.n_samples == 9
        # both classes keep at least one test row
        assert set(np.unique(test.labels)) == {0, 1}

    def test_small_class_rejected(self):
        data = LabeledDataset(
            features=np.zeros((3, 1)), labels=np.array([0, 0, 1]),
            feature_names=("a",), label_names=("0", "1"), provenance={},
        )
        with pytest.raises(DegenerateLabelsError):
            split(data, SplitSpec(0.7, seed=0, stratified=True))

    def test_fraction_validated(self):
        with pytest.raises(InvalidInputError):
            SplitSpec(1.0, 0, True)


class TestSaveCsv:
    def test_roundtrip_with_sidecar(self, tmp_path):
        data = make_moons(40, 0.1, seed=0)
        out = tmp_path / "moons.csv"
        save_csv(data, out)
        assert (tmp_path / "moons.provenance.json").exists()
        loaded = load_csv(out, "label")
        assert np.max(np.abs(loaded.features - data.features)) == 0.0
        assert np.array_equal(loaded.labels, data.labels)


class TestAtomicWriteText:
    def test_pieces_are_written_in_order(self, tmp_path):
        out = tmp_path / "f.txt"
        atomic_write_text(out, (f"{k}\n" for k in range(3)))
        assert out.read_bytes() == b"0\n1\n2\n"
        atomic_write_text(out, "whole\n")
        assert out.read_bytes() == b"whole\n"

    def test_a_piece_that_raises_keeps_the_old_file(self, tmp_path):
        out = tmp_path / "f.txt"
        out.write_bytes(b"old\n")

        def pieces():
            yield "new first line\n"
            raise RuntimeError("failed partway")

        with pytest.raises(RuntimeError, match="partway"):
            atomic_write_text(out, pieces())
        assert out.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]

    def test_missing_parent_directories_are_made(self, tmp_path):
        out = tmp_path / "a" / "b" / "f.txt"
        atomic_write_text(out, "text\n")
        assert out.read_bytes() == b"text\n"
        assert [p.name for p in out.parent.iterdir()] == ["f.txt"]


NUMBER = st.one_of(st.integers(-10**20, 10**20), st.floats(allow_nan=True, allow_infinity=True))
SCALAR = st.one_of(NUMBER, st.booleans(), st.none(), st.text(max_size=8))
JSON_VALUE = st.recursive(
    SCALAR,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(st.lists(NUMBER, max_size=4), max_size=4),  # a model's support vectors
        st.dictionaries(st.text(max_size=6), inner, max_size=5),
    ),
    max_leaves=30,
)


class TestPrettyJson:
    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), -float("inf"), True, False, None, [], {},
        "naïve ✓ 😀", {"é": "ü", "a": ["ß", "\u2028"]},
        [float("nan"), float("inf"), -float("inf"), 0, -0.0, 1e-07, 2**70],
        [[1.5, float("nan")], [float("-inf"), 3]], [[1], [], [2]], [[True, 1]], [[[1, 2]]],
        {"b": [], "a": {}, "c": [True, False, None], "d": [[]], "e": {"x": [[1.0, 2.0]]}},
        {"nested": [{"k": [1, 2]}, [], {}, [[0.5]]]}, (1, 2.5), {2: "int key", 1: [1]},
    ])
    def test_equals_json_dumps(self, value):
        assert pretty_json(value) == json.dumps(value, indent=2, sort_keys=True)

    @given(JSON_VALUE)
    @settings(max_examples=300)
    def test_equals_json_dumps_on_any_document(self, value):
        assert pretty_json(value) == json.dumps(value, indent=2, sort_keys=True)
