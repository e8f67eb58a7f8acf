import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dsvkernel import experiment as exp
from dsvkernel.data import LabeledDataset, SplitSpec, load_csv, make_circles, make_moons
from dsvkernel.errors import InvalidDimensionError, InvalidInputError
from dsvkernel.kernel import KernelConfig
from dsvkernel.svm import (
    MulticlassModel,
    SvmConfig,
    SvmModel,
    predict_labels,
    train_binary,
    train_multiclass,
)

from boundary_reference import reference_boundary_csv
from conftest import MISSING_DIABETES_MSG, diabetes_available
from report_reference import reports_equal_ignoring_timings
from svm_reference import accuracy_reference, train_multiclass_reference


def _moons_spec(**overrides):
    defaults = dict(
        dataset=exp.GeneratorSpec("moons", n=80),
        gammas=(1.0, 1.5),
        tol=1e-4,
        seed=0,
    )
    defaults.update(overrides)
    return exp.ExperimentSpec(**defaults)


class TestSpec:
    def test_hash_stable_and_sensitive(self):
        a = _moons_spec()
        b = _moons_spec()
        assert a.spec_hash() == b.spec_hash()
        assert a.spec_hash() != _moons_spec(seed=1).spec_hash()

    def test_roundtrip_through_dict(self):
        datasets = [
            exp.GeneratorSpec("moons", n=80),
            exp.GeneratorSpec("circles", n=60, noise_sigma=0.2, radius_ratio=0.3),
            exp.GeneratorSpec("spirals", n=40, noise_sigma=0.0, turns=1.25),
            exp.FileSpec(path="data/iris.csv", label_column="species",
                         feature_columns=("sepal_width", "petal_width", "petal_length"),
                         pca_components=2),
        ]
        for dataset in datasets:
            spec = _moons_spec(dataset=dataset, c=2.5, max_passes=50, train_fraction=0.6,
                               stratified=False, standardize=True, seed=9)
            again = exp.spec_from_dict(json.loads(json.dumps(spec.to_dict())))
            assert again == spec
            assert again.spec_hash() == spec.spec_hash()

    def test_spec_hash_is_pinned(self):
        """The hashes of one generator spec and one file spec: a key added to,
        dropped from or renamed in ``to_dict``, or a value written in another
        form, changes them and the ``spec_hash`` of every report."""
        generator = exp.ExperimentSpec(
            dataset=exp.GeneratorSpec("spirals", n=120, noise_sigma=0.3, turns=1.5),
            gammas=(0.25, 2.5), c=3.0, tol=1e-4, max_passes=50, train_fraction=0.6,
            stratified=False, standardize=True, seed=7,
        )
        file = exp.ExperimentSpec(
            dataset=exp.FileSpec(path="data/iris.csv", label_column="species",
                                 feature_columns=("sepal_width", "petal_width", "petal_length"),
                                 pca_components=2),
            gammas=(0.5,), standardize=True, seed=3,
        )
        assert generator.spec_hash() == (
            "1cf7ba8a5eab89883582eccd172b5c90ce3c60b1ca7c4fea0e57f9450cf03360")
        assert file.spec_hash() == (
            "0877a3e9dfa1b37fc4f9c41e0f3410eea72943493ade8be3f0685d4be505ca8a")

    @pytest.mark.parametrize("kind, shape", [
        ("moons", {}), ("circles", {"radius_ratio": 0.3}), ("spirals", {"turns": 1.25}),
    ])
    def test_shape_is_the_kinds_own_fields(self, kind, shape):
        spec = exp.GeneratorSpec(kind, radius_ratio=0.3, turns=1.25)
        assert spec.shape() == shape
        assert spec.to_dict() == {"source": "generator", "kind": kind, "n": 300,
                                  "noise_sigma": exp.GENERATORS[kind][0], **shape}

    def test_generator_is_looked_up_on_the_data_module_per_call(self, monkeypatch):
        """A wrapper installed on ``data.make_circles`` (as the benchmark's
        tracer installs one) sees the call ``build_dataset`` makes."""
        calls = []

        def recording(*args, **kwargs):
            calls.append(kwargs)
            return make_circles(*args, **kwargs)

        monkeypatch.setattr("dsvkernel.data.make_circles", recording)
        dataset = exp.build_dataset(exp.GeneratorSpec("circles", n=20), 1)
        assert calls == [{"n": 20, "noise_sigma": 0.08, "seed": 1, "radius_ratio": 0.5}]
        assert dataset.provenance["generator"] == "circles"

    def test_unknown_generator_kind_rejected(self):
        with pytest.raises(InvalidInputError, match="unknown generator kind"):
            exp.GeneratorSpec("blobs")

    def test_defaults_are_the_solver_and_split_defaults(self):
        spec = exp.ExperimentSpec(dataset=exp.GeneratorSpec("moons"), gammas=(1.5,))
        kernel = KernelConfig(1.5)
        assert spec.svm_config(kernel) == SvmConfig(kernel=kernel)
        default_split = SplitSpec()
        assert (spec.train_fraction, spec.stratified) == (default_split.train_fraction,
                                                          default_split.stratified)

    @pytest.mark.parametrize("gammas", [(1.5, 1.5), (1, 0.5, 1.0)])
    def test_repeated_gamma_rejected(self, gammas):
        with pytest.raises(InvalidInputError, match="repeats"):
            exp.ExperimentSpec(dataset=exp.GeneratorSpec("moons"), gammas=gammas)

    def test_file_spec_roundtrip(self, iris_csv):
        spec = exp.ExperimentSpec(
            dataset=exp.FileSpec(path=str(iris_csv), label_column="species",
                                 feature_columns=("sepal_width", "petal_width")),
            gammas=(0.5,),
        )
        assert exp.spec_from_dict(spec.to_dict()) == spec

    def test_empty_gammas_rejected(self):
        with pytest.raises(InvalidInputError):
            exp.ExperimentSpec(dataset=exp.GeneratorSpec("moons"), gammas=())

    def test_generator_defaults(self):
        assert exp.GeneratorSpec("moons").noise_sigma == 0.15
        assert exp.GeneratorSpec("circles").noise_sigma == 0.08
        assert exp.GeneratorSpec("spirals").noise_sigma == 0.5

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            exp.GeneratorSpec("doughnuts")


class TestRunExperiment:
    def test_baseline_always_present_and_flagged(self):
        report = exp.run_experiment(_moons_spec(gammas=(1.5,)))
        gammas = [r.gamma for r in report.rows]
        assert gammas == [1.5, 1.0]
        assert [r.is_baseline for r in report.rows] == [False, True]

    def test_explicit_baseline_not_duplicated(self):
        report = exp.run_experiment(_moons_spec(gammas=(1.0, 1.5)))
        assert [r.gamma for r in report.rows] == [1.0, 1.5]
        assert sum(r.is_baseline for r in report.rows) == 1

    def test_baseline_row_matches_standalone_run(self):
        multi = exp.run_experiment(_moons_spec(gammas=(1.5, 1.0)))
        solo = exp.run_experiment(_moons_spec(gammas=(1.0,)))
        assert multi.baseline_row().test_acc == solo.baseline_row().test_acc
        assert multi.baseline_row().train_acc == solo.baseline_row().train_acc
        assert multi.baseline_row().n_sv == solo.baseline_row().n_sv

    def test_report_files_written(self, tmp_path):
        report = exp.run_experiment(_moons_spec(), out_dir=tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["version"] == 1
        assert doc["spec_hash"] == report.spec.spec_hash()
        assert {row["gamma"] for row in doc["rows"]} == {1.0, 1.5}
        for row in doc["rows"]:
            assert set(row) == {"gamma", "train_acc", "test_acc", "n_sv",
                                "converged", "is_baseline"}
        assert (tmp_path / "model_gamma_1.0.json").exists()
        assert (tmp_path / "model_gamma_1.5.json").exists()
        model_doc = json.loads((tmp_path / "model_gamma_1.5.json").read_text())
        assert model_doc["spec_hash"] == report.spec.spec_hash()
        # the width is stored once, as the kernel's
        assert model_doc["version"] == 2 and model_doc["kernel"]["gamma"] == 1.5
        assert "gamma" not in model_doc

    def test_replay_byte_identical_excluding_timings(self, tmp_path):
        exp.run_experiment(_moons_spec(), out_dir=tmp_path / "a")
        exp.run_experiment(_moons_spec(), out_dir=tmp_path / "b")
        doc_a = json.loads((tmp_path / "a" / "report.json").read_text())
        doc_b = json.loads((tmp_path / "b" / "report.json").read_text())
        for doc in (doc_a, doc_b):  # both parse, each with one timing per row
            assert sorted(doc["timings"]) == sorted(repr(row["gamma"]) for row in doc["rows"])
        assert reports_equal_ignoring_timings(doc_a, doc_b)
        del doc_a["timings"], doc_b["timings"]
        assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)

    def test_report_replayable_from_embedded_spec(self, tmp_path):
        exp.run_experiment(_moons_spec(), out_dir=tmp_path / "run")
        # a sweep's report embeds its grid as the spec's gammas
        exp.sweep(_moons_spec(gammas=(1.0,)), (0.5, 1.5), out_dir=tmp_path / "sweep")
        for writer in ("run", "sweep"):
            doc = json.loads((tmp_path / writer / "report.json").read_text())
            replay = exp.run_experiment(exp.spec_from_dict(doc["spec"]))
            assert reports_equal_ignoring_timings(doc, replay.to_json_dict()), writer
            assert replay.selected_gamma == exp.select_gamma(replay.rows)


class TestSweep:
    def test_singleton_grid(self):
        report = exp.sweep(_moons_spec(gammas=(1.0,)), (1.0,))
        assert report.selected_gamma == 1.0

    def test_selected_never_below_baseline(self):
        report = exp.sweep(_moons_spec(), (0.5, 1.5, 3.0))
        assert report.row_for(report.selected_gamma).test_acc >= report.baseline_row().test_acc

    def test_tie_prefers_log_distance_then_larger(self):
        rows = [
            exp.ExperimentRow(0.8, 1.0, 0.95, 4, True, False, 0.0),
            exp.ExperimentRow(1.25, 1.0, 0.95, 4, True, False, 0.0),
            exp.ExperimentRow(1.0, 1.0, 0.90, 4, True, True, 0.0),
        ]
        assert exp.select_gamma(rows) == 1.25
        rows.append(exp.ExperimentRow(1.1, 1.0, 0.95, 4, True, False, 0.0))
        assert exp.select_gamma(rows) == 1.1


class TestSharedTrainingPath:
    """A sweep trains and scores every gamma from one squared-distance
    matrix; its files equal those of the per-fit path, which builds a Gram
    per machine and scores the training split through a cross Gram."""

    @pytest.mark.parametrize("name", ["iris", "moons"])
    def test_sweep_files_equal_the_per_fit_path(self, tmp_path, monkeypatch, iris_csv, name):
        if name == "iris":
            dataset = exp.FileSpec(path=str(iris_csv), label_column="species")
        else:
            dataset = exp.GeneratorSpec("moons")
        spec = exp.ExperimentSpec(dataset=dataset, gammas=exp.DEFAULT_GAMMA_GRID,
                                  standardize=name == "iris", seed=1)
        exp.sweep(spec, spec.gammas, out_dir=tmp_path / "shared")
        monkeypatch.setattr(exp, "train_multiclass", train_multiclass_reference)
        monkeypatch.setattr(exp, "accuracy", accuracy_reference)
        exp.sweep(spec, spec.gammas, out_dir=tmp_path / "per-fit")
        shared = sorted(p.name for p in (tmp_path / "shared").iterdir())
        assert shared == sorted(p.name for p in (tmp_path / "per-fit").iterdir())
        assert len(shared) == 1 + len(spec.gammas) + (1.0 not in spec.gammas)
        for file_name in shared:
            a = (tmp_path / "shared" / file_name).read_text()
            b = (tmp_path / "per-fit" / file_name).read_text()
            if file_name == "report.json":
                assert reports_equal_ignoring_timings(json.loads(a), json.loads(b))
            else:
                assert a == b, file_name

    def test_fit_keeps_no_extra_training_kernel(self, diabetes_csv):
        if not diabetes_available():
            pytest.skip(MISSING_DIABETES_MSG)
        spec = exp.ExperimentSpec(
            dataset=exp.FileSpec(path=str(diabetes_csv), pca_components=2),
            gammas=(1.0,), standardize=True, seed=1,
        )
        _, train, test, _, sq = exp.prepare(spec)
        m = train.n_samples
        assert m == 537
        tracemalloc.start()
        try:
            exp.fit_and_score(train, test, SvmConfig(kernel=KernelConfig(1.0)), sq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # beside the distances prepare made, one Gram or the training score's
        # gather at a time; one more m x m copy of either would pass 2 m^2 doubles
        assert peak < 1.5 * m * m * 8


def _box(features):
    return tuple((float(features[:, k].min()), float(features[:, k].max())) for k in (0, 1))


def one_machine(machine: SvmModel, pair=(0, 1)) -> MulticlassModel:
    """The 2-class model that holds just ``machine``, for classes ``pair``."""
    return MulticlassModel(machines=((pair, machine),), classes=pair)


def binary_moons_machine(n=60, seed=0):
    """A 2-class (one-machine) model at gamma 1.5 on generated moons, with
    their bounding box."""
    moons = make_moons(n, 0.15, seed=seed)
    y = np.where(moons.labels == 1, 1.0, -1.0)
    config = SvmConfig(kernel=KernelConfig(1.5))
    machine = train_binary(moons.features, y, config)
    return one_machine(machine), _box(moons.features)


def vote_tie_model():
    """A 3-class model whose votes tie over much of its lattice, with bounds.

    One support vector at the origin with kernel value k at a point: k >= 0.5
    votes 1, 2, 2; below that every class gets one vote, and class 1 wins on
    magnitude while k > 0; where k underflows to 0 the magnitudes tie exactly
    too and the lowest class wins.
    """
    def machine(bias):
        return SvmModel(
            support_indices=np.array([0]), dual_coef=np.array([1.0]),
            support_vectors=np.array([[0.0, 0.0]]), bias=bias, kernel=KernelConfig(1.0),
            converged=True, objective_history=(),
        )

    model = MulticlassModel(
        machines=(
            ((0, 1), machine(0.5)),
            ((0, 2), machine(-0.5)),
            ((1, 2), machine(0.5)),
        ),
        classes=(0, 1, 2),
    )
    return model, ((-1.0, 40.0), (-1.0, 40.0))


def eleven_class_model():
    """An 11-class model on three rings of points, with their bounding box:
    labels 10 and up print two digits."""
    k = 11
    angles = 2 * math.pi * np.arange(k) / k
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    features = np.concatenate([ring, ring + (0.15, 0.05), ring + (-0.05, 0.15)])
    data = LabeledDataset(
        features=features, labels=np.tile(np.arange(k), 3), feature_names=("x1", "x2"),
        label_names=tuple(str(c) for c in range(k)), provenance={},
    )
    return train_multiclass(data, SvmConfig(kernel=KernelConfig(4.0))), _box(features)


def tiny_coefficient_model():
    """A hand-built 2-class model whose alpha * y are of order 1e-7, so its
    decision values print in exponent form (``1.2e-07``), with bounds."""
    machine = SvmModel(
        support_indices=np.array([0, 1]), dual_coef=np.array([1.2e-7, -1.2e-7]),
        support_vectors=np.array([[-1.0, 0.0], [1.0, 0.0]]), bias=0.0,
        kernel=KernelConfig(1.0), converged=True, objective_history=(),
    )
    return one_machine(machine), ((-1.0, 1.0), (-1.0, 1.0))


@pytest.fixture(scope="module")
def boundary_models(iris_csv):
    """A 2-class moons model and a 3-class iris model on two features, each
    with the bounding box of its training rows."""
    iris = load_csv(iris_csv, "species", ["sepal_width", "petal_width"])
    config = SvmConfig(kernel=KernelConfig(1.5))
    return {
        "binary": binary_moons_machine(),
        "one_vs_one": (train_multiclass(iris, config), _box(iris.features)),
    }


class TestBoundaryGrid:
    def _binary_model(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([1.0, -1.0])
        config = SvmConfig(c=10.0, tol=1e-8, kernel=KernelConfig(1.0))
        return one_machine(train_binary(X, y, config))

    def test_resolution_two_hits_padded_corners(self, tmp_path):
        model = self._binary_model()
        out = exp.boundary_grid(model, ((-1.0, 1.0), (-1.0, 1.0)), 2, tmp_path / "g.csv")
        lines = out.read_text().splitlines()
        assert lines[0] == "x1,x2,decision_value,label"
        pts = [tuple(float(v) for v in line.split(",")[:2]) for line in lines[1:]]
        assert pts == [(-1.2, -1.2), (1.2, -1.2), (-1.2, 1.2), (1.2, 1.2)]

    def test_zero_level_on_perpendicular_bisector(self, tmp_path):
        model = self._binary_model()
        out = exp.boundary_grid(model, ((-1.0, 1.0), (-1.0, 1.0)), 41, tmp_path / "g.csv")
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        # the lattice contains the x1 = 0 column; decision values vanish there
        assert any(float(x1) == 0.0 for x1, _, _, _ in rows)
        for x1, x2, value, label in rows:
            if float(x1) == 0.0:
                assert abs(float(value)) <= 1e-9
        # the value is the vote value toward the winning class, so it is never
        # negative; the label says on which side of the bisector a point lies
        for x1, x2, value, label in rows:
            assert float(value) >= 0.0
            if float(x1) != 0.0:
                assert label == ("1" if float(x1) > 0.0 else "0")

    def test_rows_reproduce_model_predictions(self, tmp_path):
        data = make_moons(60, 0.15, seed=0)
        config = SvmConfig(tol=1e-4, kernel=KernelConfig(1.5))
        model = train_multiclass(data, config)
        bounds = (
            (float(data.features[:, 0].min()), float(data.features[:, 0].max())),
            (float(data.features[:, 1].min()), float(data.features[:, 1].max())),
        )
        out = exp.boundary_grid(model, bounds, 15, tmp_path / "g.csv")
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        pts = np.array([[float(a), float(b)] for a, b, _, _ in rows])
        labels = np.array([int(d) for _, _, _, d in rows])
        assert np.array_equal(predict_labels(model, pts), labels)
        assert len(rows) == 15 * 15

    @pytest.mark.parametrize("kind", ["binary", "one_vs_one"])
    @pytest.mark.parametrize("resolution", [2, 15, 41])
    def test_matches_per_point_reference(self, tmp_path, boundary_models, kind, resolution):
        model, bounds = boundary_models[kind]
        out = exp.boundary_grid(model, bounds, resolution, tmp_path / "g.csv")
        assert out.read_bytes() == reference_boundary_csv(model, bounds, resolution).encode()

    def test_vote_ties_match_reference(self, tmp_path):
        model, bounds = vote_tie_model()
        out = exp.boundary_grid(model, bounds, 41, tmp_path / "g.csv")
        text = out.read_text()
        assert text == reference_boundary_csv(model, bounds, 41)
        assert {line.rsplit(",", 1)[1] for line in text.splitlines()[1:]} == {"0", "1", "2"}

    def test_bands_match_the_whole_lattice_reference(self, tmp_path, monkeypatch,
                                                     boundary_models):
        # decision values are row-local, so the band height changes no byte:
        # one row, a band that leaves a partial last one, the default, and one
        # band for the whole lattice; two-digit labels and decision values in
        # exponent form are formatted as the per-point reference does
        cases = {**boundary_models, "vote-tie": vote_tie_model(),
                 "eleven-classes": eleven_class_model(), "tiny-values": tiny_coefficient_model()}
        expected = {(name, resolution): reference_boundary_csv(model, bounds, resolution).encode()
                    for name, (model, bounds) in cases.items() for resolution in (41, 77)}
        assert b",10\n" in expected["eleven-classes", 41]
        assert b"e-07," in expected["tiny-values", 41]
        for band in (1, 7, 16, 77):
            monkeypatch.setattr(exp, "BOUNDARY_BAND_ROWS", band)
            for (name, resolution), data in expected.items():
                model, bounds = cases[name]
                out = exp.boundary_grid(model, bounds, resolution, tmp_path / "g.csv")
                assert out.read_bytes() == data, (name, resolution, band)

    def test_peak_memory_is_a_band_not_the_lattice(self, tmp_path):
        model, bounds = binary_moons_machine(n=300, seed=1)
        assert model.machines[0][1].n_support >= 30
        tracemalloc.start()
        try:
            exp.boundary_grid(model, bounds, 300, tmp_path / "g.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 90,000-point cross Gram alone would take 90,000 x 8 bytes per
        # support vector, over 21 MB
        assert peak < 5_000_000

    def test_dimension_validated(self, tmp_path):
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, -1.0])
        config = SvmConfig(c=10.0, kernel=KernelConfig(1.0))
        model = one_machine(train_binary(X, y, config))
        with pytest.raises(InvalidDimensionError):
            exp.boundary_grid(model, ((-1, 1), (-1, 1)), 5, tmp_path / "g.csv")

    def test_resolution_validated(self, tmp_path):
        model = self._binary_model()
        with pytest.raises(InvalidInputError):
            exp.boundary_grid(model, ((-1, 1), (-1, 1)), 1, tmp_path / "g.csv")


class TestSimulateOverlap:
    def test_identical_points(self):
        record = exp.simulate_overlap(0.4, 0.4, 0.3, 0.0)
        assert abs(record["probability"] - 1.0) <= 1e-12
        assert record["abs_error"] <= 1e-12

    def test_coherent_unit_gap(self):
        record = exp.simulate_overlap(0.0, 1.0, 0.0, 0.0)
        assert_allclose(record["probability"], math.exp(-1.0), atol=1e-9)

    def test_narrowing_phase_agreement(self):
        record = exp.simulate_overlap(0.0, 0.5, 0.3, 0.0, cutoff=64)
        assert_allclose(record["closed_form"], math.exp(-math.exp(0.6) * 0.25), rtol=1e-12)
        assert record["abs_error"] <= 1e-6


class TestTransformChain:
    def test_select_standardize_pca_chain(self, iris_csv):
        from dsvkernel.data import pca_fit, standardize_fit

        data = load_csv(iris_csv, "species")
        scaler = standardize_fit(data)
        from dsvkernel.data import standardize_apply

        scaled = standardize_apply(scaler, data)
        pca = pca_fit(scaled, 2)
        chain = [
            {"kind": "standardize", "scaler": scaler.to_dict()},
            {"kind": "pca", "model": pca.to_dict()},
        ]
        replayed = exp.apply_transform_chain(iris_csv, "species", chain)
        from dsvkernel.data import pca_transform

        direct = pca_transform(pca, scaled)
        assert np.max(np.abs(replayed.features - direct.features)) <= 1e-12

    def test_unknown_kind_rejected(self, iris_csv):
        with pytest.raises(InvalidInputError):
            exp.apply_transform_chain(iris_csv, "species", [{"kind": "whiten"}])
