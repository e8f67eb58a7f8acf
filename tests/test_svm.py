import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qp_oracle import dual_objective, solve_dual_bruteforce
from svm_reference import (
    decision_value,
    predict_binary,
    predict_multiclass,
    train_multiclass_reference,
)

from dsvkernel.data import LabeledDataset, load_csv, standardize_apply, standardize_fit
from dsvkernel.errors import (
    DegenerateLabelsError,
    InvalidDimensionError,
    InvalidInputError,
)
from dsvkernel.kernel import KernelConfig, gram, sq_distances
from dsvkernel.svm import (
    MulticlassModel,
    SvmConfig,
    SvmModel,
    accuracy,
    decision_values,
    load_model,
    model_from_dict,
    model_to_dict,
    predict_labels,
    save_model,
    train_binary,
    train_multiclass,
    training_decisions,
)


#: The keys of a machine entry in a model file, each fact once.
MACHINE_FIELDS = {"pair", "support_indices", "alpha_y", "support_vectors", "bias", "converged"}


def _train(X, y, gamma=1.0, c=1.0, tol=1e-8):
    config = SvmConfig(c=c, tol=tol, max_passes=200, kernel=KernelConfig(gamma))
    return train_binary(X, y, config)


def _blobs(seed=0, n_per=12, centers=((0.0, 0.0), (4.0, 4.0), (-4.0, 4.0))):
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for k, center in enumerate(centers):
        feats.append(rng.normal(scale=0.4, size=(n_per, 2)) + center)
        labels.extend([k] * n_per)
    return LabeledDataset(
        features=np.vstack(feats),
        labels=np.array(labels),
        feature_names=("x1", "x2"),
        label_names=tuple(str(k) for k in range(len(centers))),
        provenance={"generator": "test-blobs", "seed": seed},
    )


class TestTrainBinary:
    def test_two_point_symmetric_problem(self):
        X = np.array([[1.0], [-1.0]])
        model = _train(X, [1.0, -1.0], c=10.0)
        assert model.converged
        assert len(model.dual_coef) == 2
        assert model.dual_coef[0] == -model.dual_coef[1] > 0.0
        assert abs(model.bias) <= 1e-9
        assert abs(decision_value(model, np.array([0.0]))) <= 1e-9

    def test_xor_separated_by_gaussian_kernel(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = [1.0, 1.0, -1.0, -1.0]
        model = _train(X, y, c=1000.0, tol=1e-6)
        assert model.converged
        assert [predict_binary(model, x) for x in X] == [1, 1, -1, -1]

    def test_xor_matches_bruteforce_optimum(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        model = _train(X, y, c=1000.0)
        g = gram(X, 1.0)
        alpha = np.zeros(4)
        alpha[model.support_indices] = np.abs(model.dual_coef)
        _, best = solve_dual_bruteforce(g.values, y, 1000.0)
        assert abs(dual_objective(alpha, g.values, y) - best) <= 1e-6

    def test_six_point_objective_matches_enumeration(self):
        rng = np.random.default_rng(42)
        X = rng.uniform(-1, 1, size=(6, 2))
        y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        model = _train(X, y, gamma=0.9, c=1.0)
        g = gram(X, 0.9)
        alpha = np.zeros(6)
        alpha[model.support_indices] = np.abs(model.dual_coef)
        _, best = solve_dual_bruteforce(g.values, y, 1.0)
        assert abs(dual_objective(alpha, g.values, y) - best) <= 1e-6

    def test_dual_feasibility(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 2))
        y = np.where(X[:, 0] + X[:, 1] > 0, 1.0, -1.0)
        model = _train(X, y, c=2.0, tol=1e-6)
        assert model.converged
        assert np.all(np.abs(model.dual_coef) > 0.0)
        assert np.all(np.abs(model.dual_coef) <= 2.0 + 1e-12)
        assert abs(np.sum(model.dual_coef)) <= 1e-6

    def test_objective_monotone_over_sweeps(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 2))
        y = np.where(X[:, 0] ** 2 + X[:, 1] ** 2 > 1.0, 1.0, -1.0)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        model = _train(X, y, gamma=0.8, c=1.0, tol=1e-6)
        history = np.array(model.objective_history)
        assert len(history) >= 1
        assert np.all(np.diff(history) >= -1e-9 * (1.0 + np.abs(history[:-1])))

    def test_margin_property_separable_large_c(self):
        rng = np.random.default_rng(3)
        X = np.vstack([
            rng.normal(scale=0.3, size=(15, 2)) + (2.0, 2.0),
            rng.normal(scale=0.3, size=(15, 2)) - (2.0, 2.0),
        ])
        y = np.concatenate([np.ones(15), -np.ones(15)])
        tol = 1e-6
        model = _train(X, y, gamma=0.5, c=1e6, tol=tol)
        assert model.converged
        values = decision_values(model, X)
        assert np.all(y * values >= 1.0 - 10 * tol)

    def test_determinism_bit_for_bit(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(25, 3))
        y = np.where(rng.random(25) > 0.5, 1.0, -1.0)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        a = _train(X, y, gamma=1.1, c=1.0, tol=1e-6)
        b = _train(X, y, gamma=1.1, c=1.0, tol=1e-6)
        assert np.array_equal(a.dual_coef, b.dual_coef)
        assert np.array_equal(a.support_indices, b.support_indices)
        assert a.bias == b.bias
        assert a.objective_history == b.objective_history

    def test_single_class_rejected(self):
        X = np.array([[0.0], [1.0]])
        with pytest.raises(DegenerateLabelsError):
            _train(X, [1.0, 1.0])

    @pytest.mark.parametrize("tol", [0.0, 1.0, 2.0, float("nan"), float("inf")])
    def test_tol_outside_zero_one_rejected(self, tol):
        # at alpha = 0 the violation gap is exactly 2, so tol >= 1 would stop
        # before the first update with no support vector
        with pytest.raises(InvalidInputError, match=r"tol must be in \(0, 1\)"):
            SvmConfig(tol=tol)

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3, 1e6, 1e12])
    def test_iris_converges_across_c(self, iris_csv, c):
        raw = load_csv(iris_csv, "species")
        data = standardize_apply(standardize_fit(raw), raw)
        config = SvmConfig(c=c, kernel=KernelConfig(1.0))
        model = train_multiclass(data, config)
        assert all(machine.converged for _, machine in model.machines)

    def test_label_values_validated(self):
        X = np.array([[0.0], [1.0]])
        config = SvmConfig(kernel=KernelConfig(1.0))
        with pytest.raises(InvalidInputError):
            train_binary(X, np.array([1.0, 2.0]), config)

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=4, max_value=7),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_small_random_instances_match_enumeration(self, seed, m, n_duplicates):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, size=(m, 2))
        # the last rows copy earlier ones; labels are drawn independently, so
        # some duplicates contradict their originals
        X[m - n_duplicates:] = X[rng.integers(0, m - n_duplicates, size=n_duplicates)]
        y = rng.choice([-1.0, 1.0], size=m)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        gamma = float(rng.uniform(0.3, 2.0))
        c = float(rng.choice([0.5, 1.0, 10.0]))
        g = gram(X, gamma)
        config = SvmConfig(c=c, tol=1e-8, max_passes=200, kernel=KernelConfig(gamma))
        model = train_binary(X, y, config)
        alpha = np.zeros(m)
        alpha[model.support_indices] = np.abs(model.dual_coef)
        _, best = solve_dual_bruteforce(g.values, y, c)
        assert abs(dual_objective(alpha, g.values, y) - best) <= 1e-6


class TestDecision:
    def test_free_support_vector_on_margin(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 2))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        tol = 1e-6
        model = _train(X, y, gamma=0.7, c=1.0, tol=tol)
        alphas = np.abs(model.dual_coef)
        free = (alphas > 1e-8) & (alphas < 1.0 * (1 - 1e-8))
        assert free.any()
        for sv, coef in zip(model.support_vectors[free], model.dual_coef[free]):
            assert abs(decision_value(model, sv) - np.sign(coef)) <= 10 * tol

    def test_batch_equals_loop(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(15, 2))
        y = np.where(X[:, 1] > 0, 1.0, -1.0)
        model = _train(X, y, gamma=1.3, c=1.0, tol=1e-6)
        probes = rng.normal(size=(40, 2))
        batch = decision_values(model, probes)
        loop = np.array([decision_value(model, p) for p in probes])
        assert_allclose(batch, loop, atol=1e-12)

    def test_dimension_mismatch(self):
        model = _train(np.array([[1.0], [-1.0]]), [1.0, -1.0])
        with pytest.raises(InvalidDimensionError):
            decision_value(model, np.array([0.0, 1.0]))


class TestBatchInvariance:
    """Decision values are a fixed-order sum over each point's own row, so a
    contiguous slice of a batch gives the same bits as those rows of the
    whole batch, at any BLAS thread count."""

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=2, max_value=3),
        st.floats(min_value=0.1, max_value=10.0),
        st.data(),
    )
    @settings(max_examples=20, deadline=None)
    def test_slices_equal_the_whole_batch(self, seed, n_classes, gamma, data):
        rng = np.random.default_rng(seed)
        # noisy labels give machines with tens of support vectors
        X = rng.normal(size=(90, 2))
        labels = rng.integers(0, n_classes, size=90)
        labels[:n_classes] = np.arange(n_classes)
        train = LabeledDataset(features=X, labels=labels, feature_names=("x1", "x2"),
                               label_names=tuple("abc"[:n_classes]), provenance={})
        model = train_multiclass(train, SvmConfig(kernel=KernelConfig(gamma)))
        batch = rng.normal(scale=2.0, size=(1000, 2))
        start = data.draw(st.integers(min_value=0, max_value=999))
        stop = data.draw(st.integers(min_value=start + 1, max_value=1000))
        for _, machine in model.machines:
            whole = decision_values(machine, batch)
            assert decision_values(machine, batch[start:stop]).tobytes() == \
                whole[start:stop].tobytes()
        assert np.array_equal(predict_labels(model, batch[start:stop]),
                              predict_labels(model, batch)[start:stop])


class TestSharedDistances:
    """Training on one shared squared-distance matrix gives the per-fit
    path's bytes: every machine's alphas, bias, flag and history, and its
    decision values on the training rows."""

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_the_per_fit_reference(self, seed, n_classes, n_duplicates,
                                           n_contradictions, log_gamma):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 2))
        labels = rng.integers(0, n_classes, size=40)
        labels[:n_classes] = np.arange(n_classes)
        # exact copies under their own label, then under another one
        copies = rng.integers(0, 40, size=n_duplicates + n_contradictions)
        X = np.vstack([X, X[copies]])
        flipped = (labels[copies[n_duplicates:]] + 1) % n_classes
        labels = np.concatenate([labels, labels[copies[:n_duplicates]], flipped])
        data = LabeledDataset(features=X, labels=labels, feature_names=("x1", "x2"),
                              label_names=tuple("abc"[:n_classes]), provenance={})
        config = SvmConfig(kernel=KernelConfig(10.0 ** log_gamma))
        sq = sq_distances(X, X)
        before = sq.copy()
        model = train_multiclass(data, config, sq)
        assert sq.tobytes() == before.tobytes()
        reference = train_multiclass_reference(data, config)
        decisions = training_decisions(model, labels, sq)
        for (pair, machine), (ref_pair, ref), d in zip(model.machines, reference.machines,
                                                       decisions):
            assert pair == ref_pair
            assert machine.support_indices.tobytes() == ref.support_indices.tobytes()
            assert machine.dual_coef.tobytes() == ref.dual_coef.tobytes()
            assert machine.support_vectors.tobytes() == ref.support_vectors.tobytes()
            assert (machine.bias, machine.converged) == (ref.bias, ref.converged)
            assert machine.objective_history == ref.objective_history
            assert d.tobytes() == decision_values(ref, X).tobytes()

    def test_distances_must_fit_the_rows(self):
        data = _blobs()
        config = SvmConfig(kernel=KernelConfig(1.0))
        with pytest.raises(InvalidDimensionError, match="squared distances"):
            train_multiclass(data, config, np.zeros((3, 3)))
        X = data.features[:4]
        with pytest.raises(InvalidDimensionError, match="squared distances"):
            train_binary(X, [1.0, -1.0, 1.0, -1.0], config, np.zeros((5, 5)))


class TestPredictBinary:
    def test_sign_mapping(self):
        model = _train(np.array([[1.0], [-1.0]]), [1.0, -1.0], c=10.0)
        assert predict_binary(model, np.array([2.0])) == 1
        assert predict_binary(model, np.array([-2.0])) == -1

    def test_exact_zero_maps_to_positive(self):
        # symmetric model evaluated at the midpoint gives an exact 0.0
        model = _train(np.array([[1.0], [-1.0]]), [1.0, -1.0], c=10.0)
        assert decision_value(model, np.array([0.0])) == 0.0
        assert predict_binary(model, np.array([0.0])) == 1


class TestMulticlass:
    def test_two_classes_single_machine(self):
        data = _blobs(centers=((0.0, 0.0), (4.0, 4.0)))
        config = SvmConfig(kernel=KernelConfig(1.0))
        model = train_multiclass(data, config)
        assert len(model.machines) == 1
        assert model.machines[0][0] == (0, 1)

    def test_three_classes_three_machines(self):
        data = _blobs()
        config = SvmConfig(kernel=KernelConfig(1.0))
        model = train_multiclass(data, config)
        assert len(model.machines) == 3
        assert [pair for pair, _ in model.machines] == [(0, 1), (0, 2), (1, 2)]

    def test_separable_blobs_perfect_training_accuracy(self):
        data = _blobs()
        config = SvmConfig(c=10.0, kernel=KernelConfig(0.5))
        model = train_multiclass(data, config)
        assert accuracy(model, data) == 1.0

    def test_single_class_rejected(self):
        data = _blobs(centers=((0.0, 0.0),))
        config = SvmConfig(kernel=KernelConfig(1.0))
        with pytest.raises(DegenerateLabelsError):
            train_multiclass(data, config)

    def test_unanimous_vote(self):
        data = _blobs()
        config = SvmConfig(c=10.0, kernel=KernelConfig(0.5))
        model = train_multiclass(data, config)
        assert predict_multiclass(model, np.array([4.0, 4.0])) == 1

    def test_tie_breaks_by_summed_magnitude_then_index(self):
        # votes: 0 -> 1, 1 -> 1, 2 -> 1; magnitudes: 0: 1.0, 1: 0.6, 2: 1.4
        assert predict_multiclass(_tie_model(1e-12), np.array([5.0, 5.0])) == 2

    def test_tie_break_independent_of_batch(self):
        # (0, 0) sits on every support vector, so its decision values are
        # about 1e20; at (30, 30) the kernel underflows to 0 and the point
        # is the same three-way tie as above
        model = _tie_model(1e20)
        tied = np.array([[30.0, 30.0]])
        alone = predict_labels(model, tied)
        batched = predict_labels(model, np.vstack([tied, [[0.0, 0.0]]]))
        assert alone[0] == batched[0] == 2

    def test_deterministic_given_seed(self):
        data = _blobs(seed=5)
        config = SvmConfig(kernel=KernelConfig(1.0), tol=1e-6)
        a = train_multiclass(data, config)
        b = train_multiclass(data, config)
        for (_, ma), (_, mb) in zip(a.machines, b.machines):
            assert np.array_equal(ma.dual_coef, mb.dual_coef)
            assert ma.bias == mb.bias


def _tie_model(alpha):
    """Hand-built 3-class cycle: at points far from the origin each class gets
    one vote and class 2's machines carry the largest |decision value|."""
    def stub(bias):
        return SvmModel(
            support_indices=np.array([0]),
            dual_coef=np.array([alpha]),
            support_vectors=np.array([[0.0, 0.0]]),
            bias=bias,
            kernel=KernelConfig(1.0),
            converged=True,
            objective_history=(),
        )

    return MulticlassModel(
        machines=(
            ((0, 1), stub(bias=0.1)),    # votes 1
            ((0, 2), stub(bias=-0.9)),   # votes 0
            ((1, 2), stub(bias=0.5)),    # votes 2
        ),
        classes=(0, 1, 2),
    )


class TestAccuracy:
    def test_all_correct(self):
        data = _blobs(centers=((0.0, 0.0), (5.0, 5.0)))
        config = SvmConfig(c=10.0, kernel=KernelConfig(0.5))
        model = train_multiclass(data, config)
        assert accuracy(model, data) == 1.0

    def test_counts_are_exact_fractions(self):
        data = _blobs(centers=((0.0, 0.0), (5.0, 5.0)))
        config = SvmConfig(c=10.0, kernel=KernelConfig(0.5))
        model = train_multiclass(data, config)
        flipped = LabeledDataset(
            features=data.features,
            labels=1 - data.labels,
            feature_names=data.feature_names,
            label_names=data.label_names,
            provenance=data.provenance,
        )
        assert accuracy(model, flipped) == 0.0

    def test_empty_dataset_rejected(self):
        data = _blobs()
        config = SvmConfig(kernel=KernelConfig(1.0))
        model = train_multiclass(data, config)
        empty = LabeledDataset(
            features=np.zeros((0, 2)),
            labels=np.zeros(0, dtype=int),
            feature_names=("x1", "x2"),
            label_names=data.label_names,
            provenance={},
        )
        with pytest.raises(InvalidInputError):
            accuracy(model, empty)


class TestSerialization:
    def test_binary_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(12, 2))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        model = _train(X, y, gamma=0.6, c=1.0, tol=1e-6)
        path = tmp_path / "model.json"
        save_model(path, MulticlassModel(machines=(((-1, 1), model),), classes=(-1, 1)))
        loaded_model, payload = load_model(path)
        assert payload["version"] == 2
        assert payload["type"] == "one_vs_one"
        assert set(payload["machines"][0]) == MACHINE_FIELDS
        assert loaded_model.classes == (-1, 1)
        [((neg, pos), loaded)] = loaded_model.machines
        assert (neg, pos) == (-1, 1)
        assert np.array_equal(loaded.dual_coef, model.dual_coef)
        assert np.array_equal(loaded.support_vectors, model.support_vectors)
        assert loaded.bias == model.bias
        assert loaded.kernel == model.kernel
        probes = rng.normal(size=(20, 2))
        assert_allclose(decision_values(loaded, probes), decision_values(model, probes), atol=0)

    def test_multiclass_roundtrip(self, tmp_path):
        data = _blobs()
        config = SvmConfig(kernel=KernelConfig(0.8), tol=1e-6)
        model = train_multiclass(data, config)
        path = tmp_path / "ovo.json"
        save_model(path, model)
        loaded, payload = load_model(path)
        assert len(payload["machines"]) == 3
        assert all(set(m) == MACHINE_FIELDS for m in payload["machines"])
        assert isinstance(loaded, MulticlassModel)
        assert loaded.classes == model.classes
        assert np.array_equal(predict_labels(loaded, data.features),
                              predict_labels(model, data.features))

    def test_dict_roundtrip_without_files(self):
        data = _blobs(centers=((0.0, 0.0), (4.0, 4.0)))
        config = SvmConfig(kernel=KernelConfig(1.0), tol=1e-6)
        model = train_multiclass(data, config)
        again = model_from_dict(model_to_dict(model))
        assert isinstance(again, MulticlassModel)

    def test_unknown_version_rejected(self):
        with pytest.raises(InvalidInputError):
            model_from_dict({"version": 99, "type": "binary"})


def _machine(n_coef=1, support_vectors=((0.0, 0.0),)):
    return SvmModel(
        support_indices=np.arange(n_coef), dual_coef=np.ones(n_coef),
        support_vectors=np.array(support_vectors), bias=0.0, kernel=KernelConfig(1.0),
        converged=True, objective_history=(),
    )


class TestModelInvariants:
    @pytest.mark.parametrize("kwargs", [
        dict(n_coef=2), dict(support_vectors=((0.0, 0.0), (1.0, 1.0))),
        dict(support_vectors=(0.0, 0.0)),
    ], ids=["alphas", "support-vector-rows", "support-vectors-1d"])
    def test_machine_needs_one_alpha_label_and_row_per_support_vector(self, kwargs):
        with pytest.raises(InvalidInputError):
            _machine(**kwargs)

    @pytest.mark.parametrize("machines, classes", [
        ((), (0, 1)),
        ((), (0,)),
        ((((0, 1), _machine()),), (0, 5)),
        ((((0, 1), _machine()),), (1, 0)),
        ((((0, 1), _machine()), ((1, 2), _machine())), (0, 1, 2)),
        ((((0, 2), _machine()), ((0, 1), _machine()), ((1, 2), _machine())), (0, 1, 2)),
    ], ids=["no-machines", "one-class", "unknown-class", "unsorted-classes",
            "missing-pair", "pairs-out-of-order"])
    def test_pairs_are_the_class_combinations(self, machines, classes):
        with pytest.raises(InvalidInputError):
            MulticlassModel(machines=machines, classes=classes)

    @pytest.mark.parametrize("odd_width", [1, 3])
    def test_machines_share_one_support_vector_width(self, odd_width):
        odd = _machine(support_vectors=((0.0,) * odd_width,))
        with pytest.raises(InvalidInputError, match=rf"widths \[2, 2, {odd_width}\]"):
            MulticlassModel(machines=(((0, 1), _machine()), ((0, 2), _machine()),
                                      ((1, 2), odd)), classes=(0, 1, 2))


class TestEdgeGammaProperties:
    """At gamma 1e-300 every kernel value is 1 and at 1e300 the Gram is the
    identity, and C may be as small as 1e-8 or as large as 1e8; either way
    every |alpha * y| lies in (0, C], the coefficients sum to zero, and the
    trained model's accuracy is a plain per-point count of its one machine's
    decision values."""

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=0, max_value=3),
        st.sampled_from([1e-300, 1e300]),
        st.sampled_from([1e-8, 1.0, 1e8]),
    )
    @settings(max_examples=40, deadline=None)
    def test_accuracy_is_a_per_point_count(self, seed, m, n_duplicates, gamma, c):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-3, 3, size=(m, 2))
        n_duplicates = min(n_duplicates, m - 1)
        # duplicated rows keep independently drawn labels, so some contradict
        X[m - n_duplicates:] = X[rng.integers(0, m - n_duplicates, size=n_duplicates)]
        labels = rng.integers(0, 2, size=m)
        labels[:2] = (0, 1)
        data = LabeledDataset(features=X, labels=labels, feature_names=("x1", "x2"),
                              label_names=("a", "b"), provenance={})
        model = train_multiclass(data, SvmConfig(c=c, kernel=KernelConfig(gamma)))
        [((neg, pos), machine)] = model.machines
        assert np.all(np.abs(machine.dual_coef) > 0.0)
        assert np.all(np.abs(machine.dual_coef) <= c)
        # each pair update keeps sum(alpha * y) up to the rounding of numbers
        # no larger than C, and the sum adds at most m of them; 8 m eps C
        # leaves a factor of about 17 over the worst of 9,000 scratch cases
        assert abs(np.sum(machine.dual_coef)) <= 8 * m * np.finfo(float).eps * c
        predicted = [pos if decision_value(machine, x) >= 0.0 else neg for x in X]
        correct = sum(int(p == label) for p, label in zip(predicted, labels))
        assert accuracy(model, data) == correct / m
