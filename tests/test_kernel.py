import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial.distance import cdist, pdist, squareform

from dsvkernel import cli, kernel
from dsvkernel.errors import InvalidDimensionError, InvalidInputError
from dsvkernel.fock import SqueezeParams, circuit_kernel
from dsvkernel.kernel import (
    KernelConfig,
    data_fingerprint,
    gamma_from_squeeze,
    gram,
    gram_cross,
    kernel_scalar,
    kernel_vec,
    sq_distances,
)

from gram_reference import gram_csv_text

finite_coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def kernel_gram_csv(tmp_path, capsys, features: np.ndarray, gamma: float):
    """Run ``kernel gram`` on two-column ``features``; return its stdout
    fingerprint and the bytes of the CSV it wrote."""
    data = tmp_path / "points.csv"
    rows = (f"{x!r},{y!r},{'ab'[i % 2]}\n" for i, (x, y) in enumerate(features.tolist()))
    data.write_text("x,y,label\n" + "".join(rows))
    out = tmp_path / "gram.csv"
    code = cli.main(["kernel", "gram", "--data", str(data), "--gamma", repr(gamma),
                     "--out", str(out)])
    assert code == 0
    return json.loads(capsys.readouterr().out)["fingerprint"], out.read_bytes()


class TestGammaFromSqueeze:
    @pytest.mark.parametrize("theta", [0.0, 0.4, math.pi / 2, 3.0])
    def test_coherent_reduction_exact(self, theta):
        assert gamma_from_squeeze(SqueezeParams(0.0, theta)) == 1.0

    def test_narrowing_phase(self):
        assert_allclose(gamma_from_squeeze(SqueezeParams(0.3, 0.0)), math.exp(0.6), rtol=1e-12)

    def test_widening_phase(self):
        assert_allclose(
            gamma_from_squeeze(SqueezeParams(0.3, math.pi / 2)), math.exp(-0.6), rtol=1e-12
        )

    @given(st.floats(min_value=0.0, max_value=20.0), st.floats(min_value=0.0, max_value=math.pi))
    @settings(max_examples=300)
    @example(8.0, math.pi / 2)
    @example(10.0, math.pi / 2)
    def test_always_positive(self, r, theta):
        # cosh 2r + cos 2theta sinh 2r cancels for cos 2theta < 0; this form
        # of the same width sums two terms >= 0
        gamma = gamma_from_squeeze(SqueezeParams(r, theta))
        assert gamma > 0.0
        expected = math.exp(2 * r) * math.cos(theta) ** 2 + math.exp(-2 * r) * math.sin(theta) ** 2
        assert_allclose(gamma, expected, rtol=1e-12)

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2])
    def test_overflow_names_r(self, theta):
        with pytest.raises(InvalidInputError, match="r = 400.0"):
            gamma_from_squeeze(SqueezeParams(400.0, theta))


class TestKernelScalar:
    def test_identical_inputs(self):
        assert kernel_scalar(0.7, 0.7, 2.0) == 1.0

    def test_gamma_one_unit_gap(self):
        assert_allclose(kernel_scalar(0.0, 1.0, 1.0), math.exp(-1.0), rtol=1e-15)

    def test_narrow_kernel(self):
        assert_allclose(kernel_scalar(0.0, 1.0, 10.0), math.exp(-10.0), rtol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            kernel_scalar(float("inf"), 0.0, 1.0)

    def test_rejects_bad_gamma(self):
        with pytest.raises(InvalidInputError):
            kernel_scalar(0.0, 1.0, -1.0)

    @given(finite_coord, finite_coord, st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=300)
    @example(-0.605756277389112, -3.3481287321779423, 3.7105803624743308)
    def test_bitwise_equal_to_kernel_vec(self, xp, xq, gamma):
        # (xq - xp) ** 2 by libm pow gives 7.597283470548323e-13 on the
        # example; the x * x square of kernel_vec and gram gives ...297e-13
        assert kernel_scalar(xp, xq, gamma) == kernel_vec([xp], [xq], gamma)


class TestKernelVec:
    def test_identical_vectors(self):
        x = np.array([0.3, -0.7])
        assert kernel_vec(x, x, 1.3) == 1.0

    def test_euclidean_distance_two(self):
        assert_allclose(
            kernel_vec(np.zeros(2), np.ones(2), 1.0), math.exp(-2.0), rtol=1e-15
        )

    def test_matches_product_of_circuit_kernels(self):
        eta = SqueezeParams(0.2, 0.0)
        gamma = gamma_from_squeeze(eta)
        xp = np.array([0.1, 0.4])
        xq = np.array([-0.2, 0.0])
        product = circuit_kernel(0.1, -0.2, eta, 64) * circuit_kernel(0.4, 0.0, eta, 64)
        assert abs(kernel_vec(xp, xq, gamma) - product) <= 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidDimensionError):
            kernel_vec(np.zeros(2), np.zeros(3), 1.0)

    @given(
        st.lists(st.tuples(finite_coord, finite_coord), min_size=1, max_size=5),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=300)
    @example([(0.37, 0.584)], 4.31)
    def test_bitwise_equal_to_the_gram_entry(self, pairs, gamma):
        # math.exp gives 0.8208780162869241 on the example, np.exp ...924
        xp, xq = np.array(pairs).T
        values = gram(np.vstack([xp, xq]), gamma).values
        assert kernel_vec(xp, xq, gamma) == values[0, 1] == values[1, 0]

    @given(
        st.lists(finite_coord, min_size=1, max_size=5),
        st.lists(finite_coord, min_size=1, max_size=5),
        st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=100)
    def test_symmetry_bit_exact(self, a, b, gamma):
        if len(a) != len(b):
            b = (b * len(a))[: len(a)]
        a, b = np.array(a), np.array(b)
        assert kernel_vec(a, b, gamma) == kernel_vec(b, a, gamma)

    @given(
        st.lists(finite_coord, min_size=2, max_size=2),
        st.lists(finite_coord, min_size=2, max_size=2),
        st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=2, max_size=2),
        st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=100)
    def test_translation_invariance(self, a, b, shift, gamma):
        a, b, t = np.array(a), np.array(b), np.array(shift)
        assert abs(kernel_vec(a + t, b + t, gamma) - kernel_vec(a, b, gamma)) <= 1e-12

    @given(
        st.floats(min_value=0.01, max_value=10.0),
        st.floats(min_value=1.0001, max_value=3.0),
        st.floats(min_value=0.05, max_value=4.0),
    )
    @settings(max_examples=100)
    def test_strictly_decreasing_in_gamma(self, gamma, factor, gap):
        a = np.array([0.0])
        b = np.array([gap])
        assert kernel_vec(a, b, gamma * factor) < kernel_vec(a, b, gamma)

    def test_value_one_iff_zero_distance(self):
        a = np.array([1.0, 2.0])
        b = np.array([1.0, 2.0 + 1e-6])
        assert kernel_vec(a, b, 1.0) < 1.0
        assert kernel_vec(a, a, 1.0) == 1.0


class TestKernelConfig:
    def test_direct(self):
        assert KernelConfig(0.8).gamma == 0.8
        # the constructor stores the float check_gamma returns
        assert type(KernelConfig(2).gamma) is float
        assert type(KernelConfig(np.float64(0.5)).gamma) is float

    def test_from_squeeze_consistency(self):
        eta = SqueezeParams(0.25, 0.0)
        config = KernelConfig.from_squeeze(eta)
        assert config.gamma == gamma_from_squeeze(eta)

    def test_mismatched_gamma_rejected(self):
        with pytest.raises(InvalidInputError):
            KernelConfig(gamma=2.0, squeeze=SqueezeParams(0.25, 0.0))

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(InvalidInputError):
            KernelConfig(0.0)

    def test_dict_roundtrip(self):
        eta = SqueezeParams(0.25, 1.0)
        config = KernelConfig.from_squeeze(eta)
        again = KernelConfig.from_dict(config.to_dict())
        assert again == config
        direct = KernelConfig(1.5)
        assert KernelConfig.from_dict(direct.to_dict()) == direct


class TestSqDistances:
    @staticmethod
    def _draws(d, rng):
        a = rng.normal(scale=3.0, size=(40, d))
        b = rng.normal(scale=3.0, size=(25, d))
        a[7] = a[3]  # duplicated rows give exact zeros off the diagonal
        b[5] = a[3]
        b[9] = b[2]
        return a, b

    @pytest.mark.parametrize("d", range(12))
    def test_bitwise_equal_to_scipy(self, d):
        rng = np.random.default_rng(d)
        for _ in range(5):
            a, b = self._draws(d, rng)
            assert sq_distances(a, b).tobytes() == cdist(a, b, "sqeuclidean").tobytes()
            expected = squareform(pdist(a, "sqeuclidean"))
            assert sq_distances(a, a).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 7])
    def test_exactly_symmetric(self, d):
        a, b = self._draws(d, np.random.default_rng(100 + d))
        both = np.vstack([a, b])
        sq = sq_distances(both, both)
        assert sq.tobytes() == np.ascontiguousarray(sq.T).tobytes()
        assert sq_distances(a, b).tobytes() == np.ascontiguousarray(sq_distances(b, a).T).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_row_blocks_change_no_bit(self, d, monkeypatch):
        a, b = self._draws(d, np.random.default_rng(200 + d))
        whole = sq_distances(a, b)
        monkeypatch.setattr(kernel, "SQ_BLOCK_ROWS", 7)  # 40 rows: five full blocks and one of 5
        assert sq_distances(a, b).tobytes() == whole.tobytes()

    def test_peak_memory_is_the_result_and_one_block(self):
        m = 4000
        x = np.random.default_rng(5).normal(size=(m, 2))
        tracemalloc.start()
        try:
            sq = sq_distances(x, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sq.shape == (m, m)
        assert peak < 1.3 * m * m * 8  # one m x m result plus a 1,024-row block


class TestGram:
    def test_single_row(self):
        g = gram(np.array([[0.2, 0.4]]), 1.0)
        assert_allclose(g.values, [[1.0]])

    def test_identical_rows_rank_one(self):
        g = gram(np.array([[0.1, 0.2], [0.1, 0.2]]), 1.0)
        assert_allclose(g.values, np.ones((2, 2)))
        assert np.linalg.eigvalsh(g.values)[0] >= -1e-8

    def test_random_points_psd(self):
        rng = np.random.default_rng(7)
        g = gram(rng.uniform(-1, 1, size=(50, 2)), 0.8)
        assert np.linalg.eigvalsh(g.values)[0] >= -1e-8

    def test_exact_symmetry_and_unit_diagonal(self):
        # gram's own guarantees: GramMatrix checks nothing
        data = np.random.default_rng(3).normal(size=(40, 3))
        for gamma in (1e-300, 1.7, 1e300):
            g = gram(data, gamma)
            assert not g.values.flags.writeable
            assert np.array_equal(g.values, g.values.T)
            assert np.all(np.diag(g.values) == 1.0)
            assert g.values.min() >= 0.0 and g.values.max() <= 1.0

    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_exponent_gives_zero_silently(self):
        # -gamma * sq overflows to -inf, whose exp is exactly 0
        data = np.array([[0.0], [1e5]])
        assert gram(data, 1e300).values.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert gram_cross(data, data, 1e300).tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert kernel_vec([0.0], [1e5], 1e300) == 0.0

    def test_values_match_kernel_vec(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(6, 2))
        g = gram(data, 0.9)
        for i in range(6):
            for j in range(6):
                if i != j:
                    assert_allclose(
                        g.values[i, j], kernel_vec(data[i], data[j], 0.9), rtol=1e-12
                    )

    def test_fingerprint_tracks_content(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[1.0, 2.0000001]])
        assert data_fingerprint(a) != data_fingerprint(b)
        assert data_fingerprint(a) == data_fingerprint(a.copy())
        assert data_fingerprint(a) != data_fingerprint(a.T)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            gram(np.array([[np.nan, 0.0]]), 1.0)

    def test_csv_header_and_shape(self, tmp_path, capsys):
        features = np.array([[0.0, 0.0], [1.0, 0.0]])
        fingerprint, csv = kernel_gram_csv(tmp_path, capsys, features, 0.5)
        lines = csv.decode().splitlines()
        assert lines[0] == "# gamma=0.5"
        assert lines[1] == f"# fingerprint={fingerprint}"
        assert fingerprint == data_fingerprint(features)
        assert len(lines) == 2 + 2
        row = [float(v) for v in lines[2].split(",")]
        assert_allclose(row, gram(features, 0.5).values[0])

    def test_streamed_csv_equals_the_whole_text(self, tmp_path, capsys):
        features = np.random.default_rng(3).normal(size=(9, 2))
        fingerprint, csv = kernel_gram_csv(tmp_path, capsys, features, 0.7)
        assert fingerprint == data_fingerprint(features)
        assert csv == gram_csv_text(features, 0.7).encode()

    @pytest.mark.parametrize("gamma", [1e-3, 0.7, 1e3])
    def test_given_distances_give_the_same_bytes_and_stay_unchanged(self, gamma):
        data = np.random.default_rng(5).normal(size=(30, 3))
        sq = sq_distances(data, data)
        before = sq.tobytes()
        g = gram(data, gamma, sq)
        assert sq.tobytes() == before
        assert g.values.tobytes() == gram(data, gamma).values.tobytes()

    def test_given_distances_must_fit_the_rows(self):
        data = np.zeros((3, 2))
        with pytest.raises(InvalidDimensionError, match="squared distances"):
            gram(data, 1.0, np.zeros((2, 2)))


class TestGramCross:
    def test_same_data_matches_gram(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(8, 2))
        g = gram(data, 1.2)
        cross = gram_cross(data, data, 1.2)
        assert_allclose(cross, g.values, atol=1e-12)

    def test_test_point_at_train_point(self):
        train = np.array([[0.0, 0.0], [1.0, 1.0]])
        cross = gram_cross(train, np.array([[1.0, 1.0]]), 2.0)
        assert cross.shape == (1, 2)
        assert_allclose(cross[0, 1], 1.0)

    def test_matches_loop(self):
        rng = np.random.default_rng(9)
        train = rng.normal(size=(5, 3))
        test = rng.normal(size=(10, 3))
        cross = gram_cross(train, test, 0.7)
        for i in range(10):
            for j in range(5):
                assert_allclose(cross[i, j], kernel_vec(test[i], train[j], 0.7), rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidDimensionError):
            gram_cross(np.zeros((2, 2)), np.zeros((2, 3)), 1.0)


class TestOracleEquivalence:
    def test_closed_form_matches_simulator(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            xp, xq = rng.uniform(-1, 1, size=2)
            r = rng.uniform(0.0, 0.8)
            theta = rng.choice([0.0, math.pi / 2])
            eta = SqueezeParams(float(r), float(theta))
            gamma = gamma_from_squeeze(eta)
            simulated = circuit_kernel(float(xp), float(xq), eta, 64)
            assert abs(kernel_scalar(float(xp), float(xq), gamma) - simulated) <= 1e-6
