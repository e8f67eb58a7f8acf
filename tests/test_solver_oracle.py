"""`svm.solve_dual` against the straightforward loop it replaced.

The two must agree byte for byte: the alphas, the repr of the bias, the
convergence flag and the objective history, on converged and budget-capped
runs alike.  Labels of one sign are rejected instead.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from svm_reference import solve_dual_reference

from dsvkernel.errors import DegenerateLabelsError
from dsvkernel.experiment import DEFAULT_GAMMA_GRID, ExperimentSpec, FileSpec, prepare
from dsvkernel.kernel import gram
from dsvkernel.svm import SvmConfig, solve_dual

#: Gaussian widths from "every kernel value is 1" to "the Gram is the identity".
GAMMAS = (1e-300, 1e-3, 1.0, 1e3, 1e300)


def assert_same_bytes(K, y, c, tol, max_passes):
    alpha, bias, converged, history = solve_dual(K, y, c, tol, max_passes)
    ref_alpha, ref_bias, ref_converged, ref_history = solve_dual_reference(
        K, y, c, tol, max_passes
    )
    assert alpha.tobytes() == ref_alpha.tobytes()
    assert repr(bias) == repr(ref_bias)
    assert converged is ref_converged
    assert repr(history) == repr(ref_history)
    return converged


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    m=st.integers(min_value=2, max_value=60),
    n_duplicates=st.integers(min_value=0, max_value=5),
    shift=st.sampled_from((0.0, 3e-7)),
    gamma=st.sampled_from(GAMMAS + (None,)),
    c=st.sampled_from((1e-3, 1.0, 1e3, 1e12)),
    # 1e-300 keeps runs going until b^2 underflows to zero in the j scores
    tol=st.sampled_from((1e-3, 1e-9, 1e-300)),
    max_passes=st.sampled_from((1, 3, 200)),
)
@settings(max_examples=300, deadline=None)
def test_random_instances_match_the_reference(
    seed, m, n_duplicates, shift, gamma, c, tol, max_passes
):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, 2))
    # appended copies of earlier rows, with labels drawn independently, so
    # some duplicates contradict their originals; exact copies give zero
    # curvatures, copies shifted by 3e-7 positive ones below TAU (gamma 1
    # and the linear Gram)
    X = np.vstack([X, X[rng.integers(0, m, size=n_duplicates)] + shift])
    y = rng.choice([-1.0, 1.0], size=m + n_duplicates)
    # None: the linear Gram, whose diagonal is not all ones
    K = X @ X.T if gamma is None else gram(X, gamma).values
    if len(np.unique(y)) < 2:
        with pytest.raises(DegenerateLabelsError):
            solve_dual(K, y, c, tol, max_passes)
    else:
        assert_same_bytes(K, y, c, tol, max_passes)


@pytest.mark.parametrize("linear", [True, False], ids=["linear", "gram"])
def test_inputs_are_left_unchanged(linear):
    # cached curvature rows are computed from K, never views of it, so the
    # TAU written into them for duplicate rows never reaches K
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 2))
    X = np.vstack([X, X[:4]])
    y = np.where(np.arange(44) % 3 == 0, 1.0, -1.0)
    K = X @ X.T if linear else gram(X, 1.0).values
    assert K.flags.writeable is linear
    K_bytes, y_bytes = K.tobytes(), y.tobytes()
    first = solve_dual(K, y, 1.0, 1e-3, 200)
    assert K.tobytes() == K_bytes and y.tobytes() == y_bytes
    second = solve_dual(K, y, 1.0, 1e-3, 200)
    assert first[0].tobytes() == second[0].tobytes()
    assert repr(first[1:]) == repr(second[1:])


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_labels_of_one_sign_are_rejected(sign):
    # the reference loop reports these as converged with an infinite bias
    with pytest.raises(DegenerateLabelsError):
        solve_dual(np.eye(3), np.full(3, sign), 1.0, 1e-3, 1)


def _pair_machines(spec):
    """(Gram, +/-1 labels) of every one-vs-one machine of a sweep over the
    default grid, built as `svm.train_multiclass` builds them."""
    _, train, _, _ = prepare(spec)
    labels = np.asarray(train.labels)
    for gamma in DEFAULT_GAMMA_GRID:
        for neg, pos in combinations(sorted(np.unique(labels)), 2):
            mask = (labels == neg) | (labels == pos)
            yield gram(train.features[mask], gamma).values, np.where(labels[mask] == pos, 1.0, -1.0)


def test_sweep_fits_match_the_reference(diabetes_csv, iris_csv):
    config = SvmConfig()
    diabetes = ExperimentSpec(dataset=FileSpec(path=str(diabetes_csv), pca_components=2),
                              gammas=(1.0,), standardize=True)
    iris = ExperimentSpec(
        dataset=FileSpec(path=str(iris_csv), label_column="species",
                         feature_columns=("sepal_width", "petal_width")),
        gammas=(1.0,), standardize=True,
    )
    fits = [*_pair_machines(diabetes), *_pair_machines(iris)]
    assert len(fits) == 40
    for K, y in fits:
        assert assert_same_bytes(K, y, config.c, config.tol, config.max_passes)
