"""Reference paths for the SVM's dual solver and batch prediction.

:func:`solve_dual_reference` is the straightforward form of the working-set
loop: it rebuilds the index sets, the gradient view and the curvature row on
every pair update.  :func:`dsvkernel.svm.solve_dual` must return the same
bytes for the same input.

:func:`decision_value` sums kernel values one support vector at a time, so
the cross-Gram path of :func:`dsvkernel.svm.decision_values` can be checked
against it point by point.

:func:`train_multiclass_reference` and :func:`accuracy_reference` are the
per-fit training path: every machine gets its own
:class:`~dsvkernel.kernel.GramMatrix` from :func:`~dsvkernel.kernel.gram`,
and the training split is scored through
:func:`~dsvkernel.svm.decision_values`' cross Gram.  Training on shared
squared distances must give the same bytes.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from dsvkernel.errors import InvalidDimensionError
from dsvkernel.kernel import gram, kernel_vec
from dsvkernel.svm import (
    TAU,
    MulticlassModel,
    SvmModel,
    accuracy,
    predict_multiclass_batch,
    solve_dual,
)


def solve_dual_reference(K: np.ndarray, y: np.ndarray, c: float, tol: float, max_passes: int):
    """Maximize the dual on Gram ``K`` for +/-1 labels ``y``.

    Keeps the gradient G = Q alpha - 1 of the minimization form, with
    Q = (y y^T) * K.  Each step takes i = argmax of -y G over I_up and j by
    the second-order rule argmin -b^2/a over I_low, then optimizes the pair
    analytically, clipping any variable that leaves the box to exactly 0 or
    C.  Stops when max over I_up of -y G minus min over I_low of -y G is at
    most 2 tol, or after ``max_passes * len(y)`` pair updates.

    Returns ``(alpha, bias, converged, objective_history)``; the history has
    the dual objective after every len(y) updates plus the final one.
    """
    m = len(y)
    pos = y > 0
    diag = np.diag(K)
    alpha = np.zeros(m)
    grad = -np.ones(m)
    history = []
    steps = 0
    while True:
        v = -y * grad
        above_zero = alpha > 0.0
        below_c = alpha < c
        up = np.where(pos, below_c, above_zero)
        low = np.where(pos, above_zero, below_c)
        v_up = np.where(up, v, -np.inf)
        i = int(np.argmax(v_up))
        g_max = v_up[i]
        g_min = np.where(low, v, np.inf).min()
        converged = bool(g_max - g_min <= 2.0 * tol)
        if converged or steps == max_passes * m:
            break
        b = g_max - v
        a = diag + diag[i] - 2.0 * K[i]
        a = np.where(a > 0.0, a, TAU)
        j = int(np.argmin(np.where(low & (b > 0.0), -b * b / a, np.inf)))

        yi, yj = y[i], y[j]
        ai, aj = alpha[i], alpha[j]
        if yi != yj:
            delta = (-grad[i] - grad[j]) / a[j]
            diff = ai - aj
            new_i, new_j = ai + delta, aj + delta
            if diff > 0.0:
                if new_j < 0.0:
                    new_i, new_j = diff, 0.0
                if new_i > c:
                    new_i, new_j = c, c - diff
            else:
                if new_i < 0.0:
                    new_i, new_j = 0.0, -diff
                if new_j > c:
                    new_i, new_j = c + diff, c
        else:
            delta = (grad[i] - grad[j]) / a[j]
            total = ai + aj
            new_i, new_j = ai - delta, aj + delta
            if total > c:
                if new_i > c:
                    new_i, new_j = c, total - c
                if new_j > c:
                    new_i, new_j = total - c, c
            else:
                if new_j < 0.0:
                    new_i, new_j = total, 0.0
                if new_i < 0.0:
                    new_i, new_j = 0.0, total
        alpha[i], alpha[j] = new_i, new_j
        grad += y * (K[i] * (yi * (new_i - ai)) + K[j] * (yj * (new_j - aj)))
        steps += 1
        if steps % m == 0:
            history.append(_objective(alpha, grad))
    history.append(_objective(alpha, grad))

    free = above_zero & below_c
    bias = float(v[free].mean()) if free.any() else float(0.5 * (g_max + g_min))
    return alpha, bias, converged, tuple(history)


def _objective(alpha: np.ndarray, grad: np.ndarray) -> float:
    return float(alpha.sum() - 0.5 * alpha @ (grad + 1.0))


def decision_value(model: SvmModel, x: np.ndarray) -> float:
    """Pre-sign decision value via a per-support-vector kernel loop."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != model.support_vectors.shape[1]:
        raise InvalidDimensionError(
            f"point of shape {x.shape} does not match feature dimension "
            f"{model.support_vectors.shape[1]}"
        )
    total = 0.0
    for coef, sv in zip(model.dual_coef, model.support_vectors):
        total += coef * kernel_vec(sv, x, model.kernel.gamma)
    return total + model.bias


def predict_binary(model: SvmModel, x: np.ndarray) -> int:
    """Sign of the decision value; exact zero maps to +1."""
    return 1 if decision_value(model, x) >= 0.0 else -1


def predict_multiclass(model: MulticlassModel, x: np.ndarray) -> int:
    """One-vs-one vote for a single point, as a batch of one."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InvalidDimensionError(f"expected a 1-d point, got shape {x.shape}")
    return int(predict_multiclass_batch(model, x[None, :])[0])


def train_binary_reference(features: np.ndarray, y: np.ndarray, config) -> SvmModel:
    """One machine on its own :func:`gram` of ``features``."""
    features = np.asarray(features, dtype=float)
    gram_matrix = gram(features, config.kernel.gamma)
    alpha, bias, converged, history = solve_dual(
        gram_matrix.values, y, config.c, config.tol, config.max_passes
    )
    keep = alpha > 0.0
    return SvmModel(
        support_indices=np.flatnonzero(keep),
        dual_coef=alpha[keep] * y[keep],
        support_vectors=features[keep],
        bias=bias,
        kernel=config.kernel,
        converged=converged,
        objective_history=history,
    )


def train_multiclass_reference(data, config, sq=None) -> MulticlassModel:
    """One-vs-one training with one :func:`gram` per machine; ``sq`` is
    ignored."""
    labels = np.asarray(data.labels)
    features = np.asarray(data.features, dtype=float)
    classes = sorted(int(c) for c in np.unique(labels))
    machines = []
    for neg, pos in combinations(classes, 2):
        mask = (labels == neg) | (labels == pos)
        y = np.where(labels[mask] == pos, 1.0, -1.0)
        machines.append(((neg, pos), train_binary_reference(features[mask], y, config)))
    return MulticlassModel(machines=tuple(machines), classes=tuple(classes))


def accuracy_reference(model, data, sq=None) -> float:
    """:func:`dsvkernel.svm.accuracy` through the cross Gram; ``sq`` is ignored."""
    return accuracy(model, data)
