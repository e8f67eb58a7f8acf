"""Per-point reference paths for the SVM's batch prediction.

:func:`decision_value` sums kernel values one support vector at a time, so
the cross-Gram path of :func:`dsvkernel.svm.decision_values` can be checked
against it point by point.
"""

from __future__ import annotations

import numpy as np

from dsvkernel.errors import InvalidDimensionError
from dsvkernel.kernel import kernel_vec
from dsvkernel.svm import MulticlassModel, SvmModel, predict_multiclass_batch


def decision_value(model: SvmModel, x: np.ndarray) -> float:
    """Pre-sign decision value via a per-support-vector kernel loop."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != model.support_vectors.shape[1]:
        raise InvalidDimensionError(
            f"point of shape {x.shape} does not match feature dimension "
            f"{model.support_vectors.shape[1]}"
        )
    total = 0.0
    for a, y, sv in zip(model.alphas, model.sv_labels, model.support_vectors):
        total += a * y * kernel_vec(sv, x, model.kernel.gamma)
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
