"""Kernel support vector machine trained by a second-order working-set solver.

The soft-margin dual

    maximize  sum(alpha) - 1/2 sum_pq alpha_p alpha_q y_p y_q K_pq
    subject to  0 <= alpha <= C  and  sum(alpha * y) = 0

is solved on a precomputed Gram matrix two variables at a time.  Each step
takes the maximal violating variable as the first of the pair and picks the
second by the second-order rule of Fan, Chen & Lin (2005, LIBSVM's WSS2),
then optimizes the pair analytically; bounds are hit exactly.  Training
stops when the maximal violation gap is at most 2 ``tol``, which is when
some bias meets every KKT condition to within ``tol``.  No randomness is
involved: training is deterministic given the Gram matrix and labels.

Between updates the solver keeps v = -y G (labels times the dual gradient)
and two penalty vectors that restrict the selections to the index sets I_up
and I_low, in buffers allocated once per fit, and one curvature row per
distinct first index, built the first time that index is picked (at most
m rows, one m x m array, for m training rows); an update rewrites v and two
entries of each penalty vector.

Every trained, saved or loaded model is a one-vs-one :class:`MulticlassModel`:
one binary machine per class pair, predicting by majority vote, so a
2-class model holds one machine.  Each fact is stored once: a machine keeps
one coefficient alpha * y per support vector (LIBSVM's ``sv_coef``), and its
class pair lives only in ``MulticlassModel.machines``.  Trained models are
immutable; prediction is pure and may run in parallel, while a single
training run is inherently sequential.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .data import atomic_write_text
from .errors import (
    MALFORMED_ERRORS,
    DegenerateLabelsError,
    InvalidDimensionError,
    InvalidInputError,
)
from .kernel import KernelConfig, check_distances, gaussian, gram, gram_cross

#: Curvature used in place of a non-positive one (duplicate rows).
TAU = 1e-12

MODEL_FORMAT_VERSION = 2


@dataclass(frozen=True)
class SvmConfig:
    """Box constraint, KKT tolerance, update budget and kernel choice.

    Training stops once the maximal violation gap is at most 2 ``tol``, or
    after ``max_passes`` times the number of training rows pair updates.
    At alpha = 0 the gap is exactly 2, so ``tol`` must lie in (0, 1): a
    larger one would stop before the first update, with no support vector.
    C = 1e6 or larger effectively recovers a hard margin.
    """

    c: float = 1.0
    tol: float = 1e-3
    max_passes: int = 200
    kernel: KernelConfig = KernelConfig(gamma=1.0)

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise InvalidInputError(f"c must be positive, got {self.c}")
        if not 0.0 < self.tol < 1.0:
            raise InvalidInputError(f"tol must be in (0, 1), got {self.tol}")
        if self.max_passes < 1:
            raise InvalidInputError(f"max_passes must be >= 1, got {self.max_passes}")


@dataclass(frozen=True)
class SvmModel:
    """One binary machine: support vectors with their dual coefficients.

    ``dual_coef`` holds alpha * y for each support vector, y = +1 for the
    second class of the machine's pair; an exact zero decision value is
    predicted as that class.  Each support vector has one coefficient and one
    row of ``support_vectors``; anything else raises
    :class:`InvalidInputError`.
    """

    support_indices: np.ndarray
    dual_coef: np.ndarray
    support_vectors: np.ndarray
    bias: float
    kernel: KernelConfig
    converged: bool
    objective_history: tuple[float, ...]

    def __post_init__(self):
        for name in ("support_indices", "dual_coef", "support_vectors"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if (self.dual_coef.ndim != 1 or self.support_vectors.ndim != 2
                or len(self.support_vectors) != len(self.dual_coef)):
            raise InvalidInputError(
                f"dual coefficients of shape {self.dual_coef.shape} and support vectors "
                f"of shape {self.support_vectors.shape} do not agree"
            )

    @property
    def n_support(self) -> int:
        return len(self.dual_coef)


@dataclass(frozen=True)
class MulticlassModel:
    """One-vs-one ensemble: L(L-1)/2 binary machines over sorted class pairs.

    The pairs must be exactly ``combinations(classes, 2)`` in that order, for
    at least two sorted distinct classes, and every machine's support vectors
    must have the same width; anything else raises
    :class:`InvalidInputError`.  Each machine plays its pair's second class
    as +1.
    """

    machines: tuple[tuple[tuple[int, int], SvmModel], ...]
    classes: tuple[int, ...]

    def __post_init__(self):
        pairs = [pair for pair, _ in self.machines]
        if (len(self.classes) < 2 or list(self.classes) != sorted(set(self.classes))
                or pairs != list(combinations(self.classes, 2))):
            raise InvalidInputError(
                f"machine pairs {pairs} are not the class pairs of {list(self.classes)}"
            )
        widths = [machine.support_vectors.shape[1] for _, machine in self.machines]
        if len(set(widths)) > 1:
            raise InvalidInputError(f"machines' support vectors have widths {widths}")


def solve_dual(K: np.ndarray, y: np.ndarray, c: float, tol: float, max_passes: int):
    """Maximize the dual on Gram ``K`` for +/-1 labels ``y``.

    Works with the gradient G = Q alpha - 1 of the minimization form, with
    Q = (y y^T) * K, through v = -y G.  Each step takes i = argmax of v over
    I_up and j by the second-order rule argmin -b^2/a over I_low, then
    optimizes the pair analytically, clipping any variable that leaves the
    box to exactly 0 or C.  Stops when max over I_up of v minus min over
    I_low of v is at most 2 tol, or after ``max_passes * len(y)`` pair
    updates.

    The loop keeps three things between updates: ``v`` itself, updated as
    v -= K_i y_i d_i + K_j y_j d_j with d the change in alpha (the same
    values as -y G, since y is +/-1); two penalty vectors, -0.0 on I_up
    (I_low) and -inf (+inf) off it, of which only entries i and j change;
    and the curvature row a = diag + K_ii - 2 K_i of every first index i
    picked so far, with every entry that is not > 0 set to ``TAU``, built
    the first time i is picked and reused by later updates with the same i.
    The second index is scored as b |b| / a and falls back to the first
    index with b > 0 when no score is positive, which picks the j of the
    masked -b^2/a rule.  ``K`` and ``y`` are only read.  The pair
    arithmetic runs on Python floats in the same order as in the plain
    loop, so alpha, bias, flag and history are byte-identical to it.

    Returns ``(alpha, bias, converged, objective_history)``; the history has
    the dual objective after every len(y) updates plus the final one.
    Raises :class:`DegenerateLabelsError` unless ``y`` holds both signs:
    with one sign, I_up or I_low starts empty and the stopping test would
    pass at once with an infinite bias.
    """
    if not ((y > 0).any() and (y < 0).any()):
        raise DegenerateLabelsError("training labels contain a single class")
    m = len(y)
    budget = max_passes * m
    diag = np.diag(K)
    labels = y.tolist()
    neg_y = -y
    alpha = np.zeros(m)
    v = neg_y * -1.0  # G = -1 at alpha = 0
    # Adding -0.0 leaves every float as it is, signed zeros included, so
    # v + up and v + low hold v exactly on I_up and I_low.
    up = np.where(y > 0, -0.0, -np.inf)
    low = np.where(y > 0, np.inf, -0.0)
    work = np.empty(m)
    b = np.empty(m)
    step = np.empty(m)
    curvature = {}
    history = []
    steps = 0
    while True:
        np.add(v, up, work)
        i = int(work.argmax())
        g_max = work.item(i)
        np.add(v, low, work)
        g_min = work.item(work.argmin())
        converged = g_max - g_min <= 2.0 * tol
        if converged or steps == budget:
            break
        np.subtract(g_max, work, b)
        K_i = K[i]
        a = curvature.get(i)
        if a is None:
            a = diag + diag.item(i)
            a -= 2.0 * K_i
            a[~(a > 0.0)] = TAU
            curvature[i] = a
        # b |b| / a is b^2/a where b > 0 and not positive elsewhere (-inf off
        # I_low), so a positive maximum is the masked b^2/a's, first index on
        # ties; when no score is positive, the masked form takes the first
        # index with b > 0 (index 0 if there is none).
        np.abs(b, work)
        np.multiply(b, work, work)
        np.divide(work, a, work)
        j = int(work.argmax())
        if not b.item(j) > 0.0:
            j = int((b > 0.0).argmax())

        yi, yj = labels[i], labels[j]
        ai, aj = alpha.item(i), alpha.item(j)
        gi, gj = -yi * v.item(i), -yj * v.item(j)
        a_j = a.item(j)
        if yi != yj:
            delta = (-gi - gj) / a_j
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
            delta = (gi - gj) / a_j
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
        np.multiply(K_i, yi * (new_i - ai), step)
        np.multiply(K[j], yj * (new_j - aj), work)
        np.add(step, work, step)
        np.subtract(v, step, v)
        for k, yk, ak in ((i, yi, new_i), (j, yj, new_j)):
            up[k] = -0.0 if (ak < c if yk > 0 else ak > 0.0) else -np.inf
            low[k] = -0.0 if (ak > 0.0 if yk > 0 else ak < c) else np.inf
        steps += 1
        if steps % m == 0:
            history.append(_objective(alpha, neg_y * v))
    history.append(_objective(alpha, neg_y * v))

    free = (alpha > 0.0) & (alpha < c)
    # work still holds v + low; take its min as the plain loop did, since
    # among tied zeros argmin may pick one of the other sign
    bias = float(v[free].mean()) if free.any() else 0.5 * (g_max + float(work.min()))
    return alpha, bias, converged, tuple(history)


def _objective(alpha: np.ndarray, grad: np.ndarray) -> float:
    return float(alpha.sum() - 0.5 * alpha @ (grad + 1.0))


def train_binary(features: np.ndarray, labels: np.ndarray, config: SvmConfig,
                 sq: np.ndarray | None = None) -> SvmModel:
    """Train one binary machine on the rows of ``features``.

    ``labels`` holds one +/-1 label per row, with both signs present.  The
    Gram matrix is built here by :func:`gram` at ``config.kernel``'s gamma,
    so it is always the kernel the machine keeps, and it is exactly
    symmetric with a unit diagonal, as :func:`gram` guarantees, which lets
    the solver read rows for columns.  ``sq``, the rows' squared distances,
    is passed on to it and left unchanged (None: :func:`gram` computes
    them).  The machine retains the rows with alpha > 0 as its
    support vectors, each with its alpha * y.
    """
    features = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    gram_matrix = gram(features, config.kernel.gamma, sq)
    if y.shape != (gram_matrix.size,):
        raise InvalidDimensionError(
            f"labels {y.shape} and features {features.shape} do not agree"
        )
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise InvalidInputError("labels must be +/-1")

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


def decision_values(model: SvmModel, points: np.ndarray) -> np.ndarray:
    """Pre-sign decision values of a batch of points via a cross Gram matrix;
    :func:`gram_cross` rejects points that do not fit the support vectors."""
    return decision_from_gram(model, gram_cross(model.support_vectors, points, model.kernel.gamma))


def decision_from_gram(model: SvmModel, cross: np.ndarray) -> np.ndarray:
    """Pre-sign decision values from a cross Gram matrix whose rows are points
    and whose columns are the model's support vectors: each a fixed-order sum
    over its own row with no BLAS call (einsum without ``optimize``), so the
    same at any batch size and any BLAS thread count."""
    return np.einsum("ij,j->i", cross, model.dual_coef) + model.bias


def train_multiclass(data, config: SvmConfig, sq: np.ndarray | None = None) -> MulticlassModel:
    """One-vs-one training over every class pair present in the data.

    Within each pair the higher class index plays +1.  ``sq``, when given,
    holds the squared distances between all rows (``sq_distances`` of the
    features with themselves) and is left unchanged, so one array serves
    every gamma of a sweep: each machine's Gram is built from its pair's
    block of it, and from ``sq`` itself when the pair covers every row.
    """
    labels = np.asarray(data.labels)
    features = np.asarray(data.features, dtype=float)
    classes = sorted(int(c) for c in np.unique(labels))
    if len(classes) < 2:
        raise DegenerateLabelsError(f"need at least 2 classes, got {classes}")
    check_distances(sq, len(labels))
    machines = []
    for neg, pos in combinations(classes, 2):
        mask = (labels == neg) | (labels == pos)
        y = np.where(labels[mask] == pos, 1.0, -1.0)
        # no block copy when the pair takes every row: one m x m array fewer
        block = sq if sq is None or mask.all() else sq[np.ix_(mask, mask)]
        machines.append(((neg, pos), train_binary(features[mask], y, config, block)))
    return MulticlassModel(machines=tuple(machines), classes=tuple(classes))


def training_decisions(model: MulticlassModel, labels, sq: np.ndarray) -> list[np.ndarray]:
    """Every machine's decision values on the rows ``model`` was trained on,
    which carry ``labels``, from the ``sq`` given to :func:`train_multiclass`.

    A machine's kernel columns are ``sq``'s columns at its support vectors'
    rows, gathered by ``np.take`` into a C-contiguous array like the one
    :func:`gram_cross` returns, so each value equals :func:`decision_values`
    on the same rows bit for bit.
    """
    labels = np.asarray(labels)
    check_distances(sq, len(labels))
    decisions = []
    for (neg, pos), machine in model.machines:
        columns = np.flatnonzero((labels == neg) | (labels == pos))[machine.support_indices]
        decisions.append(decision_from_gram(
            machine, gaussian(np.take(sq, columns, axis=1), machine.kernel.gamma)
        ))
    return decisions


def vote(model: MulticlassModel, decisions) -> np.ndarray:
    """One-vs-one majority vote over per-machine decision values, one array
    per machine in ``model.machines`` order.

    Ties go to the largest summed |decision value| across the machines each
    tied class participates in, then to the lowest class.  With row-local
    decision values (:func:`decision_from_gram`), a point's label and values
    do not depend on the rest of its batch, bit for bit.
    """
    index_of = {c: k for k, c in enumerate(model.classes)}
    votes = np.zeros((len(decisions[0]), len(model.classes)))
    magnitudes = np.zeros_like(votes)
    for ((neg, pos), _), d in zip(model.machines, decisions):
        win_pos = d >= 0.0
        votes[:, index_of[pos]] += win_pos
        votes[:, index_of[neg]] += ~win_pos
        magnitudes[:, index_of[pos]] += np.abs(d)
        magnitudes[:, index_of[neg]] += np.abs(d)
    tied = votes == votes.max(axis=1, keepdims=True)
    # argmax takes the lowest index on exact magnitude ties
    winners = np.argmax(np.where(tied, magnitudes, -np.inf), axis=1)
    return np.asarray(model.classes, dtype=np.int64)[winners]


def predict_multiclass_batch(model: MulticlassModel, points: np.ndarray) -> np.ndarray:
    """Majority vote of every machine's decision values; see :func:`vote`."""
    points = np.asarray(points, dtype=float)
    return vote(model, [decision_values(machine, points) for _, machine in model.machines])


def predict_labels(model: MulticlassModel, points: np.ndarray) -> np.ndarray:
    """Class labels for a batch of points; see :func:`predict_multiclass_batch`."""
    return predict_multiclass_batch(model, points)


def accuracy(model: MulticlassModel, data, sq: np.ndarray | None = None) -> float:
    """Fraction of rows whose predicted label matches.

    ``sq`` is for the rows ``model`` was trained on: given their squared
    distances as passed to :func:`train_multiclass`, the rows are scored by
    :func:`training_decisions` instead of a cross Gram, with the same labels.
    """
    if len(data.labels) == 0:
        raise InvalidInputError("cannot score an empty dataset")
    if sq is None:
        predicted = predict_labels(model, data.features)
    else:
        predicted = vote(model, training_decisions(model, data.labels, sq))
    return float(np.count_nonzero(predicted == np.asarray(data.labels)) / len(data.labels))


def _machine_to_dict(pair: tuple[int, int], model: SvmModel) -> dict:
    """A machine's file entry, each fact once: its class ``pair``, and per
    support vector its training-row index, alpha * y and row."""
    return {
        "pair": list(pair),
        "support_indices": model.support_indices.tolist(),
        "alpha_y": model.dual_coef.tolist(),
        "support_vectors": model.support_vectors.tolist(),
        "bias": model.bias,
        "converged": model.converged,
    }


def _machine_from_dict(d: dict, kernel_config: KernelConfig) -> SvmModel:
    """A machine from its file entry; JSON's ``NaN`` and ``Infinity`` in
    ``alpha_y``, ``support_vectors`` or ``bias`` raise
    :class:`InvalidInputError`."""
    numbers = {"alpha_y": np.asarray(d["alpha_y"], dtype=float),
               "support_vectors": np.asarray(d["support_vectors"], dtype=float),
               "bias": float(d["bias"])}
    for name, values in numbers.items():
        if not np.isfinite(values).all():
            raise InvalidInputError(f"machine {d['pair']}: {name} holds a non-finite number")
    return SvmModel(
        support_indices=np.asarray(d["support_indices"], dtype=np.intp),
        dual_coef=numbers["alpha_y"],
        support_vectors=numbers["support_vectors"],
        bias=numbers["bias"],
        kernel=kernel_config,
        converged=bool(d["converged"]),
        objective_history=(),
    )


def model_to_dict(model: MulticlassModel) -> dict:
    """Versioned JSON-compatible form; coefficients are stored as alpha*y."""
    return {
        "version": MODEL_FORMAT_VERSION,
        "type": "one_vs_one",
        "kernel": model.machines[0][1].kernel.to_dict(),
        "classes": list(model.classes),
        "machines": [_machine_to_dict(pair, machine) for pair, machine in model.machines],
    }


def model_from_dict(d: dict) -> MulticlassModel:
    """Inverse of :func:`model_to_dict`; a document of another version, with
    missing or ill-typed fields, or of any type but ``one_vs_one`` raises
    :class:`InvalidInputError`.  Training is deterministic, so retraining
    rewrites an older file's machines in this version."""
    try:
        if d.get("version") != MODEL_FORMAT_VERSION:
            raise InvalidInputError(f"unsupported model version: {d.get('version')}; "
                                    f"retrain to write version {MODEL_FORMAT_VERSION}")
        kernel_config = KernelConfig.from_dict(d["kernel"])
        if d["type"] != "one_vs_one":
            raise InvalidInputError(f"unknown model type: {d['type']}")
        machines = tuple(
            ((int(m["pair"][0]), int(m["pair"][1])), _machine_from_dict(m, kernel_config))
            for m in d["machines"]
        )
        return MulticlassModel(machines=machines, classes=tuple(int(c) for c in d["classes"]))
    except MALFORMED_ERRORS as err:
        raise InvalidInputError(f"malformed model: {type(err).__name__}: {err}") from None


def save_model(path, model: MulticlassModel, extra: dict | None = None) -> None:
    """Atomic JSON write; ``extra`` merges additional top-level fields."""
    payload = model_to_dict(model)
    if extra:
        payload.update(extra)
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_model(path) -> tuple[MulticlassModel, dict]:
    """Read a model file; returns the model and the raw JSON document."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            payload = json.load(f)
        except ValueError as err:  # JSONDecodeError, UnicodeDecodeError
            raise InvalidInputError(f"{path}: not a JSON model file: {err}") from None
    return model_from_dict(payload), payload
