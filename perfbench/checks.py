"""Correctness checks made from outside the program, with numpy alone.

Nothing here calls dsvkernel: each check recomputes what an output must be
from the saved model files, the written CSVs, the data files and the closed
form, so a bug in the program cannot also hide in its own check.  The
training rows of a sweep are rebuilt here too, from the documented
SplitMix64 generator, stratified split, standardization and PCA.
"""

from __future__ import annotations

import csv
import math

import numpy as np

#: Largest |sum(alpha * y)| a saved machine may show.
EQUALITY_TOL = 1e-9

#: Relative agreement required between a written decision value and the
#: benchmark's own, on the scale max(1, |value|).
DECISION_RTOL = 1e-9

#: Largest |simulated - closed form| inside the validated box.
SIMULATOR_ATOL = 1e-6

#: The solver classes a multiplier as sitting at C above C * (1 - AT_C_RTOL).
AT_C_RTOL = 1e-8

#: Rows of the lattice evaluated at once, to keep the check's memory small.
CHUNK = 8192

#: Stream id of the program's train/test split.
SPLIT_STREAM = 4

#: Columns whose standard deviation is at or below this share of
#: max(1, |mean|) are constant and pass through standardization unscaled.
CONSTANT_COLUMN_STD = 1e-12

MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """The program's documented generator: state0 = mix64(mix64(seed) + stream);
    each draw adds the golden gamma to the state and outputs mix64(state)."""

    def __init__(self, seed: int, stream: int):
        self.state = _mix64((_mix64(seed & MASK64) + stream) & MASK64)

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        return _mix64(self.state)

    def random(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def shuffle(self, values: list) -> None:
        """Fisher-Yates, each index drawn below i + 1 by rejection sampling."""
        for i in range(len(values) - 1, 0, -1):
            limit = (1 << 64) - (1 << 64) % (i + 1)
            while (u := self.next_u64()) >= limit:
                pass
            j = u % (i + 1)
            values[i], values[j] = values[j], values[i]


def train_indices(labels: np.ndarray, fraction: float, seed: int, stratified: bool) -> np.ndarray:
    """Training rows of the documented split, in dataset order.

    Stratified: floor(fraction * count) rows per class, then one more for
    classes in order of falling remainder (ties by a seeded draw per class)
    until floor(fraction * m) rows, never taking a class's last row; each
    class's members are shuffled and the first ones taken.
    """
    rng = SplitMix64(seed, SPLIT_STREAM)
    m = len(labels)
    target = math.floor(fraction * m)
    if not stratified:
        order = list(range(m))
        rng.shuffle(order)
        return np.sort(order[:target])
    classes = [int(c) for c in np.unique(labels)]
    counts = {c: int(np.count_nonzero(labels == c)) for c in classes}
    take = {c: math.floor(fraction * counts[c]) for c in classes}
    remainder = {c: fraction * counts[c] - take[c] for c in classes}
    tie = {c: rng.random() for c in classes}
    extras = target - sum(take.values())
    for c in sorted(classes, key=lambda c: (-remainder[c], tie[c])):
        if extras <= 0:
            break
        if take[c] + 1 <= counts[c] - 1:
            take[c] += 1
            extras -= 1
    train = []
    for c in classes:
        members = [int(i) for i in np.flatnonzero(labels == c)]
        rng.shuffle(members)
        train += members[:take[c]]
    return np.sort(train)


def standardize(features: np.ndarray) -> np.ndarray:
    """Zero mean, unit variance per column, fitted on these rows."""
    mean, std = features.mean(axis=0), features.std(axis=0)
    constant = std <= CONSTANT_COLUMN_STD * np.maximum(1.0, np.abs(mean))
    return (features - np.where(constant, 0.0, mean)) / np.where(constant, 1.0, std)


def pca(features: np.ndarray, k: int) -> np.ndarray:
    """Projection on the top k principal directions of the sample covariance,
    each signed so that its largest-magnitude coordinate is positive."""
    centered = features - features.mean(axis=0)
    values, vectors = np.linalg.eigh(centered.T @ centered / (len(features) - 1))
    components = vectors[:, np.argsort(values)[::-1][:k]].T
    signs = np.sign(components[np.arange(k), np.argmax(np.abs(components), axis=1)])
    return centered @ (components * signs[:, None]).T


def file_rows(path, label_column: str, feature_columns, pca_components):
    """A CSV dataset as the harness documents it: the selected columns,
    labels coded 0..L-1 (numeric order when every label is an integer),
    and with PCA the whole file standardized and projected."""
    names, features, raw = read_table(path, label_column)
    if feature_columns:
        features = features[:, [names.index(n) for n in feature_columns]]
    try:
        order = sorted(set(raw), key=int)
    except ValueError:
        order = sorted(set(raw))
    labels = np.array([order.index(v) for v in raw], dtype=np.int64)
    if pca_components is not None:
        features = pca(standardize(features), pca_components)
    return features, labels


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and of b."""
    out = np.zeros((a.shape[0], b.shape[0]))
    for d in range(a.shape[1]):
        diff = a[:, d, None] - b[None, :, d]
        out += diff * diff
    return out


def closed_form_probability(xp: float, xq: float, r: float, theta: float) -> float:
    """exp(-gamma (xq - xp)^2) with gamma = cosh 2r + cos 2theta sinh 2r."""
    gamma = math.cosh(2.0 * r) + math.cos(2.0 * theta) * math.sinh(2.0 * r)
    return math.exp(-gamma * (xq - xp) ** 2)


def simulator_failures(pairs, probabilities) -> list[str]:
    """One message per pair whose probability is missing, non-finite or off
    the closed form by more than SIMULATOR_ATOL."""
    problems = []
    for (xp, xq, r, theta), p in zip(pairs, probabilities, strict=True):
        if isinstance(p, str):
            problems.append(f"pair {(xp, xq, r, theta)} raised {p}")
            continue
        closed = closed_form_probability(xp, xq, r, theta)
        if not (math.isfinite(p) and abs(p - closed) <= SIMULATOR_ATOL):
            problems.append(f"pair {(xp, xq, r, theta)}: {p!r} vs closed form {closed!r}")
    return problems


def machines_of(model: dict) -> list[tuple[tuple[int, int], dict]]:
    """((negative class, positive class), machine) for either model type."""
    if model["type"] == "binary":
        machine = model["machine"]
        return [((int(machine["labels"][0]), int(machine["labels"][1])), machine)]
    return [((int(m["pair"][0]), int(m["pair"][1])), m) for m in model["machines"]]


def machine_problems(features, y, machine: dict, gamma: float, c: float, tol: float,
                     sq_dist: np.ndarray | None = None) -> list[str]:
    """Dual feasibility and the bias-free optimality gap of one saved machine.

    ``features`` and ``y`` (+/-1) are the machine's own training rows, in
    training order.  The multipliers are rebuilt from ``support_indices``
    and ``alpha_y``; every other multiplier is zero.  The gap
    max over I_up of (y - g) minus min over I_low of (y - g), with
    g = K (alpha * y), must be at most 2 tol: that is the condition under
    which some bias satisfies every KKT condition to within tol, whatever
    solver produced the multipliers.
    """
    m = len(y)
    idx = np.asarray(machine["support_indices"], dtype=np.int64)
    alpha_y = np.asarray(machine["alpha_y"], dtype=float)
    if idx.shape != alpha_y.shape or len(np.unique(idx)) != len(idx) \
            or (len(idx) and (idx.min() < 0 or idx.max() >= m)):
        return ["support_indices do not index distinct training rows"]
    problems = []
    support = np.asarray(machine["support_vectors"], dtype=float).reshape(len(idx), -1)
    if not np.allclose(support, features[idx], rtol=DECISION_RTOL, atol=DECISION_RTOL):
        problems.append("support_vectors differ from the training rows at support_indices")
    if np.any(np.sign(alpha_y) != y[idx]):
        problems.append("the sign of alpha*y disagrees with a label")
    alpha = np.zeros(m)
    alpha[idx] = np.abs(alpha_y)
    if alpha.max(initial=0.0) > c:
        problems.append(f"alpha {alpha.max()!r} exceeds C = {c!r}")
    if not np.all(np.isfinite(alpha)):
        problems.append("non-finite alpha")
        return problems
    balance = float(np.sum(alpha * y))
    if abs(balance) > EQUALITY_TOL:
        problems.append(f"|sum(alpha*y)| = {abs(balance):.3g} > {EQUALITY_TOL}")
    if sq_dist is None:
        sq_dist = sq_distances(features, features)
    v = y - np.exp(-gamma * sq_dist) @ (alpha * y)
    positive = alpha > 0.0
    at_c = alpha >= c * (1.0 - AT_C_RTOL)
    up = ((y > 0) & ~at_c) | ((y < 0) & positive)
    low = ((y < 0) & ~at_c) | ((y > 0) & positive)
    if up.any() and low.any():
        gap = float(v[up].max() - v[low].min())
        if gap > 2.0 * tol:
            problems.append(f"optimality gap {gap:.6g} > 2 tol = {2.0 * tol:.6g}")
    return problems


def read_table(path, label_column: str):
    """Header-first CSV -> (feature names, float matrix, raw label strings)."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = [r for r in csv.reader(f) if r]
    header, body = rows[0], rows[1:]
    label_at = header.index(label_column)
    names = [h for h in header if h != label_column]
    keep = [i for i, h in enumerate(header) if h != label_column]
    features = np.array([[float(r[i]) for i in keep] for r in body], dtype=float)
    return names, features, [r[label_at] for r in body]


def apply_chain(names: list[str], features: np.ndarray, chain: list[dict]) -> np.ndarray:
    """Replay a model file's preprocessing chain (select, standardize, pca)."""
    for step in chain:
        if step["kind"] == "select":
            features = features[:, [names.index(n) for n in step["names"]]]
            names = list(step["names"])
        elif step["kind"] == "standardize":
            scaler = step["scaler"]
            features = (features - np.asarray(scaler["mean"])) / np.asarray(scaler["scale"])
        elif step["kind"] == "pca":
            pca = step["model"]
            features = (features - np.asarray(pca["mean"])) @ np.asarray(pca["components"]).T
            names = [f"pc{i + 1}" for i in range(features.shape[1])]
        else:
            raise ValueError(f"unknown preprocessing step {step['kind']!r}")
    return features


def machine_decisions(model: dict, points: np.ndarray) -> list[np.ndarray]:
    """Decision value sum(alpha*y * exp(-gamma |x - sv|^2)) + b per machine."""
    gamma = float(model["kernel"]["gamma"])
    out = []
    for _, machine in machines_of(model):
        sv = np.asarray(machine["support_vectors"], dtype=float)
        alpha_y = np.asarray(machine["alpha_y"], dtype=float)
        values = np.empty(len(points))
        for lo in range(0, len(points), CHUNK):
            block = points[lo:lo + CHUNK]
            values[lo:lo + CHUNK] = np.exp(-gamma * sq_distances(block, sv)) @ alpha_y
        out.append(values + float(machine["bias"]))
    return out


def predict(model: dict, points: np.ndarray):
    """Labels by the documented rules, plus a mask of points where rounding
    could decide the label.

    Binary: the positive class when the decision value is >= 0.  One-vs-one:
    most votes; ties go to the largest summed |decision value| over the
    machines each tied class takes part in, then to the lowest class.
    """
    pairs = [pair for pair, _ in machines_of(model)]
    decisions = machine_decisions(model, points)
    ambiguous = np.zeros(len(points), dtype=bool)
    for d in decisions:
        ambiguous |= np.abs(d) <= DECISION_RTOL
    if model["type"] == "binary":
        neg, pos = pairs[0]
        return np.where(decisions[0] >= 0.0, pos, neg), ambiguous
    classes = [int(c) for c in model["classes"]]
    at = {c: k for k, c in enumerate(classes)}
    votes = np.zeros((len(points), len(classes)))
    magnitude = np.zeros_like(votes)
    for (neg, pos), d in zip(pairs, decisions):
        votes[:, at[pos]] += d >= 0.0
        votes[:, at[neg]] += d < 0.0
        magnitude[:, at[pos]] += np.abs(d)
        magnitude[:, at[neg]] += np.abs(d)
    tied = votes == votes.max(axis=1, keepdims=True)
    top = np.where(tied, magnitude, -np.inf)
    winners = np.argmax(top, axis=1)  # the first, lowest class on exact ties
    best = top.max(axis=1, keepdims=True)
    close = tied & (np.abs(magnitude - best) <= DECISION_RTOL * np.maximum(1.0, best))
    ambiguous |= close.sum(axis=1) > 1
    return np.asarray(classes)[winners], ambiguous


def signed_values(model: dict, points: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Value the boundary CSV documents for each point given its label: the
    decision value (binary), or the summed signed decision value toward the
    label over the machines it takes part in (one-vs-one)."""
    decisions = machine_decisions(model, points)
    if model["type"] == "binary":
        return decisions[0]
    values = np.zeros(len(points))
    for ((neg, pos), _), d in zip(machines_of(model), decisions):
        values += np.where(labels == pos, d, 0.0) - np.where(labels == neg, d, 0.0)
    return values


def boundary_lattice(features: np.ndarray, resolution: int, padding: float) -> np.ndarray:
    """The x2-major lattice over the padded bounding box of two features."""
    axes = []
    for d in range(2):
        lo, hi = float(features[:, d].min()), float(features[:, d].max())
        pad = padding * (hi - lo)
        axes.append(np.linspace(lo - pad, hi + pad, resolution))
    xs, ys = axes
    return np.column_stack([np.tile(xs, resolution), np.repeat(ys, resolution)])


def boundary_failures(model: dict, lattice: np.ndarray, csv_text: str) -> int:
    """Lattice points the written boundary CSV gets wrong or leaves out."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != "x1,x2,decision_value,label":
        return len(lattice)
    try:
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError:
        return len(lattice)
    if table.ndim != 2 or table.shape[1] != 4:
        return len(lattice)
    n = min(len(table), len(lattice))
    table, expected_xy = table[:n], lattice[:n]
    missing = len(lattice) - n + max(0, len(table) - len(lattice))
    xy_ok = np.all(np.abs(table[:, :2] - expected_xy)
                   <= DECISION_RTOL * np.maximum(1.0, np.abs(expected_xy)), axis=1)
    written = table[:, 3].astype(np.int64)
    labels, ambiguous = predict(model, expected_xy)
    label_ok = (written == labels) | ambiguous
    values = signed_values(model, expected_xy, written)
    value_ok = np.abs(table[:, 2] - values) <= DECISION_RTOL * np.maximum(1.0, np.abs(values))
    known = np.isin(written, [c for pair, _ in machines_of(model) for c in pair])
    good = xy_ok & label_ok & value_ok & known & (table[:, 3] == written)
    return missing + int(np.count_nonzero(~good))


def correct_count(model: dict, features: np.ndarray, raw_labels: list[str],
                  label_names: list[str]) -> int:
    """Rows whose predicted class is their own, labels mapped by name."""
    codes = np.array([label_names.index(v) for v in raw_labels])
    labels, _ = predict(model, features)
    return int(np.count_nonzero(labels == codes))
