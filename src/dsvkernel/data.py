"""Datasets: synthetic generators, CSV ingestion, feature selection, PCA,
standardization and deterministic stratified splits.

Generators are pure functions of (parameters, seed); every labeled dataset
carries a provenance record sufficient to regenerate or re-identify it.
Labels are always recoded to 0..L-1 with the original names retained.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import tempfile
from collections.abc import Iterable
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import (
    DatasetParseError,
    DegenerateLabelsError,
    InvalidDimensionError,
    InvalidInputError,
)
from .rng import SplitMix64

STREAM_MOONS = 1
STREAM_CIRCLES = 2
STREAM_SPIRALS = 3
STREAM_SPLIT = 4

#: The label column of every CSV that :func:`save_csv` writes.
LABEL_COLUMN = "label"

#: Columns whose standard deviation falls at or below this relative floor are
#: treated as constant: flagged and passed through unscaled.
CONSTANT_COLUMN_STD = 1e-12

#: Radius gained per spiral winding; fixes the gap between the two arms at
#: half this value regardless of the number of turns.
SPIRAL_RADIUS_PER_TURN = 12.5

#: Largest ``n`` a generator accepts.  ``data generate`` of 10^6 spiral points
#: takes about 8 s on one 2-vCPU Xeon, peaks at 190 MB RSS and writes a 41 MB
#: CSV; 10^7 took 98 s and 1.3 GB.
MAX_GENERATOR_N = 1_000_000


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with integer class labels in 0..L-1."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    label_names: tuple[str, ...]
    provenance: dict

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labs = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise InvalidDimensionError(f"features must be 2-d, got shape {feats.shape}")
        if labs.ndim != 1 or len(labs) != feats.shape[0]:
            raise InvalidDimensionError(
                f"{len(labs)} labels for {feats.shape[0]} feature rows"
            )
        if feats.shape[1] != len(self.feature_names):
            raise InvalidDimensionError(
                f"{len(self.feature_names)} names for {feats.shape[1]} columns"
            )
        if len(labs) and (labs.min() < 0 or labs.max() >= len(self.label_names)):
            raise InvalidInputError("labels must index into label_names")
        feats = np.array(feats)
        feats.setflags(write=False)
        labs = np.array(labs)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "label_names", tuple(self.label_names))

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.7
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise InvalidInputError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}"
            )


def _two_class(features: np.ndarray, provenance: dict) -> LabeledDataset:
    # generators compute under np.errstate, so points that overflow arrive
    # here without a numpy warning and are refused before anything is written
    if not np.isfinite(features).all():
        settings = ", ".join(f"{k}={v!r}" for k, v in provenance.items()
                             if k not in ("generator", "seed"))
        raise InvalidInputError(f"{provenance['generator']} points are not finite at {settings}")
    half = features.shape[0] // 2
    labels = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(half, dtype=np.int64)])
    return LabeledDataset(
        features=features,
        labels=labels,
        feature_names=("x1", "x2"),
        label_names=("0", "1"),
        provenance=provenance,
    )


def _check_generator_args(n: int, noise_sigma: float) -> None:
    if not 4 <= n <= MAX_GENERATOR_N or n % 2 != 0:
        raise InvalidInputError(f"n must be even and in [4, {MAX_GENERATOR_N}], got {n}")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise InvalidInputError(f"noise_sigma must be >= 0, got {noise_sigma}")


@np.errstate(over="ignore", invalid="ignore")
def make_moons(n: int, noise_sigma: float, seed: int) -> LabeledDataset:
    """Two interleaving semicircular arcs, n/2 points per class.

    Class 0 lies on the unit upper semicircle, class 1 on a unit arc shifted
    to interleave with it; Gaussian coordinate noise is added on top.
    """
    _check_generator_args(n, noise_sigma)
    rng = SplitMix64(seed, STREAM_MOONS)
    half = n // 2
    t0 = rng.uniforms(half) * math.pi
    t1 = rng.uniforms(half) * math.pi
    pts = np.empty((n, 2))
    pts[:half, 0] = np.cos(t0)
    pts[:half, 1] = np.sin(t0)
    pts[half:, 0] = 1.0 - np.cos(t1)
    pts[half:, 1] = 0.5 - np.sin(t1)
    if noise_sigma > 0.0:
        pts += noise_sigma * rng.normals(2 * n).reshape(n, 2)
    return _two_class(
        pts,
        {"generator": "moons", "n": n, "noise_sigma": noise_sigma, "seed": seed},
    )


@np.errstate(over="ignore", invalid="ignore")
def make_circles(n: int, radius_ratio: float, noise_sigma: float, seed: int) -> LabeledDataset:
    """Concentric circles of radius 1 (class 0) and radius_ratio (class 1),
    uniform in angle, with Gaussian noise applied radially."""
    _check_generator_args(n, noise_sigma)
    if not (0.0 < radius_ratio < 1.0):
        raise InvalidInputError(f"radius_ratio must be in (0, 1), got {radius_ratio}")
    rng = SplitMix64(seed, STREAM_CIRCLES)
    half = n // 2
    angles = rng.uniforms(n) * (2.0 * math.pi)
    radii = np.concatenate([np.full(half, 1.0), np.full(half, radius_ratio)])
    if noise_sigma > 0.0:
        radii = radii + noise_sigma * rng.normals(n)
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    return _two_class(
        pts,
        {
            "generator": "circles",
            "n": n,
            "radius_ratio": radius_ratio,
            "noise_sigma": noise_sigma,
            "seed": seed,
        },
    )


@np.errstate(over="ignore", invalid="ignore")
def make_spirals(n: int, turns: float, noise_sigma: float, seed: int) -> LabeledDataset:
    """Two Archimedean spiral arms offset by pi.

    With t drawn uniformly from (0, 1], a point sits at angle
    t * 2 pi turns and radius t * t_max, where t_max =
    SPIRAL_RADIUS_PER_TURN * turns; the second arm is the first rotated by
    pi at equal radius.  Gaussian coordinate noise is added.
    """
    _check_generator_args(n, noise_sigma)
    if not (math.isfinite(turns) and turns > 0.0):
        raise InvalidInputError(f"turns must be positive, got {turns}")
    rng = SplitMix64(seed, STREAM_SPIRALS)
    half = n // 2
    t = 1.0 - rng.uniforms(half)  # uniform on (0, 1]
    angle = t * (2.0 * math.pi * turns)
    radius = t * (SPIRAL_RADIUS_PER_TURN * turns)
    arm = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    pts = np.vstack([arm, -arm])
    if noise_sigma > 0.0:
        pts = pts + noise_sigma * rng.normals(2 * n).reshape(n, 2)
    return _two_class(
        pts,
        {
            "generator": "spirals",
            "n": n,
            "turns": turns,
            "noise_sigma": noise_sigma,
            "seed": seed,
        },
    )


def _relabel(raw_labels: list[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    distinct = set(raw_labels)
    try:
        ordered = sorted(distinct, key=lambda name: (int(name), name))
    except ValueError:
        ordered = sorted(distinct)
    code = {name: i for i, name in enumerate(ordered)}
    return np.array([code[v] for v in raw_labels], dtype=np.int64), tuple(ordered)


def load_csv(
    path,
    label_column: str,
    feature_columns: list[str] | None = None,
) -> LabeledDataset:
    """Read a header-first CSV with numeric feature cells.

    Only the label column and ``feature_columns`` (None: every other
    column) are read; each must appear once in the header, and
    ``feature_columns`` may not name the label column.  The first
    feature cell that is not a finite number raises :class:`DatasetParseError`
    naming its column and 1-based file line (the header is line 1, and blank
    lines count).  Class labels, strings or integers, become 0..L-1: in
    numeric order when every label parses as an integer (equal values such
    as ``1`` and ``01`` in string order), else in string order.
    """
    path = Path(path)
    raw = path.read_bytes()  # missing file surfaces as FileNotFoundError
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as err:
        raise DatasetParseError(f"{path}: not UTF-8 text (byte {err.start})") from None
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetParseError(f"{path}: empty file") from None
    if label_column not in header:
        raise DatasetParseError(f"{path}: unknown label column {label_column!r}")
    if feature_columns is None:
        feature_columns = [h for h in header if h != label_column]
    elif label_column in feature_columns:
        raise DatasetParseError(f"{path}: label column {label_column!r} named as a feature")
    for name in (label_column, *feature_columns):
        if header.count(name) > 1:
            raise DatasetParseError(f"{path}: column {name!r} appears twice in the header")
    if len(set(feature_columns)) != len(feature_columns):
        raise DatasetParseError(f"{path}: duplicate feature columns requested")
    if not feature_columns:
        raise DatasetParseError(f"{path}: no feature columns")
    for name in feature_columns:
        if name not in header:
            raise DatasetParseError(f"{path}: unknown feature column {name!r}")
    col_index = {h: i for i, h in enumerate(header)}
    feature_idx = [col_index[name] for name in feature_columns]
    label_idx = col_index[label_column]

    rows: list[list[float]] = []
    raw_labels: list[str] = []
    for line_no, record in enumerate(reader, start=2):
        if not record:
            continue
        if len(record) != len(header):
            raise DatasetParseError(
                f"{path}: row {line_no}: expected {len(header)} fields, got {len(record)}"
            )
        values = []
        for name, idx in zip(feature_columns, feature_idx):
            cell = record[idx]
            try:
                value = float(cell)
            except ValueError:
                raise DatasetParseError(
                    f"{path}: row {line_no}, column {name!r}: not numeric: {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise DatasetParseError(
                    f"{path}: row {line_no}, column {name!r}: not finite: {value!r}"
                )
            values.append(value)
        rows.append(values)
        raw_labels.append(record[label_idx])
    if not rows:
        raise DatasetParseError(f"{path}: no data rows")

    labels, label_names = _relabel(raw_labels)
    return LabeledDataset(
        features=np.array(rows, dtype=float),
        labels=labels,
        feature_names=tuple(feature_columns),
        label_names=label_names,
        provenance={
            "source": "csv",
            "path": str(path),
            "sha256": hashlib.sha256(raw).hexdigest(),
            "label_column": label_column,
            "feature_columns": list(feature_columns),
        },
    )


def recode_labels(data: LabeledDataset, label_names) -> LabeledDataset:
    """Re-express labels as indices into ``label_names``, which must name
    every class the dataset has; a file holding some of a model's classes
    is thereby scored against the model's own label coding."""
    label_names = tuple(label_names)
    unknown = [name for name in data.label_names if name not in label_names]
    if unknown:
        raise InvalidInputError(f"labels {unknown} are not among {list(label_names)}")
    codes = np.array([label_names.index(name) for name in data.label_names], dtype=np.int64)
    return replace(data, labels=codes[data.labels], label_names=label_names)


def select_features(data: LabeledDataset, names: list[str]) -> LabeledDataset:
    """Column slice by feature name; duplicates are rejected."""
    if len(set(names)) != len(names):
        raise InvalidInputError(f"duplicate feature names: {names}")
    missing = [n for n in names if n not in data.feature_names]
    if missing:
        raise InvalidInputError(f"unknown feature names: {missing}")
    idx = [data.feature_names.index(n) for n in names]
    return replace(data, features=data.features[:, idx], feature_names=tuple(names),
                   provenance={**data.provenance, "selected_features": list(names)})


def field_dict(record) -> dict:
    """A dataclass's field values by name, shallow: nothing is copied."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def _check_finite(owner: str, **arrays) -> None:
    """Refuse a ``nan`` or infinite entry in any of ``arrays``, naming its field."""
    for name, values in arrays.items():
        if not np.isfinite(values).all():
            raise InvalidInputError(f"{owner}: {name} holds a non-finite number")


@dataclass(frozen=True)
class PcaModel:
    """Mean vector plus orthonormal principal directions (rows) with their
    variances, sorted by decreasing variance.

    Sign convention: the largest-magnitude coordinate of each component is
    positive (first occurrence wins on exact magnitude ties).  A non-finite
    entry in any field raises :class:`InvalidInputError` before any arithmetic.
    """

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray

    def __post_init__(self):
        for name, value in field_dict(self).items():
            a = np.array(value, dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        _check_finite("PCA model", **field_dict(self))
        comps, ev = self.components, self.explained_variance
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries give inf or nan
            gram_err = np.max(np.abs(comps @ comps.T - np.eye(comps.shape[0])))
        if not gram_err <= 1e-10:
            raise InvalidInputError(f"components not orthonormal (error {gram_err:.2e})")
        if np.any(ev < 0.0) or np.any(np.diff(ev) > 0.0):
            raise InvalidInputError("explained_variance must be non-negative, non-increasing")

    def to_dict(self) -> dict:
        return {name: np.asarray(value).tolist() for name, value in field_dict(self).items()}

    @classmethod
    def from_dict(cls, d: dict) -> "PcaModel":
        return cls(**{f.name: np.asarray(d[f.name], dtype=float) for f in fields(cls)})


def pca_fit(data: LabeledDataset, k: int) -> PcaModel:
    """Top-k eigenvectors of the sample covariance of mean-centered features;
    a ``nan`` or infinite feature raises :class:`InvalidInputError`."""
    m, n = data.features.shape
    if not (1 <= k <= n):
        raise InvalidInputError(f"k must be in [1, {n}], got {k}")
    if m < 2:
        raise InvalidInputError(f"PCA needs at least 2 samples, got {m}")
    if not np.isfinite(data.features).all():
        raise InvalidInputError("PCA input contains non-finite entries")
    mean = data.features.mean(axis=0)
    centered = data.features - mean
    cov = centered.T @ centered / (m - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1][:k]
    components = eigenvectors[:, order].T.copy()
    for row in components:
        if row[int(np.argmax(np.abs(row)))] < 0.0:
            row *= -1.0
    return PcaModel(
        mean=mean,
        components=components,
        explained_variance=np.clip(eigenvalues[order], 0.0, None),
    )


def pca_transform(model: PcaModel, data: LabeledDataset) -> LabeledDataset:
    """Project centered rows onto the principal directions."""
    if data.n_features != model.components.shape[1]:
        raise InvalidDimensionError(
            f"dataset has {data.n_features} features, PCA expects {model.components.shape[1]}"
        )
    projected = (data.features - model.mean) @ model.components.T
    k = model.components.shape[0]
    return replace(data, features=projected, feature_names=tuple(f"pc{i + 1}" for i in range(k)),
                   provenance={**data.provenance, "pca_components": k})


@dataclass(frozen=True)
class ColumnScaler:
    """Per-column affine map to zero mean and unit variance.

    Constant columns (std at or below the relative floor) are flagged and
    passed through untouched.  A non-finite mean or scale, or a scale that
    is not positive, raises :class:`InvalidInputError` before any arithmetic.
    """

    mean: np.ndarray
    scale: np.ndarray
    constant_columns: tuple[int, ...]

    def __post_init__(self):
        _check_finite("scaler", mean=self.mean, scale=self.scale)
        if not (np.asarray(self.scale) > 0.0).all():
            raise InvalidInputError("scaler: scale holds a number that is not positive")

    def to_dict(self) -> dict:
        return {name: np.asarray(value).tolist() for name, value in field_dict(self).items()}

    @classmethod
    def from_dict(cls, d: dict) -> "ColumnScaler":
        return cls(
            mean=np.asarray(d["mean"], dtype=float),
            scale=np.asarray(d["scale"], dtype=float),
            constant_columns=tuple(int(i) for i in d["constant_columns"]),
        )


def standardize_fit(data: LabeledDataset) -> ColumnScaler:
    """Column statistics from this dataset only (fit on the training split)."""
    if data.n_samples < 2:
        raise InvalidInputError("standardization needs at least 2 samples")
    mean = data.features.mean(axis=0)
    std = data.features.std(axis=0)
    floor = CONSTANT_COLUMN_STD * np.maximum(1.0, np.abs(mean))
    constant = std <= floor
    out_mean = np.where(constant, 0.0, mean)
    out_scale = np.where(constant, 1.0, np.where(std > 0.0, std, 1.0))
    return ColumnScaler(
        mean=out_mean,
        scale=out_scale,
        constant_columns=tuple(int(i) for i in np.flatnonzero(constant)),
    )


def standardize_apply(scaler: ColumnScaler, data: LabeledDataset) -> LabeledDataset:
    if data.n_features != len(scaler.mean):
        raise InvalidDimensionError(
            f"dataset has {data.n_features} features, scaler expects {len(scaler.mean)}"
        )
    return replace(data, features=(data.features - scaler.mean) / scaler.scale,
                   provenance={**data.provenance, "standardized": True})


def split(data: LabeledDataset, spec: SplitSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Deterministic shuffle split into train and test.

    Stratified mode keeps floor(train_fraction * class_count) rows per class
    and then tops classes up, ordered by fractional remainder with seeded
    tie-breaking, until floor(train_fraction * M) rows are in the training
    set; no class may lose its last test row.  Membership is seeded; row
    order within each part follows the original dataset, and both parts keep
    its provenance.
    """
    rng = SplitMix64(spec.seed, STREAM_SPLIT)
    m = data.n_samples
    target = int(math.floor(spec.train_fraction * m))

    if not spec.stratified:
        order = list(range(m))
        rng.shuffle(order)
        train_idx = sorted(order[:target])
        test_idx = sorted(order[target:])
    else:
        classes = [int(c) for c in np.unique(data.labels)]
        counts = {c: int(np.count_nonzero(data.labels == c)) for c in classes}
        too_small = [c for c in classes if counts[c] < 2]
        if too_small:
            raise DegenerateLabelsError(
                f"stratified split needs >= 2 samples per class; too small: {too_small}"
            )
        take = {c: int(math.floor(spec.train_fraction * counts[c])) for c in classes}
        remainders = {c: spec.train_fraction * counts[c] - take[c] for c in classes}
        tie_rank = {c: rng.random() for c in classes}
        extras = target - sum(take.values())
        for c in sorted(classes, key=lambda c: (-remainders[c], tie_rank[c])):
            if extras <= 0:
                break
            if take[c] + 1 <= counts[c] - 1:
                take[c] += 1
                extras -= 1
        train_idx = []
        for c in classes:
            members = list(np.flatnonzero(data.labels == c))
            rng.shuffle(members)
            train_idx.extend(int(i) for i in members[: take[c]])
        train_idx = sorted(train_idx)
        test_idx = sorted(set(range(m)) - set(train_idx))

    return (replace(data, features=data.features[train_idx], labels=data.labels[train_idx]),
            replace(data, features=data.features[test_idx], labels=data.labels[test_idx]))


def atomic_write_text(path, text: str | Iterable[str]) -> None:
    """Write ``text`` as UTF-8 bytes (no newline translation) to a temporary
    file beside ``path``, then rename it over ``path``: readers see the old
    file or the whole new one, never a partial write.  Missing parent
    directories are made first.

    ``text`` is one string or an iterable of string pieces, written in order
    as they come, so a caller can stream a large file without holding it.
    If producing a piece raises, the temporary file is removed and ``path``
    is left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    pieces = (text,) if isinstance(text, str) else text
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            for piece in pieces:
                f.write(piece.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def pretty_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    json's indented encoder runs in pure Python.  This walks the dicts and
    lists itself and hands every scalar, every flat list of ints and floats
    and every list of such lists (a model's support vectors) to json's C
    encoder in one call each; the one-line text becomes the indented one by
    replacing its separators.
    """
    encode = json.JSONEncoder(sort_keys=True).encode

    def numbers(value) -> bool:
        """A non-empty list of ints and floats, bools excluded."""
        return (isinstance(value, (list, tuple)) and len(value) > 0
                and set(map(type, value)) <= {int, float})

    def text(value, indent: str) -> str:
        inner = indent + "  "
        if isinstance(value, dict) and value:
            if not all(isinstance(k, str) for k in value):
                return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)
            items = ",\n".join(f"{inner}{encode(k)}: {text(value[k], inner)}"
                               for k in sorted(value))
            return f"{{\n{items}\n{indent}}}"
        if not (isinstance(value, (list, tuple)) and value):
            return encode(value)
        if numbers(value):
            items = inner + encode(value)[1:-1].replace(", ", ",\n" + inner)
        elif all(map(numbers, value)):
            # "[[1, 2], [3, 4]]": every ", " starts a line two levels in, and
            # each "], [" between rows then closes one row and opens the next
            deeper = inner + "  "
            rows = encode(value)[2:-2].replace(", ", ",\n" + deeper)
            rows = rows.replace(f"],\n{deeper}[", f"\n{inner}],\n{inner}[\n{deeper}")
            items = f"{inner}[\n{deeper}{rows}\n{inner}]"
        else:
            items = ",\n".join(inner + text(v, inner) for v in value)
        return f"[\n{items}\n{indent}]"

    return text(obj, "")


def save_csv(data: LabeledDataset, path) -> None:
    """Write feature columns then a ``label`` column, plus a sidecar
    ``<stem>.provenance.json`` record."""
    path = Path(path)
    table = io.StringIO()
    writer = csv.writer(table)
    writer.writerow(list(data.feature_names) + [LABEL_COLUMN])
    for row, label in zip(data.features, data.labels):
        writer.writerow([repr(float(v)) for v in row] + [data.label_names[label]])
    atomic_write_text(path, table.getvalue())
    payload = {
        "provenance": data.provenance,
        "feature_names": list(data.feature_names),
        "label_names": list(data.label_names),
        "n_samples": data.n_samples,
    }
    atomic_write_text(path.with_suffix(".provenance.json"), pretty_json(payload) + "\n")
