"""End-to-end experiment harness: dataset -> split -> Gram -> SVM -> report.

Reports are JSON documents fully reconstructible from (spec, seed): the spec
is embedded, its hash stamps every output file, and the only
non-reproducible fields live under the top-level "timings" key.  File writes
are whole-file atomic (write to a temp file, then rename).
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path

import numpy as np

from .data import (
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
    select_features,
    split,
    standardize_apply,
    standardize_fit,
)
from .errors import (
    MALFORMED_ERRORS,
    InvalidDimensionError,
    InvalidInputError,
)
from .fock import DEFAULT_CUTOFF, SqueezeParams, circuit_kernel
from .kernel import (
    KernelConfig,
    check_gamma,
    gamma_from_squeeze,
    gaussian,
    kernel_scalar,
    sq_distances,
)
from .svm import (
    MulticlassModel,
    SvmConfig,
    accuracy,
    decision_from_gram,
    save_model,
    train_multiclass,
    vote,
)

REPORT_FORMAT_VERSION = 1

#: Gamma grid of a sweep that names none.
DEFAULT_GAMMA_GRID = (0.06, 0.1, 0.25, 0.5, 0.8, 1.0, 1.5, 2.5, 5.0, 10.0)

#: Default decision-boundary lattice edge length.
DEFAULT_BOUNDARY_RESOLUTION = 200

#: Fraction of each axis range added as padding on either side of a
#: boundary-grid bounding box.
BOUNDARY_PADDING = 0.10

#: Lattice rows (x2 values) a boundary grid computes and writes at a time;
#: it bounds the export's working memory and does not change its bytes.
BOUNDARY_BAND_ROWS = 16

DEFAULT_NOISE_SIGMA = {"moons": 0.15, "circles": 0.08, "spirals": 0.5}


@dataclass(frozen=True)
class GeneratorSpec:
    """Synthetic dataset descriptor; noise defaults depend on the kind."""

    kind: str
    n: int = 300
    noise_sigma: float | None = None
    radius_ratio: float = 0.5
    turns: float = 2.0

    def __post_init__(self):
        if self.kind not in DEFAULT_NOISE_SIGMA:
            raise InvalidInputError(f"unknown generator kind: {self.kind!r}")
        if self.noise_sigma is None:
            object.__setattr__(self, "noise_sigma", DEFAULT_NOISE_SIGMA[self.kind])

    def to_dict(self) -> dict:
        d = {"source": "generator", "kind": self.kind, "n": self.n,
             "noise_sigma": self.noise_sigma}
        if self.kind == "circles":
            d["radius_ratio"] = self.radius_ratio
        if self.kind == "spirals":
            d["turns"] = self.turns
        return d


@dataclass(frozen=True)
class FileSpec:
    """CSV dataset descriptor with optional feature selection and PCA.

    When ``pca_components`` is set, the whole file is standardized and
    reduced before splitting, mirroring the usual single-split benchmark
    workflow; the split-level ``standardize`` flag remains train-fitted.
    """

    path: str
    label_column: str = "label"
    feature_columns: tuple[str, ...] | None = None
    pca_components: int | None = None

    def to_dict(self) -> dict:
        return {
            "source": "file",
            "path": str(self.path),
            "label_column": self.label_column,
            "feature_columns": list(self.feature_columns) if self.feature_columns else None,
            "pca_components": self.pca_components,
        }


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one train/evaluate run byte-for-byte."""

    dataset: GeneratorSpec | FileSpec
    gammas: tuple[float, ...]
    c: float = 1.0
    tol: float = 1e-3
    max_passes: int = 200
    train_fraction: float = 0.7
    stratified: bool = True
    standardize: bool = False
    seed: int = 0

    def __post_init__(self):
        if not self.gammas:
            raise InvalidInputError("gamma list must be non-empty")
        object.__setattr__(self, "gammas", tuple(check_gamma(g) for g in self.gammas))

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset.to_dict(),
            "gammas": list(self.gammas),
            "c": self.c,
            "tol": self.tol,
            "max_passes": self.max_passes,
            "train_fraction": self.train_fraction,
            "stratified": self.stratified,
            "standardize": self.standardize,
            "seed": self.seed,
        }

    def spec_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


def spec_from_dict(d: dict) -> ExperimentSpec:
    ds = d["dataset"]
    if ds["source"] == "generator":
        # a report records only its kind's shape parameter; the other keeps
        # the GeneratorSpec default
        shape = {k: ds[k] for k in ("radius_ratio", "turns") if k in ds}
        dataset = GeneratorSpec(kind=ds["kind"], n=ds["n"], noise_sigma=ds["noise_sigma"], **shape)
    else:
        dataset = FileSpec(
            path=ds["path"],
            label_column=ds["label_column"],
            feature_columns=tuple(ds["feature_columns"]) if ds["feature_columns"] else None,
            pca_components=ds["pca_components"],
        )
    return ExperimentSpec(
        dataset=dataset,
        gammas=tuple(d["gammas"]),
        c=d["c"],
        tol=d["tol"],
        max_passes=d["max_passes"],
        train_fraction=d["train_fraction"],
        stratified=d["stratified"],
        standardize=d["standardize"],
        seed=d["seed"],
    )


def build_dataset(dataset_spec: GeneratorSpec | FileSpec, seed: int) -> LabeledDataset:
    """Materialize a dataset descriptor (generators consume the given seed)."""
    return _dataset_and_chain(dataset_spec, seed)[0]


def _dataset_and_chain(dataset_spec, seed: int) -> tuple[LabeledDataset, list[dict]]:
    """The dataset and the transform chain that replays its file-level steps
    (feature selection, whole-file standardization and PCA) on the raw CSV."""
    if isinstance(dataset_spec, GeneratorSpec):
        if dataset_spec.kind == "moons":
            ds = make_moons(dataset_spec.n, dataset_spec.noise_sigma, seed)
        elif dataset_spec.kind == "circles":
            ds = make_circles(
                dataset_spec.n, dataset_spec.radius_ratio, dataset_spec.noise_sigma, seed
            )
        else:
            ds = make_spirals(dataset_spec.n, dataset_spec.turns, dataset_spec.noise_sigma, seed)
        return ds, []
    features = list(dataset_spec.feature_columns) if dataset_spec.feature_columns else None
    ds = load_csv(dataset_spec.path, dataset_spec.label_column, features)
    chain = [{"kind": "select", "names": features}] if features else []
    if dataset_spec.pca_components is not None:
        scaler = standardize_fit(ds)
        ds = standardize_apply(scaler, ds)
        pca_model = pca_fit(ds, dataset_spec.pca_components)
        ds = pca_transform(pca_model, ds)
        chain += [{"kind": "standardize", "scaler": scaler.to_dict()},
                  {"kind": "pca", "model": pca_model.to_dict()}]
    return ds, chain


def prepare(spec: ExperimentSpec):
    """Dataset -> split -> train-fitted standardization, for every caller.

    Returns ``(dataset, train, test, replay)``.  ``replay`` holds the
    model-file fields ``preprocessing``, ``label_column`` and ``label_names``
    with which ``evaluate`` and ``boundary`` map the raw CSV (for generators,
    the one ``data generate`` writes) into the model's feature space.
    """
    dataset, chain = _dataset_and_chain(spec.dataset, spec.seed)
    train_ds, test_ds = split(
        dataset, SplitSpec(spec.train_fraction, spec.seed, spec.stratified)
    )
    if spec.standardize:
        scaler = standardize_fit(train_ds)
        train_ds = standardize_apply(scaler, train_ds)
        test_ds = standardize_apply(scaler, test_ds)
        chain.append({"kind": "standardize", "scaler": scaler.to_dict()})
    replay = {
        "preprocessing": chain,
        "label_column": (spec.dataset.label_column
                         if isinstance(spec.dataset, FileSpec) else "label"),
        "label_names": list(dataset.label_names),
    }
    return dataset, train_ds, test_ds, replay


@dataclass(frozen=True)
class ExperimentRow:
    gamma: float
    train_acc: float
    test_acc: float
    n_sv: int
    converged: bool
    is_baseline: bool
    wall_time_s: float

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "train_acc": self.train_acc,
            "test_acc": self.test_acc,
            "n_sv": self.n_sv,
            "converged": self.converged,
            "is_baseline": self.is_baseline,
        }


@dataclass(frozen=True)
class ExperimentReport:
    spec: ExperimentSpec
    rows: tuple[ExperimentRow, ...]
    dataset_provenance: dict
    selected_gamma: float | None = None
    models: dict = field(default_factory=dict, repr=False)
    #: model-file fields from :func:`prepare`, written into every model file
    replay: dict = field(default_factory=dict, repr=False)

    def baseline_row(self) -> ExperimentRow:
        return next(r for r in self.rows if r.is_baseline)

    def row_for(self, gamma: float) -> ExperimentRow:
        return next(r for r in self.rows if r.gamma == gamma)

    def to_json_dict(self) -> dict:
        baseline = self.baseline_row()
        doc = {
            "version": REPORT_FORMAT_VERSION,
            "spec_hash": self.spec.spec_hash(),
            "seed": self.spec.seed,
            "spec": self.spec.to_dict(),
            "dataset_provenance": self.dataset_provenance,
            "rows": [r.to_dict() for r in self.rows],
            "deltas_vs_baseline": {
                repr(r.gamma): r.test_acc - baseline.test_acc for r in self.rows
            },
            "timings": {repr(r.gamma): r.wall_time_s for r in self.rows},
        }
        if self.selected_gamma is not None:
            doc["selected_gamma"] = self.selected_gamma
        return doc


def write_report(report: ExperimentReport, out_dir) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    atomic_write_text(path, json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
    for gamma, model in report.models.items():
        save_model(
            out_dir / f"model_gamma_{gamma!r}.json",
            model,
            extra={**report.replay, "spec_hash": report.spec.spec_hash()},
        )
    return path


def fit_and_score(train_ds: LabeledDataset, test_ds: LabeledDataset, config: SvmConfig,
                  sq: np.ndarray) -> tuple[MulticlassModel, float, float]:
    """``(model, train_acc, test_acc)``: the training path of ``sweep`` and
    CLI ``train``.

    ``sq``, the squared distances between the training rows, gives every
    machine's Gram and the training split's score and is left unchanged;
    the test split is scored through a cross Gram.
    """
    model = train_multiclass(train_ds, config, sq)
    return model, accuracy(model, train_ds, sq), accuracy(model, test_ds)


def run_experiment(spec: ExperimentSpec, out_dir=None) -> ExperimentReport:
    """Split, optionally standardize, and train/evaluate one SVM per gamma.

    A gamma = 1.0 baseline row is always present (appended when missing from
    the spec) and flagged ``is_baseline``.  The training rows' squared
    distances are computed once, and every gamma's :func:`fit_and_score`
    takes its Gram and training-split score from them; a row's
    ``wall_time_s`` leaves that shared step out.
    """
    dataset, train_ds, test_ds, replay = prepare(spec)
    gammas = list(spec.gammas)
    if 1.0 not in gammas:
        gammas.append(1.0)
    sq = sq_distances(train_ds.features, train_ds.features)

    rows = []
    models = {}
    for gamma in gammas:
        started = time.perf_counter()
        config = SvmConfig(
            c=spec.c, tol=spec.tol, max_passes=spec.max_passes,
            kernel=KernelConfig.direct(gamma),
        )
        model, train_acc, test_acc = fit_and_score(train_ds, test_ds, config, sq)
        rows.append(
            ExperimentRow(
                gamma=gamma,
                train_acc=train_acc,
                test_acc=test_acc,
                n_sv=sum(m.n_support for _, m in model.machines),
                converged=all(m.converged for _, m in model.machines),
                is_baseline=(gamma == 1.0),
                wall_time_s=time.perf_counter() - started,
            )
        )
        models[gamma] = model

    report = ExperimentReport(
        spec=spec,
        rows=tuple(rows),
        dataset_provenance=dataset.provenance,
        models=models,
        replay=replay,
    )
    if out_dir is not None:
        write_report(report, out_dir)
    return report


def select_gamma(rows) -> float:
    """Best test accuracy; ties prefer the gamma nearest 1 in log distance
    (rounded to 1e-12), then the larger gamma."""
    def key(row):
        return (-row.test_acc, round(abs(math.log(row.gamma)), 12), -row.gamma)

    return min(rows, key=key).gamma


def sweep(spec: ExperimentSpec, gamma_grid, out_dir=None) -> ExperimentReport:
    """Run the experiment over a gamma grid and record the selected gamma.

    The always-present baseline row competes in the selection, so the chosen
    gamma never scores below gamma = 1.0 on test accuracy.
    """
    report = run_experiment(replace(spec, gammas=tuple(gamma_grid)))
    report = replace(report, selected_gamma=select_gamma(report.rows))
    if out_dir is not None:
        write_report(report, out_dir)
    return report


def boundary_grid(model: MulticlassModel, bounds, resolution: int, out_path) -> Path:
    """Decision values over a lattice spanning ``bounds`` padded 10% per side.

    Only defined for 2-feature models and bounds whose padded ends are
    finite; a ``nan`` or ``inf`` raises :class:`InvalidInputError`.  Rows are
    written x2-major (x1 varies fastest) as ``x1,x2,decision_value,label``,
    each float as its shortest round-trip ``repr``.  The label is the vote of
    :func:`dsvkernel.svm.vote` and the decision value is the summed signed
    decision value toward that class over the machines it participates in;
    for a 2-class model, whose one machine decides every point, that is the
    machine's |decision value|.

    The lattice is computed and written one band of ``BOUNDARY_BAND_ROWS``
    x2 values at a time, streamed to the atomic writer, so memory grows with
    ``resolution`` rather than its square; values are row-local, so the bytes
    are the same at any band size and BLAS thread count.  The parent directory
    of ``out_path`` is made only after validation.
    """
    if resolution < 2:
        raise InvalidInputError(f"resolution must be >= 2, got {resolution}")
    dim = model.machines[0][1].support_vectors.shape[1]
    if dim != 2:
        raise InvalidDimensionError(f"boundary grids need 2-feature models, got {dim}")
    (x1_lo, x1_hi), (x2_lo, x2_hi) = bounds
    pad1 = BOUNDARY_PADDING * (x1_hi - x1_lo)
    pad2 = BOUNDARY_PADDING * (x2_hi - x2_lo)
    ends = (x1_lo - pad1, x1_hi + pad1, x2_lo - pad2, x2_hi + pad2)
    if not np.isfinite(ends).all():
        raise InvalidInputError(f"bounds {bounds} do not give a finite lattice")
    xs = np.linspace(ends[0], ends[1], resolution)
    ys = np.linspace(ends[2], ends[3], resolution)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_path, _boundary_lines(model, xs, ys))
    return out_path


def _boundary_lines(model: MulticlassModel, xs: np.ndarray, ys: np.ndarray):
    """The boundary CSV's header, then one string of lines per band."""
    yield "x1,x2,decision_value,label\n"
    x_reprs = [repr(x) for x in xs.tolist()]
    for start in range(0, len(ys), BOUNDARY_BAND_ROWS):
        band = ys[start:start + BOUNDARY_BAND_ROWS]
        decisions = []
        for _, machine in model.machines:
            sq = lattice_sq_distances(xs, band, machine.support_vectors)
            decisions.append(decision_from_gram(machine, gaussian(sq, machine.kernel.gamma)))
        labels = vote(model, decisions)
        values = np.zeros(len(labels))
        for ((neg, pos), _), d in zip(model.machines, decisions):
            values += np.where(labels == pos, d, 0.0) - np.where(labels == neg, d, 0.0)
        points = product([repr(y) for y in band.tolist()], x_reprs)
        yield "".join(
            f"{x},{y},{v!r},{lab}\n"
            for (y, x), v, lab in zip(points, values.tolist(), labels.tolist())
        )


def lattice_sq_distances(xs: np.ndarray, ys: np.ndarray, sv: np.ndarray) -> np.ndarray:
    """``sq_distances(lattice, sv)`` for the x2-major lattice of ``xs`` and
    ``ys`` (x1 fastest), bit for bit.

    A lattice point's squared distance to a support vector is the sum of one
    entry from each of two per-axis tables, so the lattice-sized array is
    written once, by one broadcast addition.
    """
    d1 = sq_distances(xs[:, None], sv[:, :1])
    d2 = sq_distances(ys[:, None], sv[:, 1:])
    return (d2[:, None, :] + d1[None, :, :]).reshape(-1, len(sv))


def apply_transform_chain(dataset: LabeledDataset, chain: list[dict]) -> LabeledDataset:
    """Replay a serialized preprocessing pipeline (select / standardize / pca).

    Model files store such a chain (see :func:`prepare`) so evaluation can
    map a raw CSV into the feature space a model was trained in.
    """
    try:
        for entry in chain:
            kind = entry["kind"]
            if kind == "select":
                dataset = select_features(dataset, list(entry["names"]))
            elif kind == "standardize":
                dataset = standardize_apply(ColumnScaler.from_dict(entry["scaler"]), dataset)
            elif kind == "pca":
                dataset = pca_transform(PcaModel.from_dict(entry["model"]), dataset)
            else:
                raise InvalidInputError(f"unknown transform kind: {kind!r}")
    except MALFORMED_ERRORS as err:
        raise InvalidInputError(f"malformed preprocessing: {type(err).__name__}: {err}") from None
    return dataset


def simulate_overlap(
    xp: float, xq: float, r: float, theta: float, cutoff: int = DEFAULT_CUTOFF
) -> dict:
    """Detection probability from the truncated simulator next to the closed
    form, with their absolute difference; the user-facing oracle window."""
    eta = SqueezeParams(r, theta)
    probability = circuit_kernel(xp, xq, eta, cutoff)
    closed_form = kernel_scalar(xp, xq, gamma_from_squeeze(eta))
    return {
        "xp": float(xp),
        "xq": float(xq),
        "r": eta.r,
        "theta": eta.theta,
        "cutoff": cutoff,
        "probability": probability,
        "closed_form": closed_form,
        "abs_error": abs(probability - closed_form),
    }
