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
from pathlib import Path

import numpy as np

from . import data
from .data import (
    ColumnScaler,
    LabeledDataset,
    PcaModel,
    SplitSpec,
    atomic_write_text,
    field_dict,
    load_csv,
    pca_fit,
    pca_transform,
    pretty_json,
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
    gram_distances,
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

#: Largest lattice edge a boundary grid accepts.  Time and CSV size grow with
#: its square: at 1,000 (10^6 points) a 35-support-vector moons model takes
#: about 1.6 s on one 2-vCPU Xeon and writes a 60 MB CSV (0.1 s and 5.4 MB at
#: 300; 4.4 s and 240 MB at 2,000).  Time also grows with the support vectors.
MAX_BOUNDARY_RESOLUTION = 1000

#: Fraction of each axis range added as padding on either side of a
#: boundary-grid bounding box.
BOUNDARY_PADDING = 0.10

#: Lattice rows (x2 values) a boundary grid computes and writes at a time;
#: it bounds the export's working memory and does not change its bytes.
BOUNDARY_BAND_ROWS = 16

#: Generator kind -> (default noise_sigma, its GeneratorSpec shape fields).  Kind
#: ``k`` is ``data.make_k``, looked up per call so that a wrapper put there sees it.
GENERATORS = {"moons": (0.15, ()), "circles": (0.08, ("radius_ratio",)),
              "spirals": (0.5, ("turns",))}


@dataclass(frozen=True)
class GeneratorSpec:
    """Synthetic dataset descriptor; noise defaults depend on the kind."""

    kind: str
    n: int = 300
    noise_sigma: float | None = None
    radius_ratio: float = 0.5
    turns: float = 2.0

    def __post_init__(self):
        if self.kind not in GENERATORS:
            raise InvalidInputError(f"unknown generator kind: {self.kind!r}")
        if self.noise_sigma is None:
            object.__setattr__(self, "noise_sigma", GENERATORS[self.kind][0])

    def shape(self) -> dict:
        """The shape fields this kind takes, by name."""
        return {name: getattr(self, name) for name in GENERATORS[self.kind][1]}

    def to_dict(self) -> dict:
        return {"source": "generator", "kind": self.kind, "n": self.n,
                "noise_sigma": self.noise_sigma, **self.shape()}


@dataclass(frozen=True)
class FileSpec:
    """CSV dataset descriptor with optional feature selection and PCA.

    When ``pca_components`` is set, the whole file is standardized and
    reduced before splitting, mirroring the usual single-split benchmark
    workflow; the split-level ``standardize`` flag remains train-fitted.
    """

    path: str
    label_column: str = data.LABEL_COLUMN
    feature_columns: tuple[str, ...] | None = None
    pca_components: int | None = None

    def to_dict(self) -> dict:
        return {**field_dict(self), "source": "file", "path": str(self.path),
                "feature_columns": list(self.feature_columns) if self.feature_columns else None}


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one train/evaluate run byte-for-byte."""

    dataset: GeneratorSpec | FileSpec
    gammas: tuple[float, ...]
    c: float = SvmConfig.c
    tol: float = SvmConfig.tol
    max_passes: int = SvmConfig.max_passes
    train_fraction: float = SplitSpec.train_fraction
    stratified: bool = SplitSpec.stratified
    standardize: bool = False
    seed: int = 0

    def __post_init__(self):
        if not self.gammas:
            raise InvalidInputError("gamma list must be non-empty")
        gammas = tuple(check_gamma(g) for g in self.gammas)
        if len(set(gammas)) != len(gammas):
            raise InvalidInputError(f"gamma list repeats a value: {list(gammas)}")
        object.__setattr__(self, "gammas", gammas)

    def svm_config(self, kernel: KernelConfig) -> SvmConfig:
        """The solver settings of this spec with the given kernel."""
        return SvmConfig(c=self.c, tol=self.tol, max_passes=self.max_passes, kernel=kernel)

    def to_dict(self) -> dict:
        return {**field_dict(self), "dataset": self.dataset.to_dict(), "gammas": list(self.gammas)}

    def spec_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


def spec_from_dict(d: dict) -> ExperimentSpec:
    """The spec whose :meth:`ExperimentSpec.to_dict` is ``d``."""
    ds = dict(d["dataset"])
    if ds.pop("source") == "generator":
        # a report holds only its kind's shape fields; the rest keep their defaults
        dataset = GeneratorSpec(**ds)
    else:
        columns = ds["feature_columns"]
        dataset = FileSpec(**{**ds, "feature_columns": tuple(columns) if columns else None})
    return ExperimentSpec(**{**d, "dataset": dataset})


def build_dataset(dataset_spec: GeneratorSpec | FileSpec,
                  seed: int = ExperimentSpec.seed) -> LabeledDataset:
    """Materialize a dataset descriptor (generators consume the given seed)."""
    return _dataset_and_chain(dataset_spec, seed)[0]


def _dataset_and_chain(dataset_spec, seed: int) -> tuple[LabeledDataset, list[dict]]:
    """The dataset and the transform chain that replays its file-level steps
    (feature selection, whole-file standardization and PCA) on the raw CSV."""
    if isinstance(dataset_spec, GeneratorSpec):
        make = getattr(data, f"make_{dataset_spec.kind}")
        return make(n=dataset_spec.n, noise_sigma=dataset_spec.noise_sigma, seed=seed,
                    **dataset_spec.shape()), []
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

    Returns ``(dataset, train, test, replay, sq)``.  ``replay`` holds the
    model-file fields ``preprocessing``, ``label_column`` and ``label_names``
    with which ``evaluate`` and ``boundary`` map the raw CSV (for generators,
    the one ``data generate`` writes) into the model's feature space.  ``sq``,
    the training rows' ``kernel.gram_distances``, is read by every fit.
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
        "label_column": getattr(spec.dataset, "label_column", data.LABEL_COLUMN),
        "label_names": list(dataset.label_names),
    }
    return dataset, train_ds, test_ds, replay, gram_distances(train_ds.features)


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
        """Every field but ``wall_time_s``, which a report keeps under ``timings``."""
        d = field_dict(self)
        del d["wall_time_s"]
        return d


@dataclass(frozen=True)
class ExperimentReport:
    spec: ExperimentSpec
    rows: tuple[ExperimentRow, ...]
    dataset_provenance: dict
    selected_gamma: float
    models: dict = field(default_factory=dict, repr=False)

    def baseline_row(self) -> ExperimentRow:
        return next(r for r in self.rows if r.is_baseline)

    def row_for(self, gamma: float) -> ExperimentRow:
        return next(r for r in self.rows if r.gamma == gamma)

    def to_json_dict(self) -> dict:
        baseline = self.baseline_row()
        return {
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
            "selected_gamma": self.selected_gamma,
        }


def write_report(report: ExperimentReport, out_dir, replay: dict) -> Path:
    """``report.json`` and a model file per gamma, each with ``replay`` from :func:`prepare`."""
    out_dir = Path(out_dir)
    path = out_dir / "report.json"
    atomic_write_text(path, pretty_json(report.to_json_dict()) + "\n")
    for gamma, model in report.models.items():
        save_model(
            out_dir / f"model_gamma_{gamma!r}.json",
            model,
            extra={**replay, "spec_hash": report.spec.spec_hash()},
        )
    return path


def fit_and_score(train_ds: LabeledDataset, test_ds: LabeledDataset, config: SvmConfig,
                  sq: np.ndarray) -> tuple[MulticlassModel, ExperimentRow]:
    """``(model, row)``: the training path of ``sweep`` and CLI ``train``,
    and the one place a fit's report row is made.

    ``sq``, the squared distances between the training rows, gives every
    machine's Gram and the training split's score and is left unchanged;
    the test split is scored through a cross Gram.  The row's
    ``wall_time_s`` covers training and both scores.
    """
    started = time.perf_counter()
    model = train_multiclass(train_ds, config, sq)
    return model, ExperimentRow(
        gamma=config.kernel.gamma,
        train_acc=accuracy(model, train_ds, sq),
        test_acc=accuracy(model, test_ds),
        n_sv=sum(m.n_support for _, m in model.machines),
        converged=all(m.converged for _, m in model.machines),
        is_baseline=(config.kernel.gamma == 1.0),
        wall_time_s=time.perf_counter() - started,
    )


def run_experiment(spec: ExperimentSpec, out_dir=None) -> ExperimentReport:
    """Split, optionally standardize, train/evaluate one SVM per gamma and
    select one (:func:`select_gamma`); write the report to ``out_dir`` if given.

    A gamma = 1.0 baseline row is always present (appended when missing from
    the spec), flagged ``is_baseline`` and in the selection, so the selected
    gamma never scores below it on test accuracy.  Every gamma's
    :func:`fit_and_score` reads the training distances :func:`prepare` made
    once; a row's ``wall_time_s`` leaves that shared step out.
    """
    dataset, train_ds, test_ds, replay, sq = prepare(spec)
    gammas = list(spec.gammas)
    if 1.0 not in gammas:
        gammas.append(1.0)

    rows = []
    models = {}
    for gamma in gammas:
        config = spec.svm_config(KernelConfig(gamma))
        model, row = fit_and_score(train_ds, test_ds, config, sq)
        rows.append(row)
        models[gamma] = model

    report = ExperimentReport(
        spec=spec,
        rows=tuple(rows),
        dataset_provenance=dataset.provenance,
        selected_gamma=select_gamma(rows),
        models=models,
    )
    if out_dir is not None:
        write_report(report, out_dir, replay)
    return report


def select_gamma(rows) -> float:
    """Best test accuracy; ties prefer the gamma nearest 1 in log distance
    (rounded to 1e-12), then the larger gamma."""
    def key(row):
        return (-row.test_acc, round(abs(math.log(row.gamma)), 12), -row.gamma)

    return min(rows, key=key).gamma


def sweep(spec: ExperimentSpec, gamma_grid, out_dir=None) -> ExperimentReport:
    """:func:`run_experiment` of ``spec`` over the gammas of ``gamma_grid``."""
    return run_experiment(replace(spec, gammas=tuple(gamma_grid)), out_dir)


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
    are the same at any band size and BLAS thread count.  Each machine's two
    per-axis distance tables are built once per export.  Nothing is written,
    and no directory made, before validation.
    """
    if not 2 <= resolution <= MAX_BOUNDARY_RESOLUTION:
        raise InvalidInputError(
            f"resolution must be in [2, {MAX_BOUNDARY_RESOLUTION}], got {resolution}")
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
    atomic_write_text(out_path, _boundary_lines(model, xs, ys))
    return out_path


def _boundary_lines(model: MulticlassModel, xs: np.ndarray, ys: np.ndarray):
    """The boundary CSV's header, then one string of lines per band."""
    yield "x1,x2,decision_value,label\n"
    x_cells = [repr(x) + "," for x in xs.tolist()]
    endings = {c: f",{c}\n" for c in model.classes}
    tables = [(sq_distances(xs[:, None], m.support_vectors[:, :1]),
               sq_distances(ys[:, None], m.support_vectors[:, 1:])) for _, m in model.machines]
    for start in range(0, len(ys), BOUNDARY_BAND_ROWS):
        band = ys[start:start + BOUNDARY_BAND_ROWS]
        decisions = []
        for (_, machine), (d1, d2) in zip(model.machines, tables):
            sq = (d2[start:start + BOUNDARY_BAND_ROWS, None, :] + d1).reshape(-1, d1.shape[1])
            decisions.append(decision_from_gram(machine, gaussian(sq, machine.kernel.gamma)))
        labels = vote(model, decisions)
        values = np.zeros(len(labels))
        for ((neg, pos), _), d in zip(model.machines, decisions):
            values += np.where(labels == pos, d, 0.0) - np.where(labels == neg, d, 0.0)
        # each line is four cells, "x1," "x2," "value" ",label\n", and the
        # band is one join over them; only the value is formatted per point
        width = 4 * len(xs)
        cells = [""] * (width * len(band))
        cells[0::4] = x_cells * len(band)
        for row, y in enumerate(band.tolist()):
            cells[width * row + 1:width * (row + 1):4] = [repr(y) + ","] * len(xs)
        cells[2::4] = map(repr, values.tolist())
        cells[3::4] = map(endings.__getitem__, labels.tolist())
        yield "".join(cells)


def apply_transform_chain(path, label_column: str, chain: list[dict]) -> LabeledDataset:
    """Read the CSV at ``path`` and replay a serialized preprocessing
    pipeline (select / standardize / pca) on it.

    Model files store such a chain (see :func:`prepare`) so evaluation can
    map a raw CSV into the feature space a model was trained in.  Only the
    columns of a leading ``select`` entry are read (every column when there
    is none), so only they must hold finite numbers.  A malformed chain
    raises :class:`InvalidInputError` (``malformed preprocessing: ...``).
    """
    try:
        names = list(chain[0]["names"]) if chain and chain[0]["kind"] == "select" else None
        dataset = load_csv(path, label_column, names)
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
    xp: float, xq: float, r: float, theta: float = SqueezeParams.theta,
    cutoff: int = DEFAULT_CUTOFF,
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
