import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path
from string import Template

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dsvkernel import cli, errors
from dsvkernel import experiment as exp
from dsvkernel.data import MAX_GENERATOR_N, SplitSpec, load_csv, recode_labels
from dsvkernel.experiment import MAX_BOUNDARY_RESOLUTION, apply_transform_chain
from dsvkernel.fock import MAX_CUTOFF
from dsvkernel.kernel import MAX_GRAM_ROWS
from dsvkernel.svm import load_model, predict_labels

from gram_reference import gram_csv_text
from report_reference import reports_equal_ignoring_timings


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_json(out: str) -> dict:
    return json.loads(out)


def _edit(*path, value):
    """An edit that sets ``doc[path[0]][path[1]]...`` to ``value``."""
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return edit


def _support_vector_width(n_columns):
    """A third class whose last machine's support vectors are ``n_columns``
    wide while the other two machines' are 2."""
    def edit(doc):
        machine = doc["machines"][0]
        odd = [[row[0]] * n_columns for row in machine["support_vectors"]]
        doc["classes"] = [0, 1, 2]
        doc["machines"] = [machine, {**machine, "pair": [0, 2]},
                           {**machine, "pair": [1, 2], "support_vectors": odd}]
    return edit


def _replayed(kind, **fields):
    """An edit whose preprocessing is one 2-wide ``standardize`` or ``pca``
    entry: the identity map, with ``fields`` in place of its own."""
    if kind == "standardize":
        record = {"mean": [0.0, 0.0], "scale": [1.0, 1.0], "constant_columns": [], **fields}
        return _edit("preprocessing", value=[{"kind": kind, "scaler": record}])
    record = {"mean": [0.0, 0.0], "components": [[1.0, 0.0], [0.0, 1.0]],
              "explained_variance": [1.0, 1.0], **fields}
    return _edit("preprocessing", value=[{"kind": kind, "model": record}])


#: Model files that ``evaluate`` and ``boundary`` refuse, by family and case:
#: (the file's text, or an edit of the trained moons model's document, and
#: the error the refusal names).  ``boundary`` does not read ``label_names``.
BAD_MODELS = {
    "malformed-model": {
        "not-json": ("{not json", "$not_json: not a JSON model file: Expecting property name "
                                  "enclosed in double quotes: line 1 column 2 (char 1)"),
        "version-1": ('{"version": 1}', "unsupported model version: 1; retrain to write version 2"),
        "no-kernel": ('{"version": 2}', "malformed model: KeyError: 'kernel'"),
        "string-gamma": (_edit("kernel", "gamma", value="1.5"),
                         "malformed model: TypeError: must be real number, not str"),
    },
    "malformed-replay": {
        "standardize-no-scaler": (_edit("preprocessing", value=[{"kind": "standardize"}]),
                                  "malformed preprocessing: KeyError: 'scaler'"),
        "pca-no-components": (_edit("preprocessing",
                                    value=[{"kind": "pca", "model": {"mean": [0.0, 0.0]}}]),
                              "malformed preprocessing: KeyError: 'components'"),
        "chain-not-a-list": (_edit("preprocessing", value=5), "malformed preprocessing: "
                             "TypeError: 'int' object is not subscriptable"),
        "entry-not-a-dict": (_edit("preprocessing", value=["select"]),
                             "malformed preprocessing: TypeError: string indices must be "
                             "integers, not 'str'"),
        "select-names-unhashable": (_edit("preprocessing",
                                          value=[{"kind": "select", "names": [["x1"], "x2"]}]),
                                    "malformed preprocessing: TypeError: unhashable type: 'list'"),
        "label-names-not-a-list": (_edit("label_names", value=5), "malformed label_names: "
                                   "TypeError: 'int' object is not iterable"),
        "standardize-zero-scale": (_replayed("standardize", scale=[0.0, 1.0]),
                                   "scaler: scale holds a number that is not positive"),
        "standardize-inf-mean": (_replayed("standardize", mean=[math.inf, 0.0]),
                                 "scaler: mean holds a non-finite number"),
        "pca-huge-components": (_replayed("pca", components=[[1e308, 0.0], [0.0, 1.0]]),
                                "components not orthonormal (error inf)"),
        "pca-inf-mean": (_replayed("pca", mean=[math.inf, 0.0]),
                         "PCA model: mean holds a non-finite number"),
        "pca-nan-components": (_replayed("pca", components=[[math.nan, 0.0], [0.0, 1.0]]),
                               "PCA model: components holds a non-finite number"),
        "pca-nan-explained-variance": (_replayed("pca", explained_variance=[math.nan, 1.0]),
                                       "PCA model: explained_variance holds a non-finite number"),
    },
    "one-vs-one": {
        "no-machines": (_edit("machines", value=[]),
                        "machine pairs [] are not the class pairs of [0, 1]"),
        "unknown-class": (_edit("machines", 0, "pair", value=[0, 5]),
                          "machine pairs [(0, 5)] are not the class pairs of [0, 1]"),
        "short-alpha-y": (lambda doc: doc["machines"][0]["alpha_y"].pop(),
                          "dual coefficients of shape (19,) and support vectors of shape (20, 2) "
                          "do not agree"),
        "binary": (lambda doc: doc.update(type="binary", machine=doc.pop("machines")[0]),
                   "unknown model type: binary"),
        "width-1": (_support_vector_width(1), "machines' support vectors have widths [2, 2, 1]"),
        "width-3": (_support_vector_width(3), "machines' support vectors have widths [2, 2, 3]"),
        "nan-bias": (_edit("machines", 0, "bias", value=math.nan),
                     "machine [0, 1]: bias holds a non-finite number"),
        "inf-alpha-y": (_edit("machines", 0, "alpha_y", 0, value=math.inf),
                        "machine [0, 1]: alpha_y holds a non-finite number"),
        "nan-support-vector": (_edit("machines", 0, "support_vectors", 0, 0, value=math.nan),
                               "machine [0, 1]: support_vectors holds a non-finite number"),
    },
}

#: Shape flags of another generator kind: case -> (kind, flags, the flags named).
SHAPE_FLAGS = {
    "moons-ratio": ("moons", "--radius-ratio 0.3", "--radius-ratio"),
    "moons-turns": ("moons", "--turns 3", "--turns"),
    "moons-both": ("moons", "--turns 3 --radius-ratio 0.9", "--radius-ratio, --turns"),
    "circles-turns": ("circles", "--turns 3", "--turns"),
    "spirals-ratio": ("spirals", "--radius-ratio 0.3", "--radius-ratio"),
}

#: Flags of the dataset source a sweep was not given.
OTHER_SOURCE_FLAGS = (
    "--dataset moons --label-column species", "--dataset moons --features x1",
    "--dataset moons --pca 1", "--data $iris --n 40", "--data $iris --noise-sigma 0.1",
    "--data $iris --radius-ratio 0.3", "--data $iris --turns 5",
)

#: Commands that read a CSV's features, by the name their rows' ids use.
CSV_COMMANDS = {"train": "train", "kernel-gram": "kernel gram", "sweep": "sweep"}

#: The fewest moons points whose training split is over the m x m ceiling,
#: and the rows of that split.
OVER_GRAM_N = 2 * math.ceil((MAX_GRAM_ROWS + 1) / (2 * SplitSpec.train_fraction))
OVER_GRAM_TRAIN = math.floor(SplitSpec.train_fraction * OVER_GRAM_N)

#: Every refusal of the CLI: row id -> (argv, exit code, the one stderr line
#: after "dsvkernel: ").  ``$name`` is a file of ``cli_work``, and ``$out`` a
#: path in a directory that does not exist; the refusal must make neither.
#: Rows are grouped by family, ``family/case[/command]``, each family run by
#: one test (:func:`refusal_test`).
REFUSALS = {
    # generators
    "invalid-n": ("data generate --dataset moons --n 61 --out $out", 2,
                  f"error: n must be even and in [4, {MAX_GENERATOR_N}], got 61"),
    "n-above-the-ceiling": (
        "data generate --dataset moons --n 1000000000000 --out $out", 2,
        f"error: n must be even and in [4, {MAX_GENERATOR_N}], got 1000000000000"),
    **{f"noise-that-overflows/{kind}": (
        f"data generate --dataset {kind} --noise-sigma 1e308 --out $out", 2,
        f"error: {kind} points are not finite at n=300, {shape}noise_sigma=1e+308")
       for kind, shape in (("moons", ""), ("circles", "radius_ratio=0.5, "),
                           ("spirals", "turns=2.0, "))},
    "noise-that-overflows/moons-sweep": (
        "sweep --dataset moons --noise-sigma 1e308 --out $out", 2,
        "error: moons points are not finite at n=300, noise_sigma=1e+308"),
    **{f"shape-flag/{case}-{'-'.join(command.split())}": (
        f"{command} --dataset {kind} --n 40 {flags} --out $out", 2,
        f"error: --dataset {kind} takes no {named}")
       for command in ("data generate", "sweep")
       for case, (kind, flags, named) in SHAPE_FLAGS.items()},
    # sweep sources and grids
    "both-sources": ("sweep --dataset moons --data $iris --out $out", 2,
                     "error: give either --dataset (generator) or --data (CSV), not both"),
    **{f"other-source/{flags.split()[2]}": (
        f"sweep {flags} --gamma 1.5 --out $out", 2,
        f"error: {'--dataset' if flags.startswith('--data ') else '--data'} flags given with "
        f"{flags.split()[0]}: {flags.split()[2]}")
       for flags in OTHER_SOURCE_FLAGS},
    "repeated-gamma": ("sweep --dataset moons --n 60 --gamma 1 --gamma 0.5 --gamma 1.0 --out $out",
                       2, "error: gamma list repeats a value: [1.0, 0.5, 1.0]"),
    # kernel and simulator arguments
    "both-gamma-sources": ("kernel eval --xp 0 --xq 1 --gamma 1.0 --r 0.3", 2,
                           "error: give either --gamma or --r/--theta, not both"),
    "dimension-mismatch": ("kernel eval --xp 0,1 --xq 1 --gamma 1.0", 2,
                           "error: inputs must be equal-length 1-d vectors, got (2,) and (1,)"),
    **{f"squeeze-width-overflows/{command}": (
        f"{argv} --r 400", 2, "error: squeezing r = 400.0 overflows the kernel width formula")
       for command, argv in (("kernel-eval", "kernel eval --xp 0 --xq 1"),
                             ("train", "train --data $iris --label-column species --out $out"))},
    "cutoff-exceeded": ("simulate overlap --xp 0 --xq 3.9 --r 0 --theta 0 --cutoff 16", 2,
                        "error: |x|^2 = 15.21 exceeds cutoff/4 = 4; use a cutoff of at least 61"),
    "amplitude-overflows": ("simulate overlap --xp 1e200 --xq 0 --r 0.3", 2,
                            "error: |x|^2 = inf exceeds cutoff/4 = 16; no cutoff holds it"),
    "cutoff-above-the-ceiling": (
        f"simulate overlap --xp 0 --xq 1 --r 2 --cutoff {MAX_CUTOFF + 1}", 2,
        f"error: cutoff must be in [2, {MAX_CUTOFF}], got {MAX_CUTOFF + 1}"),
    "no-cutoff-holds/squeeze": (
        "simulate overlap --xq 0 --xp 0 --r 5", 2,
        "error: squeezing r = 5 leaves 0.914 probability mass above the cutoff 64; "
        "no cutoff holds it"),
    **{f"no-cutoff-holds/squeeze-overflow/{case}": (
        f"simulate overlap --xq 0 --xp 1 --r={r}", 2,
        "error: squeezing r = 711 leaves 1 probability mass above the cutoff 64; "
        "no cutoff holds it")
       for case, r in (("positive", "711"), ("negative", "-711"))},
    "no-cutoff-holds/displacement": (
        "simulate overlap --xq 0 --xp 20 --r 0", 2,
        "error: |x|^2 = 400 exceeds cutoff/4 = 16; no cutoff holds it"),
    # CSV input
    **{f"tol-of-one/{command}": (f"{command} --data $moons --gamma 1 --tol 1 --out $out", 2,
                                 "error: tol must be in (0, 1), got 1.0")
       for command in ("train", "sweep")},
    **{f"pca-of-non-finite/{command}-{cell}": (
        f"{CSV_COMMANDS[command]} --data $iris_{cell}_row2 --label-column species --pca 2 "
        "--gamma 1 --out $out", 2,
        f"error: $iris_{cell}_row2: row 2, column 'sepal_width': not finite: {cell}")
       for command in CSV_COMMANDS for cell in ("nan", "inf")},
    **{f"non-finite-cell/{command}-{cell}": (
        f"{CSV_COMMANDS[command]} --data $iris_{cell}_row4 --label-column species --gamma 1 "
        f"{'' if command == 'kernel-gram' else '--standardize '}--out $out", 2,
        f"error: $iris_{cell}_row4: row 4, column 'petal_length': not finite: {cell}")
       for command in CSV_COMMANDS for cell in ("nan", "inf")},
    **{f"bad-cell-after-a-blank-line/{cell}-{problem}": (
        f"train --data $moons_blank_{cell} --gamma 1 --out $out", 2,
        f"error: $moons_blank_{cell}: row 5, column 'x1': {problem}")
       for cell, problem in (("inf", "not finite: inf"), ("zz", "not numeric: 'zz'"))},
    "non-finite-test-row": ("train --data $moons_nan_test_row --gamma 1 --out $out", 2,
                            "error: $moons_nan_test_row: row $test_row, column 'x1': "
                            "not finite: nan"),
    "non-utf8": ("train --data $latin --gamma 1.0 --out $out", 2,
                 "error: $latin: not UTF-8 text (byte 20)"),
    "single-class": ("train --data $one_class --gamma 1.0 --out $out", 2,
                     "error: need at least 2 classes, got [0]"),
    "column-read-twice": ("train --data $dup_header --features a --gamma 1 --out $out", 2,
                          "error: $dup_header: column 'a' appears twice in the header"),
    "features-name-the-label": ("train --data $moons --features x1,label --gamma 1 --out $out", 2,
                                "error: $moons: label column 'label' named as a feature"),
    **{f"rows-above-the-ceiling/{command}": (
        f"{CSV_COMMANDS[command]} --data $over_gram --gamma 1 --out $out", 2,
        f"error: a Gram takes at most {MAX_GRAM_ROWS} rows, got "
        f"{OVER_GRAM_N if command == 'kernel-gram' else OVER_GRAM_TRAIN}")
       for command in CSV_COMMANDS},
    "rows-above-the-ceiling/sweep-generator": (
        f"sweep --dataset moons --n {OVER_GRAM_N} --gamma 1 --out $out", 2,
        f"error: a Gram takes at most {MAX_GRAM_ROWS} rows, got {OVER_GRAM_TRAIN}"),
    "missing-data": ("train --data $missing.csv --gamma 1.0 --out $out", 4,
                     "i/o error: [Errno 2] No such file or directory: '$missing.csv'"),
    # model replay
    "unknown-label": ("evaluate --model $one_feature_model --data $hybrid", 2,
                      "error: labels ['hybrid'] are not among "
                      "['setosa', 'versicolor', 'virginica']"),
    "missing-model": ("evaluate --model $missing.json --data $moons", 4,
                      "i/o error: [Errno 2] No such file or directory: '$missing.json'"),
    **{f"boundary-of-another-width/{case}": (f"boundary --model {flags} --out $out", 2,
                                             f"error: {message}")
       for case, flags, message in (
           ("one-feature-model", "$one_feature_model --data $iris",
            "boundary grids need 2-feature models, got 1"),
           ("moons-model-on-iris", "$moons_model --data $iris --label-column species",
            "feature dimensions differ: train 2, test 4"))},
    **{f"boundary-of-non-finite/{cell}": (
        f"boundary --model $moons_model --data $moons_{cell} --out $out", 2,
        f"error: $moons_{cell}: row 2, column 'x1': not finite: {cell}")
       for cell in ("nan", "inf")},
    **{f"resolution-above-the-ceiling/{r}": (
        f"boundary --model $moons_model --data $moons --resolution {r} --out $out", 2,
        f"error: resolution must be in [2, {MAX_BOUNDARY_RESOLUTION}], got {r}")
       for r in (100000, 1000000000000)},
    **{f"{family}/{case}/{command}": (
        f"{command} --model ${case.replace('-', '_')} --data $moons"
        f"{' --out $out' if command == 'boundary' else ''}", 2, f"error: {line}")
       for family, cases in BAD_MODELS.items() for case, (_, line) in cases.items()
       for command in ("evaluate", "boundary")
       if (case, command) != ("label-names-not-a-list", "boundary")},
}


@pytest.fixture(scope="session")
def cli_work(tmp_path_factory, iris_csv) -> dict:
    """The files the rows of REFUSALS read, made once: name -> path, and
    ``test_row``, the file line of a test-split row of ``moons``.  A refusal
    writes nothing, so the rows share them."""
    work = tmp_path_factory.mktemp("cli_work")
    names = {"iris": str(iris_csv), "missing": str(work / "missing")}

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([str(a) for a in argv]) == 0, argv

    def write(name, content, suffix=".csv"):
        names[name] = str(work / f"{name}{suffix}")
        Path(names[name]).write_bytes(content if isinstance(content, bytes) else content.encode())

    def with_cell(lines, row, column, cell):
        """CSV text of ``lines`` with cell ``column`` of ``lines[row]`` replaced."""
        cells = lines[row].split(",")
        cells[column] = cell
        return "\n".join([*lines[:row], ",".join(cells), *lines[row + 1:]]) + "\n"

    names["moons"], names["moons_model"] = str(work / "moons.csv"), str(work / "moons.json")
    names["one_feature_model"] = str(work / "one_feature.json")
    names["over_gram"] = str(work / "over_gram.csv")
    run("data", "generate", "--dataset", "moons", "--n", "120", "--seed", "0",
        "--out", names["moons"])
    run("data", "generate", "--dataset", "moons", "--n", OVER_GRAM_N, "--out", names["over_gram"])
    run("train", "--data", names["moons"], "--gamma", "1.5", "--out", names["moons_model"])
    run("train", "--data", iris_csv, "--label-column", "species", "--features", "sepal_width",
        "--gamma", "1", "--out", names["one_feature_model"])

    moons = Path(names["moons"]).read_text().splitlines()
    iris = iris_csv.read_text().splitlines()
    for cell in ("nan", "inf"):
        write(f"moons_{cell}", with_cell(moons, 1, 0, cell))
        write(f"iris_{cell}_row2", with_cell(iris, 1, 1, cell))
        write(f"iris_{cell}_row4", with_cell(iris, 3, 2, cell))
    for cell in ("inf", "zz"):
        # both checks count file lines, blank ones included
        write(f"moons_blank_{cell}", with_cell([*moons[:2], "", *moons[2:]], 4, 0, cell))
    # a test row is read, and refused, before the split
    dataset = load_csv(names["moons"], "label")
    _, _, test, _, _ = exp.prepare(exp.ExperimentSpec(
        dataset=exp.FileSpec(path=names["moons"]), gammas=(1.0,), seed=0))
    row = next(i for i, x in enumerate(dataset.features) if (x == test.features[0]).all())
    names["test_row"] = str(row + 2)
    write("moons_nan_test_row", with_cell(moons, row + 1, 0, "nan"))
    write("latin", b"a,b,label\n1,2,0\n3,4,\xff\xfe\n")
    write("one_class", "a,b,label\n" + "\n".join(f"{i},{i},0" for i in range(10)) + "\n")
    write("dup_header", "a,a,b,label\n1,100,5,0\n2,200,6,1\n3,300,7,0\n4,400,8,1\n")
    write("hybrid", "\n".join([iris[0], iris[1], iris[61].rsplit(",", 1)[0] + ",hybrid"]))

    for cases in BAD_MODELS.values():
        for case, (content, _) in cases.items():
            if callable(content):
                doc = json.loads(Path(names["moons_model"]).read_text())
                content(doc)
                content = json.dumps(doc)
            write(case.replace("-", "_"), content, suffix=".json")
    return names


@pytest.fixture
def refused(capsys, tmp_path, cli_work):
    """Asserts the refusal contract for rows of REFUSALS: the row's exit code,
    nothing on stdout, exactly its one stderr line and no Python warning,
    and neither ``$out`` nor the fresh directory it sits in made."""
    out = tmp_path / "fresh" / "out"
    names = {**cli_work, "out": str(out)}

    def check(*row_ids):
        for row_id in row_ids:
            argv, code, line = REFUSALS[row_id]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = run_cli(capsys, *[Template(a).substitute(names) for a in argv.split()])
            assert got == (code, "", f"dsvkernel: {Template(line).substitute(names)}\n"), row_id
            assert not out.parent.exists(), row_id
    return check


#: Rows of REFUSALS by the number of tests that run them.
_RUNS = Counter()


def refusal_test(family: str, by_case: bool = False):
    """A test method asserting the refusal contract for the rows of
    REFUSALS under ``family`` (ids ``family`` and ``family/...``); with
    ``by_case``, one test per case ``c``, for the rows ``family/c[/...]``."""
    rows = [r for r in REFUSALS if r == family or r.startswith(family + "/")]
    assert rows, family
    _RUNS.update(rows)
    if not by_case:
        def test(self, refused):
            refused(*rows)
        return test
    cases = {}
    for row in rows:
        cases.setdefault(row.split("/")[1], []).append(row)

    @pytest.mark.parametrize("case_rows", cases.values(), ids=list(cases))
    def test(self, refused, case_rows):
        refused(*case_rows)
    return test


def test_each_refusal_is_run_by_one_test():
    assert _RUNS == Counter(REFUSALS.keys())


class TestDataGenerate:
    def test_writes_csv_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "moons.csv"
        code, stdout, _ = run_cli(
            capsys, "data", "generate", "--dataset", "moons", "--n", "60",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        payload = parse_json(stdout)
        assert payload["n_samples"] == 60
        assert out.exists()
        assert (tmp_path / "moons.provenance.json").exists()
        data = load_csv(out, "label")
        assert data.n_samples == 60


    test_a_shape_flag_of_another_kind_exits_2 = refusal_test("shape-flag", by_case=True)
    test_invalid_n_exits_2 = refusal_test("invalid-n")
    test_n_above_the_ceiling_exits_2 = refusal_test("n-above-the-ceiling")
    test_noise_that_overflows_exits_2 = refusal_test("noise-that-overflows", by_case=True)


class TestKernelEval:
    def test_direct_gamma(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "kernel", "eval", "--xp", "0,0", "--xq", "1,1", "--gamma", "1.0",
        )
        assert code == 0
        assert abs(parse_json(stdout)["value"] - math.exp(-2.0)) <= 1e-12

    def test_squeeze_derived_gamma(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "kernel", "eval", "--xp", "0", "--xq", "1",
            "--r", "0.3", "--theta", "0.0",
        )
        assert code == 0
        payload = parse_json(stdout)
        assert abs(payload["gamma"] - math.exp(0.6)) <= 1e-12


    test_both_gamma_sources_rejected = refusal_test("both-gamma-sources")
    test_dimension_mismatch_exits_2 = refusal_test("dimension-mismatch")
    test_squeeze_whose_width_overflows_exits_2 = refusal_test("squeeze-width-overflows")

    def test_strong_widening_squeeze(self, capsys):
        code, stdout, err = run_cli(
            capsys, "kernel", "eval", "--xp", "0", "--xq", "1",
            "--r", "10", "--theta", repr(math.pi / 2),
        )
        assert (code, err) == (0, "")
        assert abs(parse_json(stdout)["gamma"] - math.exp(-20.0)) <= 1e-12 * math.exp(-20.0)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_distance_gives_zero_without_a_warning(self, capsys):
        code, stdout, err = run_cli(
            capsys, "kernel", "eval", "--xp", "1e200", "--xq=-1e200", "--gamma", "1",
        )
        assert (code, err) == (0, "")
        assert parse_json(stdout)["value"] == 0.0


class TestKernelGram:
    @pytest.mark.filterwarnings("error")
    def test_overflowing_distance_gives_zero_without_a_warning(self, tmp_path, capsys):
        data = tmp_path / "far.csv"
        data.write_text("x,label\n1e200,a\n-1e200,b\n")
        out = tmp_path / "gram.csv"
        code, _, err = run_cli(capsys, "kernel", "gram", "--data", str(data),
                               "--gamma", "1", "--out", str(out))
        assert (code, err) == (0, "")
        values = np.loadtxt(out, delimiter=",", comments="#")
        assert np.array_equal(values, np.eye(2))

    def test_writes_gram_csv(self, tmp_path, capsys, iris_csv):
        out = tmp_path / "gram.csv"
        code, stdout, _ = run_cli(
            capsys, "kernel", "gram", "--data", str(iris_csv),
            "--label-column", "species", "--gamma", "0.5",
            "--validate", "--out", str(out),
        )
        assert code == 0
        payload = parse_json(stdout)
        assert payload["size"] == 150
        # a verdict against size^2 * eps, not the thread-dependent eigenvalue
        assert payload["positive_semidefinite"] is True
        assert "min_eigenvalue" not in payload
        header = out.read_text().splitlines()[0]
        assert header == "# gamma=0.5"

    def test_features_selects_columns(self, tmp_path, capsys, iris_csv):
        out = tmp_path / "gram.csv"
        code, _, _ = run_cli(
            capsys, "kernel", "gram", "--data", str(iris_csv), "--label-column", "species",
            "--features", "sepal_width,petal_width", "--gamma", "1", "--out", str(out),
        )
        assert code == 0
        columns = load_csv(iris_csv, "species", ["sepal_width", "petal_width"]).features
        assert out.read_bytes() == gram_csv_text(columns, 1.0).encode()

    def test_pca_reduces_the_selected_columns(self, tmp_path, capsys, iris_csv):
        def run(*flags):
            out = tmp_path / "gram.csv"
            code, stdout, _ = run_cli(
                capsys, "kernel", "gram", "--data", str(iris_csv), "--label-column",
                "species", "--gamma", "1", "--out", str(out), *flags,
            )
            assert code == 0
            values = np.loadtxt(out, delimiter=",", comments="#")
            return parse_json(stdout)["fingerprint"], values

        flagless, _ = run()
        fingerprint, values = run("--features", "sepal_width", "--pca", "1")
        assert fingerprint != flagless
        # one principal component of one standardized column is that column, up to sign
        x = load_csv(iris_csv, "species", ["sepal_width"]).features
        z = (x - x.mean()) / x.std()
        assert np.allclose(values, np.exp(-((z - z.T) ** 2)), rtol=0.0, atol=1e-12)


class TestSimulate:
    def test_overlap_record(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "simulate", "overlap", "--xp", "0", "--xq", "1",
            "--r", "0", "--theta", "0",
        )
        assert code == 0
        payload = parse_json(stdout)
        assert abs(payload["probability"] - math.exp(-1.0)) <= 1e-9
        assert payload["abs_error"] <= 1e-9

        # a corner of the validated box prints its record and nothing on stderr
        code, _, err = run_cli(capsys, "simulate", "overlap", "--xp", "-1", "--xq", "1",
                               "--r", "0.8", "--theta", repr(math.pi / 2))
        assert (code, err) == (0, "")

    test_cutoff_exceeded_exits_2 = refusal_test("cutoff-exceeded")
    test_amplitude_whose_square_overflows_exits_2 = refusal_test("amplitude-overflows")
    test_cutoff_above_the_ceiling_exits_2 = refusal_test("cutoff-above-the-ceiling")
    test_no_hint_names_a_cutoff_above_the_ceiling = refusal_test("no-cutoff-holds", by_case=True)


class TestTrainEvaluateBoundary:
    @pytest.fixture()
    def moons_csv(self, tmp_path, capsys):
        out = tmp_path / "moons.csv"
        run_cli(capsys, "data", "generate", "--dataset", "moons", "--n", "120",
                "--seed", "0", "--out", str(out))
        return out

    def test_full_workflow(self, tmp_path, capsys, moons_csv):
        model_path = tmp_path / "model.json"
        code, stdout, _ = run_cli(
            capsys, "train", "--data", str(moons_csv), "--gamma", "1.5",
            "--seed", "0", "--out", str(model_path),
        )
        assert code == 0
        train_payload = parse_json(stdout)
        assert train_payload["converged"]
        assert train_payload["test_acc"] >= 0.8

        code, stdout, _ = run_cli(
            capsys, "evaluate", "--model", str(model_path), "--data", str(moons_csv),
        )
        assert code == 0
        assert parse_json(stdout)["accuracy"] >= 0.9

        grid_path = tmp_path / "grid.csv"
        code, stdout, _ = run_cli(
            capsys, "boundary", "--model", str(model_path), "--data", str(moons_csv),
            "--resolution", "10", "--out", str(grid_path),
        )
        assert code == 0
        lines = grid_path.read_text().splitlines()
        assert lines[0] == "x1,x2,decision_value,label"
        assert len(lines) == 1 + 100

    def test_tol_just_below_one_trains(self, tmp_path, capsys, moons_csv):
        model_path = tmp_path / "model.json"
        code, stdout, err = run_cli(capsys, "train", "--data", str(moons_csv), "--gamma", "1",
                                    "--tol", "0.999", "--out", str(model_path))
        assert code == 0, err
        assert parse_json(stdout)["n_sv"] > 0
        code, _, err = run_cli(capsys, "evaluate", "--model", str(model_path),
                               "--data", str(moons_csv))
        assert code == 0, err


    test_tol_of_one_exits_2_before_writing = refusal_test("tol-of-one", by_case=True)
    test_boundary_of_data_of_another_width_exits_2 = refusal_test("boundary-of-another-width",
                                                                  by_case=True)
    test_boundary_of_non_finite_data_exits_2 = refusal_test("boundary-of-non-finite",
                                                            by_case=True)
    test_pca_of_non_finite_data_exits_2 = refusal_test("pca-of-non-finite", by_case=True)
    test_non_finite_cell_is_one_error_line = refusal_test("non-finite-cell", by_case=True)
    test_a_bad_cell_after_a_blank_line_names_its_file_line = refusal_test(
        "bad-cell-after-a-blank-line", by_case=True)
    test_train_with_a_non_finite_test_row_writes_no_model = refusal_test("non-finite-test-row")
    test_non_utf8_csv_exits_2 = refusal_test("non-utf8")
    test_single_class_exits_2 = refusal_test("single-class")
    test_a_column_read_twice_in_the_header_exits_2 = refusal_test("column-read-twice")
    test_features_naming_the_label_exits_2 = refusal_test("features-name-the-label")
    test_rows_above_the_ceiling_exit_2 = refusal_test("rows-above-the-ceiling", by_case=True)
    test_missing_data_file_exits_4 = refusal_test("missing-data")
    test_evaluate_unknown_label_exits_2 = refusal_test("unknown-label")
    test_missing_model_file_exits_4 = refusal_test("missing-model")
    test_malformed_model_file_exits_2 = refusal_test("malformed-model", by_case=True)
    test_malformed_replay_field_exits_2 = refusal_test("malformed-replay", by_case=True)
    test_resolution_above_the_ceiling_exits_2 = refusal_test("resolution-above-the-ceiling",
                                                              by_case=True)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_cell_in_a_dropped_column_is_read(self, tmp_path, capsys, iris_csv,
                                                         cell):
        # evaluate and boundary read only the columns the model's chain
        # selects, so only they must be finite
        model_path = tmp_path / "model.json"
        code, _, err = run_cli(capsys, "train", "--data", str(iris_csv), "--label-column",
                               "species", "--features", "sepal_width,petal_width",
                               "--standardize", "--gamma", "1", "--out", str(model_path))
        assert code == 0, err
        header, first, *rest = iris_csv.read_text().splitlines()
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("\n".join([header, cell + first[first.index(","):], *rest]) + "\n")
        for command, extra in (("evaluate", []),
                               ("boundary", ["--out", str(tmp_path / "grid.csv")])):
            outputs = [run_cli(capsys, command, "--model", str(model_path), "--data", str(csv),
                               *extra) for csv in (iris_csv, bad_csv)]
            assert outputs[0][0] == 0 and outputs[1] == outputs[0], command


    def test_train_with_feature_selection_and_standardize(self, tmp_path, capsys, iris_csv):
        model_path = tmp_path / "iris.json"
        code, stdout, _ = run_cli(
            capsys, "train", "--data", str(iris_csv), "--label-column", "species",
            "--features", "sepal_width,petal_width", "--standardize",
            "--gamma", "1.0", "--seed", "0", "--out", str(model_path),
        )
        assert code == 0
        payload = json.loads(model_path.read_text())
        kinds = [entry["kind"] for entry in payload["preprocessing"]]
        assert kinds == ["select", "standardize"]

        code, stdout, _ = run_cli(
            capsys, "evaluate", "--model", str(model_path), "--data", str(iris_csv),
        )
        assert code == 0
        assert parse_json(stdout)["accuracy"] >= 0.9

    @pytest.fixture()
    def iris_model(self, tmp_path, capsys, iris_csv):
        model_path = tmp_path / "iris.json"
        code, _, _ = run_cli(
            capsys, "train", "--data", str(iris_csv), "--label-column", "species",
            "--features", "sepal_width,petal_width", "--standardize",
            "--gamma", "1.5", "--seed", "0", "--out", str(model_path),
        )
        assert code == 0
        return model_path

    def test_evaluate_file_with_a_subset_of_classes(self, tmp_path, capsys, iris_csv, iris_model):
        header, *rows = iris_csv.read_text().splitlines()
        subset = tmp_path / "versicolor.csv"
        subset.write_text("\n".join([header] + [r for r in rows if r.endswith(",versicolor")]))
        code, stdout, err = run_cli(
            capsys, "evaluate", "--model", str(iris_model), "--data", str(subset),
        )
        assert code == 0, err
        payload = parse_json(stdout)
        assert payload["n_samples"] == 50

        model, doc = load_model(iris_model)
        data = apply_transform_chain(subset, "species", doc["preprocessing"])
        versicolor = doc["label_names"].index("versicolor")
        correct = np.count_nonzero(predict_labels(model, data.features) == versicolor)
        assert payload["accuracy"] == correct / 50

        # the full file is scored as before: labels coded by the model's names
        code, stdout, _ = run_cli(
            capsys, "evaluate", "--model", str(iris_model), "--data", str(iris_csv),
        )
        full = apply_transform_chain(iris_csv, "species", doc["preprocessing"])
        assert full.label_names == tuple(doc["label_names"])
        correct = np.count_nonzero(predict_labels(model, full.features) == full.labels)
        assert code == 0 and parse_json(stdout)["accuracy"] == correct / 150


    def test_nonconvergence_exits_3(self, tmp_path, capsys, diabetes_csv):
        # one pass of pair updates is far too few for this 537-row machine
        model_path = tmp_path / "m.json"
        code, _, err = run_cli(
            capsys, "train", "--data", str(diabetes_csv), "--pca", "2", "--standardize",
            "--gamma", "1", "--max-passes", "1", "--out", str(model_path),
        )
        assert code == 3
        assert "non-convergence" in err
        # the best-effort model is still saved
        payload = json.loads(model_path.read_text())
        assert payload["machines"][0]["converged"] is False

    def test_large_c_converges(self, tmp_path, capsys, iris_csv):
        model_path = tmp_path / "m.json"
        code, stdout, _ = run_cli(
            capsys, "train", "--data", str(iris_csv), "--label-column", "species",
            "--gamma", "1", "--c", "1e12", "--out", str(model_path),
        )
        assert code == 0
        assert parse_json(stdout)["converged"] is True
        payload = json.loads(model_path.read_text())
        assert all(machine["converged"] is True for machine in payload["machines"])



def _accuracy_from_model_file(model_path: Path, csv: Path, label_column: str) -> float:
    """Accuracy counted point by point from the model file's own numbers: one
    support vector at a time, then the one-vs-one vote (most wins, then the
    largest summed |decision value|, then the lowest class)."""
    doc = json.loads(model_path.read_text())
    data = apply_transform_chain(csv, label_column, doc["preprocessing"])
    gamma = doc["kernel"]["gamma"]
    correct = 0
    for x, label in zip(data.features.tolist(), data.labels.tolist()):
        votes = {c: [0, 0.0] for c in doc["classes"]}
        for machine in doc["machines"]:
            d = machine["bias"] + sum(
                ay * math.exp(-gamma * sum((a - b) ** 2 for a, b in zip(x, sv)))
                for ay, sv in zip(machine["alpha_y"], machine["support_vectors"])
            )
            neg, pos = machine["pair"]
            votes[pos if d >= 0.0 else neg][0] += 1
            votes[neg][1] += abs(d)
            votes[pos][1] += abs(d)
        predicted = max(doc["classes"], key=lambda c: (*votes[c], -c))
        correct += doc["label_names"][predicted] == data.label_names[label]
    return correct / len(data.labels)


class TestEdgeContracts:
    """`train` then `evaluate` at the edges: both exit 0, and the reported
    accuracy is the one the saved model gives point by point."""

    def _train_and_evaluate(self, capsys, tmp_path, csv, *train_args):
        model_path = tmp_path / "model.json"
        code, _, err = run_cli(capsys, "train", "--data", str(csv), "--label-column",
                               "species", *train_args, "--out", str(model_path))
        assert code == 0, err
        code, stdout, err = run_cli(capsys, "evaluate", "--model", str(model_path),
                                    "--data", str(csv))
        assert code == 0, err
        accuracy = parse_json(stdout)["accuracy"]
        assert accuracy == _accuracy_from_model_file(model_path, csv, "species")
        return accuracy

    def test_gamma_1e_minus_300_every_kernel_value_is_one(self, tmp_path, capsys, iris_csv):
        # every curvature is TAU, every decision value the same: one class wins
        accuracy = self._train_and_evaluate(
            capsys, tmp_path, iris_csv, "--features", "sepal_width,petal_width",
            "--gamma", "1e-300",
        )
        assert accuracy == 1 / 3

    def test_gamma_1e300_the_gram_is_the_identity(self, tmp_path, capsys, iris_csv):
        accuracy = self._train_and_evaluate(
            capsys, tmp_path, iris_csv, "--features", "sepal_width,petal_width",
            "--gamma", "1e300",
        )
        assert accuracy == 136 / 150

    def test_a_class_of_two_rows(self, tmp_path, capsys, iris_csv):
        header, *rows = iris_csv.read_text().splitlines()
        setosa = [r for r in rows if r.endswith(",setosa")]
        others = [r for r in rows if not r.endswith(",setosa")]
        path = tmp_path / "two_setosa.csv"
        path.write_text("\n".join([header, *others, *setosa[:2]]) + "\n")
        accuracy = self._train_and_evaluate(capsys, tmp_path, path, "--gamma", "1")
        assert accuracy == 98 / 102


class TestTinyClasses:
    """`train` on a CSV with a class of 1-3 rows, exact duplicate rows and
    contradictory rows (the same features under another label), then
    `evaluate` on the same file."""

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
        st.sampled_from(["0.5", "1", "10"]),
    )
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_train_then_evaluate(self, capsys, seed, tiny, n_duplicates, n_contradictions,
                                 gamma):
        rng = np.random.default_rng(seed)
        counts = {"big": int(rng.integers(6, 12)), "mid": int(rng.integers(6, 12)),
                  "tiny": tiny}
        rows = [(rng.normal(size=2).tolist(), name)
                for name, n in counts.items() for _ in range(n)]
        # exact copies of rows of the larger classes, and any rows' features
        # under another of those classes, so the tiny class keeps its size
        big = [row for row in rows if row[1] != "tiny"]
        for k in rng.integers(0, len(big), size=n_duplicates):
            rows.append(big[k])
        for features, name in [rows[k] for k in rng.integers(0, len(rows), n_contradictions)]:
            rows.append((features, "mid" if name == "big" else "big"))
        rows = [rows[k] for k in rng.permutation(len(rows))]
        with tempfile.TemporaryDirectory() as tmp:
            csv, model_path = Path(tmp) / "tiny.csv", Path(tmp) / "out" / "model.json"
            csv.write_text("x1,x2,label\n" + "".join(
                f"{a!r},{b!r},{name}\n" for (a, b), name in rows))
            code, stdout, err = run_cli(capsys, "train", "--data", str(csv), "--gamma", gamma,
                                        "--seed", str(seed % 5), "--out", str(model_path))
            assert "Traceback" not in err
            if tiny == 1:
                assert code == 2 and stdout == ""
                assert "stratified split needs >= 2 samples per class; too small" in err
                assert not model_path.exists()
                return
            assert code in (0, 3), err
            assert model_path.exists()
            code, stdout, err = run_cli(capsys, "evaluate", "--model", str(model_path),
                                        "--data", str(csv))
            assert code == 0, err
            model, payload = load_model(model_path)
            data = recode_labels(load_csv(csv, "label"), payload["label_names"])
            correct = sum(int(predict_labels(model, x[None, :])[0] == label)
                          for x, label in zip(data.features, data.labels))
            assert parse_json(stdout)["accuracy"] == correct / len(rows)



class TestMalformedOneVsOneModel:
    """A model file whose machines do not fit its classes, or that is not
    one-vs-one, exits 2 from both commands that read models."""

    test_exits_2 = refusal_test("one-vs-one", by_case=True)


class TestExitStatus:
    """``main`` prints one stderr line led by the error class's label and
    returns its exit code; an OSError gives 4."""

    @pytest.mark.parametrize("error, code, label", [
        (errors.InvalidInputError, 2, "error"),
        (errors.DatasetParseError, 2, "error"),
        (errors.CutoffExceededError, 2, "error"),
        (errors.NonConvergenceError, 3, "non-convergence"),
        (OSError, 4, "i/o error"),
    ], ids=lambda value: value.__name__ if isinstance(value, type) else None)
    def test_an_error_class_sets_the_exit_status_and_label(self, monkeypatch, capsys, error,
                                                           code, label):
        def fail(args):
            raise error("what went wrong")

        monkeypatch.setattr(cli, "_cmd_simulate_overlap", fail)
        assert run_cli(capsys, "simulate", "overlap", "--xp", "0", "--xq", "1", "--r", "0") == (
            code, "", f"dsvkernel: {label}: what went wrong\n")


class TestSweepCli:
    def test_generator_sweep(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code, stdout, _ = run_cli(
            capsys, "sweep", "--dataset", "moons", "--n", "80", "--seed", "0",
            "--gamma", "1.0", "--gamma", "1.5", "--out", str(out_dir),
        )
        assert code == 0
        payload = parse_json(stdout)
        assert payload["selected_gamma"] in (1.0, 1.5)
        assert (out_dir / "report.json").exists()
        assert (out_dir / "model_gamma_1.5.json").exists()

    @pytest.fixture(params=["moons", "diabetes"])
    def file_sweep(self, request, tmp_path, capsys, diabetes_csv):
        """A two-gamma sweep over a CSV whose training rows are standardized:
        moons as generated, diabetes reduced to 2 principal components."""
        if request.param == "moons":
            csv = tmp_path / "moons.csv"
            run_cli(capsys, "data", "generate", "--dataset", "moons", "--n", "300",
                    "--seed", "1", "--out", str(csv))
            flags = ["--gamma", "1.5"]
        else:
            csv = diabetes_csv
            flags = ["--pca", "2", "--gamma", "0.5"]
        out_dir = tmp_path / "sweep"
        code, _, err = run_cli(capsys, "sweep", "--data", str(csv), *flags, "--standardize",
                               "--seed", "3", "--out", str(out_dir))
        assert code == 0, err
        return csv, flags, out_dir

    def test_sweep_model_files_score_their_source_csv(self, capsys, file_sweep):
        csv, _, out_dir = file_sweep
        report = json.loads((out_dir / "report.json").read_text())
        _, train, test, _, _ = exp.prepare(exp.spec_from_dict(report["spec"]))
        n = train.n_samples + test.n_samples
        for row in report["rows"]:
            model_path = out_dir / f"model_gamma_{row['gamma']!r}.json"
            code, stdout, err = run_cli(
                capsys, "evaluate", "--model", str(model_path), "--data", str(csv),
            )
            assert code == 0, err
            correct = (round(row["train_acc"] * train.n_samples)
                       + round(row["test_acc"] * test.n_samples))
            assert parse_json(stdout) == {"accuracy": correct / n, "n_samples": n}

    def test_train_saves_the_sweep_machines_at_the_same_gamma(
        self, tmp_path, capsys, file_sweep
    ):
        csv, flags, out_dir = file_sweep
        model_path = tmp_path / "train.json"
        code, stdout, err = run_cli(capsys, "train", "--data", str(csv), *flags,
                                    "--standardize", "--seed", "3", "--out", str(model_path))
        assert code == 0, err
        trained = json.loads(model_path.read_text())
        gamma = trained["kernel"]["gamma"]
        report = json.loads((out_dir / "report.json").read_text())
        row = next(r for r in report["rows"] if r["gamma"] == gamma)
        printed = parse_json(stdout)
        for key in ("train_acc", "test_acc", "n_sv", "converged"):
            assert printed[key] == row[key], key
        swept = json.loads((out_dir / f"model_gamma_{gamma!r}.json").read_text())
        assert trained["preprocessing"] == swept["preprocessing"]
        assert len(trained["machines"]) == len(swept["machines"]) == 1
        for a, b in zip(trained["machines"], swept["machines"]):
            for key in ("alpha_y", "bias", "support_vectors"):
                assert a[key] == b[key]

    @pytest.mark.parametrize("kind", ["circles", "spirals"])
    def test_report_replays_with_the_cli_defaults(self, tmp_path, capsys, kind):
        out_dir = tmp_path / "sweep"
        code, _, err = run_cli(capsys, "sweep", "--dataset", kind, "--n", "60",
                               "--gamma", "0.8", "--out", str(out_dir))
        assert code == 0, err
        report = json.loads((out_dir / "report.json").read_text())
        assert report["spec"]["dataset"] == exp.GeneratorSpec(kind, n=60).to_dict()
        spec = exp.spec_from_dict(report["spec"])
        replayed = exp.sweep(spec, spec.gammas, out_dir=tmp_path / "replay")
        assert reports_equal_ignoring_timings(replayed.to_json_dict(), report)
        assert ((tmp_path / "replay" / "model_gamma_0.8.json").read_bytes()
                == (out_dir / "model_gamma_0.8.json").read_bytes())

    test_dataset_and_data_conflict = refusal_test("both-sources")
    test_a_flag_of_the_other_source_exits_2 = refusal_test("other-source", by_case=True)
    test_repeated_gamma_exits_2 = refusal_test("repeated-gamma")


#: Runs CLI commands in a fresh interpreter in which ``import scipy`` fails.
NO_SCIPY_SCRIPT = """
import json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
from dsvkernel import cli

codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_cli_runs_without_scipy(tmp_path, iris_csv):
    csv, model = str(tmp_path / "moons.csv"), str(tmp_path / "model.json")
    commands = [
        ["data", "generate", "--dataset", "moons", "--n", "60", "--seed", "1", "--out", csv],
        ["train", "--data", csv, "--gamma", "1.5", "--out", model],
        ["evaluate", "--model", model, "--data", csv],
        ["boundary", "--model", model, "--data", csv, "--resolution", "20",
         "--out", str(tmp_path / "boundary.csv")],
        ["kernel", "gram", "--data", str(iris_csv), "--label-column", "species",
         "--gamma", "0.7", "--validate", "--out", str(tmp_path / "gram.csv")],
        ["simulate", "overlap", "--xp", "0.3", "--xq", "-0.2", "--r", "0.4", "--theta", "0.7"],
    ]
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0] * len(commands), "scipy": []}
