"""scripts/same_output.py on two stub checkouts whose CLI echoes its arguments."""

import importlib.util
import json
import math

import pytest
from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location("same_output",
                                               REPO_ROOT / "scripts" / "same_output.py")
same_output = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_output)

#: A stand-in for ``dsvkernel.cli``: prints its arguments and the sepal width
#: it reads from ``iris-nan.csv``, writes ``VERSION``'s text to ``--out`` and
#: a ``report.json`` whose timings differ on every run, and exits with
#: ``--exit``.
STUB_CLI = '''
import json, sys, time
from pathlib import Path

VERSION = {version!r}
argv = sys.argv[1:]
print(" ".join(argv))
print(Path("iris-nan.csv").read_text().splitlines()[1].split(",")[1])
if "--out" in argv:
    Path(argv[argv.index("--out") + 1]).write_text(VERSION)
if "--report" in argv:
    Path("report.json").write_text(json.dumps({{"rows": [1], "timings": {{"1": time.time()}}}}))
print("warning", file=sys.stderr)
sys.exit(int(argv[argv.index("--exit") + 1]) if "--exit" in argv else 0)
'''


def _checkout(root, name, version="v1"):
    checkout = root / name
    package = checkout / "src" / "dsvkernel"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(STUB_CLI.format(version=version))
    (checkout / "data").mkdir()
    (checkout / "data" / "iris.csv").write_text("a,b,label\n1.0,2.0,x\n")
    (checkout / "data" / "diabetes.csv").write_text("a,label\n1.0,0\n")
    return checkout


COMMANDS = [("echo", ["echo", "--out", "one.txt"]), ("report", ["report", "--report"])]


def test_identical_checkouts_have_no_differences(tmp_path):
    # the two report.json files differ only in their timings
    parent, change = _checkout(tmp_path, "parent"), _checkout(tmp_path, "change")
    assert same_output.compare(parent, change, COMMANDS) == []


def test_every_kind_of_difference_is_listed(tmp_path):
    parent, change = _checkout(tmp_path, "parent"), _checkout(tmp_path, "change", "v2")
    found = same_output.compare(parent, change, [
        ("echo", ["echo", "--out", "one.txt"]),
        ("exit", ["exit", "--exit", "2"]),
    ])
    assert found == ["one.txt: contents differ"]
    (change / "src" / "dsvkernel" / "cli.py").write_text(
        STUB_CLI.format(version="v1").replace('"warning"', '"other"')
        .replace("else 0)", "else 0 if argv[0] == 'echo' else 3)")
        .replace('Path(argv[argv.index("--out") + 1])', 'Path("extra.txt")')
    )
    found = same_output.compare(parent, change, [
        ("echo", ["echo", "--out", "one.txt"]),
        ("exit", ["exit"]),
    ])
    assert found == [
        "echo: stderr differs, line 1: 'warning' -> 'other'",
        "exit: exit code differs, 0 -> 3",
        "exit: stderr differs, line 1: 'warning' -> 'other'",
        "extra.txt: only in the change",
        "one.txt: only in the parent",
    ]


def test_the_parent_runs_at_one_blas_thread_and_the_change_at_two(tmp_path, monkeypatch):
    parent, change = _checkout(tmp_path, "parent"), _checkout(tmp_path, "change")
    for checkout in (parent, change):
        (checkout / "src" / "dsvkernel" / "cli.py").write_text(
            "import os, sys\n"
            "import dsvkernel\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'], os.path.dirname(dsvkernel.__file__))\n"
        )
    work = tmp_path / "work"
    work.mkdir()
    results = same_output.run_side(parent, work, [("where", ["where"])], "1")
    assert results["where"] == (0, f"1 {parent / 'src' / 'dsvkernel'}\n", "")
    # the non-finite inputs are made before the commands run
    assert (work / "iris-nan.csv").read_text() == "a,b,label\n1.0,nan,x\n"
    assert (work / "iris-inf.csv").read_text() == "a,b,label\n1.0,inf,x\n"
    assert math.isnan(json.loads((work / "nan-bias.json").read_text())["machines"][0]["bias"])
    # one checkout against itself: only the thread count differs
    found = same_output.compare(parent, parent, [("where", ["where"])])
    assert found == ["where: stdout differs, line 1: "
                     f"'1 {parent / 'src' / 'dsvkernel'}' -> '2 {parent / 'src' / 'dsvkernel'}'"]
    monkeypatch.setattr(same_output, "commands", lambda: [("where", ["where"])])
    assert same_output.main(["--parent", str(parent), "--change", str(change)]) == 1


def test_default_command_list_is_fixed():
    names = [name for name, _ in same_output.commands()]
    assert len(names) == len(set(names)) == 129
    assert {"data-generate-moons", "train-iris-1", "evaluate-diabetes-4",
            "boundary-moons-2-300", "gram-iris-validate", "sweep-diabetes",
            "sweep-spirals", "train-moons-tol-1", "boundary-non-finite",
            "train-pca-non-finite", "train-standardize-non-finite", "evaluate-nan-bias",
            "boundary-nan-bias", "data-generate-circles", "data-generate-spirals",
            "sweep-circles"} <= set(names)
