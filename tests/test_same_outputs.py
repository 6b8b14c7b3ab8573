import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def same_outputs(monkeypatch):
    # tools/same_outputs.py imports the benchmark's modules by path; none of
    # them, and no bytecode of them, outlives the test
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    yield importlib.import_module("same_outputs")
    for name in ("same_outputs", "pairs", "rep", "run", "workloads"):
        sys.modules.pop(name, None)


def _write(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_compare_names_every_file_that_differs(tmp_path, same_outputs):
    report = {"seed": 38, "files": {"admm_flow": "figure1_out/admm_flow.csv"},
              "wall_time_s": 0.25}
    files = {"figure1_out/admm_flow.csv": "t,V_gap\n0.0,1.5\n",
             "figure1_out/report.json": json.dumps(report, indent=1),
             "rho10/admm.csv": "k,t\n0,0.0\n"}
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write(parent, files)
    _write(change, files)
    assert same_outputs.differing(parent, change) == []
    # report.json may differ in its wall time only
    _write(change, {"figure1_out/report.json": json.dumps(dict(report, wall_time_s=0.3))})
    assert same_outputs.differing(parent, change) == []
    _write(change, {"figure1_out/report.json": json.dumps(dict(report, seed=11))})
    assert same_outputs.differing(parent, change) == ["figure1_out/report.json"]
    # one byte changed, and a file that only one side wrote
    _write(change, {"figure1_out/report.json": json.dumps(report),
                    "figure1_out/admm_flow.csv": "t,V_gap\n0.0,1.6\n", "extra.csv": ""})
    assert same_outputs.differing(parent, change) == ["extra.csv", "figure1_out/admm_flow.csv"]
    assert same_outputs.differing(change, parent) == ["extra.csv", "figure1_out/admm_flow.csv"]


def test_each_command_writes_its_own_files(tmp_path, same_outputs):
    # a two-rho figure1, a flow run, both outcomes of a rate check, a refused
    # run and a run stopped early are checked too; no command writes into
    # another's output directory or over its problem file, and rates writes
    # no file
    argvs = list(same_outputs.commands(38))
    targets = [argv[argv.index("--out-dir" if "--out-dir" in argv else "--out") + 1]
               for argv in argvs if argv[0] != "rates"]
    assert len(set(targets)) == len(targets)
    assert any(argv[0] == "figure1" and argv.count("--rho") == 2 for argv in argvs)
    assert any(argv[0] == "run" and {"admm_flow", "aadmm_flow"} <= set(argv) for argv in argvs)
    rates = [argv for argv in argvs if argv[0] == "rates"]
    assert len(rates) == 2 and all("--out-dir" not in argv and "--out" not in argv
                                   for argv in rates)
    assert len({argv[argv.index("--target") + 1] for argv in rates}) == 2
    stop_tol = [argv for argv in argvs if argv[0] == "run" and "--stop-tol" in argv]
    assert {"admm_flow"} in [set(argv) & {"admm", "aadmm", "admm_flow"} for argv in stop_tol]
    assert {"admm", "aadmm"} in [set(argv) & {"admm", "aadmm", "admm_flow"} for argv in stop_tol]
    # what a command did beyond its files is one more file to compare
    same_outputs.record(tmp_path / "cmd0.out", ["figure1", "--seed", "38"], 2, "report: x\n",
                        "error: y\n")
    assert (tmp_path / "cmd0.out").read_text() == ("argv: figure1 --seed 38\nexit: 2\n"
                                                   "report: x\nstderr:\nerror: y\n")
