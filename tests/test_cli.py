import ast
import gc
import json
import platform
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

import admmflow as af
from admmflow import cli
from admmflow.cli import main
from admmflow.discrete import BLOCK
from admmflow.flows import IntegratorConfig
from admmflow.trajectory import ColumnText

from helpers import NOT_A_NUMBER


@pytest.fixture()
def one_d_file(tmp_path, one_d_problem):
    path = tmp_path / "one_d.json"
    af.save_problem(one_d_problem, path)
    return str(path)


def test_gen_writes_and_is_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = "gen --n 60 --zero-eigs 40 --eig-hi 10 --cond-a 100 --seed 7".split()
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    out = capsys.readouterr().out
    assert "rank(M_f)=20" in out
    assert "cond(A)=100.0000" in out
    p = af.load_problem(a)
    assert p.cond_A == pytest.approx(100.0, rel=1e-4)


def test_gen_small_pd(tmp_path):
    out = str(tmp_path / "p.json")
    assert main(["gen", "--n", "2", "--zero-eigs", "0", "--eig-hi", "1",
                 "--cond-a", "1", "--seed", "1", "--out", out]) == 0
    p = af.load_problem(out)
    assert np.linalg.eigvalsh(p.f.M)[0] > 0


def test_gen_bad_params_exit_2(tmp_path, capsys):
    # refused before any draw, naming the parameter
    out = tmp_path / "p.json"
    for flags, fault in ((["--n", "5", "--zero-eigs", "5"], "zero_eigs must satisfy"),
                         (["--eig-hi", "inf"], "eig_hi must be positive and finite, got inf"),
                         (["--cond-a", "nan"], "cond_a must be >= 1 and finite, got nan"),
                         (["--n", "1", "--zero-eigs", "0"], "cond_a must be 1 when n = 1, got 100.0")):
        assert main(["gen", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {fault}")
        assert not out.exists()
    assert main(["gen", "--n", "1", "--zero-eigs", "0", "--cond-a", "1", "--out", str(out)]) == 0
    assert af.load_problem(out).generator_params["cond_a"] == 1.0


def test_run_hand_unrolled(tmp_path, one_d_file):
    # x_{k+1} = x_k / 2 from x0 = 5 on the 1-D problem at rho = 1
    assert main(["run", "--problem", one_d_file, "--solver", "admm", "--rho", "1",
                 "--max-iter", "5", "--x0", "5", "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "admm.csv").read_text().strip().splitlines()
    assert len(lines) == 7  # header + k = 0..5
    cols = af.load_trajectory_csv(tmp_path / "admm.csv")
    assert np.allclose(cols["x_norm"], 5.0 * 0.5 ** np.arange(6), rtol=1e-13)
    assert np.allclose(cols["V_gap"], 12.5 * 0.25 ** np.arange(6), rtol=1e-12)


@pytest.mark.parametrize("x0, stop_tol, stop_k", [("1", "0.3", 2), ("0", "0", 1), ("1", "0", None)],
                         ids=["stop-tol", "exact-fixed-point", "full-budget"])
def test_run_reports_an_early_stop(tmp_path, one_d_file, capsys, x0, stop_tol, stop_k):
    # on the 1-D problem at rho = 1, z moves by x_{k-1} / 2 at step k: 0.25 at
    # k = 2 from x0 = 1; from x0 = 0 the default stop_tol = 0 stops at k = 1
    argv = ["run", "--problem", one_d_file, "--solver", "admm", "--solver", "aadmm",
            "--rho", "1", "--r", "3", "--max-iter", "20", "--x0", x0, "--stop-tol", stop_tol,
            "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    for solver in ("admm", "aadmm"):
        rows = len(af.load_trajectory_csv(tmp_path / f"{solver}.csv")["k"])
        if stop_k is None:
            assert rows == 21 and "stopped early" not in out
        else:
            assert f"{solver}: stopped early at k={stop_k} of --max-iter 20" in out
            assert rows == stop_k + 1


def test_run_flow_closed_form(tmp_path, one_d_file):
    assert main(["run", "--problem", one_d_file, "--solver", "admm_flow", "--h", "0.01",
                 "--t-end", "1", "--x0", "1", "--out-dir", str(tmp_path)]) == 0
    cols = af.load_trajectory_csv(tmp_path / "admm_flow.csv")
    assert len(cols["t"]) == 101
    assert abs(cols["x_norm"][-1] - np.exp(-1.0)) <= 1e-8


def test_run_flow_on_ill_conditioned_A(tmp_path):
    # the modal basis's backward-error check accepts cond(A) = 1e4 (the flow
    # map's old residual check refused it, and the run exited 2)
    out = str(tmp_path / "p.json")
    assert main(["gen", "--n", "60", "--zero-eigs", "40", "--eig-hi", "10",
                 "--cond-a", "1e4", "--seed", "38", "--out", out]) == 0
    assert main(["run", "--problem", out, "--solver", "admm_flow", "--t-end", "1",
                 "--out-dir", str(tmp_path / "run")]) == 0
    cols = af.load_trajectory_csv(tmp_path / "run" / "admm_flow.csv")
    assert len(cols["t"]) == 1001 and np.all(np.isfinite(cols["V_gap"]))


def test_run_requires_solver(tmp_path, one_d_file):
    with pytest.raises(SystemExit) as err:
        main(["run", "--problem", one_d_file, "--out-dir", str(tmp_path / "out")])
    assert err.value.code == 2
    assert not (tmp_path / "out").exists()


def test_run_rejects_unknown_solver(tmp_path, one_d_file):
    with pytest.raises(SystemExit) as err:
        main(["run", "--problem", one_d_file, "--solver", "sgd"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (["run", "--solver", "admm_flow", "--rho", "0"], "rho"),
    (["run", "--solver", "aadmm_flow", "--rho", "-1"], "rho"),
    (["figure1", "--rho", "0"], "rho"),
    (["figure1", "--rho", "-1"], "rho"),
    (["figure1", "--window-lo", "5", "--window-hi", "2"], "window"),
    (["figure1", "--rho", "50", "--rho", "5e1"], "rho"),
    (["figure1", "--rho", "50", "--rho", "50.000001"], "rho"),
    (["figure1", "--h-rk4", "0"], "step size h"),
    (["figure1", "--h-symplectic", "-1"], "step size h"),
    (["figure1", "--t0", "0"], "t0 > 0"),
    (["figure1", "--r", "1"], "damping parameter r"),
    (["figure1", "--r", "inf"], "damping parameter r"),
    (["figure1", "--max-iter", "0"], "max-iter"),
    (["figure1", "--overlay-points", "0"], "overlay-points"),
    (["figure1", "--rho", "1e-6", "--max-iter", "2"], "MAX_STEPS"),
    (["run", "--solver", "admm", "--solver", "aadmm_flow", "--h", "0"], "step size h"),
    (["run", "--solver", "admm_flow", "--t-end", "0"], "t_end"),
    (["run", "--solver", "admm", "--max-iter", "0"], "max-iter"),
    (["run", "--solver", "admm", "--solver", "aadmm", "--r", "1"], "damping parameter r"),
    (["run", "--solver", "admm", "--solver", "aadmm", "--r", "inf"], "damping parameter r"),
    (["run", "--solver", "aadmm_flow", "--r", "inf"], "damping parameter r"),
    # a non-finite start point is an input fault, not a divergence (exit 3)
    (["run", "--solver", "admm", "--x0", "nan"], "--x0"),
    (["run", "--solver", "admm_flow", "--x0", "inf"], "--x0"),
    (["run", "--solver", "admm", "--stop-tol", "nan"], "--stop-tol"),
    # the overlay grid is built after every run: its size is checked first
    (["figure1", "--overlay-points", "1000002"], "overlay-points"),
    # a non-finite grid field is named, not blamed on the grid bound
    (["run", "--solver", "aadmm_flow", "--t0", "nan"], "t0"),
    (["run", "--solver", "aadmm_flow", "--h", "nan"], "step size h"),
    (["run", "--solver", "aadmm_flow", "--t-end", "nan"], "t_end"),
    (["run", "--solver", "aadmm_flow", "--h", "inf"], "step size h"),
    (["figure1", "--h-rk4", "nan"], "step size h"),
    # every iterate is stored: a discrete run is bounded as a flow grid is
    (["run", "--solver", "admm", "--max-iter", "1000001"], "MAX_STEPS"),
    (["figure1", "--max-iter", "1000001", "--h-rk4", "1", "--h-symplectic", "1"], "MAX_STEPS"),
    # a flow grid flag with no flow solver to honour it is refused by name
    (["run", "--solver", "admm", "--t-end", "5"], "--t-end"),
    (["run", "--solver", "admm", "--solver", "aadmm", "--h", "0.1"], "--h"),
    (["run", "--solver", "aadmm", "--t0", "1"], "--t0"),
    # --max-iter only sets a flow's default t_end: with --t-end and no
    # discrete solver it would be ignored
    (["run", "--solver", "admm_flow", "--t-end", "1", "--max-iter", "5"], "--max-iter"),
    # a bad --r is refused whatever the solvers, and --stop-tol with no
    # discrete solver to honour it
    (["run", "--solver", "admm", "--r", "1"], "damping parameter r"),
    (["run", "--solver", "admm_flow", "--r", "nan", "--t-end", "1"], "damping parameter r"),
    (["run", "--solver", "admm_flow", "--t-end", "1", "--stop-tol", "1e-3"], "--stop-tol"),
    # a rate window that a flow grid cannot fill is refused before any run
    (["figure1", "--window-lo", "2", "--window-hi", "2.001"], "window [2, 2.001]"),
    (["figure1", "--window-lo", "2", "--window-hi", "2.05"], "aadmm_flow grid"),
    # numpy's generators take no negative seed: refused by the flag's name
    (["gen", "--seed", "-1"], "--seed"),
    (["figure1", "--seed", "-1"], "--seed"),
], ids=["run-rho0", "run-rho-neg", "figure1-rho0", "figure1-rho-neg", "figure1-window",
        "figure1-rho-repeated", "figure1-rho-same-csv-name",
        "figure1-h-rk4", "figure1-h-symplectic", "figure1-t0", "figure1-r", "figure1-r-inf",
        "figure1-max-iter", "figure1-overlay-points", "figure1-grid-bound",
        "run-h", "run-t-end", "run-max-iter", "run-r", "run-r-inf", "run-flow-r-inf",
        "run-x0-nan", "run-x0-inf", "run-stop-tol-nan", "figure1-overlay-points-bound",
        "run-flow-t0-nan", "run-flow-h-nan", "run-flow-t-end-nan", "run-flow-h-inf",
        "figure1-h-rk4-nan", "run-max-iter-bound", "figure1-max-iter-bound",
        "run-t-end-no-flow", "run-h-no-flow", "run-t0-no-flow", "run-max-iter-no-discrete",
        "run-r-no-aadmm", "run-flow-r-nan", "run-stop-tol-no-discrete",
        "figure1-window-few-samples", "figure1-window-few-symplectic-samples",
        "gen-seed-neg", "figure1-seed-neg"])
def test_bad_numeric_flags_exit_2_before_any_work(tmp_path, one_d_file, capsys, argv, flag):
    out = tmp_path / "out"
    if argv[0] == "run":
        argv = argv + ["--problem", one_d_file]
    try:
        code = main(argv + (["--out", str(out / "problem.json")] if argv[0] == "gen"
                            else ["--out-dir", str(out)]))
    except SystemExit as err:  # argparse rejects the value itself
        code = err.code
    assert code == 2
    err = capsys.readouterr().err
    assert "error" in err and flag in err  # the message names the bad flag
    assert not out.exists()  # refused before the output directory is made


def test_run_integrator_alias(tmp_path, one_d_file, capsys):
    # --integrator was a second flag for --solver admm_flow/aadmm_flow; it is gone
    with pytest.raises(SystemExit) as err:
        main(["run", "--problem", one_d_file, "--solver", "admm_flow", "--integrator", "rk4",
              "--h", "0.1", "--t-end", "1", "--out-dir", str(tmp_path / "out")])
    assert err.value.code == 2
    assert "--integrator" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_aadmm_flow_defaults(tmp_path, one_d_file):
    # symplectic h = 1e-2 from t0 = h up to max_iter / sqrt(rho) = 300 / sqrt(50)
    assert main(["run", "--problem", one_d_file, "--solver", "aadmm_flow",
                 "--out-dir", str(tmp_path)]) == 0
    cols = af.load_trajectory_csv(tmp_path / "aadmm_flow.csv")
    h, t_end = 1e-2, 300 / np.sqrt(50.0)
    assert cols["t"][0] == h
    assert t_end <= cols["t"][-1] < t_end + h
    assert "hamiltonian" in cols


def test_run_divergence_exit_3_with_partial_csv(tmp_path, one_d_file):
    # RK4 far outside its stability region blows up; the partial CSV is kept
    code = main(["run", "--problem", one_d_file, "--solver", "admm_flow", "--h", "10",
                 "--t-end", "20000", "--x0", "1", "--out-dir", str(tmp_path)])
    assert code == 3
    lines = (tmp_path / "admm_flow.csv").read_text().strip().splitlines()
    assert lines[-1].startswith("truncated")
    assert len(lines) > 2


def _traced_names():
    """The keys of perfbench/rep.py's TRACED_FUNCTIONS, read from its text with
    ast: nothing is imported, so nothing is written beside the file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "rep.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and targets == ["TRACED_FUNCTIONS"]:
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError(f"{path} assigns no TRACED_FUNCTIONS")


def test_cli_looks_up_drivers_when_called(tmp_path, one_d_file, monkeypatch):
    # perfbench/rep.py replaces these module globals with wrappers after
    # import: every traced name but main, which the harness calls itself
    drivers = ("rk4_integrate", "aadmm_flow_integrate", "run_admm", "run_aadmm")
    names = [name for name in _traced_names() if name != "main"]
    assert set(drivers) <= set(names)
    calls = dict.fromkeys(names, 0)
    for name in calls:
        assert name in vars(cli), name

        def counted(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    assert main(["figure1", "--seed", "3", "--max-iter", "30", "--h-rk4", "1e-2",
                 "--h-symplectic", "2e-2", "--window-lo", "0.2", "--window-hi", "0.58",
                 "--overlay-points", "21", "--out-dir", str(tmp_path / "fig")]) == 0
    assert {calls[name] for name in drivers} == {1}
    assert main(["run", "--problem", one_d_file] + [
        arg for solver in cli.SOLVERS for arg in ("--solver", solver)] + [
        "--max-iter", "20", "--h", "0.05", "--out-dir", str(tmp_path / "run")]) == 0
    assert {calls[name] for name in drivers} == {2}
    assert main(["gen", "--n", "4", "--zero-eigs", "1", "--out", str(tmp_path / "p.json")]) == 0
    # the short window's fitted slope is about -0.02: within target 0 + tol 0.1
    assert main(["rates", "--trajectory", str(tmp_path / "fig" / "aadmm_flow.csv"),
                 "--problem", str(tmp_path / "fig" / "problem.json"), "--target", "0",
                 "--window-lo", "0.2", "--window-hi", "0.58"]) == 0
    assert [name for name, count in calls.items() if count == 0] == []


def test_run_deterministic_csvs(tmp_path, one_d_file):
    for sub in ("r1", "r2"):
        assert main(["run", "--problem", one_d_file, "--solver", "admm", "--solver",
                     "aadmm", "--rho", "2", "--max-iter", "20",
                     "--out-dir", str(tmp_path / sub)]) == 0
    for name in ("admm.csv", "aadmm.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_run_completes_on_a_cond_1e8_draw(tmp_path, capsys):
    # both discrete solvers at rho = 10 exited 2 on this draw while the x-step
    # went through the formed A^T A (A-ADMM failed its solve check); the flow
    # ran. Through A = U R all three complete
    problem = str(tmp_path / "p.json")
    assert main(["gen", "--n", "60", "--cond-a", "1e8", "--out", problem]) == 0
    assert main(["run", "--problem", problem, "--solver", "admm", "--solver", "aadmm",
                 "--rho", "10", "--out-dir", str(tmp_path / "discrete")]) == 0
    assert main(["run", "--problem", problem, "--solver", "admm_flow",
                 "--out-dir", str(tmp_path / "flow")]) == 0
    assert "error" not in capsys.readouterr().err


def test_run_deterministic_csvs_across_blocks(tmp_path):
    # a generated draw, run past two blocks of sample records
    problem = str(tmp_path / "p.json")
    assert main(["gen", "--n", "20", "--zero-eigs", "10", "--out", problem]) == 0
    for sub in ("r1", "r2"):
        assert main(["run", "--problem", problem, "--solver", "admm", "--solver", "aadmm",
                     "--max-iter", str(2 * BLOCK + 1), "--out-dir", str(tmp_path / sub)]) == 0
    for name in ("admm.csv", "aadmm.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


@pytest.mark.parametrize("field, index, value, fault", [
    ("M_f", 1, float("nan"), "f: M must be finite; M[0, 1] is nan"),
    ("A", 4, float("nan"), "A must be finite; A[1, 1] is nan"),
    ("q_f", 2, float("inf"), "f: q must be finite; q[2] is inf"),
], ids=["M_f-nan", "A-nan", "q_f-inf"])
def test_run_names_non_finite_problem_data(tmp_path, capsys, field, index, value, fault):
    path = tmp_path / "p.json"
    af.save_problem(af.gen_figure1_problem(3, 1, 5.0, 10.0, seed=1), path)
    data = json.loads(path.read_text())
    data[field][index] = value
    path.write_text(json.dumps(data))
    assert main(["run", "--problem", str(path), "--solver", "admm",
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {path}: {fault}\n"


def test_rates_synthetic(tmp_path):
    t = np.linspace(1.0, 30.0, 300)
    for name, gap in (("quad.csv", 7.0 / t**2), ("lin.csv", 3.0 / t)):
        af.Trajectory(t=t, V=gap, v_gap=gap, X=np.zeros((t.size, 1))).to_csv(tmp_path / name)
    quad = str(tmp_path / "quad.csv")
    lin = str(tmp_path / "lin.csv")
    assert main(["rates", "--trajectory", quad, "--target", "-2", "--tol", "0.05"]) == 0
    assert main(["rates", "--trajectory", lin, "--target", "-2", "--tol", "0.05"]) == 4
    assert main(["rates", "--trajectory", lin, "--target", "-1", "--tol", "0.05"]) == 0


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--target", "--tol", "--v-star"])
def test_rates_refuses_non_finite_flags(tmp_path, capsys, flag, value):
    # a NaN or infinite target, slack or offset would reach the verdict (a
    # NaN bound fails every slope, an infinite one passes any): usage error
    t = np.linspace(1.0, 30.0, 300)
    path = tmp_path / "lin.csv"
    af.Trajectory(t=t, V=3.0 / t, v_gap=3.0 / t, X=np.zeros((t.size, 1))).to_csv(path)
    with pytest.raises(SystemExit) as err:
        main(["rates", "--trajectory", str(path), "--target", "-1", flag, value])
    assert err.value.code == 2
    assert f"argument {flag}: must be a finite number" in capsys.readouterr().err


def test_rates_with_problem_offset(tmp_path, one_d_file, capsys):
    # raw objective values of f(x) = (x-1)^2/2 (optimal value -1/2): the
    # problem file supplies the offset so the fit sees the true gap
    p = af.SplitProblem(
        af.QuadraticFunction([[1.0]], [-1.0]), af.QuadraticFunction.zero(1), [[1.0]]
    )
    ppath = tmp_path / "shifted.json"
    af.save_problem(p, ppath)
    t = np.linspace(1.0, 30.0, 300)
    raw = 7.0 / t**2 - 0.5
    af.Trajectory(t=t, V=raw, v_gap=raw, X=np.zeros((t.size, 1))).to_csv(tmp_path / "raw.csv")
    assert main(["rates", "--trajectory", str(tmp_path / "raw.csv"), "--problem",
                 str(ppath), "--target", "-2", "--tol", "0.05"]) == 0
    # the problem file replaces the offset, so an explicit --v-star with it is refused
    with pytest.raises(SystemExit) as err:
        main(["rates", "--trajectory", str(tmp_path / "raw.csv"), "--v-star", "123",
              "--problem", str(ppath), "--target", "-2"])
    assert err.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("row, bad_t", [("{t!r},nan", "{t:.6g}"), ("{t!r},inf", "{t:.6g}"),
                                        ("nan,{t!r}", "nan")], ids=["nan-gap", "inf-gap", "nan-t"])
def test_rates_refuses_a_non_finite_sample(tmp_path, capsys, row, bad_t):
    # a NaN or inf gap in the window is an input fault (exit 2) naming its t,
    # not a failed rate check on a NaN slope (exit 4); a NaN t is not dropped
    t = np.linspace(1.0, 30.0, 300).tolist()
    lines = [f"{ti!r},{3.0 / ti!r}" for ti in t]
    lines[50] = row.format(t=t[50])
    path = tmp_path / "gap.csv"
    path.write_text("t,V_gap\n" + "\n".join(lines) + "\n")
    assert main(["rates", "--trajectory", str(path), "--target", "-1"]) == 2
    assert capsys.readouterr().err == (
        f"error: sample time or objective gap is not finite at t = {bad_t.format(t=t[50])}\n")


def test_rates_window_underflow(tmp_path):
    t = np.linspace(1.0, 30.0, 300)
    gap = 1e-12 / t**2
    af.Trajectory(t=t, V=gap, v_gap=gap, X=np.zeros((t.size, 1))).to_csv(tmp_path / "tiny.csv")
    assert main(["rates", "--trajectory", str(tmp_path / "tiny.csv"),
                 "--target", "-2", "--window-hi", "25"]) == 2


def test_rates_empty_csv_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert main(["rates", "--trajectory", str(path), "--target", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "empty.csv" in err


@pytest.mark.parametrize("text", ["\nt,V_gap\n1,2\n", "t,V_gap\n1\n"],
                         ids=["blank-first-line", "short-row"])
def test_rates_malformed_csv_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert main(["rates", "--trajectory", str(path), "--target", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "reshape" not in err


@pytest.mark.parametrize("name", sorted(NOT_A_NUMBER))
def test_rates_names_the_line_of_a_bad_cell(tmp_path, capsys, name):
    text, fault = NOT_A_NUMBER[name]
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert main(["rates", "--trajectory", str(path), "--target", "-1"]) == 2
    assert capsys.readouterr().err == f"error: {path}: {fault}\n"



def test_rates_refuses_a_repeated_column(tmp_path, capsys):
    path = tmp_path / "twice.csv"
    rows = "".join(f"{t},{t ** -1},{t ** -2}\n" for t in range(2, 21))
    path.write_text("t,V_gap,V_gap\n" + rows)
    assert main(["rates", "--trajectory", str(path), "--target", "-1"]) == 2
    assert capsys.readouterr().err == (f"error: {path}: line 1: the header names the column "
                                       "'V_gap' twice\n")


def test_figure1_smoke(tmp_path, capsys):
    out = str(tmp_path / "fig")
    code = main(["figure1", "--seed", "5", "--max-iter", "50", "--h-rk4", "5e-3",
                 "--h-symplectic", "1e-2", "--window-lo", "0.2", "--window-hi", "1.0",
                 "--overlay-points", "101", "--out-dir", out])
    assert code == 0
    report = json.loads((tmp_path / "fig" / "report.json").read_text())
    # the files written are exactly those the report names, and the report
    assert sorted(path.name for path in (tmp_path / "fig").iterdir()) == sorted(
        [Path(path).name for path in report["files"].values()] + ["report.json"])
    assert all(Path(path).parent == tmp_path / "fig" for path in report["files"].values())
    # discrete CSV row count: header + max_iter + 1 samples
    lines = (tmp_path / "fig" / "admm_rho50.csv").read_text().strip().splitlines()
    assert len(lines) == 52
    assert set(report["rate_fits"]) == {"admm_flow", "aadmm_flow"}
    assert report["discrepancies"][0]["rho"] == 50.0
    # what the run ran on, fixed for an installation
    assert report["env"] == {"admmflow": af.__version__, "python": platform.python_version(),
                             "numpy": np.__version__}
    assert "report:" in capsys.readouterr().out
    # run records such as the flows' modal backward error stay out of the report
    assert "modal_backward_error" not in (tmp_path / "fig" / "report.json").read_text()
    # the decay fraction of each monitor is the mean of its CSV's decay_ok column
    assert len(report["monitor_decay_fraction"]) == 4
    for name, frac in report["monitor_decay_fraction"].items():
        cols = af.load_trajectory_csv(tmp_path / "fig" / f"{name}.csv")
        assert frac == np.mean(cols["decay_ok"]), name


def test_figure1_divergence_keeps_partial_csv(tmp_path, capsys):
    # RK4 at h = 0.9 leaves its stability region on a long rate window
    out = tmp_path / "fig"
    diverging = ["figure1", "--h-rk4", "0.9", "--window-lo", "2", "--window-hi", "2000",
                 "--out-dir", str(out)]
    assert main(diverging) == 3
    assert "first-order flow diverged" in capsys.readouterr().err
    lines = (out / "admm_flow.csv").read_text().strip().splitlines()
    assert lines[-1].startswith("truncated,")
    assert len(lines) > 2
    assert not (out / "report.json").exists()
    # a rerun that fails after writing files leaves only the files it wrote:
    # none of the complete run before it, report.json included; a refusal of
    # its arguments writes nothing and leaves the directory as it was. At
    # seed 7 the RK4 gap reaches the noise floor inside the window (exit 2),
    # after every run and monitor CSV is written
    below_floor = ["figure1", "--seed", "7", "--h-rk4", "0.56", "--h-symplectic", "0.1",
                   "--window-hi", "1679", "--out-dir", str(out)]
    runs = ["aadmm_flow.csv", "aadmm_rho50.csv", "admm_flow.csv", "admm_rho50.csv"]
    monitors = [f"monitor_{flow}_{kind}.csv" for flow in ("aadmm_flow", "admm_flow")
                for kind in ("rate", "stability")]
    for failing, code, message, written in (
            (diverging, 3, "diverged", ["admm_flow.csv", "problem.json"]),
            (below_floor, 2, "noise floor", runs + monitors + ["problem.json"])):
        assert main(["figure1", "--out-dir", str(out)]) == 0
        report = (out / "report.json").read_text()
        assert main(["figure1", "--window-lo", "5", "--window-hi", "2", "--out-dir", str(out)]) == 2
        assert (out / "report.json").read_text() == report
        capsys.readouterr()
        assert main(failing) == code
        assert message in capsys.readouterr().err
        assert sorted(path.name for path in out.iterdir()) == written
        if code == 3:  # the diverged run's own partial CSV, kept
            assert (out / "admm_flow.csv").read_text().splitlines()[-1].startswith("truncated,")


def test_figure1_second_order_divergence_writes_no_file_early(tmp_path, capsys):
    # the RK4 monitors run before the symplectic run, but every monitor CSV is
    # written after all runs: a symplectic divergence at h = 1 leaves only the
    # problem and the two flow CSVs, the second one truncated
    out = tmp_path / "fig"
    assert main(["figure1", "--h-symplectic", "1.0", "--h-rk4", "1e-2", "--window-lo", "2",
                 "--window-hi", "900", "--out-dir", str(out)]) == 3
    assert "second-order flow diverged after t = 328" in capsys.readouterr().err
    assert sorted(path.name for path in out.iterdir()) == [
        "aadmm_flow.csv", "admm_flow.csv", "problem.json"]
    assert (out / "aadmm_flow.csv").read_text().splitlines()[-1].startswith("truncated,")


def test_figure1_writes_the_same_bytes_without_shared_text(tmp_path, monkeypatch):
    # the monitor CSVs reuse their flow's t and V_gap text: forcing every
    # lookup to miss changes no byte, and once main returns no array the
    # table recorded is alive
    args = ["figure1", "--seed", "38", "--h-rk4", "1e-2", "--h-symplectic", "2e-2",
            "--overlay-points", "21"]
    recorded, hits = [], []
    record, find = ColumnText.record, ColumnText.find

    def record_weakly(self, values, chunks):
        recorded.append(weakref.ref(values))
        record(self, values, chunks)

    def count_hits(self, values):
        chunks = find(self, values)
        hits.append(chunks is not None)
        return chunks

    monkeypatch.setattr(ColumnText, "record", record_weakly)
    monkeypatch.setattr(ColumnText, "find", count_hits)
    assert main(args + ["--out-dir", str(tmp_path / "shared")]) == 0
    gc.collect()
    assert len(recorded) == 4 and all(ref() is None for ref in recorded)
    # t of every monitor CSV and E of the first-order stability monitor
    assert sum(hits) == 5
    monkeypatch.setattr(ColumnText, "find", lambda self, values: None)
    assert main(args + ["--out-dir", str(tmp_path / "plain")]) == 0
    names = sorted(path.name for path in (tmp_path / "plain").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "shared").iterdir())
    assert len(names) == 13
    for name in names:
        shared, plain = ((tmp_path / sub / name).read_bytes() for sub in ("shared", "plain"))
        if name == "report.json":
            shared, plain = ({key: value for key, value in json.loads(text).items()
                              if key not in ("wall_time_s", "files")} for text in (shared, plain))
        assert shared == plain, name


def test_figure1_rho_sweep_smoke(tmp_path):
    out = str(tmp_path / "fig")
    code = main(["figure1", "--seed", "5", "--max-iter", "40", "--h-rk4", "1e-2",
                 "--h-symplectic", "2e-2", "--rho", "20", "--rho", "80",
                 "--window-lo", "0.2", "--window-hi", "1.9",
                 "--overlay-points", "51", "--out-dir", out])
    assert code == 0
    report = json.loads((tmp_path / "fig" / "report.json").read_text())
    assert sorted(path.name for path in (tmp_path / "fig").iterdir()) == sorted(
        [Path(path).name for path in report["files"].values()] + ["report.json"])
    assert len(report["files"]) == 14  # problem, 2 flows, 2 x 2 runs, 4 monitors, 3 tables
    assert [row["rho"] for row in report["discrepancies"]] == [20.0, 80.0]
    assert (tmp_path / "fig" / "aadmm_rho80.csv").exists()
    lo, hi = report["discrepancies"]
    assert lo["admm_vs_flow"] > hi["admm_vs_flow"]
    assert lo["aadmm_vs_flow"] > hi["aadmm_vs_flow"]


def test_figure1_deterministic_csvs(tmp_path):
    args = ["figure1", "--seed", "3", "--max-iter", "30", "--h-rk4", "1e-2",
            "--h-symplectic", "2e-2", "--window-lo", "0.2", "--window-hi", "0.58",
            "--overlay-points", "21"]
    for sub in ("fa", "fb"):
        assert main(args + ["--out-dir", str(tmp_path / sub)]) == 0
    for name in ("admm_rho50.csv", "aadmm_rho50.csv", "admm_flow.csv",
                 "aadmm_flow.csv", "overlay.csv", "problem.json"):
        assert (tmp_path / "fa" / name).read_bytes() == (tmp_path / "fb" / name).read_bytes()


def test_gen_run_and_figure1_share_the_paper_defaults(tmp_path):
    # one parameter table feeds every subcommand: gen draws figure1's problem,
    # and run's defaults are the penalty, damping, budget and x0 figure1 uses
    assert main(["gen", "--seed", "38", "--out", str(tmp_path / "gen.json")]) == 0
    assert main(["figure1", "--seed", "38", "--h-rk4", "1e-2", "--h-symplectic", "2e-2",
                 "--overlay-points", "21", "--out-dir", str(tmp_path / "fig")]) == 0
    assert (tmp_path / "gen.json").read_bytes() == (tmp_path / "fig" / "problem.json").read_bytes()
    params = json.loads((tmp_path / "fig" / "report.json").read_text())["params"]
    run = cli.build_parser().parse_args(["run", "--problem", "p.json", "--solver", "admm"])
    assert ([run.rho], run.r, run.max_iter, run.x0) == (
        params["rho"], params["r"], params["max_iter"], params["x0"])


def test_benchmark_workloads_restate_the_cli_defaults():
    # perfbench/workloads.py restates the paper's values and the grids they
    # imply; it is executed from its text, so nothing is written beside it
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    workloads = types.ModuleType("workloads")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), workloads.__dict__)
    fig = cli.FIGURE1
    paper = (fig["n"], fig["zero_eigs"], fig["eig_hi"], fig["cond_a"], fig["seed"])
    assert workloads.PAPER_SEED == fig["seed"]
    assert workloads.figure1_problem_args(fig["seed"]) == paper
    sweep = workloads.SWEEP
    assert workloads.sweep_problem_args(7) == (sweep["n"], sweep["zero_eigs"], fig["eig_hi"],
                                               fig["cond_a"], 7)
    for name in ("x0", "r"):
        assert sweep[name] == fig[name], name
    for table in (workloads.FIGURE1, workloads.CALLBACK):
        for name in ("x0", "rho", "r", "max_iter"):
            assert table[name] == fig[name], name
    # the grids of figure1 and of `run --solver admm_flow/aadmm_flow`, with defaults
    parser = cli.build_parser()
    figure1 = parser.parse_args(["figure1"])
    t_end = {accelerated: max(figure1.window_hi,
                              figure1.max_iter / cli.time_scale(fig["rho"], accelerated))
             for accelerated in (False, True)}
    common = {"rho": fig["rho"], "r": figure1.r, "max_iter": figure1.max_iter}
    plain = cli._driver("admm_flow", h=figure1.h_rk4, t_end=t_end[False], **common)[1]["config"]
    acc = cli._driver("aadmm_flow", h=figure1.h_symplectic, t0=figure1.t0, t_end=t_end[True],
                      **common)[1]["config"]
    assert (plain.n_steps, acc.n_steps) == (workloads.FIGURE1["rk4_steps"],
                                            workloads.FIGURE1["symplectic_steps"]) == (20000, 4242)
    run = parser.parse_args(["run", "--problem", "p.json", "--solver", "admm_flow"])
    callback = workloads.CALLBACK
    for solver, key in (("admm_flow", "rk4"), ("aadmm_flow", "symplectic")):
        _, kwargs = cli._driver(solver, rho=run.rho, r=run.r, max_iter=run.max_iter,
                                stop_tol=run.stop_tol, h=run.h, t0=run.t0, t_end=run.t_end)
        config = kwargs["config"]
        assert config == IntegratorConfig(**callback[key]), solver
        assert config.n_steps == callback[f"{key}_steps"]
    assert (callback["rk4_steps"], callback["symplectic_steps"]) == (6000, 4242)
