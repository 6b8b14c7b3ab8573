"""Flow runs given ``x_star`` (as every CLI flow run is), which store no X
and X' and fold the terms their CSV and monitors read: their CSVs,
monitors and divergence reports are byte for byte those of the stored run,
and every run forms each per-sample term once."""

import numpy as np
import pytest

import admmflow as af
from admmflow import analysis, cli
from admmflow.flows import IntegratorConfig
from admmflow.problem import ROW_BLOCK, _map_rows, _row_norms, _values

from helpers import as_callbacks, random_problem, with_g

MONITORS = {"admm_flow": {"stability": af.monitor_admm_stability, "rate": af.monitor_admm_rate},
            "aadmm_flow": {"stability": af.monitor_aadmm_stability,
                           "rate": af.monitor_aadmm_rate}}
FLOWS = {"admm_flow": af.rk4_integrate, "aadmm_flow": af.aadmm_flow_integrate}


def _stored_files(problem, x0, configs, x_star, v_star, out):
    """The CSVs of stored runs of both flows, and of their monitors, in ``out``."""
    for name, config in configs.items():
        traj = FLOWS[name](problem, x0, config, v_star=v_star)
        assert traj.X is not None and "x_star" not in traj.meta
        traj.to_csv(out / f"{name}.csv")
        for kind, monitor in MONITORS[name].items():
            af.write_monitor_csv(monitor(problem, traj, x_star), out / f"monitor_{name}_{kind}.csv")


def _streamed_files(problem, x0, configs, x_star, v_star, out):
    """The same files from runs given ``x_star``."""
    for name, config in configs.items():
        traj = FLOWS[name](problem, x0, config, v_star=v_star, x_star=x_star)
        assert traj.X is None and traj.Xdot is None
        assert all(len(values) == len(traj) for values in traj.terms.values())
        traj.to_csv(out / f"{name}.csv")
        for kind, monitor in MONITORS[name].items():
            af.write_monitor_csv(monitor(problem, traj, x_star), out / f"monitor_{name}_{kind}.csv")


def _same_files(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def _dirs(tmp_path, *names):
    for name in names:
        (tmp_path / name).mkdir()
    return [tmp_path / name for name in names]


def test_figure1_flow_files_are_the_stored_runs(figure1_problem, figure1_x0, tmp_path):
    # figure1's flow grids: RK4 on [0, 20] (20,001 samples, its last block
    # 1,569 rows), symplectic Euler on [0.01, 300 / sqrt(50)]
    cli_dir, lib_dir = _dirs(tmp_path, "cli", "lib")
    assert cli.main(["figure1", "--seed", "38", "--out-dir", str(cli_dir)]) == 0
    configs = {"admm_flow": IntegratorConfig(h=1e-3, t0=0.0, t_end=20.0),
               "aadmm_flow": IntegratorConfig(h=1e-2, t0=1e-2, t_end=300 / np.sqrt(50.0),
                                              r=10.0)}
    x_star, v_star = af.optimal_value(figure1_problem)
    _stored_files(figure1_problem, figure1_x0, configs, x_star, v_star, lib_dir)
    for path in lib_dir.iterdir():
        assert (cli_dir / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("draw", ["dense", "callback"])
def test_streamed_files_are_the_stored_runs(figure1_problem, figure1_x0, tmp_path, draw):
    # the runs span blocks: 3,001 samples (two blocks, the last folded) and 2,000
    problem = (with_g(figure1_problem, "dense") if draw == "dense"
               else as_callbacks(figure1_problem))
    x_star, v_star = af.optimal_value(with_g(figure1_problem, "dense") if draw == "dense"
                                      else figure1_problem)
    configs = {"admm_flow": IntegratorConfig(h=1e-3, t0=0.0, t_end=3.0),
               "aadmm_flow": IntegratorConfig(h=1e-2, t0=1e-2, t_end=20.0, r=10.0)}
    stored, streamed = _dirs(tmp_path, "stored", "streamed")
    _stored_files(problem, figure1_x0, configs, x_star, v_star, stored)
    _streamed_files(problem, figure1_x0, configs, x_star, v_star, streamed)
    _same_files(stored, streamed)


def test_run_flow_files_are_the_stored_runs(figure1_problem, figure1_x0, tmp_path):
    # run on a saved dense-g problem: its flow CSVs are the library's
    problem = with_g(figure1_problem, "dense")
    af.save_problem(problem, tmp_path / "p.json")
    cli_dir, lib_dir = _dirs(tmp_path, "cli", "lib")
    assert cli.main(["run", "--problem", str(tmp_path / "p.json"), "--solver", "admm_flow",
                     "--solver", "aadmm_flow", "--t-end", "3", "--out-dir", str(cli_dir)]) == 0
    v_star = af.optimal_value(problem)[1]
    af.rk4_integrate(problem, figure1_x0, IntegratorConfig(h=1e-3, t0=0.0, t_end=3.0),
                     v_star=v_star).to_csv(lib_dir / "admm_flow.csv")
    af.aadmm_flow_integrate(problem, figure1_x0,
                            IntegratorConfig(h=1e-2, t0=1e-2, t_end=3.0, r=10.0),
                            v_star=v_star).to_csv(lib_dir / "aadmm_flow.csv")
    _same_files(cli_dir, lib_dir)


def _diverged(run, problem, x0, config, x_star=None):
    with pytest.raises(af.DivergenceError) as err:
        run(problem, x0, config, v_star=0.0, x_star=x_star)
    return err.value


# steps past each flow's stability limit on the figure1 draw: RK4 diverges at
# sample 2,767 of 3,000, inside its last (folded) block; symplectic Euler at
# sample 735, inside its first
DIVERGING = {"admm_flow": IntegratorConfig(h=0.56, t0=0.0, t_end=1679.0),
             "aadmm_flow": IntegratorConfig(h=0.9, t0=0.9, t_end=3000.0, r=10.0)}


@pytest.mark.parametrize("draw", ["figure1", "callback"])
@pytest.mark.parametrize("name", sorted(DIVERGING))
def test_a_streamed_divergence_is_the_stored_one(figure1_problem, figure1_x0, tmp_path,
                                                 draw, name):
    problem = figure1_problem if draw == "figure1" else as_callbacks(figure1_problem)
    config, run = DIVERGING[name], FLOWS[name]
    stored = _diverged(run, problem, figure1_x0, config)
    streamed = _diverged(run, problem, figure1_x0, config, np.zeros(problem.n))
    assert streamed.t_last == stored.t_last
    assert len(streamed.trajectory) == len(stored.trajectory) > 1
    note = f"divergence near t={stored.t_last:.6g}"
    stored.trajectory.to_csv(tmp_path / "stored.csv", truncation_note=note)
    streamed.trajectory.to_csv(tmp_path / "streamed.csv", truncation_note=note)
    assert (tmp_path / "stored.csv").read_bytes() == (tmp_path / "streamed.csv").read_bytes()


def test_figure1_divergence_files_are_the_stored_run(figure1_problem, figure1_x0, tmp_path,
                                                     capsys):
    assert cli.main(["figure1", "--h-rk4", "0.56", "--window-hi", "1679",
                     "--out-dir", str(tmp_path)]) == cli.EXIT_DIVERGENCE
    stored = _diverged(af.rk4_integrate, figure1_problem, figure1_x0, DIVERGING["admm_flow"])
    assert f"diverged after t = {stored.t_last:.6g}" in capsys.readouterr().err
    stored.trajectory.to_csv(tmp_path / "stored.csv",
                             truncation_note=f"divergence near t={stored.t_last:.6g}")
    assert (tmp_path / "admm_flow.csv").read_bytes() == (tmp_path / "stored.csv").read_bytes()


def test_a_diverged_stored_run_writes_its_csv_without_a_warning(figure1_problem, figure1_x0,
                                                                 tmp_path):
    # its last finite rows of X' have norms that overflow (formed afresh,
    # they warn); the norms are folded in the run's errstate, so to_csv
    # (under the suite's RuntimeWarning = error, with no errstate of its
    # own) reads them without a warning
    err = _diverged(af.rk4_integrate, figure1_problem, figure1_x0, DIVERGING["admm_flow"])
    assert np.isfinite(err.trajectory.Xdot).all()
    assert np.isinf(err.trajectory.terms["xdot_norm"]).any()
    with pytest.warns(RuntimeWarning, match="overflow"):
        _row_norms(err.trajectory.Xdot)
    err.trajectory.to_csv(tmp_path / "run.csv", truncation_note="diverged")


@pytest.mark.parametrize("name", sorted(FLOWS))
@pytest.mark.parametrize("x_star, fault", [
    (np.zeros(3), r"x_star must have shape \(60,\), got \(3,\)"),
    (np.full((1, 60), 0.0), r"x_star must have shape \(60,\), got \(1, 60\)"),
    (np.where(np.arange(60) == 7, np.nan, 0.0), r"x_star must be finite; x_star\[7\] is nan"),
    (np.where(np.arange(60) == 0, -np.inf, 0.0), r"x_star must be finite; x_star\[0\] is -inf"),
], ids=["short", "matrix", "nan", "inf"])
def test_x_star_is_refused_by_name(figure1_problem, figure1_x0, monkeypatch, name, x_star,
                                   fault):
    # as x0 is: before the run starts, so no sample is formed
    config = IntegratorConfig(h=0.1, t0=0.1, t_end=1.0, r=10.0)
    monkeypatch.setattr(af.flows._Samples, "fold", None)
    with pytest.raises(ValueError, match=fault):
        FLOWS[name](figure1_problem, figure1_x0, config, x_star=x_star)


def test_monitors_of_a_streamed_run_need_its_x_star(figure1_problem, figure1_x0):
    # kinetic ||A X'||^2 does not depend on x*: the stability monitors read
    # the carried one at any x*. The rate monitors' terms are taken at the
    # run's x*; at another they cannot be formed without the X the run did
    # not store
    x_star, v_star = af.optimal_value(figure1_problem)
    other = x_star + 1.0
    configs = {"admm_flow": IntegratorConfig(h=1e-2, t0=0.0, t_end=1.0),
               "aadmm_flow": IntegratorConfig(h=1e-2, t0=1e-2, t_end=1.0, r=10.0)}
    faults = {"admm_flow": "displacement", "aadmm_flow": "rate_displacement"}
    for name, config in configs.items():
        stored = FLOWS[name](figure1_problem, figure1_x0, config, v_star=v_star)
        traj = FLOWS[name](figure1_problem, figure1_x0, config, v_star=v_star, x_star=x_star)
        stability, rate = MONITORS[name]["stability"], MONITORS[name]["rate"]
        for at in (x_star, other):
            assert (stability(figure1_problem, traj, at).tobytes()
                    == stability(figure1_problem, stored, at).tobytes())
        assert (rate(figure1_problem, traj, x_star.copy()).tobytes()
                == rate(figure1_problem, stored, x_star).tobytes())
        with pytest.raises(ValueError, match=f"its {faults[name]} row term taken at this x_star"):
            rate(figure1_problem, traj, other)
        with pytest.raises(ValueError, match="needs stored state and velocity samples"):
            af.check_state_convergence(figure1_problem, traj, x_star)


@pytest.mark.parametrize("stored", [False, True], ids=["x_star", "stored"])
def test_a_second_order_run_forms_each_a_product_once(figure1_problem, figure1_x0, monkeypatch,
                                                      stored):
    # a 3-block grid: per block one kinetic ||A X'||^2, which H and both
    # monitors read, and, given x*, one rate displacement the rate monitor
    # reads; a stored run's rate monitor forms its displacement over the
    # stored rows, once per block too
    calls = []
    a_sq_norms = analysis._a_sq_norms

    def counted(problem, ys, **work):  # the fold's workspace, passed through
        calls.append(len(ys))
        return a_sq_norms(problem, ys, **work)

    monkeypatch.setattr(analysis, "_a_sq_norms", counted)
    monkeypatch.setattr(af.flows, "_a_sq_norms", counted, raising=False)
    x_star, v_star = af.optimal_value(figure1_problem)
    samples = 3 * ROW_BLOCK + 147
    config = IntegratorConfig(h=1e-2, t0=1e-2, t_end=samples * 1e-2, r=10.0)
    traj = af.aadmm_flow_integrate(figure1_problem, figure1_x0, config, v_star=v_star,
                                   x_star=None if stored else x_star)
    assert len(traj) == samples and (traj.X is None) != stored
    af.monitor_aadmm_stability(figure1_problem, traj, x_star)
    af.monitor_aadmm_rate(figure1_problem, traj, x_star)
    blocks = [ROW_BLOCK, ROW_BLOCK, ROW_BLOCK + 147]
    assert sorted(calls) == sorted(blocks + blocks)


@pytest.mark.parametrize("draw", ["figure1", "dense", "tall", "callback"])
@pytest.mark.parametrize("name", sorted(FLOWS))
def test_folded_columns_are_their_helpers_without_a_workspace(figure1_problem, figure1_x0, draw,
                                                              name):
    # a run's fold writes each block's products into the run's two work
    # arrays; every column it folds, stored or given x*, is bit for bit its
    # helper formed without them over the same rows, and each norm is
    # numpy's own (no einsum standing in for it). 3 ROW_BLOCK + 147 samples:
    # three blocks, the 147-row tail folded into the last; "tall" has m > n
    problem = figure1_problem if draw == "figure1" else with_g(figure1_problem, "dense")
    x0 = figure1_x0
    if draw == "tall":
        problem, x0 = random_problem(5, 12, 8)[0], np.full(12, 5.0)
    x_star, v_star = af.optimal_value(problem)
    if draw == "callback":
        problem = as_callbacks(problem)
    samples = 3 * ROW_BLOCK + 147
    config = (IntegratorConfig(h=1e-3, t0=0.0, t_end=(samples - 1) * 1e-3) if name == "admm_flow"
              else IntegratorConfig(h=1e-2, t0=1e-2, t_end=samples * 1e-2, r=10.0))
    stored = FLOWS[name](problem, x0, config, v_star=v_star)
    streamed = FLOWS[name](problem, x0, config, v_star=v_star, x_star=x_star)
    X, Xdot = stored.X, stored.Xdot
    assert len(X) == samples
    want = {"V": _values(problem, X), "x_norm": _row_norms(X), "xdot_norm": _row_norms(Xdot)}
    for term, fn in analysis._monitor_terms(problem, stored.t, x_star,
                                            stored.meta.get("r")).items():
        want[term] = _map_rows(lambda rows: fn(rows, X[rows], Xdot[rows]), samples)
    assert np.array_equal(want["x_norm"], np.linalg.norm(X, axis=1))
    assert np.array_equal(want["xdot_norm"], np.linalg.norm(Xdot, axis=1))
    assert {"V", *streamed.terms} == set(want)
    for traj in (stored, streamed):
        for key, values in {"V": traj.V, **traj.terms}.items():
            assert np.array_equal(values, want[key]), key
