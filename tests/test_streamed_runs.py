"""Flow runs that hand their samples to ``terms`` (as every CLI flow run
does) in place of storing X and X': their CSVs, monitors and divergence
reports are byte for byte those of the stored run."""

import numpy as np
import pytest

import admmflow as af
from admmflow import cli
from admmflow.flows import IntegratorConfig

from helpers import as_callbacks, with_g

MONITORS = {"admm_flow": {"stability": af.monitor_admm_stability, "rate": af.monitor_admm_rate},
            "aadmm_flow": {"stability": af.monitor_aadmm_stability,
                           "rate": af.monitor_aadmm_rate}}
FLOWS = {"admm_flow": af.rk4_integrate, "aadmm_flow": af.aadmm_flow_integrate}


def _stored_files(problem, x0, configs, x_star, v_star, out):
    """The CSVs of stored runs of both flows, and of their monitors, in ``out``."""
    for name, config in configs.items():
        traj = FLOWS[name](problem, x0, config, v_star=v_star)
        assert traj.X is not None and traj.terms is None
        traj.to_csv(out / f"{name}.csv")
        for kind, monitor in MONITORS[name].items():
            af.write_monitor_csv(monitor(problem, traj, x_star), out / f"monitor_{name}_{kind}.csv")


def _streamed_files(problem, x0, configs, x_star, v_star, out):
    """The same files from runs that hand their blocks to ``flow_row_terms``."""
    for name, config in configs.items():
        terms = af.flow_row_terms(problem, config, x_star)
        traj = FLOWS[name](problem, x0, config, v_star=v_star, terms=terms)
        assert traj.X is None and traj.Xdot is None and len(traj.terms) == len(traj)
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


def _diverged(run, problem, x0, config, terms=None):
    with pytest.raises(af.DivergenceError) as err:
        run(problem, x0, config, v_star=0.0, terms=terms)
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
    streamed = _diverged(run, problem, figure1_x0, config,
                         af.flow_row_terms(problem, config, np.zeros(problem.n)))
    assert streamed.t_last == stored.t_last
    assert len(streamed.trajectory) == len(stored.trajectory) > 1
    note = f"divergence near t={stored.t_last:.6g}"
    with np.errstate(over="ignore"):  # the norm of a huge finite row of X is inf
        stored.trajectory.to_csv(tmp_path / "stored.csv", truncation_note=note)
    streamed.trajectory.to_csv(tmp_path / "streamed.csv", truncation_note=note)
    assert (tmp_path / "stored.csv").read_bytes() == (tmp_path / "streamed.csv").read_bytes()


def test_figure1_divergence_files_are_the_stored_run(figure1_problem, figure1_x0, tmp_path,
                                                     capsys):
    assert cli.main(["figure1", "--h-rk4", "0.56", "--window-hi", "1679",
                     "--out-dir", str(tmp_path)]) == cli.EXIT_DIVERGENCE
    stored = _diverged(af.rk4_integrate, figure1_problem, figure1_x0, DIVERGING["admm_flow"])
    assert f"diverged after t = {stored.t_last:.6g}" in capsys.readouterr().err
    with np.errstate(over="ignore"):
        stored.trajectory.to_csv(tmp_path / "stored.csv",
                                 truncation_note=f"divergence near t={stored.t_last:.6g}")
    assert (tmp_path / "admm_flow.csv").read_bytes() == (tmp_path / "stored.csv").read_bytes()


def test_terms_must_match_the_grid(figure1_problem, figure1_x0):
    config = IntegratorConfig(h=0.1, t0=0.0, t_end=1.0)
    other = af.flow_row_terms(figure1_problem, IntegratorConfig(h=0.1, t0=0.0, t_end=2.0))
    with pytest.raises(ValueError, match="terms hold 21 samples; the grid has 11"):
        af.rk4_integrate(figure1_problem, figure1_x0, config, terms=other)


def test_monitors_of_a_streamed_run_need_its_x_star(figure1_problem, figure1_x0):
    # the monitors' terms are taken at one x*; at another they cannot be
    # formed without the X the run did not store
    config = IntegratorConfig(h=1e-2, t0=0.0, t_end=1.0)
    x_star, v_star = af.optimal_value(figure1_problem)
    traj = af.rk4_integrate(figure1_problem, figure1_x0, config, v_star=v_star,
                            terms=af.flow_row_terms(figure1_problem, config, x_star))
    af.monitor_admm_rate(figure1_problem, traj, x_star.copy())
    with pytest.raises(ValueError, match="displacement row term taken at this x_star"):
        af.monitor_admm_rate(figure1_problem, traj, x_star + 1.0)
    plain = af.rk4_integrate(figure1_problem, figure1_x0, config, v_star=v_star,
                             terms=af.flow_row_terms(figure1_problem, config))
    with pytest.raises(ValueError, match="kinetic row term"):
        af.monitor_admm_stability(figure1_problem, plain, x_star)
    with pytest.raises(ValueError, match="needs stored state and velocity samples"):
        af.check_state_convergence(figure1_problem, traj, x_star)
