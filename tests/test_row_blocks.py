"""Products over the samples of a run go through ``problem._row_blocks``: the
blocking rule itself, agreement of every routed function with its one-shot
form, and the memory those functions may take on a long run, traced with
``tracemalloc`` (which sees numpy's buffers)."""

import tracemalloc

import numpy as np
import pytest

import admmflow as af
from admmflow import cli, problem as problem_module
from admmflow.flows import IntegratorConfig
from admmflow.problem import ROW_BLOCK, _a_sq_norms, _row_blocks, _values

from helpers import with_g

# the traced peak a routed function may take on a long run beyond its
# N-length outputs and intermediates (VECTORS of them): BLOCKS blocks of
# ROW_BLOCK rows of n floats, well under one copy of the run's samples
VECTORS = 12
BLOCKS = 4
# one X of figure1's RK4 run, 20,001 x 60 floats (9.6 MB): what a CLI flow
# command, or a flow run given x_star, holds less than
ONE_RUN_X = 20_001 * 60 * 8


@pytest.mark.parametrize("n", [0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1,
                               2 * ROW_BLOCK - 1, 3 * ROW_BLOCK + 147])
def test_row_blocks_cover_once_without_a_short_tail(n):
    blocks = _row_blocks(n)
    assert blocks[0].start == 0 and blocks[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    assert all(rows.step is None for rows in blocks)
    covered = np.concatenate([np.arange(n)[rows] for rows in blocks])
    assert np.array_equal(covered, np.arange(n))
    if len(blocks) > 1:  # only a sole block may be short
        assert min(rows.stop - rows.start for rows in blocks) >= ROW_BLOCK
    assert len(blocks) == max(n // ROW_BLOCK, 1)


def _runs(problem, x0, samples):
    """First- and second-order flow runs of ``samples`` samples each."""
    steps = samples - 1
    first = af.rk4_integrate(problem, x0, IntegratorConfig(h=1e-3, t0=0.0, t_end=steps * 1e-3))
    config = IntegratorConfig(h=1e-3, t0=1e-3, t_end=samples * 1e-3, r=10.0)
    second = af.aadmm_flow_integrate(problem, x0, config)
    assert len(first) == len(second) == samples
    return first, second


def _routed(problem, x0, first, second, x_star, strongly_convex):
    """Every routed function's output on the runs, by name."""
    out = {
        "values": _values(problem, first.X),
        "values_axs": _values(problem, first.X, first.X @ problem.A.T),
        "a_sq_norms": _a_sq_norms(problem, first.Xdot),
        "admm_stability": af.monitor_admm_stability(problem, first, x_star).value,
        "admm_rate": af.monitor_admm_rate(problem, first, x_star).value,
        "aadmm_stability": af.monitor_aadmm_stability(problem, second, x_star).value,
        "aadmm_rate": af.monitor_aadmm_rate(problem, second, x_star).value,
        "columns": np.column_stack([v for _, v in second._columns()]),
    }
    again = _runs(problem, x0, len(first))[1]  # its back-transform and H
    out.update(aadmm_flow_X=again.X, aadmm_flow_Xdot=again.Xdot, hamiltonian=again.hamiltonian)
    if strongly_convex:
        _, report = af.check_state_convergence(problem, second, x_star)
        out["state_convergence"] = np.array(list(report.values()), dtype=float)
    return out


@pytest.mark.parametrize("kind", ["zero", "dense"])
def test_routed_functions_match_their_one_shot_form(figure1_problem, figure1_x0, monkeypatch,
                                                    kind):
    # a (3 ROW_BLOCK + 147)-sample run: three blocks, the last with the
    # 147-row tail folded in; one block of every row is the one-shot form
    p = with_g(figure1_problem, kind)
    x_star, _ = af.optimal_value(p)
    first, second = _runs(p, figure1_x0, 3 * ROW_BLOCK + 147)
    blocked = _routed(p, figure1_x0, first, second, x_star, kind == "dense")
    monkeypatch.setattr(problem_module, "ROW_BLOCK", 10 * len(first))
    assert len(_row_blocks(len(first))) == 1
    one_shot = _routed(p, figure1_x0, first, second, x_star, kind == "dense")
    assert blocked.keys() == one_shot.keys()
    for name, values in blocked.items():
        np.testing.assert_allclose(values, one_shot[name], rtol=1e-14, atol=0, err_msg=name)


def _traced_peak(fn):
    """Bytes of the traced peak of ``fn()`` over what was live before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def long_runs(figure1_problem, figure1_x0):
    # the figure1 RK4 run's length: 20,001 samples of n = 60 (9.6 MB an array)
    return _runs(figure1_problem, figure1_x0, 20_001)


@pytest.mark.parametrize("name", ["admm_stability", "admm_rate", "aadmm_stability",
                                  "aadmm_rate", "values", "to_csv", "aadmm_flow", "rk4"])
def test_products_over_a_long_run_stay_in_blocks(figure1_problem, figure1_x0, long_runs,
                                                 tmp_path, name):
    p = figure1_problem
    first, second = long_runs
    x_star, _ = af.optimal_value(p)
    config = IntegratorConfig(h=1e-3, t0=1e-3, t_end=len(second) * 1e-3, r=10.0)
    rk4_config = IntegratorConfig(h=1e-3, t0=0.0, t_end=(len(first) - 1) * 1e-3)
    calls = {
        "admm_stability": lambda: af.monitor_admm_stability(p, first, x_star),
        "admm_rate": lambda: af.monitor_admm_rate(p, first, x_star),
        "aadmm_stability": lambda: af.monitor_aadmm_stability(p, second, x_star),
        "aadmm_rate": lambda: af.monitor_aadmm_rate(p, second, x_star),
        "values": lambda: _values(p, first.X),
        "to_csv": lambda: second.to_csv(tmp_path / "run.csv"),
        # its stored X and X' are outputs too; the back-transform is in blocks
        "aadmm_flow": lambda: af.aadmm_flow_integrate(p, figure1_x0, config),
        # so are its X and X'; V and the finiteness test are in blocks
        "rk4": lambda: af.rk4_integrate(p, figure1_x0, rk4_config),
    }
    n_samples = len(first)
    outputs = VECTORS * n_samples * 8
    if name in ("aadmm_flow", "rk4"):
        outputs += second.X.nbytes + second.Xdot.nbytes
    budget = outputs + BLOCKS * ROW_BLOCK * p.n * 8
    assert BLOCKS * ROW_BLOCK * p.n * 8 < first.X.nbytes / 4
    peak = _traced_peak(calls[name])
    assert peak <= budget, f"{name}: traced peak {peak} B exceeds {budget} B"


def _run_given_x_star(problem, x0, name):
    """A 20,001-sample run of the flow ``name`` given x*, and its traced peak."""
    x_star, _ = af.optimal_value(problem)
    samples = 20_001
    config = (IntegratorConfig(h=1e-3, t0=0.0, t_end=(samples - 1) * 1e-3) if name == "rk4"
              else IntegratorConfig(h=1e-3, t0=1e-3, t_end=samples * 1e-3, r=10.0))
    run = af.rk4_integrate if name == "rk4" else af.aadmm_flow_integrate
    traj = []
    peak = _traced_peak(lambda: traj.append(run(problem, x0, config, x_star=x_star)))
    assert len(traj[0]) == samples and traj[0].X is None
    return traj[0], peak


@pytest.mark.parametrize("name", ["rk4", "aadmm_flow"])
def test_a_run_with_terms_holds_less_than_one_x(figure1_problem, figure1_x0, long_runs, name):
    # the run stores no X or X' (a stored one takes two such arrays): its
    # blocks, its per-sample columns and the terms
    traj, peak = _run_given_x_star(figure1_problem, figure1_x0, name)
    assert len(traj) == len(long_runs[0])
    assert peak < ONE_RUN_X, f"{name}: traced peak {peak} B"


# what a flow run given x* may take beyond what it holds by design (its
# per-sample columns, two block buffers, two work arrays and its per-run
# factors): numpy's ufunc buffers and vectors of n floats. Fixed from one
# measurement on figure1's draw, 86 kB for RK4 and 78 kB for symplectic
# Euler; below one ROW_BLOCK x n array (491.5 kB at n = 60), which any chunk
# temporary takes
SLACK = 128 * 1024


@pytest.mark.parametrize("name", ["rk4", "aadmm_flow"])
def test_a_run_given_x_star_makes_no_chunk_temporary(figure1_problem, figure1_x0, long_runs,
                                                     name):
    # every product over a chunk or a block is written into the run's own
    # arrays (out=): the map from mode coordinates, the finiteness test and
    # the fold's products and norms. v_gap and H are formed after the work
    # arrays are let go, so they are not counted; the problem's modes are
    # built before the trace (by long_runs)
    p = figure1_problem
    traj, peak = _run_given_x_star(p, figure1_x0, name)
    samples = len(traj)
    columns = traj.t.nbytes + traj.V.nbytes + samples + sum(v.nbytes for v in traj.terms.values())
    rows = max(b.stop - b.start for b in _row_blocks(samples))
    buffers = 2 * rows * p.n * 8 + 2 * rows * max(p.n, p.m) * 8
    if name == "rk4":  # R^j - 1 for the rows j of a chunk
        factors = ROW_BLOCK * p.n * 8
    else:  # the damping weights and the rate term's e^{eta/2}, float64 arrays
        factors = (samples - 1) * 8 + samples * 8
    budget = columns + buffers + factors
    assert SLACK < ROW_BLOCK * p.n * 8
    assert peak <= budget + SLACK, f"{name}: traced peak {peak} B exceeds {budget + SLACK} B"


def _recording_runs(monkeypatch):
    """The length of each run the CLI writes, and whether it stored its X."""
    stored = []
    run_to_csv = cli._run_to_csv

    def record(*args, **kwargs):
        traj = run_to_csv(*args, **kwargs)
        stored.append((len(traj), traj.X is not None))
        return traj

    monkeypatch.setattr(cli, "_run_to_csv", record)
    return stored


def test_figure1_holds_its_trajectories_and_little_more(tmp_path, monkeypatch):
    # figure1's flow runs, given x_star, fold their samples one block at a time:
    # its traced peak stays below one X of its RK4 run (20,001 x 60)
    stored = _recording_runs(monkeypatch)
    peak = _traced_peak(lambda: cli.main(["figure1", "--seed", "38",
                                          "--out-dir", str(tmp_path)]))
    assert len(stored) == 4 and max(samples for samples, _ in stored) == 20_001
    assert stored[:2] == [(20_001, False), (4_243, False)]  # the flows, run first
    assert peak < ONE_RUN_X, f"traced peak {peak} B exceeds {ONE_RUN_X} B"


def test_run_flows_hold_less_than_one_x(tmp_path, monkeypatch):
    # run's flows, on figure1's draw and RK4 grid, the same
    assert cli.main(["gen", "--seed", "38", "--out", str(tmp_path / "p.json")]) == 0
    stored = _recording_runs(monkeypatch)
    peak = _traced_peak(lambda: cli.main([
        "run", "--problem", str(tmp_path / "p.json"), "--solver", "admm_flow",
        "--solver", "aadmm_flow", "--t-end", "20", "--out-dir", str(tmp_path)]))
    assert stored == [(20_001, False), (2_000, False)]
    assert peak < ONE_RUN_X, f"traced peak {peak} B exceeds {ONE_RUN_X} B"
