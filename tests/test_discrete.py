import dataclasses
import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import admmflow as af
from admmflow import discrete
from admmflow.cli import main
from admmflow.discrete import _operators, momentum_coefficient
from admmflow.exceptions import DivergenceError, NumericalError, UnsupportedFunctionError
from admmflow.flows import IntegratorConfig

from helpers import (GradCounter, as_callbacks, cg_minimize, decimal_admm, decimal_optimum,
                     with_g)


def test_admm_step_hand_values(one_d_problem):
    # rho=1, (x,z,u)=(1,1,0): x+ from 2x = 1, then z+ = x+, u+ = 0
    state = af.AdmmState(
        x=np.array([1.0]), z=np.array([1.0]), u=np.array([0.0]), k=0, rho=1.0
    )
    new = af.admm_step(one_d_problem, state)
    assert new.x == pytest.approx(np.array([0.5]))
    assert new.z == pytest.approx(np.array([0.5]))
    assert new.u == pytest.approx(np.array([0.0]))
    assert new.k == 1


def kkt_fixed_point(problem, rho):
    x_star, _ = af.optimal_value(problem)
    z_star = problem.A @ x_star
    u_star = problem.g.grad(z_star) / rho
    return x_star, z_star, u_star


@pytest.mark.parametrize("rho", [0.5, 1.0, 7.0])
def test_admm_fixed_point_invariant(pd_2d_problem, rho):
    x_star, z_star, u_star = kkt_fixed_point(pd_2d_problem, rho)
    state = af.AdmmState(x=x_star, z=z_star, u=u_star, k=0, rho=rho)
    new = af.admm_step(pd_2d_problem, state)
    scale = 1.0 + np.linalg.norm(x_star)
    assert np.linalg.norm(new.x - x_star) <= 1e-9 * scale
    assert np.linalg.norm(new.z - z_star) <= 1e-9 * scale
    assert np.linalg.norm(new.u - u_star) <= 1e-9 * scale


@pytest.mark.parametrize("rho", [1.0, 5.0])
def test_aadmm_fixed_point_invariant(pd_2d_problem, rho):
    x_star, z_star, u_star = kkt_fixed_point(pd_2d_problem, rho)
    state = af.AccAdmmState(
        x=x_star, z=z_star, u=u_star,
        z_hat=z_star.copy(), u_hat=u_star.copy(),
        k=3, rho=rho, r=4.0,
    )
    new = af.aadmm_step(pd_2d_problem, state)
    scale = 1.0 + np.linalg.norm(x_star)
    for got, want in [(new.x, x_star), (new.z, z_star), (new.u, u_star),
                      (new.z_hat, z_star), (new.u_hat, u_star)]:
        assert np.linalg.norm(got - want) <= 1e-9 * scale


def test_admm_figure1_decrease_and_inner_solver_oracle(figure1_problem, figure1_x0):
    rho = 50.0
    closed = af.run_admm(figure1_problem, figure1_x0, rho=rho, max_iter=10)
    assert np.all(np.diff(closed.v_gap[1:]) < 0)  # strictly decreasing after k=1

    # independent oracle: same iteration with every subproblem minimized by a
    # generic gradient-based inner solver (tolerance 1e-12 relative)
    oracle = af.run_admm(
        as_callbacks(figure1_problem), figure1_x0, rho=rho, max_iter=10,
        v_star=0.0, inner_solver=cg_minimize,
    )
    assert np.allclose(oracle.X, closed.X, rtol=1e-7, atol=1e-7)
    assert np.allclose(oracle.v_gap, closed.v_gap, rtol=1e-6, atol=1e-8)


def test_momentum_coefficient_values():
    assert momentum_coefficient(0, 3.0) == 0.0
    assert momentum_coefficient(3, 3.0) == pytest.approx(0.5)
    assert momentum_coefficient(7, 10.0) == pytest.approx(7.0 / 17.0)


def test_aadmm_first_step_equals_admm(pd_2d_problem):
    x0 = np.array([2.0, -1.0])
    admm0 = af.initial_admm_state(pd_2d_problem, x0, rho=2.0)
    acc0 = af.initial_aadmm_state(pd_2d_problem, x0, rho=2.0, r=3.0)
    a1 = af.admm_step(pd_2d_problem, admm0)
    b1 = af.aadmm_step(pd_2d_problem, acc0)
    assert np.array_equal(a1.x, b1.x)
    assert np.array_equal(a1.z, b1.z)
    assert np.array_equal(a1.u, b1.u)
    # gamma_1 = 0: the extrapolated copies coincide with the new iterate
    assert np.array_equal(b1.z_hat, b1.z)
    assert np.array_equal(b1.u_hat, b1.u)


def test_aadmm_forced_zero_momentum_matches_admm(figure1_problem, figure1_x0):
    # resetting the extrapolated copies to (z, u) before each step removes the
    # momentum, leaving plain ADMM iterates
    rho = 20.0
    a = af.initial_admm_state(figure1_problem, figure1_x0, rho)
    b = af.initial_aadmm_state(figure1_problem, figure1_x0, rho, r=5.0)
    for _ in range(20):
        a = af.admm_step(figure1_problem, a)
        b = dataclasses.replace(b, z_hat=b.z, u_hat=b.u)
        b = af.aadmm_step(figure1_problem, b)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.u, b.u)


def test_aadmm_rejects_small_r(pd_2d_problem):
    x0 = np.zeros(2)
    with pytest.raises(ValueError):
        af.initial_aadmm_state(pd_2d_problem, x0, rho=1.0, r=2.9)
    with pytest.raises(ValueError):
        af.run_aadmm(pd_2d_problem, x0, rho=1.0, r=2.0, max_iter=5)
    with pytest.raises(ValueError, match="r must be >= 3"):
        af.run_aadmm(pd_2d_problem, x0, rho=1.0, r=None, max_iter=5)
    # the state itself owns the check, also when built directly
    for r in (2.9, np.nan, np.inf, None):
        with pytest.raises(ValueError, match="r must be >= 3"):
            af.AccAdmmState(x=x0, z=x0, u=x0, k=0, rho=1.0, z_hat=x0, u_hat=x0, r=r)


def test_run_admm_sample_count(one_d_problem):
    traj = af.run_admm(one_d_problem, np.array([1.0]), rho=1.0, max_iter=5, stop_tol=0.0)
    assert len(traj) == 6
    assert np.array_equal(traj.k, np.arange(6))


def test_run_admm_hand_unrolled_recursion(one_d_problem):
    # z_k = x_k, u_k = 0 throughout, so x_{k+1} = x_k / 2
    traj = af.run_admm(one_d_problem, np.array([1.0]), rho=1.0, max_iter=5)
    expected_x = 0.5 ** np.arange(6)
    assert np.allclose(traj.X[:, 0], expected_x, rtol=1e-14)
    assert np.allclose(traj.v_gap, 0.5 * 0.25 ** np.arange(6), rtol=1e-12)
    assert np.allclose(traj.primal_residual, 0.0, atol=1e-15)
    assert np.allclose(traj.t, np.arange(6) / 1.0)


def test_run_admm_time_scale(figure1_problem, figure1_x0):
    traj = af.run_admm(figure1_problem, figure1_x0, rho=50.0, max_iter=4)
    assert np.allclose(traj.t, np.arange(5) / 50.0)
    acc = af.run_aadmm(figure1_problem, figure1_x0, rho=50.0, r=10.0, max_iter=4)
    assert np.allclose(acc.t, np.arange(5) / np.sqrt(50.0))


def test_run_admm_stop_tol(one_d_problem):
    # residual after step k is |z_k - z_{k-1}| = 2^{-k}; 0.3 stops at k = 2
    traj = af.run_admm(one_d_problem, np.array([1.0]), rho=1.0, max_iter=50, stop_tol=0.3)
    assert traj.meta["stopped_early"]
    assert traj.k[-1] == 2


def test_run_aadmm_beats_admm_at_200(figure1_problem, figure1_x0):
    admm = af.run_admm(figure1_problem, figure1_x0, rho=50.0, max_iter=200)
    aadmm = af.run_aadmm(figure1_problem, figure1_x0, rho=50.0, r=10.0, max_iter=200)
    assert aadmm.v_gap[-1] < admm.v_gap[-1]


def test_discrete_one_over_k_rate(figure1_problem, figure1_x0):
    # fit C on the first half (k >= 10), check the bound continues to hold
    traj = af.run_admm(figure1_problem, figure1_x0, rho=50.0, max_iter=300)
    assert np.all(np.diff(traj.v_gap) < 0)  # monotone gap curve end to end
    k = traj.k.astype(float)
    scaled = k[10:] * traj.v_gap[10:]
    C = np.max(scaled[: 140])
    assert np.max(scaled[140:]) <= 1.1 * C


def test_subproblem_residual_tolerance(figure1_problem):
    rho = 200.0
    S_x, s_x, S_z, s_z = ops = _operators(figure1_problem, rho)
    assert all(a is b for a, b in zip(_operators(figure1_problem, rho), ops))
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = 10.0 * rng.standard_normal(figure1_problem.m)
        x = S_x @ v - s_x
        A = figure1_problem.A
        rhs = rho * (A.T @ v) - figure1_problem.f.q
        h_x = figure1_problem.f.M @ x + rho * (A.T @ (A @ x))  # H_x x, with A^T A unformed
        assert np.linalg.norm(h_x - rhs) <= 1e-10 * (1.0 + np.linalg.norm(rhs))
        w = 10.0 * rng.standard_normal(figure1_problem.m)
        z = S_z @ w - s_z
        rhs_z = rho * w - figure1_problem.g.q
        Hz = figure1_problem.g.M + rho * np.eye(figure1_problem.m)
        assert np.linalg.norm(Hz @ z - rhs_z) <= 1e-10 * (1.0 + np.linalg.norm(rhs_z))


def test_callbacks_require_inner_solver(one_d_problem):
    f = af.CallbackFunction(lambda x: 0.5 * float(x @ x), lambda x: x, 1)
    p = af.SplitProblem(f, af.QuadraticFunction.zero(1), [[1.0]])
    state = af.initial_admm_state(p, np.array([1.0]), rho=1.0)
    with pytest.raises(UnsupportedFunctionError):
        af.admm_step(p, state)
    # a run is refused before sample 0, so no callback is called
    calls = {}
    with pytest.raises(UnsupportedFunctionError, match="pass inner_solver"):
        af.run_admm(as_callbacks(one_d_problem, calls), [1.0], rho=1.0, max_iter=3, v_star=0.0)
    assert not calls
    new = af.admm_step(p, state, inner_solver=cg_minimize)
    ref = af.admm_step(one_d_problem, af.initial_admm_state(one_d_problem, np.array([1.0]), 1.0))
    assert np.allclose(new.x, ref.x, atol=1e-12)


def test_run_solver_dispatch(one_d_problem):
    x0 = np.array([1.0])
    plain = af.run_admm(one_d_problem, x0, rho=1.0, max_iter=3)
    assert plain.meta["method"] == "admm"
    assert "r" not in plain.meta
    acc = af.run_aadmm(one_d_problem, x0, rho=1.0, r=3.0, max_iter=3)
    assert acc.meta["method"] == "aadmm"
    assert acc.meta["r"] == 3.0


@pytest.mark.parametrize("r, bad", [(None, np.nan), (3.0, np.nan), (None, np.inf), (3.0, np.inf)],
                         ids=["None", "3.0", "None-inf", "3.0-inf"])
def test_nan_inner_solver_raises_divergence(one_d_problem, r, bad):
    # the inner solver returns NaN (or inf) from its third call, i.e. in the
    # second sweep: samples k = 0, 1 are finite and the run stops at t = 1 * delta
    calls = []

    def failing(fun, grad, x0):
        calls.append(1)
        return np.full_like(x0, bad) if len(calls) >= 3 else cg_minimize(fun, grad, x0)

    p = as_callbacks(one_d_problem)
    rho = 4.0
    with pytest.raises(DivergenceError) as err:
        if r is None:
            af.run_admm(p, np.array([1.0]), rho=rho, max_iter=10, v_star=0.0,
                        inner_solver=failing)
        else:
            af.run_aadmm(p, np.array([1.0]), rho=rho, r=r, max_iter=10, v_star=0.0,
                         inner_solver=failing)
    delta = 1.0 / rho if r is None else 1.0 / np.sqrt(rho)
    assert err.value.t_last == pytest.approx(delta)
    partial = err.value.trajectory
    assert np.array_equal(partial.k, [0, 1])
    assert np.all(np.isfinite(partial.X)) and np.all(np.isfinite(partial.v_gap))


def test_run_over_max_steps_is_refused_before_it_allocates(one_d_problem):
    # every iterate is stored, so a run is bounded as a flow grid is: MAX_STEPS
    # + 1 iterations (five 8 MB columns at n = 1) are refused by name before
    # any column is allocated
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"max_iter must be in \[1, MAX_STEPS = 1000000\]"):
            af.run_admm(one_d_problem, [1.0], rho=1.0, max_iter=af.flows.MAX_STEPS + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("run", ["admm", "aadmm"])
@pytest.mark.parametrize("budget, fault", [
    ({"max_iter": 2.5}, r"max_iter must be an integer, got 2\.5"),
    ({"max_iter": 3.0}, r"max_iter must be an integer, got 3\.0"),
    ({"max_iter": True}, r"max_iter must be an integer, got True"),
    ({"max_iter": 3, "stop_tol": np.nan}, r"stop_tol must be finite, got nan"),
    ({"max_iter": 3, "stop_tol": np.inf}, r"stop_tol must be finite, got inf"),
], ids=["fraction", "whole-float", "bool", "nan-tol", "inf-tol"])
def test_run_refuses_a_bad_budget_by_name_before_it_allocates(one_d_problem, monkeypatch, run,
                                                              budget, fault):
    # as the CLI refuses --max-iter 2.5 and --stop-tol nan: before the start
    # state is formed or any column is allocated
    monkeypatch.setattr(af.discrete, "initial_admm_state", None)
    monkeypatch.setattr(af.discrete, "initial_aadmm_state", None)
    args = {"admm": {}, "aadmm": {"r": 3.0}}[run]
    with pytest.raises(ValueError, match=fault):
        getattr(af, f"run_{run}")(one_d_problem, [1.0], rho=1.0, **args, **budget)


def test_run_accepts_a_numpy_integer_budget(one_d_problem):
    traj = af.run_admm(one_d_problem, [1.0], rho=1.0, max_iter=np.int64(3), stop_tol=np.float64(0))
    assert len(traj) == 4 and traj.meta["max_iter"] == 3


def test_parameter_validation(one_d_problem, pd_2d_problem):
    x0 = np.array([1.0])
    with pytest.raises(ValueError):
        af.initial_admm_state(one_d_problem, x0, rho=0.0)
    for state_class, extra in ((af.AdmmState, {}),
                               (af.AccAdmmState, {"z_hat": x0, "u_hat": x0, "r": 3.0})):
        with pytest.raises(ValueError, match="rho"):
            state_class(x=x0, z=x0, u=x0, k=0, rho=-1.0, **extra)
    with pytest.raises(ValueError):
        af.run_admm(one_d_problem, x0, rho=1.0, max_iter=0)
    # steps at two rho on one problem each take their own rho's operators:
    # they match steps on fresh copies, and the problem keeps one operator
    # set, the last step's
    p = af.SplitProblem(pd_2d_problem.f, pd_2d_problem.g, pd_2d_problem.A)
    kept = []
    for rho in (1.0, 2.0, 1.0):
        state = af.initial_admm_state(p, np.ones(2), rho)
        fresh = af.SplitProblem(p.f, p.g, p.A)
        assert np.array_equal(af.admm_step(p, state).x, af.admm_step(fresh, state).x)
        kept.append(p._operators[0])
    assert kept == [1.0, 2.0, 1.0] and len(p._operators) == 2


def test_inner_solver_step_builds_no_operator(one_d_problem):
    # with an inner solver a step on a quadratic problem takes the solver's
    # result and builds no operator
    p = af.SplitProblem(one_d_problem.f, one_d_problem.g, one_d_problem.A)
    x0 = np.array([1.0])
    for step, state in ((af.admm_step, af.initial_admm_state(p, x0, 1.0)),
                        (af.aadmm_step, af.initial_aadmm_state(p, x0, 1.0, 3.0))):
        assert np.allclose(step(p, state, inner_solver=cg_minimize).x, [0.5], rtol=1e-10)
    assert not p._operators


def test_inner_solver_gets_fresh_starts(pd_2d_problem):
    # a solver that overwrites its start after solving must not reach the
    # state: A-ADMM reads state.z for its momentum after the sweep
    def clobbering(fun, grad, x0):
        x = cg_minimize(fun, grad, x0)
        x0[:] = np.nan
        return x

    p = as_callbacks(pd_2d_problem)
    state = af.initial_aadmm_state(p, np.array([2.0, -1.0]), rho=2.0, r=3.0)
    for _ in range(3):
        state = af.aadmm_step(p, state, inner_solver=cg_minimize)
    kept = dataclasses.replace(state, x=state.x.copy(), z=state.z.copy())
    got = af.aadmm_step(p, state, inner_solver=clobbering)
    want = af.aadmm_step(p, kept, inner_solver=cg_minimize)
    assert np.array_equal(state.x, kept.x) and np.array_equal(state.z, kept.z)
    for name in ("x", "z", "u", "z_hat", "u_hat"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("rho", [0.5, 7.0])
def test_inner_solver_is_warm_started_at_the_iterate(pd_2d_problem, rho):
    # at the KKT fixed point each subproblem's minimizer is the current
    # iterate, so the start handed to the solver has a zero gradient
    x_star, z_star, u_star = kkt_fixed_point(pd_2d_problem, rho)
    ratios = []

    def recording(fun, grad, x0):
        ratios.append(np.linalg.norm(grad(x0)) / np.linalg.norm(grad(np.zeros_like(x0))))
        return cg_minimize(fun, grad, x0)

    state = af.AdmmState(x=x_star, z=z_star, u=u_star, k=0, rho=rho)
    af.admm_step(as_callbacks(pd_2d_problem), state, inner_solver=recording)
    assert len(ratios) == 2 and max(ratios) <= 1e-12


@pytest.mark.parametrize("which", ["x", "z"])
@pytest.mark.parametrize("shape", ["column", "short"])
def test_inner_result_of_wrong_shape_is_refused(pd_2d_problem, which, shape):
    calls = []

    def misshapen(fun, grad, x0):
        calls.append(1)
        y = cg_minimize(fun, grad, x0)
        if (which == "x") == (len(calls) == 1):  # the x-solve is a sweep's first
            return y[:, None] if shape == "column" else y[:-1]
        return y

    p = as_callbacks(pd_2d_problem)
    state = af.initial_admm_state(p, np.array([2.0, -1.0]), rho=2.0)
    with pytest.raises(ValueError, match=f"for the {which}-subproblem"):
        af.admm_step(p, state, inner_solver=misshapen)


# sup-relative X of the callback path against the quadratic one at cond(A) =
# 1e8: ten times cond(A) times the CG inner solver's relative tolerance 1e-12,
# fixed before the first comparison
CALLBACK_1E8_BAND = 10 * 1e8 * 1e-12


def test_callback_run_at_cond_1e8_matches_the_quadratic_path():
    # the inner solver's coordinates w = R x come from the QR factor of A,
    # which exists wherever SplitProblem accepts A (the Cholesky factor of
    # the formed A^T A that they came from was refused from cond(A) = 1e9)
    quad = af.gen_figure1_problem(60, 40, 10.0, 1e8, seed=38)
    x0 = np.full(quad.n, 5.0)
    for run, kwargs in ((af.run_admm, {}), (af.run_aadmm, {"r": 10.0})):
        solver = GradCounter()
        got = run(as_callbacks(quad), x0, rho=50.0, max_iter=50, v_star=0.0,
                  inner_solver=solver, **kwargs)
        want = run(quad, x0, rho=50.0, max_iter=50, **kwargs)
        assert len(got) == 51 and solver.solves == 100
        assert np.max(np.abs(got.X - want.X)) <= CALLBACK_1E8_BAND * np.max(np.abs(want.X))


# sup-relative X of the callback path against the quadratic one, 100 iterations
# at rho = 50; fixed from one measurement (ADMM / A-ADMM: 4.5e-10 / 7.1e-10,
# 9.8e-8 / 1.7e-7, 2.1e-3 / 2.5e-3) before the first comparison, when both
# paths went through the formed A^T A. Through A = U R they read 4.5e-10 /
# 7.2e-10, 3.0e-8 / 3.7e-8 and 3.2e-6 / 3.5e-6: the CG solver's relative
# tolerance 1e-12 times cond(A).
CALLBACK_X_BANDS = {"1e2": 1e-8, "1e4": 2e-6, "1e6": 1e-2}


@pytest.mark.parametrize("method", ["admm", "aadmm"])
@pytest.mark.parametrize("cond_a", sorted(CALLBACK_X_BANDS))
def test_callback_run_across_cond_a(cond_a, method):
    # the CG inner solver is never accepted at its start, so no run stops
    # early, and it needs few gradient calls at any cond(A): the
    # x-subproblem's Hessian in w = R x is rho I + R^{-T} M_f R^{-1}
    quad = af.gen_figure1_problem(60, 40, 10.0, float(cond_a), seed=38)
    solver = GradCounter()
    x0 = np.full(quad.n, 5.0)
    kwargs = {"r": 10.0} if method == "aadmm" else {}
    run = af.run_aadmm if method == "aadmm" else af.run_admm
    got = run(as_callbacks(quad), x0, rho=50.0, max_iter=100, v_star=0.0,
              inner_solver=solver, **kwargs)
    want = run(quad, x0, rho=50.0, max_iter=100, **kwargs)
    assert len(got) == 101 and not got.meta["stopped_early"]
    err = np.max(np.abs(got.X - want.X)) / np.max(np.abs(want.X))
    assert err <= CALLBACK_X_BANDS[cond_a]
    assert solver.solves == 200
    if cond_a == "1e2":  # the figure1 draw: about 10 per sweep, 203 in raw x
        assert solver.grad_calls <= 20 * 100


@pytest.mark.parametrize("stop_tol, kept", [(0.0, 21), (1e9, 2)], ids=["full", "early-stop"])
@pytest.mark.parametrize("method", ["admm", "aadmm"])
def test_callback_run_evaluates_V_once_per_kept_sample(pd_2d_problem, method, stop_tol, kept):
    # V is taken once per sample the run keeps, with A x from the record's
    # own product, and never by the inner solver (cg_minimize calls no value)
    calls = {}
    problem = as_callbacks(pd_2d_problem, calls)
    kwargs = {"r": 3.0} if method == "aadmm" else {}
    run = af.run_aadmm if method == "aadmm" else af.run_admm
    traj = run(problem, np.array([1.0, -2.0]), rho=5.0, max_iter=20, stop_tol=stop_tol,
               v_star=0.0, inner_solver=cg_minimize, **kwargs)
    assert len(traj) == kept
    assert calls[("f", "value")] == calls[("g", "value")] == kept
    assert np.allclose(traj.V, [af.eval_V(pd_2d_problem, x) for x in traj.X], rtol=1e-14, atol=0)


@pytest.mark.parametrize("method", ["admm", "aadmm"])
def test_inner_steps_are_stationary_for_a_general_f(figure1_problem, method):
    # log-cosh f and g, minimized by scipy's BFGS to a w-gradient of 1e-10:
    # each x-step is stationary for the subproblem in x,
    # ||grad f(x) + rho A^T (A x - v)|| <= 1e-10 (1 + ||rho A^T v||) (seen:
    # 2.6e-12), so the change of variables is exact beyond quadratics; each
    # z-step, solved as posed, meets ||grad g(z) + rho (z - w)|| <=
    # 1e-9 (1 + rho ||w||) (seen: 9.9e-11, where BFGS stops short of gtol)
    from scipy.optimize import minimize

    rng = np.random.default_rng(5)
    a, b = rng.standard_normal(figure1_problem.n), rng.standard_normal(figure1_problem.m)
    f = af.CallbackFunction(lambda x: float(np.sum(np.log(np.cosh(x - a))) + 5e-3 * (x @ x)),
                            lambda x: np.tanh(x - a) + 1e-2 * x, figure1_problem.n)
    g = af.CallbackFunction(lambda z: float(np.sum(np.log(np.cosh(z - b)))),
                            lambda z: np.tanh(z - b), figure1_problem.m)
    p = af.SplitProblem(f, g, figure1_problem.A)
    A, rho = p.A, 50.0

    def bfgs(fun, grad, x0):
        return minimize(fun, x0, jac=grad, method="BFGS", options={"gtol": 1e-10}).x

    x0 = np.full(p.n, 5.0)
    if method == "aadmm":
        state, step = af.initial_aadmm_state(p, x0, rho, r=10.0), af.aadmm_step
    else:
        state, step = af.initial_admm_state(p, x0, rho), af.admm_step
    for _ in range(20):
        z, u = (state.z_hat, state.u_hat) if method == "aadmm" else (state.z, state.u)
        v = z - u
        new = step(p, state, inner_solver=bfgs)
        x_stat = np.linalg.norm(f.grad(new.x) + rho * A.T @ (A @ new.x - v))
        assert x_stat <= 1e-10 * (1.0 + np.linalg.norm(rho * A.T @ v))
        w = A @ new.x + u
        assert np.linalg.norm(g.grad(new.z) + rho * (new.z - w)) <= 1e-9 * (
            1.0 + rho * np.linalg.norm(w))
        state = new


@pytest.mark.parametrize("cond_a", ["1e2", "1e4", "1e6"])
def test_no_refinement_on_generated_draws(tmp_path, cond_a):
    # the operators are checked once, when built, so a run on the CLI's draws
    # has no per-step check, replay or count of replays to record
    path = str(tmp_path / "p.json")
    assert main(["gen", "--cond-a", cond_a, "--out", path]) == 0
    problem = af.load_problem(path)
    x0 = 5.0 * np.ones(problem.n)
    for rho in (10.0, 200.0):
        for traj in (af.run_admm(problem, x0, rho=rho, max_iter=300),
                     af.run_aadmm(problem, x0, rho=rho, r=10.0, max_iter=300)):
            assert len(traj) == 301 and np.all(np.isfinite(traj.V))
            assert "refinements" not in traj.meta
    traj.to_csv(tmp_path / "run.csv")
    header = (tmp_path / "run.csv").read_text().splitlines()[0]
    assert header == "k,t,V_gap,primal_residual,x_norm"


def spy_solve(monkeypatch, scales=()):
    """Count the linear solves of the operator builds; the i-th solve's
    result is scaled by ``scales[i]`` where given (a build solves for the
    x-operator first, then for the z-operator)."""
    calls = []
    real = np.linalg.solve

    def solve(H, rhs):
        calls.append(np.ndim(rhs))
        sol = real(H, rhs)
        return sol * scales[len(calls) - 1] if len(calls) <= len(scales) else sol

    monkeypatch.setattr(np.linalg, "solve", solve)
    return calls


@pytest.mark.parametrize("method", ["admm", "aadmm"])
def test_quadratic_run_solves_no_system_per_step(monkeypatch, figure1_problem, figure1_x0, method):
    # the solves build the operators, once per (problem, rho): the x- and
    # z-operators for a dense M_g. A g = 0 run steps the modes and solves
    # nothing. A second run at the same rho reuses the operators, however
    # long either run is
    calls = spy_solve(monkeypatch)
    for kind, builds in (("zero", 0), ("dense", 2)):
        problem = with_g(figure1_problem, kind)
        counts = []
        for max_iter in (10, 300):
            del calls[:]
            if method == "admm":
                traj = af.run_admm(problem, figure1_x0, rho=50.0, max_iter=max_iter)
            else:
                traj = af.run_aadmm(problem, figure1_x0, rho=50.0, r=10.0, max_iter=max_iter)
            assert len(traj) == max_iter + 1
            counts.append(len(calls))
        assert counts == [builds, 0], kind
        assert calls.count(2) == len(calls)  # every solve has a matrix right-hand side


def perturbed_operators(pd_2d_problem):
    """``(which, index, problem)`` for each operator a build solves for: S_x
    (the build's first solve) and S_z (its second), for the problem's
    diagonal g and for a dense g."""
    dense = with_g(pd_2d_problem, "dense")
    return (("x", 0, pd_2d_problem), ("z", 1, pd_2d_problem), ("z", 1, dense))


def run_2d(problem, method):
    x0 = np.array([2.0, -1.0])
    if method == "admm":
        return af.run_admm(problem, x0, rho=5.0, max_iter=100)
    return af.run_aadmm(problem, x0, rho=5.0, r=4.0, max_iter=100)


def test_steps_build_the_operators_once_per_rho(monkeypatch, figure1_problem, figure1_x0):
    # the first step at a rho solves for the x- and z-operators; later steps
    # and the accelerated step at that rho reuse them, and a new rho builds
    # its own
    p = with_g(figure1_problem, "dense")
    calls = spy_solve(monkeypatch)
    for rho, builds in ((10.0, 2), (10.0, 0), (30.0, 2)):
        del calls[:]
        state = af.admm_step(p, af.initial_admm_state(p, figure1_x0, rho))
        assert len(calls) == builds
        af.admm_step(p, state)
        af.aadmm_step(p, af.initial_aadmm_state(p, figure1_x0, rho, r=3.0))
        assert len(calls) == builds


def test_steps_at_many_rho_keep_one_operator_set(figure1_problem, figure1_x0):
    # a rho schedule holds one operator set: after 100 steps at 100 rho the
    # problem keeps the last rho's, equal to a fresh build, and every earlier
    # set is let go
    p = with_g(figure1_problem, "dense")
    rhos = np.geomspace(1.0, 1e3, 100)
    state, builds = af.initial_admm_state(p, figure1_x0, rhos[0]), []
    for rho in rhos:
        state = af.admm_step(p, dataclasses.replace(state, rho=rho))
        builds.append(weakref.ref(p._operators[1][0]))
    gc.collect()
    assert [ref() is not None for ref in builds] == [False] * 99 + [True]
    rho, ops = p._operators
    assert rho == rhos[-1] and len(ops) == 4
    fresh = _operators(af.SplitProblem(p.f, p.g, p.A), rho)
    assert all(np.array_equal(a, b) for a, b in zip(ops, fresh))


@pytest.mark.parametrize("method", ["admm", "aadmm"])
def test_a_run_chooses_its_route_once(monkeypatch, figure1_problem, figure1_x0, pd_2d_problem,
                                      method):
    # a run takes its sweep's route from one _substeps call, whatever its
    # length: at its rho on the operator route and on the inner-solver
    # route; a g = 0 run steps its modes and takes none
    calls = []
    substeps = discrete._substeps
    monkeypatch.setattr(discrete, "_substeps",
                        lambda problem, rho, solver: calls.append((rho, solver))
                        or substeps(problem, rho, solver))
    cases = ((with_g(figure1_problem, "dense"), figure1_x0, None, [(50.0, None)]),
             (as_callbacks(pd_2d_problem), np.array([2.0, -1.0]), cg_minimize,
              [(50.0, cg_minimize)]),
             (figure1_problem, figure1_x0, None, []))
    for problem, x0, solver, want in cases:
        for max_iter in (1, 10, 130):
            del calls[:]
            if method == "admm":
                traj = af.run_admm(problem, x0, rho=50.0, max_iter=max_iter, v_star=0.0,
                                   inner_solver=solver)
            else:
                traj = af.run_aadmm(problem, x0, rho=50.0, r=10.0, max_iter=max_iter,
                                    v_star=0.0, inner_solver=solver)
            assert len(traj) == max_iter + 1 and calls == want


@pytest.mark.parametrize("method", ["admm", "aadmm"])
def test_a_run_builds_no_state_per_iteration(monkeypatch, figure1_problem, figure1_x0,
                                             pd_2d_problem, method):
    # a swept run carries its iterate as arrays: it builds its start state
    # and no other, whatever its length, on the operator route and on the
    # inner-solver route
    built = []
    post_init = af.AdmmState.__post_init__
    monkeypatch.setattr(af.AdmmState, "__post_init__",
                        lambda state: built.append(type(state)) or post_init(state))
    cases = ((with_g(figure1_problem, "dense"), figure1_x0, None),
             (as_callbacks(pd_2d_problem), np.array([2.0, -1.0]), cg_minimize))
    if method == "admm":
        af.initial_admm_state(pd_2d_problem, [2.0, -1.0], 50.0)
    else:
        af.initial_aadmm_state(pd_2d_problem, [2.0, -1.0], 50.0, 10.0)
    start = built[:]  # [AdmmState], or [AdmmState, AccAdmmState] built from it
    for problem, x0, solver in cases:
        for max_iter in (1, 10, 130):
            del built[:]
            if method == "admm":
                traj = af.run_admm(problem, x0, rho=50.0, max_iter=max_iter, v_star=0.0,
                                   inner_solver=solver)
            else:
                traj = af.run_aadmm(problem, x0, rho=50.0, r=10.0, max_iter=max_iter,
                                    v_star=0.0, inner_solver=solver)
            assert len(traj) == max_iter + 1 and built == start


def test_aadmm_step_refuses_a_plain_state_by_name(pd_2d_problem):
    # a plain AdmmState has no extrapolated copies: aadmm_step names the
    # state it needs, and admm_step takes an AccAdmmState as a plain sweep
    # against (z, u) that returns an AdmmState
    p, x0 = pd_2d_problem, np.array([2.0, -1.0])
    with pytest.raises(TypeError, match="needs an AccAdmmState .see initial_aadmm_state., "
                                        "got AdmmState"):
        af.aadmm_step(p, af.initial_admm_state(p, x0, 10.0))
    acc = af.aadmm_step(p, af.aadmm_step(p, af.initial_aadmm_state(p, x0, 10.0, 3.0)))
    assert not np.array_equal(acc.z_hat, acc.z)
    got = af.admm_step(p, acc)
    want = af.admm_step(p, af.AdmmState(x=acc.x, z=acc.z, u=acc.u, k=acc.k, rho=acc.rho))
    assert type(got) is af.AdmmState
    for name in ("x", "z", "u"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert got.k == want.k == 3 and got.rho == want.rho


@pytest.mark.parametrize("method", ["admm", "aadmm"])
def test_failing_operator_is_refused_when_built(monkeypatch, pd_2d_problem, method):
    # a solve off by 1e-6 fails the residual check of the operator it
    # builds: the run is refused before its first step, naming the
    # subproblem, and nothing is kept, so a clean build then succeeds and
    # reproduces a clean run on a fresh copy bit for bit
    for which, index, problem in perturbed_operators(pd_2d_problem):
        problem = af.SplitProblem(problem.f, problem.g, problem.A)
        scales = [1.0, 1.0]
        scales[index] = 1.0 + 1e-6
        with monkeypatch.context() as mp:
            spy_solve(mp, scales)
            with pytest.raises(NumericalError,
                               match=f"{which}-subproblem operator fails its residual check"):
                run_2d(problem, method)
        assert not problem._operators
        clean = run_2d(af.SplitProblem(problem.f, problem.g, problem.A), method)
        assert np.array_equal(run_2d(problem, method).X, clean.X)


@pytest.mark.parametrize("method", ["admm", "aadmm"])
def test_unrecoverable_solve_raises(monkeypatch, pd_2d_problem, method):
    # a solve that returns NaN is refused by the same check (a NaN residual
    # does not meet the tolerance), naming the subproblem
    for which, index, problem in perturbed_operators(pd_2d_problem):
        problem = af.SplitProblem(problem.f, problem.g, problem.A)
        scales = [1.0, 1.0]
        scales[index] = np.nan
        with monkeypatch.context() as mp:
            spy_solve(mp, scales)
            with pytest.raises(NumericalError, match=f"{which}-subproblem operator"):
                run_2d(problem, method)


# Forward-error gate of the discrete runs: C in C cond(A) eps, fixed from one
# measurement before the first comparison (the largest of the 16 cases read
# 34, A-ADMM with g = 0 at cond(A) = 1e8; through the formed A^T A they read
# 53 to 1.4e8 where they ran at all, and NumericalError from 1e8 or 9e9 on)
DISCRETE_FORWARD_C = 128


def decimal_forward_error(kind, cond_a, method):
    """sup |x_k - exact| / max |exact| / (cond(A) eps) over 100 iterations
    from 5 1 at rho = 50, against the same recursion at 50 digits on the
    problem's own data."""
    p = with_g(af.gen_figure1_problem(8, 2, 10.0, cond_a, seed=38), kind)
    x0 = np.full(p.n, 5.0)
    r = 3.0 if method == "aadmm" else None
    if r is None:
        traj = af.run_admm(p, x0, rho=50.0, max_iter=100)
    else:
        traj = af.run_aadmm(p, x0, rho=50.0, r=r, max_iter=100)
    exact = decimal_admm(p, x0, 50.0, 100, r)
    err = np.max(np.abs(traj.X - exact)) / np.max(np.abs(exact))
    return err / (p.cond_A * np.finfo(float).eps)


@pytest.mark.parametrize("kind", ["zero", "dense"])
@pytest.mark.parametrize("cond_a", [1e2, 1e6, 1e8, 9e9])
@pytest.mark.parametrize("method", ["admm", "aadmm"])
def test_discrete_runs_match_a_decimal_recursion(kind, cond_a, method):
    assert decimal_forward_error(kind, cond_a, method) <= DISCRETE_FORWARD_C


# The stricter gate of the g = 0 runs, which step the mode coordinates: C in C
# cond(A) eps, fixed from one measurement before the first comparison (the
# largest of the 8 cases read 2.4, A-ADMM at cond(A) = 1e2; the operator
# steps they replace read 1.9 to 34)
MODAL_FORWARD_C = 8


@pytest.mark.parametrize("cond_a", [1e2, 1e6, 1e8, 9e9])
@pytest.mark.parametrize("method", ["admm", "aadmm"])
def test_modal_runs_match_a_decimal_recursion(cond_a, method):
    assert decimal_forward_error("zero", cond_a, method) <= MODAL_FORWARD_C


@pytest.mark.parametrize("method", ["admm", "aadmm"])
@pytest.mark.parametrize("x0, kept", [((1e160, 1.0), 0), ((1.0, 1e150), 3)],
                         ids=["sample-0", "sample-3"])
def test_modal_run_diverges_where_the_step_loop_does(method, x0, kept):
    # M_f = diag(1, -1e-11) is PSD within its tolerance, and at rho = 1.0001e-11
    # its second mode grows by d = 1e4 per iteration: V overflows at x0 =
    # (1e160, 1), and from (1, 1e150) at sample 3. The g = 0 run, which steps
    # the modes, stops at the first sample where a loop of operator steps has
    # a V that is not finite, and keeps the samples before it
    p = af.SplitProblem(af.QuadraticFunction(np.diag([1.0, -1e-11])),
                        af.QuadraticFunction.zero(2), np.eye(2))
    rho, r, x0 = 1.0001e-11, (3.0 if method == "aadmm" else None), np.array(x0)
    if r is None:
        states, step = [af.initial_admm_state(p, x0, rho)], af.admm_step
    else:
        states, step = [af.initial_aadmm_state(p, x0, rho, r)], af.aadmm_step
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(4):
            states.append(step(p, states[-1]))
        values = np.array([af.eval_V(p, st.x) for st in states])
    assert int(np.argmin(np.isfinite(values))) == kept
    with pytest.raises(DivergenceError) as err:
        if r is None:
            af.run_admm(p, x0, rho=rho, max_iter=4, v_star=0.0)
        else:
            af.run_aadmm(p, x0, rho=rho, r=r, max_iter=4, v_star=0.0)
    partial = err.value.trajectory
    if kept == 0:
        assert partial is None and err.value.t_last == 0.0
    else:
        assert len(partial) == kept and err.value.t_last == partial.t[-1]
        assert np.allclose(partial.X, [st.x for st in states[:kept]], rtol=1e-12, atol=0)


def test_one_run_builds_the_modes_once(tmp_path, monkeypatch):
    # ADMM and A-ADMM in one `run` of a g = 0 draw share the problem's
    # modal basis: one eigendecomposition, and no linear solve
    path = str(tmp_path / "p.json")
    assert main(["gen", "--n", "20", "--zero-eigs", "5", "--out", path]) == 0
    calls = spy_solve(monkeypatch)
    eighs = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(1) or real(a))
    assert main(["run", "--problem", path, "--solver", "admm", "--solver", "aadmm",
                 "--max-iter", "20", "--out-dir", str(tmp_path / "out")]) == 0
    assert len(eighs) == 1 and not calls


@pytest.mark.parametrize("rho", [0.0, -1.0, np.nan, np.inf])
def test_non_finite_or_non_positive_rho_is_refused(one_d_problem, pd_2d_problem, rho):
    # refused with ValueError naming rho before any work, on the modal path
    # (g = 0) and the operator path alike, and by a state built directly,
    # with no warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (one_d_problem, pd_2d_problem):
            x0 = np.ones(p.n)
            for build in (lambda: af.run_admm(p, x0, rho=rho, max_iter=5),
                          lambda: af.run_aadmm(p, x0, rho=rho, r=3.0, max_iter=5),
                          lambda: af.AdmmState(x=x0, z=p.A @ x0, u=np.zeros(p.m), k=0,
                                               rho=rho)):
                with pytest.raises(ValueError, match="rho must be finite and positive"):
                    build()


def test_admm_gap_stays_above_the_optimum_on_an_ill_conditioned_draw():
    # V_gap = V(x_k) - V* >= -C cond(A) eps |V*|, C = 1 fixed from one
    # measurement (the minimum read -5.2e-11 against a bound of -2.4e-8): a
    # gap far below 0 is a V* above the optimum. With V* from lstsq on the
    # formed H the minimum read -6.05e-2
    p = with_g(af.gen_figure1_problem(8, 2, 10.0, 1e8, seed=38), "dense")
    traj = af.run_admm(p, 5.0 * np.ones(8), rho=50.0, max_iter=5000)
    assert len(traj) == 5001
    assert np.min(traj.v_gap) >= -1e8 * np.finfo(float).eps * abs(decimal_optimum(p)[1])


@pytest.mark.parametrize("kind", ["zero", "linear", "diagonal", "dense"])
def test_z_step_matches_a_dense_solve(figure1_problem, kind):
    # the z-operator of every kind of g is one dense matrix, the same arrays
    # at every lookup at one rho, and its solve matches (M_g + rho I)^{-1}
    # (rho w - q_g); g = 0 gives z = w exactly
    p = with_g(figure1_problem, kind)
    rho = 10.0
    ops = _operators(p, rho)
    assert all(a is b for a, b in zip(_operators(p, rho), ops))
    S_z, s_z = ops[2:]
    assert S_z.ndim == 2
    rng = np.random.default_rng(2)
    for _ in range(3):
        w = 10.0 * rng.standard_normal(p.m)
        ref = np.linalg.solve(p.g.M + rho * np.eye(p.m), rho * w - p.g.q)
        z = w @ S_z.T - s_z
        assert np.linalg.norm(z - ref) <= 64 * p.m * np.finfo(float).eps * np.linalg.norm(ref)
        if kind == "zero":
            assert np.array_equal(z, w)


@pytest.mark.parametrize("method", ["admm", "aadmm"])
def test_diagonal_g_run_exercises_the_dual(figure1_problem, figure1_x0, method):
    # on a diagonal g != 0 the dual u moves, so the run cannot pass through the
    # g = 0 reduction unseen; its iterates match a loop of dense solves
    p = with_g(figure1_problem, "diagonal")
    rho, r, max_iter = 10.0, 10.0, 100
    H_x = p.f.M + rho * p.A.T @ p.A
    H_z = p.g.M + rho * np.eye(p.m)
    x, z, u = figure1_x0, p.A @ figure1_x0, np.zeros(p.m)
    z_hat, u_hat = z, u
    xs, us, primal = [x], [u], [0.0]
    for k in range(max_iter):
        x = np.linalg.solve(H_x, rho * (p.A.T @ (z_hat - u_hat)) - p.f.q)
        z_new = np.linalg.solve(H_z, rho * (p.A @ x + u_hat) - p.g.q)
        u_new = u_hat + p.A @ x - z_new
        gamma = momentum_coefficient(k, r) if method == "aadmm" else 0.0
        z_hat, u_hat = z_new + gamma * (z_new - z), u_new + gamma * (u_new - u)
        z, u = z_new, u_new
        xs.append(x)
        us.append(u)
        primal.append(np.linalg.norm(p.A @ x - z))
    assert min(np.linalg.norm(v) for v in us[1:]) > 1e-3
    if method == "admm":
        traj = af.run_admm(p, figure1_x0, rho=rho, max_iter=max_iter)
    else:
        traj = af.run_aadmm(p, figure1_x0, rho=rho, r=r, max_iter=max_iter)
    assert np.max(np.abs(traj.X - np.array(xs))) <= 1e-10 * np.max(np.abs(xs))
    values = np.array([af.eval_V(p, x) for x in xs])
    assert np.max(np.abs(traj.V - values)) <= 1e-10 * np.max(np.abs(values))
    assert np.min(traj.primal_residual[1:]) > 1e-6
    assert np.allclose(traj.primal_residual, primal, rtol=1e-8, atol=0)


def test_non_positive_definite_subproblem_is_refused():
    # M_f is PSD within its 1e-10 relative tolerance, but with A = 1e-6 I the
    # x-step's K = R^{-T} M_f R^{-1} + rho I = diag(1e12 + 1, -9) is not
    # positive definite: no operator is built from it. The same holds for
    # H_z = M_g + rho I = diag(1, -9e-12), which takes no Cholesky factor
    psd = af.QuadraticFunction(np.diag([1.0, -1e-11]))
    x0 = np.array([1.0, 1.0])
    for p, rho in ((af.SplitProblem(psd, af.QuadraticFunction.zero(2), 1e-6 * np.eye(2)), 1.0),
                   (af.SplitProblem(af.QuadraticFunction(np.eye(2)), psd, np.eye(2)), 1e-12)):
        for build in (lambda: _operators(p, rho),
                      lambda: af.run_admm(p, x0, rho=rho, max_iter=10),
                      lambda: af.run_aadmm(p, x0, rho=rho, r=3.0, max_iter=10)):
            with pytest.raises(NumericalError, match="singular subproblem system"):
                build()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_start_raises_at_sample_0(pd_2d_problem, bad):
    # a non-finite start point is an input fault, not a divergence: each run
    # refuses it by name before any column (16 MB of X on these 10^6-sample
    # runs) is allocated and before any callback is called
    calls = {}
    p = as_callbacks(pd_2d_problem, calls)
    x0 = np.array([bad, 1.0])
    steps = af.flows.MAX_STEPS
    runs = (
        lambda: af.run_admm(p, x0, rho=2.0, max_iter=steps, v_star=0.0, inner_solver=cg_minimize),
        lambda: af.run_aadmm(p, x0, rho=2.0, r=3.0, max_iter=steps, v_star=0.0,
                             inner_solver=cg_minimize),
        lambda: af.rk4_integrate(p, x0, IntegratorConfig(h=1.0, t0=0.0, t_end=steps),
                                 v_star=0.0),
        lambda: af.aadmm_flow_integrate(p, x0, IntegratorConfig(h=1.0, t0=1.0, t_end=steps + 1,
                                                                r=3.0), v_star=0.0),
    )
    for run in runs:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"x0 must be finite; x0\[0\] is {bad!r}"):
                run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
    assert calls == {}
