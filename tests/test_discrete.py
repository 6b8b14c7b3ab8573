import dataclasses

import numpy as np
import pytest

import admmflow as af
from admmflow.discrete import SubproblemCache, momentum_coefficient
from admmflow.exceptions import DivergenceError, UnsupportedFunctionError

from helpers import cg_minimize


def quad_as_callbacks(q):
    return af.CallbackFunction(q.value, q.grad, q.dim)


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
    generic = af.SplitProblem(
        quad_as_callbacks(figure1_problem.f),
        quad_as_callbacks(figure1_problem.g),
        figure1_problem.A,
    )
    oracle = af.run_admm(
        generic, figure1_x0, rho=rho, max_iter=10,
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
    cache = SubproblemCache(figure1_problem, rho)
    a = af.initial_admm_state(figure1_problem, figure1_x0, rho)
    b = af.initial_aadmm_state(figure1_problem, figure1_x0, rho, r=5.0)
    for _ in range(20):
        a = af.admm_step(figure1_problem, a, cache=cache)
        b = dataclasses.replace(b, z_hat=b.z, u_hat=b.u)
        b = af.aadmm_step(figure1_problem, b, cache=cache)
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
    for r in (2.9, np.nan, None):
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
    cache = SubproblemCache(figure1_problem, rho)
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = 10.0 * rng.standard_normal(figure1_problem.m)
        x = cache.solve_x(v)
        rhs = rho * (figure1_problem.A.T @ v) - figure1_problem.f.q
        H = figure1_problem.f.M + rho * figure1_problem.ata
        assert np.linalg.norm(H @ x - rhs) <= 1e-10 * (1.0 + np.linalg.norm(rhs))
        w = 10.0 * rng.standard_normal(figure1_problem.m)
        z = cache.solve_z(w)
        rhs_z = rho * w - figure1_problem.g.q
        Hz = figure1_problem.g.M + rho * np.eye(figure1_problem.m)
        assert np.linalg.norm(Hz @ z - rhs_z) <= 1e-10 * (1.0 + np.linalg.norm(rhs_z))


def test_callbacks_require_inner_solver(one_d_problem):
    f = af.CallbackFunction(lambda x: 0.5 * float(x @ x), lambda x: x, 1)
    p = af.SplitProblem(f, af.QuadraticFunction.zero(1), [[1.0]])
    state = af.initial_admm_state(p, np.array([1.0]), rho=1.0)
    with pytest.raises(UnsupportedFunctionError):
        af.admm_step(p, state)
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

    p = af.SplitProblem(quad_as_callbacks(one_d_problem.f),
                        quad_as_callbacks(one_d_problem.g), one_d_problem.A)
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


def test_parameter_validation(one_d_problem):
    x0 = np.array([1.0])
    with pytest.raises(ValueError):
        af.initial_admm_state(one_d_problem, x0, rho=0.0)
    for state_class, extra in ((af.AdmmState, {}),
                               (af.AccAdmmState, {"z_hat": x0, "u_hat": x0, "r": 3.0})):
        with pytest.raises(ValueError, match="rho"):
            state_class(x=x0, z=x0, u=x0, k=0, rho=-1.0, **extra)
    with pytest.raises(ValueError):
        af.run_admm(one_d_problem, x0, rho=1.0, max_iter=0)
    cache = SubproblemCache(one_d_problem, 1.0)
    state = af.AdmmState(x=x0, z=x0, u=np.zeros(1), k=0, rho=2.0)
    with pytest.raises(ValueError):
        af.admm_step(one_d_problem, state, cache=cache)  # cache rho mismatch


def test_cache_and_inner_solver_are_refused_together(one_d_problem):
    # the inner solver would take over and the cache be silently ignored
    cache = SubproblemCache(one_d_problem, 1.0)
    x0 = np.array([1.0])
    for step, state in ((af.admm_step, af.initial_admm_state(one_d_problem, x0, 1.0)),
                        (af.aadmm_step, af.initial_aadmm_state(one_d_problem, x0, 1.0, 3.0))):
        with pytest.raises(ValueError, match="not both"):
            step(one_d_problem, state, cache=cache, inner_solver=cg_minimize)
