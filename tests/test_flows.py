import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

import admmflow as af
from admmflow.exceptions import DivergenceError
from admmflow.flows import IntegratorConfig, _flow_velocity

from helpers import (GradCounter, as_callbacks, decimal_flow, rk4_reference,
                     second_order_rhs, with_g)

EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def identity_A_problem():
    # A = I: flows reduce to plain gradient flow / damped oscillator flow
    f = af.QuadraticFunction([[3.0, 0.4], [0.4, 1.0]], [0.5, -0.25])
    return af.SplitProblem(f, af.QuadraticFunction.zero(2), np.eye(2))


def test_rhs_reduces_to_negative_gradient(identity_A_problem):
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.standard_normal(2)
        rhs = af.admm_flow_rhs(identity_A_problem, x)
        assert np.linalg.norm(rhs + af.grad_V(identity_A_problem, x)) <= 1e-12


def test_rhs_scalar_scaling():
    # f = x^2/2, A = [2]: rhs(x) = -x / 4
    p = af.SplitProblem(af.QuadraticFunction([[1.0]]), af.QuadraticFunction.zero(1), [[2.0]])
    assert af.admm_flow_rhs(p, np.array([3.0])) == pytest.approx(np.array([-0.75]))
    with pytest.raises(ValueError, match="shape"):  # K @ X + b would broadcast
        af.admm_flow_rhs(p, np.array([[3.0]]))


def test_rhs_zero_at_minimizer(pd_2d_problem):
    x_star, _ = af.optimal_value(pd_2d_problem)
    assert np.linalg.norm(af.admm_flow_rhs(pd_2d_problem, x_star)) <= 1e-9


def test_rhs_descent_identity(figure1_problem):
    # <grad V, rhs> = -||A rhs||^2 because (A^T A) rhs = -grad V
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.standard_normal(figure1_problem.n)
        rhs = af.admm_flow_rhs(figure1_problem, x)
        lhs = float(af.grad_V(figure1_problem, x) @ rhs)
        expected = -float(np.linalg.norm(figure1_problem.A @ rhs) ** 2)
        assert lhs == pytest.approx(expected, rel=1e-9)


# normwise distance allowed between admm_flow_rhs and the flows' velocity, in
# eps: fixed from one measurement, 3.6 at cond(A) = 1e2 in the test below (at
# most 3.6 at every cond(A) it runs, with the stacked operator)
RHS_VELOCITY_EPS = 8


@pytest.mark.parametrize("cond_a", [1e2, 1e6, 1e8, 9e9])
def test_rhs_matches_the_flow_velocity(cond_a):
    # admm_flow_rhs applies the factor A = U R, the flows one stacked operator
    # -[P | Q], P = R^-1 R^-T, Q = R^-1 U^T, formed once per run: the same map,
    # rounded apart
    p = with_g(af.gen_figure1_problem(60, 40, 10.0, cond_a, seed=38), "dense")
    velocity = _flow_velocity(p)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = 5.0 * rng.standard_normal(p.n)
        want = velocity(x)
        assert (np.linalg.norm(af.admm_flow_rhs(p, x) - want)
                <= RHS_VELOCITY_EPS * EPS * np.linalg.norm(want))


def test_rhs_forms_no_n_by_n_matrix():
    # a call at n = 480 takes less than one n x n float array (1.8 MB) beyond
    # the factor the problem keeps; forming P and Q took two
    p = with_g(af.gen_figure1_problem(480, 320, 10.0, 100.0, seed=38), "dense")
    x = np.ones(p.n)
    af.admm_flow_rhs(p, x)  # builds the factor
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        af.admm_flow_rhs(p, x)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < p.n * p.n * 8


def test_rhs_calls_no_gradient_at_a_non_finite_AX():
    calls = []
    f = af.CallbackFunction(lambda v: 0.0, lambda v: calls.append(v) or np.sign(v), 1)
    p = af.SplitProblem(f, f, [[1e150]])
    with np.errstate(over="ignore"):  # A X = inf
        assert np.isnan(af.admm_flow_rhs(p, np.array([1e160]))).all()
    assert calls == []


def test_rk4_exponential_closed_form(one_d_problem):
    config = IntegratorConfig(h=0.01, t0=0.0, t_end=1.0)
    traj = af.rk4_integrate(one_d_problem, np.array([1.0]), config)
    assert len(traj) == 101
    assert abs(traj.X[-1, 0] - np.exp(-1.0)) <= 1e-8


def test_rk4_fourth_order_richardson(one_d_problem):
    errs = []
    for h in (0.01, 0.005):
        traj = af.rk4_integrate(one_d_problem, np.array([1.0]), IntegratorConfig(h=h, t0=0.0, t_end=1.0))
        errs.append(abs(traj.X[-1, 0] - np.exp(-1.0)))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_rk4_constant_at_minimizer(pd_2d_problem):
    x_star, v_star = af.optimal_value(pd_2d_problem)
    traj = af.rk4_integrate(pd_2d_problem, x_star, IntegratorConfig(h=0.01, t0=0.0, t_end=1.0))
    assert np.max(np.abs(traj.X - x_star)) <= 1e-9
    assert np.allclose(traj.v_gap, 0.0, atol=1e-12)


def test_rk4_objective_nonincreasing(figure1_rk4_traj):
    V = figure1_rk4_traj.V
    assert np.all(V[1:] <= V[:-1] + 1e-9 * (1.0 + np.abs(V[:-1])))


def test_rk4_divergence_reports_partial(one_d_problem):
    # amplification factor ~291 per step at h = 10 on x' = -x
    config = IntegratorConfig(h=10.0, t0=0.0, t_end=2000.0)
    with pytest.raises(DivergenceError) as err:
        af.rk4_integrate(one_d_problem, np.array([1.0]), config)
    partial = err.value.trajectory
    assert partial is not None and len(partial) >= 1
    assert np.all(np.isfinite(partial.X))
    assert np.all(np.isfinite(partial.V))
    assert err.value.t_last is not None


def test_diverged_quadratic_run_stops_within_a_check_block(one_d_problem, monkeypatch):
    # V overflows at sample 63 of a 10^5-step grid (R(-10) = 291 per step); the
    # quadratic run forms its samples in chunks of ROW_BLOCK rows and stops
    # after the first chunk holding a non-finite row, so V is evaluated on
    # that block only, long before the grid ends
    rows = []
    values = af.flows._values
    monkeypatch.setattr(af.flows, "_values", lambda p, xs: rows.append(len(xs)) or values(p, xs))
    config = IntegratorConfig(h=10.0, t0=0.0, t_end=1e6)
    with pytest.raises(DivergenceError, match=r"after t = 620$") as err:
        af.rk4_integrate(one_d_problem, np.array([1.0]), config)
    assert len(err.value.trajectory) == 63
    assert rows == [af.flows.ROW_BLOCK] and rows[0] < config.n_steps


def test_diverged_symplectic_run_stops_within_a_check_block(monkeypatch):
    # symplectic Euler at h^2 lam = 100 > 4 grows about 98-fold per step, so
    # V = 50 X^2 overflows within the first hundred of 10^5 steps; the run
    # checks its mode coordinates once per chunk of ROW_BLOCK rows and stops
    # after the first, so V is evaluated on ROW_BLOCK samples only
    stiff = af.SplitProblem(af.QuadraticFunction([[100.0]]), af.QuadraticFunction.zero(1), [[1.0]])
    rows = []
    values = af.flows._values
    monkeypatch.setattr(af.flows, "_values", lambda p, xs: rows.append(len(xs)) or values(p, xs))
    config = IntegratorConfig(h=1.0, t0=1.0, t_end=1e5, r=3.0)
    with pytest.raises(DivergenceError) as err:
        af.aadmm_flow_integrate(stiff, np.array([1.0]), config)
    assert rows == [af.flows.ROW_BLOCK] and rows[0] < config.n_steps
    partial = err.value.trajectory
    assert len(partial) < 100 and np.all(np.isfinite(partial.X))


def one_symplectic_step(problem, x0, t0, h, r):
    return af.aadmm_flow_integrate(problem, x0, IntegratorConfig(h=h, t0=t0, t_end=t0 + h, r=r))


def test_symplectic_step_hand_values(one_d_problem):
    # t=1 makes both damping weights 1: p+ = -h, x+ = 1 - h^2
    traj = one_symplectic_step(one_d_problem, np.array([1.0]), t0=1.0, h=0.1, r=10.0)
    assert len(traj) == 2
    assert traj.t[1] == pytest.approx(1.1)
    assert traj.X[1] == pytest.approx(np.array([0.99]))
    # P = t^r (A^T A) X' with A = [1]
    assert traj.Xdot[1] * 1.1**10 == pytest.approx(np.array([-0.1]))


def test_symplectic_step_equilibrium(pd_2d_problem):
    x_star, _ = af.optimal_value(pd_2d_problem)
    traj = one_symplectic_step(pd_2d_problem, x_star, t0=2.0, h=0.5, r=5.0)
    assert np.allclose(traj.X[1], x_star, atol=1e-12)
    assert np.allclose(traj.Xdot[1], 0.0, atol=1e-12)
    assert traj.t[1] == pytest.approx(2.5)


def test_symplectic_step_requires_positive_time(one_d_problem):
    with pytest.raises(ValueError):
        one_symplectic_step(one_d_problem, np.array([1.0]), t0=0.0, h=0.1, r=3.0)


def test_hamiltonian_zero_momentum_unit_time(pd_2d_problem):
    # the flow starts from rest, so at t0 = 1 the Hamiltonian is V(x0)
    x = np.array([0.3, -0.7])
    traj = one_symplectic_step(pd_2d_problem, x, t0=1.0, h=0.1, r=10.0)
    assert traj.hamiltonian[0] == pytest.approx(af.eval_V(pd_2d_problem, x))


def test_hamiltonian_one_d_value(one_d_problem):
    # H = 0.5 t^{-r} P^2 + t^r x^2 / 2 with A = [1]: 0.5 at (t, x, P) = (1, 1, 0),
    # then (1.1, 0.99, -0.1) after one step of h = 0.1
    traj = one_symplectic_step(one_d_problem, np.array([1.0]), t0=1.0, h=0.1, r=10.0)
    assert traj.hamiltonian[0] == pytest.approx(0.5)
    tr = 1.1**10
    assert traj.hamiltonian[1] == pytest.approx(0.5 * 0.01 / tr + tr * 0.5 * 0.99**2)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(h=0.0, t0=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(h=0.1, t0=1.0, t_end=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(h=0.5, t0=0.0, t_end=0.4)
    with pytest.raises(ValueError):
        IntegratorConfig(h=0.1, t0=0.0, t_end=1.0, r=2.0)
    # the second-order flow's 1/t damping needs t0 > 0: checked with the grid
    with pytest.raises(ValueError, match="t0 > 0"):
        IntegratorConfig(h=0.1, t0=0.0, t_end=1.0, r=3.0)
    assert IntegratorConfig(h=0.1, t0=0.0, t_end=1.0).n_steps == 10
    # a step that does not divide the window takes one more step past t_end
    assert IntegratorConfig(h=0.3, t0=0.0, t_end=1.0).n_steps == 4


def test_config_refuses_oversized_grid():
    # figure1 --rho 1e-6 --max-iter 2 asks for t_end = 2e6 at h = 1e-3
    with pytest.raises(ValueError, match=r"2e\+09 steps of h = 0\.001"):
        IntegratorConfig(h=1e-3, t0=0.0, t_end=2e6)
    # a non-finite field is named; a finite window whose quotient overflows
    # is refused by the bound
    for t_end in (np.inf, np.nan):
        with pytest.raises(ValueError, match="end time t_end must be finite"):
            IntegratorConfig(h=1e-3, t0=0.0, t_end=t_end)
    with pytest.raises(ValueError, match="inf steps .* exceeds MAX_STEPS"):
        IntegratorConfig(h=1e-300, t0=0.0, t_end=1e300)
    max_steps = af.flows.MAX_STEPS
    assert IntegratorConfig(h=1.0, t0=0.0, t_end=float(max_steps)).n_steps == max_steps
    with pytest.raises(ValueError, match="MAX_STEPS"):
        IntegratorConfig(h=1.0, t0=0.0, t_end=max_steps + 1.0)


def test_aadmm_flow_requires_positive_t0_and_r(one_d_problem):
    with pytest.raises(ValueError):
        af.aadmm_flow_integrate(one_d_problem, np.array([1.0]), IntegratorConfig(h=0.1, t0=0.0, t_end=1.0, r=3.0))
    with pytest.raises(ValueError):
        af.aadmm_flow_integrate(one_d_problem, np.array([1.0]), IntegratorConfig(h=0.1, t0=0.1, t_end=1.0))


def test_aadmm_flow_constant_at_minimizer(pd_2d_problem):
    x_star, _ = af.optimal_value(pd_2d_problem)
    traj = af.aadmm_flow_integrate(
        pd_2d_problem, x_star, IntegratorConfig(h=0.01, t0=0.01, t_end=2.0, r=10.0)
    )
    assert np.max(np.abs(traj.X - x_star)) <= 1e-10
    assert np.max(np.abs(traj.Xdot)) <= 1e-10


def test_aadmm_flow_velocity_accessor_matches_samples(pd_2d_problem):
    r, h = 5.0, 0.01
    traj = af.aadmm_flow_integrate(
        pd_2d_problem, np.array([2.0, -1.0]), IntegratorConfig(h=h, t0=0.01, t_end=1.0, r=r)
    )
    # each position update X+ = X + h t^{-r} (A^T A)^{-1} P+ uses the recorded
    # post-step velocity t+^{-r} (A^T A)^{-1} P+, reweighted to the pre-step time
    t = traj.t
    steps = h * traj.Xdot[1:] * ((t[1:] / t[:-1]) ** r)[:, None]
    assert np.allclose(np.diff(traj.X, axis=0), steps, rtol=1e-10, atol=1e-14)


def test_identity_A_reduction_against_reference(identity_A_problem):
    # with A = I the damped flow is the accelerated-gradient ODE; compare the
    # symplectic integration against an independent RK4 reference of it
    x0 = np.array([2.0, -1.5])
    r, t0, t_end = 10.0, 0.05, 5.05
    rhs = second_order_rhs(identity_A_problem, r)
    _, ys = rk4_reference(rhs, np.concatenate([x0, np.zeros(2)]), t0, t_end, 2e-4)
    sups = []
    for h in (2e-2, 1e-2, 5e-3):
        traj = af.aadmm_flow_integrate(
            identity_A_problem, x0, IntegratorConfig(h=h, t0=t0, t_end=t_end, r=r)
        )
        stride = int(round(h / 2e-4))
        ref = ys[::stride, :2]
        sups.append(float(np.max(np.linalg.norm(traj.X - ref, axis=1))))
    assert sups[0] > sups[1] > sups[2]  # first-order convergence to the reference
    assert sups[2] <= 0.55 * sups[0]


def test_general_A_cross_integrator_agreement(pd_2d_problem):
    # Hamilton's equations for the damped-flow energy reproduce the
    # second-order system: symplectic trajectory -> RK4 reference as h -> 0
    x0 = np.array([3.0, -2.0])
    r, t0, t_end = 10.0, 0.05, 5.0
    rhs = second_order_rhs(pd_2d_problem, r)
    _, ys = rk4_reference(rhs, np.concatenate([x0, np.zeros(2)]), t0, t_end, 2.5e-4)
    sups = []
    for h in (1e-2, 5e-3, 2.5e-3):
        traj = af.aadmm_flow_integrate(
            pd_2d_problem, x0, IntegratorConfig(h=h, t0=t0, t_end=t_end, r=r)
        )
        stride = int(round(h / 2.5e-4))
        ref = ys[::stride, :2]
        sups.append(float(np.max(np.linalg.norm(traj.X - ref, axis=1))))
        # velocities agree as well (they define the monitored energies)
        ref_v = ys[::stride, 2:]
        assert float(np.max(np.linalg.norm(traj.Xdot - ref_v, axis=1))) <= 10 * sups[-1] + 1e-9
    assert sups[0] > sups[1] > sups[2]


def test_symplectic_modified_energy_bounded(identity_A_problem):
    # Hamiltonian / t^r stays within 10% of its initial value (diagnostic of
    # the scheme's phase-space fidelity on a quadratic with A = I)
    x0 = np.array([1.0, 2.0])
    traj = af.aadmm_flow_integrate(
        identity_A_problem, x0, IntegratorConfig(h=1e-2, t0=1e-2, t_end=20.0, r=10.0)
    )
    scaled = traj.hamiltonian / traj.t ** 10.0
    assert np.max(scaled) <= 1.1 * scaled[0]


def test_aadmm_flow_divergence(one_d_problem):
    # h above the oscillator stability threshold blows up and is reported
    stiff = af.SplitProblem(
        af.QuadraticFunction([[100.0]]), af.QuadraticFunction.zero(1), [[1.0]]
    )
    with pytest.raises(DivergenceError) as err:
        af.aadmm_flow_integrate(
            stiff, np.array([1.0]), IntegratorConfig(h=1.0, t0=1.0, t_end=500.0, r=3.0)
        )
    assert err.value.trajectory is None or np.all(np.isfinite(err.value.trajectory.X))


def test_figure1_accelerated_flow_below_plain_after_transient(
    figure1_problem, figure1_rk4_traj, figure1_symplectic_traj
):
    # damped oscillations around a curve that drops below the first-order flow
    # once the transient has passed (the curves cross near t ~ 20 here)
    for t_check in (25.0, 30.0):
        g_acc = np.interp(t_check, figure1_symplectic_traj.t, figure1_symplectic_traj.v_gap)
        g_plain = np.interp(t_check, figure1_rk4_traj.t, figure1_rk4_traj.v_gap)
        assert g_acc < g_plain


def test_figure1_accelerated_flow_rate_window(figure1_symplectic_traj):
    fit = af.fit_rate(figure1_symplectic_traj, (5.0, 50.0), slope_target=-2.0)
    assert fit.slope <= -2.0 + 0.3


def test_first_order_state_accessor(pd_2d_problem):
    # the recorded velocity of every sample is the flow right-hand side there.
    # The run forms X = phi y and X' = -phi (lam y + beta) from the mode
    # coordinates y; the rounding of X = phi y (at most gamma_n ||phi|| ||y||
    # <= gamma_n cond(A) ||X||), carried through K = (A^T A)^{-1} H, and the
    # rounding of either velocity (the solve's forward error, at most a
    # gamma_n cond(A)^2 multiple of ||K X + b||) bound the difference by
    # 64 n eps cond(A)^2 (||K|| ||X|| + ||b||)
    p = pd_2d_problem
    H, c, ata = p.f.M + p.A.T @ p.g.M @ p.A, p.f.q + p.A.T @ p.g.q, p.A.T @ p.A
    K_norm, b_norm = np.linalg.norm(np.linalg.solve(ata, H), 2), np.linalg.norm(
        np.linalg.solve(ata, c))
    traj = af.rk4_integrate(p, np.array([1.0, -2.0]), IntegratorConfig(h=0.1, t0=0.0, t_end=1.0))
    for x, xdot in zip(traj.X, traj.Xdot):
        tol = 64 * p.n * EPS * p.cond_A**2 * (K_norm * np.linalg.norm(x) + b_norm)
        assert np.linalg.norm(xdot - af.admm_flow_rhs(p, x)) <= tol


def test_rectangular_problem_end_to_end():
    # m > n: the generator extension runs through solvers and both flows
    p = af.gen_figure1_problem(3, 1, 2.0, 10.0, seed=2, m=5)
    x0 = np.ones(3)
    traj = af.run_admm(p, x0, rho=5.0, max_iter=30)
    assert traj.v_gap[-1] < traj.v_gap[0]
    assert traj.primal_residual.shape == (31,)
    rk = af.rk4_integrate(p, x0, IntegratorConfig(h=0.01, t0=0.0, t_end=2.0))
    assert rk.v_gap[-1] < rk.v_gap[0]
    acc = af.aadmm_flow_integrate(p, x0, IntegratorConfig(h=0.01, t0=0.01, t_end=2.0, r=3.0))
    assert np.all(np.isfinite(acc.hamiltonian))


def test_concurrent_runs_share_problem(figure1_problem, figure1_x0):
    # problems are immutable, and the subproblem operators they keep per rho
    # are the same whichever run builds them: concurrent runs over a shared
    # instance must reproduce the sequential results exactly
    from concurrent.futures import ThreadPoolExecutor

    jobs = [(10.0, None), (50.0, None), (20.0, 5.0), (50.0, 10.0)]

    def run(job):
        rho, r = job
        if r is None:
            return af.run_admm(figure1_problem, figure1_x0, rho=rho, max_iter=40)
        return af.run_aadmm(figure1_problem, figure1_x0, rho=rho, r=r, max_iter=40)

    sequential = [run(j) for j in jobs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(run, jobs))
    for a, b in zip(sequential, concurrent):
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.v_gap, b.v_gap)


@pytest.mark.parametrize("which", ["pd_2d", "rectangular", "cond_1e5", "cond_1e6"])
def test_affine_map_matches_solve_path(which, pd_2d_problem):
    # the quadratic fast path (both flows on the modal basis, V and H evaluated
    # after the loop) and the callback path (four-stage step on the velocity
    # -(P grad f + Q grad g), V per sample) agree; at cond(A) = 1e5 this holds
    # for H only with its kinetic term formed as ||A X'||^2 (<X', (A^T A) X'>
    # amplifies rounding in X'), and for X only with the mode coordinates of
    # x0 formed through R (phi^T (A^T A) x0 is off by 1.6e-8)
    problem = {"pd_2d": pd_2d_problem,
               "rectangular": af.gen_figure1_problem(6, 2, 5.0, 10.0, seed=3, m=9),
               "cond_1e5": af.gen_figure1_problem(20, 5, 10.0, 1e5, seed=1),
               "cond_1e6": af.gen_figure1_problem(20, 5, 10.0, 1e6, seed=1)}[which]
    # at cond(A) = 1e6 the products with R and phi = R^{-1} Q each carry a
    # relative rounding of order cond(A) eps: 64 cond(A) eps, 1.4e-8
    rtol = 64 * 1e6 * EPS if which == "cond_1e6" else 1e-10
    callbacks = as_callbacks(problem)
    x0 = np.linspace(2.0, -1.0, problem.n)
    _, v_star = af.optimal_value(problem)
    runs = [(af.rk4_integrate, IntegratorConfig(h=0.01, t0=0.0, t_end=5.0), ()),
            (af.aadmm_flow_integrate, IntegratorConfig(h=0.01, t0=0.01, t_end=5.0, r=3.0),
             ("hamiltonian",))]
    for integrate, config, extra in runs:
        fast = integrate(problem, x0, config, v_star=v_star)
        slow = integrate(callbacks, x0, config, v_star=v_star)
        assert len(fast) == len(slow) == config.n_steps + 1
        for field in ("X", "Xdot", "V") + extra:
            got, want = getattr(fast, field), getattr(slow, field)
            assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want)), field


def test_rk4_propagator_matches_solve_path_at_ill_conditioned_A():
    # cond(A) = 1e5, which the flow map's old residual check refused: RK4 on
    # the modal basis agrees with the four-stage step applying (A^T A)^{-1}
    # at every stage
    problem = af.gen_figure1_problem(20, 5, 10.0, 1e5, seed=1)
    x0 = np.linspace(2.0, -1.0, problem.n)
    config = IntegratorConfig(h=0.01, t0=0.0, t_end=5.0)
    _, v_star = af.optimal_value(problem)
    fast = af.rk4_integrate(problem, x0, config, v_star=v_star)
    slow = af.rk4_integrate(as_callbacks(problem), x0, config, v_star=v_star)
    for field in ("X", "Xdot", "V"):
        got, want = getattr(fast, field), getattr(slow, field)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), field


def test_figure1_rk4_matches_modal_solution(figure1_problem, figure1_x0, figure1_rk4_traj):
    # the pencil (H, A^T A) splits the flow into modes y_i(t) = y_i(0) e^{-lambda_i t},
    # so V(t) - V* = 0.5 sum_i lambda_i y_i(t)^2 (V* = 0: f is PSD with q = 0, g = 0)
    p = figure1_problem
    ata = p.A.T @ p.A
    lam, phi = scipy.linalg.eigh(p.f.M + p.A.T @ p.g.M @ p.A, ata)
    lam = np.clip(lam, 0.0, None)
    y0 = phi.T @ (ata @ figure1_x0)
    t = figure1_rk4_traj.t
    exact = 0.5 * np.exp(-2.0 * np.outer(t, lam)) @ (lam * y0**2)
    assert np.max(np.abs(figure1_rk4_traj.V - exact) / exact) <= 1e-9


def test_flow_map_stays_lazy():
    # the O(n^3) modal basis is built by the first quadratic flow or g = 0
    # discrete run, and a dense-g discrete run builds it not at all: its
    # operators read only the problem's one factor A = U R. Every path reads
    # that same cached factor, and no run keeps the callback pair
    # (A^T A)^{-1}, (A^T A)^{-1} A^T on the problem
    zero = af.gen_figure1_problem(8, 3, 5.0, 10.0, seed=4)
    dense = with_g(zero, "dense")
    x0 = np.ones(8)
    built = set(zero.__dict__)
    for p in (dense, zero):
        af.run_admm(p, x0, rho=5.0, max_iter=5)
        af.run_aadmm(p, x0, rho=5.0, r=3.0, max_iter=5)
    assert set(dense.__dict__) - built == {"_factor"}
    assert set(zero.__dict__) - built == {"_factor", "modes"}
    modes, factor = zero.modes, zero._factor
    af.rk4_integrate(zero, x0, IntegratorConfig(h=0.1, t0=0.0, t_end=1.0))
    assert zero.modes is modes and zero._factor is factor
    callbacks = as_callbacks(dense)
    af.rk4_integrate(callbacks, x0, IntegratorConfig(h=0.1, t0=0.0, t_end=1.0), v_star=0.0)
    af.aadmm_flow_integrate(callbacks, x0, IntegratorConfig(h=0.1, t0=0.1, t_end=1.0, r=3.0),
                            v_star=0.0)
    assert set(callbacks.__dict__) - built == {"_factor"}


def test_large_r_flow_completes(one_d_problem):
    # t^r X' and H = t^r (0.5 |A X'|^2 + V) stay finite at r = 100, where the
    # momentum form's <P, (A^T A)^{-1} P> ~ t^{2r} overflowed after t = 37.96
    traj = af.aadmm_flow_integrate(one_d_problem, np.array([1.0]),
                                   IntegratorConfig(h=0.01, t0=0.01, t_end=60.0, r=100.0))
    assert len(traj) == 6000
    assert np.all(np.isfinite(traj.X)) and np.all(np.isfinite(traj.hamiltonian))
    assert traj.v_gap[-1] < 1e-12 * traj.v_gap[0]


def test_small_t_large_r_flow_completes(one_d_problem):
    # the step carries X' itself, so 0.01^200 (which underflows) never enters
    # it; t^r in H stays below the overflow threshold up to t = 20
    config = IntegratorConfig(h=0.01, t0=0.01, t_end=20.0, r=200.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = af.aadmm_flow_integrate(one_d_problem, np.array([1.0]), config)
    assert len(traj) == config.n_steps + 1
    for values in (traj.X, traj.Xdot, traj.hamiltonian):
        assert np.all(np.isfinite(values))
    # first step from rest: v = -h x0, X_1 = x0 + h v, X'_1 = (t0 / t1)^r v
    assert traj.X[1, 0] == pytest.approx(1.0 - 0.01**2, rel=1e-15)
    assert traj.Xdot[1, 0] == pytest.approx(-0.01 * 0.5**200, rel=1e-12)
    assert traj.v_gap[-1] < traj.v_gap[0]


def test_overflowing_t_r_leaves_bounded_run_complete_without_warning(one_d_problem):
    # H = t^r (...) overflows once 200 log t > log(DBL_MAX), near t = 34.8; the
    # run itself stays bounded, so it completes and H reads inf from there on
    config = IntegratorConfig(h=0.01, t0=0.01, t_end=60.0, r=200.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = af.aadmm_flow_integrate(one_d_problem, np.array([1.0]), config)
    assert len(traj) == config.n_steps + 1 == 6000
    for values in (traj.X, traj.Xdot, traj.V):
        assert np.all(np.isfinite(values))
    n_finite = int(np.count_nonzero(np.isfinite(traj.hamiltonian)))
    assert np.all(np.isfinite(traj.hamiltonian[:n_finite]))
    assert np.all(np.isposinf(traj.hamiltonian[n_finite:]))
    assert traj.t[n_finite - 1] == pytest.approx(34.77)
    assert traj.t[n_finite] == pytest.approx(34.78)
    # the last finite H is at the last grid time with a finite t^200
    log_max = math.log(sys.float_info.max)
    assert 200.0 * math.log(traj.t[n_finite - 1]) < log_max < 200.0 * math.log(traj.t[n_finite])


def test_non_finite_velocity_is_caught_at_its_sample(monkeypatch):
    # f = x^2/2 with A = [1e-150]: the flow is x' = -1e300 x, and h = 1e-299
    # puts each RK4 step at R(-10) = 291. X' = -1e300 X overflows first, at
    # sample 4 (X = 291^4 = 7.2e9 and V = 2.6e19 are finite there), so the run
    # stops there, after sample 3
    p = af.SplitProblem(af.QuadraticFunction([[1.0]]), af.QuadraticFunction.zero(1), [[1e-150]])
    h = 1e-299
    with pytest.raises(DivergenceError) as err:
        af.rk4_integrate(p, np.array([1.0]), IntegratorConfig(h=h, t0=0.0, t_end=20 * h))
    partial = err.value.trajectory
    assert len(partial) == 4
    assert err.value.t_last == partial.t[-1] == pytest.approx(3 * h)
    assert np.all(np.isfinite(partial.Xdot))
    assert partial.X[-1, 0] == pytest.approx(291.0**3, rel=1e-12)
    x4 = 291.0**4  # the premise: at sample 4 only X' leaves the finite range
    assert np.isfinite(0.5 * x4**2) and 1e300 * x4 == np.inf
    # from x0 = 1e9 at h = 1e-301 X decays and stays finite, but X' = -1e309
    # is inf from sample 0: the run still stops after its first block
    rows = []
    values = af.flows._values
    monkeypatch.setattr(af.flows, "_values", lambda p, xs: rows.append(len(xs)) or values(p, xs))
    config = IntegratorConfig(h=1e-301, t0=0.0, t_end=2000e-301)
    with pytest.raises(DivergenceError, match=r"after t = 0$") as err:
        af.rk4_integrate(p, np.array([1e9]), config)
    assert err.value.trajectory is None
    assert rows == [af.flows.ROW_BLOCK] and rows[0] < config.n_steps


def test_callback_rk4_stops_at_non_finite_velocity():
    # f = x^2/2 behind a callback whose gradient overflows from its 21st call:
    # with A = 0.1 the solve scales it by 100, so X' at sample 5 (4 gradients
    # per sample) is inf while X stays finite; no RK4 stage may see it
    calls = []

    def grad(x):
        calls.append(1)
        return np.full(1, 1e308) if len(calls) >= 21 else x

    f = af.CallbackFunction(lambda x: 0.5 * float(x @ x), grad, 1)
    p = af.SplitProblem(f, af.QuadraticFunction.zero(1), [[0.1]])
    with pytest.raises(DivergenceError, match=r"after t = 0\.4$") as err:
        af.rk4_integrate(p, np.array([1.0]), IntegratorConfig(h=0.1, t0=0.0, t_end=2.0),
                         v_star=0.0)
    assert len(calls) == 21
    partial = err.value.trajectory
    assert len(partial) == 5
    assert np.all(np.isfinite(partial.X)) and np.all(np.isfinite(partial.Xdot))


@pytest.mark.parametrize("flow, t_last, kept", [("rk4", "0\\.4", 5), ("symplectic", "2\\.1", 21)],
                         ids=["rk4", "symplectic"])
def test_callback_flows_check_their_loop_once_per_block(monkeypatch, flow, t_last, kept):
    # the gradient of the test above overflows at call 21, now on a grid
    # longer than one block: X' at RK4 sample 5 (4 gradients per sample), or
    # X and X' at symplectic sample 21 (1 per step). The run checks X and X'
    # once per chunk of ROW_BLOCK samples, so V is evaluated on that block.
    # The steps after the first non-finite sample run on NaN and call no
    # gradient (the velocity's A X check), and the run is reported there
    calls, rows = [], []

    def grad(x):
        calls.append(1)
        return np.full(1, 1e308) if len(calls) >= 21 else x

    values = af.flows._values
    monkeypatch.setattr(af.flows, "_values", lambda p, xs: rows.append(len(xs)) or values(p, xs))
    f = af.CallbackFunction(lambda x: 0.5 * float(x @ x), grad, 1)
    p = af.SplitProblem(f, af.QuadraticFunction.zero(1), [[0.1]])
    if flow == "rk4":
        config, integrate = IntegratorConfig(h=0.1, t0=0.0, t_end=200.0), af.rk4_integrate
    else:
        config = IntegratorConfig(h=0.1, t0=0.1, t_end=200.0, r=3.0)
        integrate = af.aadmm_flow_integrate
    with pytest.raises(DivergenceError, match=f"after t = {t_last}$") as err:
        integrate(p, np.array([1.0]), config, v_star=0.0)
    assert len(calls) == 21
    assert rows == [af.flows.ROW_BLOCK] and rows[0] < config.n_steps
    assert len(err.value.trajectory) == kept


@pytest.mark.parametrize("bad_call", [22, 23, 24], ids=["k2", "k3", "k4"])
def test_callback_rk4_stops_before_a_non_finite_stage_input(bad_call):
    # as above, but the gradient overflows at a later stage of the step from
    # sample 5 (calls 21-24 are its k1-k4): the next stage's input, or the
    # next X after k4, is not finite, so no further callback is made and the
    # run keeps the six samples up to t = 0.5
    seen = []

    def grad(x):
        seen.append(bool(np.isfinite(x).all()))
        return np.full(1, 1e308) if len(seen) >= bad_call else x

    f = af.CallbackFunction(lambda x: 0.5 * float(x @ x), grad, 1)
    p = af.SplitProblem(f, af.QuadraticFunction.zero(1), [[0.1]])
    with pytest.raises(DivergenceError, match=r"after t = 0\.5$") as err:
        af.rk4_integrate(p, np.array([1.0]), IntegratorConfig(h=0.1, t0=0.0, t_end=2.0),
                         v_star=0.0)
    assert len(seen) == bad_call and all(seen)
    assert len(err.value.trajectory) == 6


@pytest.mark.parametrize("flow", ["rk4", "symplectic"])
def test_callback_g_is_never_called_at_a_non_finite_AX(flow):
    # f = |x| and g = |z| behind callbacks, A = [[1e150]] and x0 = 1e160: X is
    # finite but A X = inf from sample 0, so neither the velocity nor V calls
    # a callback there, and the run is reported as diverged at sample 0
    args = []

    def recorded(fn):
        def call(v):
            args.append(v.copy())
            return fn(v)
        return call

    def absolute():
        return af.CallbackFunction(recorded(lambda v: float(np.sum(np.abs(v)))),
                                   recorded(np.sign), 1)

    p = af.SplitProblem(absolute(), absolute(), [[1e150]])
    x0 = np.array([1e160])
    with pytest.raises(DivergenceError, match=r"after t = 0\.1$" if flow == "symplectic"
                       else r"after t = 0$") as err:
        if flow == "rk4":
            af.rk4_integrate(p, x0, IntegratorConfig(h=0.1, t0=0.0, t_end=1.0), v_star=0.0)
        else:
            af.aadmm_flow_integrate(p, x0, IntegratorConfig(h=0.1, t0=0.1, t_end=1.0, r=3.0),
                                    v_star=0.0)
    assert err.value.trajectory is None
    assert all(np.isfinite(v).all() for v in args)


# Forward-error gate of the modal flow: C in C cond(A) eps, fixed from one
# measurement before the first comparison (the largest of the 8 cases read
# 0.13, g = 0 at cond(A) = 1e2; the modes of the formed A^T A read 1.1 to
# 3.3e6, and NumericalError at 9e9)
FLOW_FORWARD_C = 1.0

# sup-relative X of quadratic RK4 against callback RK4 on the same grid: C in
# C cond(A) eps, fixed from one measurement before the first comparison (the
# largest of the 8 cases read 57, g = 0 at cond(A) = 1e8; modes built from
# A^T M_g A were 3e-2 off at 1e8 with a dense g)
FLOW_CALLBACK_C = 256.0


def modal_solution(modes, x0, times):
    """X(t) of the first-order flow on the modal basis: each mode is
    ``y(t) = e^{-lam t} y(0) - beta (1 - e^{-lam t}) / lam``, with the limit
    ``y(0) - beta t`` at lam = 0."""
    lam, y0 = modes.lam, modes.coordinates(x0)
    zero = lam == 0.0
    rows = []
    for t in times:
        drift = np.where(zero, t, -np.expm1(-lam * t) / np.where(zero, 1.0, lam))
        rows.append(modes.phi @ (np.exp(-lam * t) * y0 - drift * modes.beta))
    return np.array(rows)


@pytest.mark.parametrize("kind", ["zero", "dense"])
@pytest.mark.parametrize("cond_a", [1e2, 1e6, 1e8, 9e9])
def test_modal_flow_matches_a_decimal_expm(kind, cond_a):
    # X(t) at t = 0.5, 2 and 6 from 5 1, against expm at 50 digits on the
    # problem's own data
    p = with_g(af.gen_figure1_problem(8, 2, 10.0, cond_a, seed=38), kind)
    x0, times = np.full(p.n, 5.0), (0.5, 2.0, 6.0)
    exact = decimal_flow(p, x0, times)
    err = np.max(np.abs(modal_solution(p.modes, x0, times) - exact)) / np.max(np.abs(exact))
    assert err <= FLOW_FORWARD_C * p.cond_A * EPS


@pytest.mark.parametrize("kind", ["zero", "dense"])
@pytest.mark.parametrize("cond_a", [1e2, 1e6, 1e8, 9e9])
def test_every_solver_and_flow_runs_across_cond_a(kind, cond_a):
    # every path completes without NumericalError on the n = 8 draws up to
    # cond(A) = 9e9, just inside the rank test's 1e10; quadratic and callback
    # RK4 agree to the rounding that a product with R^{-1} carries
    quad = with_g(af.gen_figure1_problem(8, 2, 10.0, cond_a, seed=38), kind)
    _, v_star = af.optimal_value(quad)
    x0 = np.full(quad.n, 5.0)
    rk4 = IntegratorConfig(h=1e-3, t0=0.0, t_end=2.0)
    symplectic = IntegratorConfig(h=1e-2, t0=1e-2, t_end=5.0, r=3.0)
    runs = {}
    for name, p, inner in (("quadratic", quad, None),
                           ("callback", as_callbacks(quad), GradCounter())):
        af.run_admm(p, x0, rho=50.0, max_iter=20, v_star=v_star, inner_solver=inner)
        af.run_aadmm(p, x0, rho=50.0, r=3.0, max_iter=20, v_star=v_star, inner_solver=inner)
        af.aadmm_flow_integrate(p, x0, symplectic, v_star=v_star)
        runs[name] = af.rk4_integrate(p, x0, rk4, v_star=v_star)
    want = runs["callback"].X
    err = np.max(np.abs(runs["quadratic"].X - want)) / np.max(np.abs(want))
    assert err <= FLOW_CALLBACK_C * quad.cond_A * EPS


@pytest.mark.parametrize("cond_a", [1e2, 1e8])
def test_mixed_quadratic_and_callback_flows_match_the_modal_runs(cond_a):
    # quadratic f with g behind a callback (dense g): the one path on which a
    # QuadraticFunction writes its gradient into the callback velocity's
    # buffer. Both flows agree with the all-quadratic modal runs to the
    # rounding that a product with R^{-1} carries
    quad = with_g(af.gen_figure1_problem(8, 2, 10.0, cond_a, seed=38), "dense")
    _, v_star = af.optimal_value(quad)
    mixed = af.SplitProblem(quad.f, af.CallbackFunction(quad.g.value, quad.g.grad, quad.m),
                            quad.A)
    assert not mixed.is_quadratic
    x0 = np.full(quad.n, 5.0)
    for integrate, config in ((af.rk4_integrate, IntegratorConfig(h=1e-3, t0=0.0, t_end=2.0)),
                              (af.aadmm_flow_integrate,
                               IntegratorConfig(h=1e-2, t0=1e-2, t_end=5.0, r=3.0))):
        want = integrate(mixed, x0, config, v_star=v_star).X
        err = np.max(np.abs(integrate(quad, x0, config, v_star=v_star).X - want))
        assert err <= FLOW_CALLBACK_C * quad.cond_A * EPS * np.max(np.abs(want))


@pytest.mark.parametrize("flow", ["rk4", "symplectic"])
def test_callback_flow_work_per_step(pd_2d_problem, flow):
    # the work a callback flow does on an N-step grid: RK4 takes 4 gradients
    # per step and one at the last sample, symplectic Euler one per step (its
    # first X' is 0), and both evaluate V once per sample
    calls = {}
    problem = as_callbacks(pd_2d_problem, calls)
    x0 = np.array([1.0, -2.0])
    if flow == "rk4":
        config, grads = IntegratorConfig(h=0.01, t0=0.0, t_end=0.5), 4 * 50 + 1
        af.rk4_integrate(problem, x0, config, v_star=0.0)
    else:
        config, grads = IntegratorConfig(h=0.01, t0=0.01, t_end=0.51, r=3.0), 50
        af.aadmm_flow_integrate(problem, x0, config, v_star=0.0)
    assert config.n_steps == 50
    assert calls == {(name, "grad"): grads for name in "fg"} | {
        (name, "value"): 51 for name in "fg"}


def test_callback_symplectic_run_stops_before_a_non_finite_input():
    # symplectic Euler on f = 50 x^2, A = 1 at h = 1 grows about 98-fold per
    # step; behind callbacks the run stops where the quadratic path reports
    # divergence, and no callback sees a non-finite input. V overflows at
    # sample 77 and X at sample 155: the loop steps on to the end of its check
    # block, with one gradient per step while X is finite and none after
    seen, grads = [], []

    def value(x):
        seen.append(bool(np.isfinite(x).all()))
        return 50.0 * float(x @ x)

    def grad(x):
        seen.append(bool(np.isfinite(x).all()))
        grads.append(1)
        return 100.0 * x

    quad = af.SplitProblem(af.QuadraticFunction([[100.0]]), af.QuadraticFunction.zero(1), [[1.0]])
    callbacks = af.SplitProblem(af.CallbackFunction(value, grad, 1), quad.g, quad.A)
    config = IntegratorConfig(h=1.0, t0=1.0, t_end=1e4, r=3.0)
    for problem in (quad, callbacks):
        with pytest.raises(DivergenceError) as err:
            af.aadmm_flow_integrate(problem, np.array([1.0]), config, v_star=0.0)
        assert len(err.value.trajectory) == 77
        assert err.value.t_last == err.value.trajectory.t[-1] == 77.0
    assert seen and all(seen)
    assert len(grads) == 155


def test_modal_flows_record_their_backward_error(pd_2d_problem):
    # quadratic flow runs record the pencil backward error of the modal basis
    # (in units of eps, below the 64 eps gate); callback runs have no basis
    x0 = np.array([1.0, -2.0])
    configs = [(af.rk4_integrate, IntegratorConfig(h=0.1, t0=0.0, t_end=1.0)),
               (af.aadmm_flow_integrate, IntegratorConfig(h=0.1, t0=0.1, t_end=1.0, r=3.0))]
    for integrate, config in configs:
        traj = integrate(pd_2d_problem, x0, config)
        assert traj.meta["modal_backward_error"] == pd_2d_problem.modes.backward_error
        assert 0.0 <= traj.meta["modal_backward_error"] < 64.0
        slow = integrate(as_callbacks(pd_2d_problem), x0, config, v_star=traj.v_star)
        assert "modal_backward_error" not in slow.meta


def test_zero_mode_drifts_on_both_paths():
    # f = x1^2/2 + x2, g = 0, A = I: the second mode has lam = 0 and drifts
    # (V is unbounded below, so v_star is given); both modal flows match the
    # callback path, and RK4 integrates the drift x2(t) = x2(0) - t exactly
    p = af.SplitProblem(af.QuadraticFunction(np.diag([1.0, 0.0]), [0.0, 1.0]),
                        af.QuadraticFunction.zero(2), np.eye(2))
    assert 0.0 in p.modes.lam  # the drift branch, not a tiny decaying mode
    x0 = np.array([1.5, 0.5])
    runs = [(af.rk4_integrate, IntegratorConfig(h=0.01, t0=0.0, t_end=5.0), ()),
            (af.aadmm_flow_integrate, IntegratorConfig(h=0.01, t0=0.01, t_end=5.0, r=3.0),
             ("hamiltonian",))]
    for integrate, config, extra in runs:
        fast = integrate(p, x0, config, v_star=0.0)
        slow = integrate(as_callbacks(p), x0, config, v_star=0.0)
        for field in ("X", "Xdot", "V") + extra:
            got, want = getattr(fast, field), getattr(slow, field)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), field
    rk = af.rk4_integrate(p, x0, runs[0][1], v_star=0.0)
    assert np.all(np.abs(rk.X[:, 1] - (x0[1] - rk.t)) <= 4 * EPS * (abs(x0[1]) + rk.t))
