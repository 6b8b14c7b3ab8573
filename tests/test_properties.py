"""Invariants of the steps and run drivers on random small quadratic problems.

Every bound here was fixed from a rounding-error estimate before the tests
were first run.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import admmflow as af
from admmflow.discrete import BLOCK
from admmflow.flows import IntegratorConfig

from helpers import CANCELLING_DRAW, random_problem

EPS = np.finfo(float).eps


problems = st.builds(random_problem, seed=st.integers(0, 2**32 - 1),
                     n=st.integers(1, 5), extra_rows=st.integers(0, 3))


@settings(max_examples=40, deadline=None)
@given(problem_rng=problems, frac=st.floats(1e-3, 2.5))
def test_rk4_propagator_is_the_four_stage_step(problem_rng, frac):
    # sample 1 of the modal RK4 (each mode multiplied by R(-h lam)) is one
    # four-stage step of the flow's right-hand side
    problem, rng = problem_rng
    H = problem.f.M + problem.A.T @ problem.g.M @ problem.A
    c = problem.f.q + problem.A.T @ problem.g.q
    ata = problem.A.T @ problem.A
    K, b = np.linalg.solve(ata, H), np.linalg.solve(ata, c)
    norm_hk = frac  # h ||K||_2, inside RK4's stability interval on the real axis
    h = frac / np.linalg.norm(K, 2)
    x = rng.standard_normal(problem.n)
    got = af.rk4_integrate(problem, x, IntegratorConfig(h=h, t0=0.0, t_end=h)).X[1]

    def rhs(y):
        return af.admm_flow_rhs(problem, y)

    k1 = rhs(x)
    k2 = rhs(x + 0.5 * h * k1)
    k3 = rhs(x + 0.5 * h * k2)
    k4 = rhs(x + h * k3)
    want = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    scale = (1.0 + norm_hk) ** 4 * (np.linalg.norm(x) + h * np.linalg.norm(b))
    assert np.linalg.norm(got - want) <= 64 * problem.n * EPS * scale


@settings(max_examples=30, deadline=None)
@given(problem_rng=problems, h=st.floats(1e-3, 0.5), rho=st.floats(0.1, 100.0),
       r=st.floats(3.0, 20.0), k=st.integers(0, 50))
@example(problem_rng=random_problem(*CANCELLING_DRAW), h=0.1, rho=1.0, r=3.0, k=0)
def test_minimizer_is_a_fixed_point_of_every_step(problem_rng, h, rho, r, k):
    problem, _ = problem_rng
    x_star, _ = af.optimal_value(problem)
    tol = 1e-10 * (1.0 + np.linalg.norm(x_star))

    # a modal RK4 step from x*: X stays put and X' stays zero
    rk = af.rk4_integrate(problem, x_star, IntegratorConfig(h=h, t0=0.0, t_end=h))
    assert len(rk) == 2
    assert np.max(np.linalg.norm(rk.X - x_star, axis=1)) <= tol
    assert np.max(np.linalg.norm(rk.Xdot, axis=1)) <= tol

    # symplectic Euler steps from rest at x*: X and X' stay put
    sym = af.aadmm_flow_integrate(problem, x_star,
                                  IntegratorConfig(h=h, t0=1.0, t_end=1.0 + 1.5 * h, r=r))
    assert len(sym) == 3
    assert np.max(np.linalg.norm(sym.X - x_star, axis=1)) <= tol
    assert np.max(np.linalg.norm(sym.Xdot, axis=1)) <= tol

    # ADMM at (x*, z* = A x*, u* = grad g(z*) / rho), the scaled dual optimum
    z_star = problem.A @ x_star
    u_star = problem.g.grad(z_star) / rho
    plain = af.admm_step(problem, af.AdmmState(x=x_star, z=z_star, u=u_star, k=k, rho=rho))
    acc = af.aadmm_step(problem, af.AccAdmmState(x=x_star, z=z_star, u=u_star, z_hat=z_star,
                                                 u_hat=u_star, k=k, rho=rho, r=r))
    for state in (plain, acc):
        assert np.linalg.norm(state.x - x_star) <= tol
        assert np.linalg.norm(state.z - z_star) <= tol * np.linalg.norm(problem.A, 2)
    assert np.linalg.norm(acc.z_hat - z_star) <= tol * np.linalg.norm(problem.A, 2)


def test_rk4_is_fourth_order_against_exp():
    # f = sum_i lam_i x_i^2 / 2 + q_i x_i, A = diag(a): x' = -(K x + b) with
    # K = diag(lam / a^2), b = q / a^2, so x(t) = x* + (x0 - x*) e^{-K t}
    lam = np.array([0.5, 1.0, 2.0, 4.0])
    a = np.array([1.0, 0.8, 1.2, 1.0])
    q = np.array([1.0, -0.5, 0.25, 2.0])
    problem = af.SplitProblem(af.QuadraticFunction(np.diag(lam), q), af.QuadraticFunction.zero(4),
                              np.diag(a))
    kappa, x_star = lam / a**2, -q / lam
    x0 = np.array([1.0, -2.0, 0.5, 3.0])
    exact = x_star + (x0 - x_star) * np.exp(-kappa)
    errs = []
    for h in (0.02, 0.01, 0.005):
        traj = af.rk4_integrate(problem, x0, IntegratorConfig(h=h, t0=0.0, t_end=1.0))
        assert traj.t[-1] == pytest.approx(1.0)
        errs.append(np.max(np.abs(traj.X[-1] - exact)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all((orders >= 3.9) & (orders <= 4.1)), orders


def start_state(problem, x0, rho, r):
    if r is None:
        return af.initial_admm_state(problem, x0, rho)
    return af.initial_aadmm_state(problem, x0, rho, r)


def run(problem, x0, rho, r, max_iter, stop_tol=0.0):
    if r is None:
        return af.run_admm(problem, x0, rho, max_iter, stop_tol)
    return af.run_aadmm(problem, x0, rho, r, max_iter, stop_tol)


def step_loop(problem, state, max_iter):
    """States 0 .. max_iter of a plain loop of checked steps."""
    step = af.aadmm_step if isinstance(state, af.AccAdmmState) else af.admm_step
    states = [state]
    for _ in range(max_iter):
        states.append(step(problem, states[-1]))
    return states


@settings(max_examples=40, deadline=None)
@given(problem_rng=problems, rho=st.floats(0.1, 100.0),
       r=st.one_of(st.none(), st.floats(3.0, 20.0)),
       max_iter=st.sampled_from([BLOCK - 1, BLOCK, 2 * BLOCK + 1]))
def test_blocked_run_is_the_step_loop(problem_rng, rho, r, max_iter):
    problem, rng = problem_rng
    x0 = rng.standard_normal(problem.n)
    traj = run(problem, x0, rho, r, max_iter)
    # the default stop_tol = 0 ends a run whose iterate stops moving
    assert len(traj) == max_iter + 1 or traj.meta["stopped_early"]
    states = step_loop(problem, start_state(problem, x0, rho, r), len(traj) - 1)
    xs = np.array([st.x for st in states])
    assert np.array_equal(traj.X, xs)
    # the run's V comes from row-wise products; each form of every term is
    # within gamma_{2(n+m)} of exact, so the two differ by at most twice that
    f, g, A = problem.f, problem.g, problem.A
    x_sq = np.sum(xs**2, axis=1)
    scale = (np.linalg.norm(f.M) * x_sq + np.linalg.norm(f.q) * np.sqrt(x_sq)
             + np.linalg.norm(g.M) * np.linalg.norm(A) ** 2 * x_sq
             + np.linalg.norm(g.q) * np.linalg.norm(A) * np.sqrt(x_sq))
    want = np.array([af.eval_V(problem, x) for x in xs])
    assert np.all(np.abs(traj.V - want) <= 16 * (problem.n + problem.m) * EPS * scale)


@settings(max_examples=40, deadline=None)
@given(problem_rng=problems, rho=st.floats(0.1, 100.0),
       r=st.one_of(st.none(), st.floats(3.0, 20.0)),
       target=st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1]))
@example(problem_rng=random_problem(seed=2, n=2, extra_rows=2), rho=1.0, r=None,
         target=BLOCK + 1)
@example(problem_rng=random_problem(seed=2, n=2, extra_rows=2), rho=3.0, r=None,
         target=BLOCK + 1)
def test_stop_tol_stops_where_the_step_loop_does(problem_rng, rho, r, target):
    # a stop_tol between the stopping criterion at `target` and its smallest
    # earlier value stops the step loop at `target`, on either side of the
    # first block boundary (sample BLOCK ends the first block)
    problem, rng = problem_rng
    x0 = rng.standard_normal(problem.n)
    states = step_loop(problem, start_state(problem, x0, rho, r), target + 3)
    crit = [np.linalg.norm(problem.A @ b.x - b.z) + np.linalg.norm(b.z - a.z)
            for a, b in zip(states, states[1:])]  # crit[k - 1] is that of sample k
    earlier = min(crit[:target - 1])
    # the run forms A x as rows of xs @ A^T, this oracle as A @ x: each is
    # within gamma_n |A||x| of exact per entry, and the subtraction, the two
    # norms and their sum add a relative gamma_{m+3} to either side, so the
    # two roundings of sample k's criterion differ by at most
    # 4 (n + m + 3) eps (||A||_F ||x_k|| + crit_k); a stop_tol halfway between
    # crit[target - 1] and `earlier` decides as here when they are further
    # apart than twice that
    norm_a = np.linalg.norm(problem.A)
    slack = 4 * (problem.n + problem.m + 3) * EPS * max(
        norm_a * np.linalg.norm(b.x) + c for b, c in zip(states[1:target + 1], crit))
    assume(earlier - crit[target - 1] > 2.0 * slack)
    traj = run(problem, x0, rho, r, max_iter=target + 3,
               stop_tol=0.5 * (crit[target - 1] + earlier))
    assert traj.meta["stopped_early"]
    assert traj.k[-1] == target


def zero_g(problem_rng):
    """A random problem's f and A with g = 0: its runs step the mode coordinates."""
    problem, rng = problem_rng
    return af.SplitProblem(problem.f, af.QuadraticFunction.zero(problem.m), problem.A), rng


zero_g_problems = problems.map(zero_g)


@settings(max_examples=40, deadline=None)
@given(problem_rng=zero_g_problems, rho=st.floats(0.1, 100.0),
       r=st.one_of(st.none(), st.floats(3.0, 20.0)))
def test_modal_run_stays_near_the_step_loop(problem_rng, rho, r):
    # both paths compute w = R x <- K^{-1} (rho w_hat - R^{-T} q_f), K = R^{-T}
    # M_f R^{-1} + rho I; each computed step is the exact step of its input
    # plus a local error of at most 4 (n + m) cond(A) eps max ||x|| (two
    # products of norm <= cond(A), each within gamma_{n+m}). ADMM's exact
    # step is nonexpansive in w (0 < d <= 1), so sample k is within
    # cond(A) k times that of exact, and the paths within twice that. A-ADMM's
    # momentum carries a local error forward amplified at most k + 1 times
    # (per mode, successive differences shrink by d gamma <= 1): k^2 for k
    problem, rng = problem_rng
    x0 = rng.standard_normal(problem.n)
    traj = run(problem, x0, rho, r, 2 * BLOCK + 1)
    states = step_loop(problem, start_state(problem, x0, rho, r), len(traj) - 1)
    xs = np.array([st.x for st in states])
    k = np.arange(len(xs))
    local = 4 * (problem.n + problem.m) * problem.cond_A * EPS * np.max(
        np.linalg.norm(xs, axis=1))
    bound = 2 * problem.cond_A * local * (k if r is None else k**2)
    assert np.all(np.linalg.norm(traj.X - xs, axis=1) <= bound)
    assert np.array_equal(traj.X[0], x0) and not np.any(traj.primal_residual)


@settings(max_examples=40, deadline=None)
@given(problem_rng=zero_g_problems, rho=st.floats(0.1, 100.0),
       r=st.one_of(st.none(), st.floats(3.0, 20.0)),
       target=st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1]))
def test_modal_stop_tol_stops_where_the_step_loop_does(problem_rng, rho, r, target):
    # as test_stop_tol_stops_where_the_step_loop_does, for the g = 0 runs
    # that step the mode coordinates. Their criterion is ||A (x_k -
    # x_{k-1})|| (z = A x, so the primal residual is 0), and it differs from
    # the step loop's by at most ||A|| (||e_k|| + ||e_{k-1}||), with e the
    # difference of the two paths' iterates (taken from a full run, whose
    # iterates a stop_tol does not change), on top of the rounding slack
    # argued there
    problem, rng = problem_rng
    x0 = rng.standard_normal(problem.n)
    states = step_loop(problem, start_state(problem, x0, rho, r), target + 3)
    crit = [np.linalg.norm(problem.A @ b.x - b.z) + np.linalg.norm(b.z - a.z)
            for a, b in zip(states, states[1:])]  # crit[k - 1] is that of sample k
    earlier = min(crit[:target - 1])
    full = run(problem, x0, rho, r, max_iter=target + 3)
    assume(len(full) > target)
    e = np.linalg.norm(full.X[:target + 1] - [st.x for st in states[:target + 1]], axis=1)
    norm_a = np.linalg.norm(problem.A)
    slack = norm_a * 2 * np.max(e) + 4 * (problem.n + problem.m + 3) * EPS * max(
        norm_a * np.linalg.norm(b.x) + c for b, c in zip(states[1:target + 1], crit))
    assume(earlier - crit[target - 1] > 2.0 * slack)
    traj = run(problem, x0, rho, r, max_iter=target + 3,
               stop_tol=0.5 * (crit[target - 1] + earlier))
    assert traj.meta["stopped_early"]
    assert traj.k[-1] == target
