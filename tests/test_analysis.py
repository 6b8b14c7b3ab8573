import numpy as np
import pytest

import admmflow as af
from admmflow.exceptions import UnsupportedFunctionError, WindowError
from admmflow.flows import IntegratorConfig

from helpers import rk4_reference, second_order_rhs, with_g


def exp_flow_trajectory(t_end=3.0, n=301):
    # closed-form solution of the 1-D flow x' = -x from x0 = 1: X = e^{-t}
    t = np.linspace(0.0, t_end, n)
    X = np.exp(-t)[:, None]
    V = 0.5 * np.exp(-2.0 * t)
    return af.Trajectory(t=t, V=V, v_gap=V, X=X, Xdot=-X, v_star=0.0)


def constant_trajectory(x_star, v_star, n=50, t_start=0.0):
    t = np.linspace(t_start, t_start + 5.0, n)
    X = np.tile(x_star, (n, 1))
    V = np.full(n, v_star)
    return af.Trajectory(t=t, V=V, v_gap=V - v_star, X=X, Xdot=np.zeros_like(X), v_star=v_star)


def test_monitor_admm_stability_constant(one_d_problem):
    traj = constant_trajectory(np.array([0.0]), 0.0)
    samples = af.monitor_admm_stability(one_d_problem, traj, np.array([0.0]))
    assert all(s.decay_ok for s in samples)
    assert all(s.value == 0.0 for s in samples)


def test_monitor_admm_stability_exponential(one_d_problem):
    traj = exp_flow_trajectory()
    samples = af.monitor_admm_stability(one_d_problem, traj, np.array([0.0]))
    values = np.array([s.value for s in samples])
    assert np.allclose(values, 0.5 * np.exp(-2.0 * traj.t), rtol=1e-12)
    assert np.all(np.diff(values) < 0)
    assert all(s.decay_ok for s in samples)
    # dE/dt = -||A X'||^2 exactly on the closed form; central differences
    # reproduce it to the stated relative accuracy at interior samples
    rate = np.exp(-2.0 * traj.t)
    resid = np.array([s.residual for s in samples])
    rel = resid[1:-1] / rate[1:-1]
    assert np.max(rel) <= 1e-3
    assert np.isnan(resid[0]) and np.isnan(resid[-1])


def test_monitor_admm_stability_requires_velocity(one_d_problem):
    # the residual needs X': a trajectory without recorded velocities is refused
    traj = exp_flow_trajectory()
    bare = af.Trajectory(t=traj.t, V=traj.V, v_gap=traj.v_gap, X=traj.X, v_star=0.0)
    with pytest.raises(ValueError, match="velocity"):
        af.monitor_admm_stability(one_d_problem, bare, np.array([0.0]))


def test_monitor_admm_rate_constant(one_d_problem):
    traj = constant_trajectory(np.array([0.0]), 0.0)
    samples = af.monitor_admm_rate(one_d_problem, traj, np.array([0.0]))
    assert all(s.value == 0.0 and s.decay_ok for s in samples)


def test_monitor_admm_rate_exponential_closed_form(one_d_problem):
    traj = exp_flow_trajectory()
    samples = af.monitor_admm_rate(one_d_problem, traj, np.array([0.0]))
    values = np.array([s.value for s in samples])
    expected = traj.t * 0.5 * np.exp(-2.0 * traj.t) + 0.5 * (np.exp(-traj.t)) ** 2
    assert np.allclose(values, expected, rtol=1e-12)
    # dE/dt = -e^{-2t} (1/2 + t) < 0: non-increasing on the whole window
    assert all(s.decay_ok for s in samples)
    assert values[-1] <= values[0]


def test_monitor_requires_two_samples(one_d_problem):
    t = np.array([0.0])
    traj = af.Trajectory(t=t, V=np.array([1.0]), v_gap=np.array([1.0]), X=np.ones((1, 1)))
    with pytest.raises(ValueError):
        af.monitor_admm_stability(one_d_problem, traj, np.array([0.0]))


def test_figure1_rk4_monitors_all_decay(figure1_problem, figure1_rk4_traj):
    x_star = np.zeros(figure1_problem.n)
    stab = af.monitor_admm_stability(figure1_problem, figure1_rk4_traj, x_star)
    assert all(s.decay_ok for s in stab)
    rate = af.monitor_admm_rate(figure1_problem, figure1_rk4_traj, x_star)
    assert all(s.decay_ok for s in rate)
    assert rate[-1].value <= rate[0].value


def test_monitor_aadmm_stability_2d(pd_2d_problem):
    x_star, _ = af.optimal_value(pd_2d_problem)
    traj = af.aadmm_flow_integrate(
        pd_2d_problem, np.array([3.0, -2.0]), IntegratorConfig(h=1e-3, t0=1e-3, t_end=20.0, r=10.0)
    )
    samples = af.monitor_aadmm_stability(pd_2d_problem, traj, x_star, rtol=1e-6)
    assert all(s.decay_ok for s in samples)
    # zero-velocity sample at the minimizer has zero energy
    triv = constant_trajectory(x_star, af.eval_V(pd_2d_problem, x_star), t_start=0.1)
    triv.meta["r"] = 10.0
    assert all(s.value == pytest.approx(0.0, abs=1e-12) for s in
               af.monitor_aadmm_stability(pd_2d_problem, triv, x_star))


def test_monitor_aadmm_stability_matches_identity_A_reference():
    # with A = I the damped flow is the accelerated-gradient ODE; the same
    # energy monitored on an independent RK4 reference must agree
    f = af.QuadraticFunction([[3.0, 0.4], [0.4, 1.0]], [0.5, -0.25])
    p = af.SplitProblem(f, af.QuadraticFunction.zero(2), np.eye(2))
    x_star, _ = af.optimal_value(p)
    x0 = np.array([2.0, -1.5])
    r, t0, t_end, h = 10.0, 0.05, 10.05, 5e-3
    traj = af.aadmm_flow_integrate(p, x0, IntegratorConfig(h=h, t0=t0, t_end=t_end, r=r))
    ts, ys = rk4_reference(second_order_rhs(p, r), np.concatenate([x0, np.zeros(2)]), t0, t_end, h)
    ref = af.Trajectory(
        t=ts, V=np.array([af.eval_V(p, y[:2]) for y in ys]),
        v_gap=np.zeros(len(ts)), X=ys[:, :2], Xdot=ys[:, 2:], meta={"r": r},
    )
    e_symp = np.array([s.value for s in af.monitor_aadmm_stability(p, traj, x_star)])
    e_ref = np.array([s.value for s in af.monitor_aadmm_stability(p, ref, x_star)])
    scale = np.max(e_ref)
    assert np.max(np.abs(e_symp - e_ref)) <= 0.05 * scale


def test_figure1_symplectic_monitors(figure1_problem, figure1_symplectic_traj):
    x_star = np.zeros(figure1_problem.n)
    stab = af.monitor_aadmm_stability(figure1_problem, figure1_symplectic_traj, x_star)
    frac = sum(s.decay_ok for s in stab) / len(stab)
    assert frac >= 0.99
    rate = af.monitor_aadmm_rate(figure1_problem, figure1_symplectic_traj, x_star)
    frac = sum(s.decay_ok for s in rate) / len(rate)
    assert frac >= 0.99
    assert max(s.residual for s in rate) <= 1e-12


def test_monitor_aadmm_rate_weight_identity(one_d_problem):
    # at t = r - 1 the weight is 1; at t = 2, r = 3 the identity reads
    # (r-1)/t + 1/t = 1.5 = r/t exactly
    r = 3.0
    t = np.array([2.0, 2.5, 3.0])
    X = np.zeros((3, 1))
    traj = af.Trajectory(t=t, V=np.zeros(3), v_gap=np.zeros(3), X=X, Xdot=np.zeros((3, 1)),
                         meta={"r": r})
    samples = af.monitor_aadmm_rate(one_d_problem, traj, np.array([0.0]))
    assert samples[0].residual <= 1e-13
    # hand value: X = 1, Xdot = 0, x* = 0 at t = r - 1 gives E = e^0*gap + 0.5*1
    traj2 = af.Trajectory(
        t=np.array([2.0, 2.1]), V=np.array([0.5, 0.5]), v_gap=np.array([0.5, 0.5]),
        X=np.ones((2, 1)), Xdot=np.zeros((2, 1)), meta={"r": r},
    )
    s2 = af.monitor_aadmm_rate(one_d_problem, traj2, np.array([0.0]))
    assert s2[0].value == pytest.approx(1.0, rel=1e-12)


def test_monitor_aadmm_requires_velocity(one_d_problem):
    traj = exp_flow_trajectory()
    bare = af.Trajectory(t=traj.t, V=traj.V, v_gap=traj.v_gap, X=traj.X, meta={"r": 3.0})
    with pytest.raises(ValueError):
        af.monitor_aadmm_stability(one_d_problem, bare, np.array([0.0]))
    with pytest.raises(ValueError):
        af.monitor_aadmm_rate(one_d_problem, traj, np.array([0.0]))  # no r anywhere


@pytest.mark.parametrize("bad_t", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("monitor", [af.monitor_aadmm_stability, af.monitor_aadmm_rate],
                         ids=["stability", "rate"])
def test_second_order_monitors_require_positive_times(one_d_problem, monitor, bad_t):
    # a NaN sample time fails the t > 0 test as 0 and -1 do, before any weight
    # or residual is formed from it
    t = np.array([1.0, 2.0, bad_t, 4.0])
    traj = af.Trajectory(t=t, V=np.zeros(4), v_gap=np.zeros(4), X=np.zeros((4, 1)),
                         Xdot=np.zeros((4, 1)), meta={"r": 3.0})
    with pytest.raises(ValueError, match="positive sample times"):
        monitor(one_d_problem, traj, np.array([0.0]))


def test_fit_rate_pure_power_laws():
    t = np.linspace(1.0, 30.0, 400)
    quad = af.Trajectory(t=t, V=7.0 / t**2, v_gap=7.0 / t**2)
    fit = af.fit_rate(quad, (2.0, 20.0), slope_target=-2.0)
    assert fit.slope == pytest.approx(-2.0, abs=1e-6)
    assert fit.C == pytest.approx(7.0, abs=1e-5)
    lin = af.Trajectory(t=t, V=3.0 / t, v_gap=3.0 / t)
    fit = af.fit_rate(lin, (2.0, 20.0), slope_target=-1.0)
    assert fit.slope == pytest.approx(-1.0, abs=1e-6)
    assert fit.C == pytest.approx(3.0, abs=1e-5)
    assert fit.n_samples >= 10
    assert "slope" not in fit.summary()  # values only, comma separated
    assert len(fit.summary().split(",")) == len(af.RateFit.FIELDS)


def test_fit_rate_reads_trajectory_gaps():
    # the gaps are the trajectory's v_gap, whatever offset V carries
    t = np.linspace(1.0, 30.0, 400)
    offset = af.Trajectory(t=t, V=7.0 / t**2 + 5.0, v_gap=7.0 / t**2)
    fit = af.fit_rate(offset, (2.0, 20.0), slope_target=-2.0)
    assert fit.slope == pytest.approx(-2.0, abs=1e-6)
    assert fit.C == pytest.approx(7.0, abs=1e-5)


def test_fit_rate_window_errors():
    t = np.linspace(1.0, 30.0, 200)
    gap = 1e-12 / t**2  # drops through the 1e-14 floor at t = 10
    traj = af.Trajectory(t=t, V=gap, v_gap=gap)
    with pytest.raises(WindowError) as err:
        af.fit_rate(traj, (2.0, 25.0))
    assert "t_hi" in str(err.value)
    with pytest.raises(ValueError):
        af.fit_rate(traj, (0.0, 10.0))
    small = af.Trajectory(t=np.linspace(2, 3, 5), V=np.ones(5), v_gap=np.ones(5))
    with pytest.raises(ValueError):
        af.fit_rate(small, (1.0, 10.0))
    # a non-finite gap inside the window is refused, naming its t, rather
    # than fitted to a NaN slope; a NaN time is refused, not dropped
    for bad in (np.nan, np.inf):
        broken = 3.0 / t
        broken[[20, 40]] = bad
        with pytest.raises(ValueError, match=f"not finite at t = {t[20]:.6g}$"):
            af.fit_rate(af.Trajectory(t=t, V=broken, v_gap=broken), (2.0, 25.0))
    broken = t.copy()
    broken[30] = np.nan
    with pytest.raises(ValueError, match="not finite at t = nan$"):
        af.fit_rate(af.Trajectory(t=broken, V=3.0 / t, v_gap=3.0 / t), (2.0, 25.0))


@pytest.mark.parametrize("target", [np.nan, np.inf, -np.inf])
def test_fit_rate_refuses_a_non_finite_target(target):
    # C = max gap t^(-target) would read nan or 0 and gate nothing
    t = np.linspace(1.0, 30.0, 200)
    traj = af.Trajectory(t=t, V=3.0 / t, v_gap=3.0 / t)
    with pytest.raises(ValueError, match="slope_target must be finite"):
        af.fit_rate(traj, (2.0, 25.0), slope_target=target)


def test_figure1_rate_fits(figure1_rk4_traj, figure1_symplectic_traj):
    plain = af.fit_rate(figure1_rk4_traj, (2.0, 20.0), slope_target=-1.0)
    assert plain.slope <= -1.0 + 0.3
    acc = af.fit_rate(figure1_symplectic_traj, (2.0, 20.0), slope_target=-2.0)
    assert acc.slope <= -2.0 + 0.3


def test_check_state_convergence_constant(pd_2d_problem):
    x_star, v_star = af.optimal_value(pd_2d_problem)
    traj = constant_trajectory(x_star, v_star)
    ok, report = af.check_state_convergence(pd_2d_problem, traj, x_star)
    assert ok
    assert report["mu"] > 0


def test_check_state_convergence_2d_run(pd_2d_problem):
    x_star, _ = af.optimal_value(pd_2d_problem)
    x0 = np.array([3.0, -2.0])
    traj = af.aadmm_flow_integrate(
        pd_2d_problem, x0, IntegratorConfig(h=1e-2, t0=1e-2, t_end=100.0, r=10.0)
    )
    ok, report = af.check_state_convergence(pd_2d_problem, traj, x_star)
    assert ok
    assert np.linalg.norm(traj.X[-1] - x_star) <= 1e-3 * np.linalg.norm(x0 - x_star)


def test_check_state_convergence_rejects_singular(figure1_problem, figure1_symplectic_traj):
    with pytest.raises(UnsupportedFunctionError):
        af.check_state_convergence(
            figure1_problem, figure1_symplectic_traj, np.zeros(figure1_problem.n)
        )


def test_check_state_convergence_rejects_a_zero_eigenvalue_rounded_positive():
    # M_f of this draw has one exact zero eigenvalue, which eigvalsh returns
    # as +5.5e-16: a sign test called V strongly convex with mu = 5.5e-16.
    # The pencil's smallest eigenvalue reads -2.0e-17, -0.03 eps of max|lam|
    p = af.gen_figure1_problem(8, 1, 10.0, 100.0, seed=3)
    assert np.linalg.eigvalsh(p.f.M)[0] > 0
    traj = af.aadmm_flow_integrate(p, 5.0 * np.ones(8),
                                   IntegratorConfig(h=1e-2, t0=1e-2, t_end=20.0, r=10.0))
    with pytest.raises(UnsupportedFunctionError, match="not strongly convex"):
        af.check_state_convergence(p, traj, af.optimal_value(p)[0])


@pytest.mark.parametrize("cond_a", [1e8, 9e9])
def test_check_state_convergence_accepts_an_ill_conditioned_dense_g_draw(monkeypatch, cond_a):
    # V is strongly convex at any cond(A) (M_g is PD); mu is the smallest
    # eigenvalue of the pencil (H, A^T A), 0.265 and 0.263 here, read from
    # the modal basis with no eigvalsh. eigvalsh of the formed H read 4.785
    # and -9,686 and called V not strongly convex
    p = with_g(af.gen_figure1_problem(60, 40, 10.0, cond_a, seed=38), "dense")
    traj = af.aadmm_flow_integrate(p, 5.0 * np.ones(60),
                                   IntegratorConfig(h=1e-2, t0=1e-2, t_end=20.0, r=10.0))
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    ok, report = af.check_state_convergence(p, traj, af.optimal_value(p)[0])
    assert report["mu"] == p.modes.lam[0] and 0.26 < report["mu"] < 0.27
    assert ok


def test_sup_discrepancy_basics():
    t = np.linspace(0.0, 10.0, 50)
    a = af.Trajectory(t=t, V=np.ones(50), v_gap=np.ones(50))
    assert af.sup_discrepancy(a, a) == 0.0
    b = af.Trajectory(t=t, V=np.full(50, 1.5), v_gap=np.full(50, 1.5))
    # |1.5 - 1| / (1 + 1) = 0.25
    assert af.sup_discrepancy(b, a) == pytest.approx(0.25)
    far = af.Trajectory(t=t + 100.0, V=np.ones(50), v_gap=np.ones(50))
    with pytest.raises(ValueError):
        af.sup_discrepancy(a, far)


@pytest.fixture(scope="module")
def pd_2d_flows(pd_2d_problem):
    x0 = np.array([3.0, -2.0])
    return {
        "rk4": af.rk4_integrate(pd_2d_problem, x0, IntegratorConfig(h=1e-2, t0=0.0, t_end=2.0)),
        "symplectic": af.aadmm_flow_integrate(
            pd_2d_problem, x0, IntegratorConfig(h=1e-2, t0=1e-2, t_end=2.0, r=3.0)
        ),
    }


@pytest.mark.parametrize("monitor, flow", [
    ("monitor_admm_stability", "rk4"),
    ("monitor_admm_rate", "rk4"),
    ("monitor_aadmm_stability", "symplectic"),
    ("monitor_aadmm_rate", "symplectic"),
])
def test_monitor_record_contract(pd_2d_problem, pd_2d_flows, monitor, flow):
    traj = pd_2d_flows[flow]
    x_star, _ = af.optimal_value(pd_2d_problem)
    mon = getattr(af, monitor)(pd_2d_problem, traj, x_star)
    assert isinstance(mon, np.recarray)
    assert len(mon) == len(traj)
    for name in ("t", "value", "residual"):
        assert getattr(mon, name).dtype == np.float64, name
    assert mon.decay_ok.dtype == np.bool_
    assert np.array_equal(mon.t, traj.t)
    # rows iterate as records with the column names as attributes
    rows = list(mon)
    for name in ("t", "value", "decay_ok", "residual"):
        by_row = np.array([getattr(s, name) for s in rows])
        assert np.array_equal(by_row, getattr(mon, name), equal_nan=name != "decay_ok"), name


def test_write_monitor_csv(tmp_path, one_d_problem):
    traj = exp_flow_trajectory(n=11)
    samples = af.monitor_admm_stability(one_d_problem, traj, np.array([0.0]))
    path = tmp_path / "monitor.csv"
    af.write_monitor_csv(samples, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,E,decay_ok,residual"
    assert len(lines) == 12
    assert lines[1].split(",")[2] == "1"


def test_monitor_aadmm_rate_constant_at_minimizer(pd_2d_problem):
    x_star, v_star = af.optimal_value(pd_2d_problem)
    traj = constant_trajectory(x_star, v_star, t_start=0.5)
    traj.meta["r"] = 3.0
    samples = af.monitor_aadmm_rate(pd_2d_problem, traj, x_star)
    assert all(abs(s.value) <= 1e-12 and s.decay_ok for s in samples)
