"""Lyapunov-style monitors and convergence-rate estimation over trajectories.

Each monitor evaluates an energy along a sampled trajectory, flags
per-sample monotone decay within a tolerance, and (where the flow gives an
exact expression for the energy's time derivative) reports the residual
between a finite-difference derivative and that expression. Monitors are
pure functions over immutable trajectories. Each returns one NumPy record
array with one row per sample and the columns ``t``, ``value`` (the
energy), ``decay_ok`` (bool) and ``residual`` (nan where undefined); its
rows iterate as records with the same attribute names. Monitors that need
the velocity X' read the trajectory's recorded ``Xdot`` (both flows record
it), the second-order ones read the damping r from its ``meta["r"]``, and
every ``||A y||^2`` term is formed by the same row-wise helper as the
Hamiltonian of the second-order flow. Those terms are functions of a block
of rows of X and X' (:func:`_monitor_terms`): a monitor forms them over a
trajectory's stored rows one block at a time, or reads them from its
``terms`` when its run handed its blocks to :func:`flow_row_terms` at the
same x* and stored no X. Rate fits read the trajectory's own objective
gaps ``v_gap``.

Decay tolerances default to the integrator order that produced the
trajectory: tight (1e-9) for RK4 runs of the first-order flow, looser
relative tolerance (1e-5) for symplectic Euler runs of the second-order
flow, whose discretization only approximately preserves the continuous
decay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError, UnsupportedFunctionError, WindowError
from .problem import (_a_sq_norms, _check_damping, _hessian_and_linear_term, _map_rows,
                      _row_norms, eval_V)
from .trajectory import NORM_TERMS, RowTerms, write_columns_csv

__all__ = [
    "RateFit",
    "monitor_admm_stability",
    "monitor_admm_rate",
    "monitor_aadmm_stability",
    "monitor_aadmm_rate",
    "fit_rate",
    "check_state_convergence",
    "sup_discrepancy",
    "write_monitor_csv",
    "flow_row_terms",
]

GAP_FLOOR = 1e-14  # objective gaps below this are treated as solver noise
MIN_FIT_SAMPLES = 10  # samples a rate-fit window must hold


@dataclass
class RateFit:
    """Log-log slope fit of an objective-gap curve over a time window."""

    slope: float
    C: float
    window: tuple[float, float]
    n_samples: int

    # the cells of summary(), in order: the columns of a rates table
    FIELDS = ("slope", "C", "window_lo", "window_hi", "n_samples")

    def summary(self):
        """Single-line report, one cell per name in ``FIELDS``."""
        lo, hi = self.window
        return f"{self.slope:.6g},{self.C:.6g},{lo:.6g},{hi:.6g},{self.n_samples}"


def _decay_flags(values, rtol):
    ok = np.ones(values.size, dtype=bool)
    ok[1:] = values[1:] <= values[:-1] + rtol * (1.0 + np.abs(values[:-1]))
    return ok


def _central_diff(t, values):
    d = np.full(values.size, np.nan)
    d[1:-1] = (values[2:] - values[:-2]) / (t[2:] - t[:-2])
    return d


def _check_traj(traj, need_velocity=False):
    if len(traj) < 2:
        raise ValueError("monitors need a trajectory with at least 2 samples")
    if traj.terms is not None:  # a run that kept row terms in place of X and X'
        return
    if traj.X is None:
        raise ValueError("monitors need state samples (trajectory.X)")
    if need_velocity and traj.Xdot is None:
        raise ValueError("this monitor needs velocity samples (trajectory.Xdot)")


def _eta(t, r):
    """The weight exponent ``eta(t) = 2 log(t / (r - 1))`` of the
    second-order rate energy."""
    return 2.0 * np.log(t / (r - 1.0))


def _monitor_terms(problem, t, x_star, r=None):
    """The row terms the monitors of one flow read at ``x_star`` on the
    sample times ``t``, as functions ``fn(rows, X, Xdot)`` of a block of
    rows, by name: ``kinetic`` ``||A X'||^2`` and, for the first-order flow
    (r None), ``displacement`` ``||A (X - x*)||^2`` or, for the second-order
    flow with damping r, ``rate_displacement`` ``||A (X - x* + e^{eta/2}
    X')||^2``."""
    terms = {"kinetic": lambda rows, X, Xdot: _a_sq_norms(problem, Xdot)}
    if r is None:
        terms["displacement"] = lambda rows, X, Xdot: _a_sq_norms(problem, X - x_star)
    else:
        half_weight = np.exp(0.5 * _eta(t, r))
        terms["rate_displacement"] = lambda rows, X, Xdot: _a_sq_norms(
            problem, X - x_star + half_weight[rows, None] * Xdot)
    return terms


def _row_term(problem, traj, x_star, name, r=None):
    """The row term ``name`` of :func:`_monitor_terms` at each sample of
    ``traj``: the one its ``terms`` carry when they were taken at
    ``x_star``, else formed over its stored X and X' one block of
    :func:`_row_blocks` at a time."""
    x_star = np.asarray(x_star, dtype=float)
    terms = traj.terms
    if terms is not None and name in terms.values and np.array_equal(terms.at, x_star):
        return terms.values[name]
    if traj.X is None:
        raise ValueError(f"monitors need state samples (trajectory.X) or its {name} row term "
                         "taken at this x_star")
    fn = _monitor_terms(problem, traj.t, x_star, r)[name]
    return _map_rows(lambda rows: fn(rows, traj.X[rows], None if traj.Xdot is None
                                     else traj.Xdot[rows]), len(traj))


def flow_row_terms(problem, config, x_star=None):
    """A :class:`~admmflow.trajectory.RowTerms` for a flow run on
    ``config``'s grid, as the ``terms`` of :func:`rk4_integrate` or
    :func:`aadmm_flow_integrate`: the CSV's ``x_norm`` and ``xdot_norm``
    and, with ``x_star``, the row terms the flow's monitors read at it
    (:func:`_monitor_terms`), so that the run's CSV and monitors need no
    stored X and X'."""
    functions = dict(NORM_TERMS)
    if x_star is not None:
        x_star = np.asarray(x_star, dtype=float)
        r = None if config.r is None else float(config.r)
        functions.update(_monitor_terms(problem, config.times(), x_star, r))
    return RowTerms(config.n_steps + 1, functions, x_star)


def _damping(traj):
    """Damping parameter ``meta["r"]`` of a second-order-flow trajectory with
    velocities and positive sample times."""
    _check_traj(traj, need_velocity=True)
    if not np.all(traj.t > 0):  # NaN times too
        raise ValueError("second-order-flow monitors require positive sample times")
    if "r" not in traj.meta:
        raise ValueError("damping parameter r absent from trajectory meta")
    return _check_damping(traj.meta["r"])


def _samples(t, E, ok, resid=None):
    if resid is None:
        resid = np.full(E.size, np.nan)
    return np.rec.fromarrays([t, E, ok, resid], names="t,value,decay_ok,residual")


def monitor_admm_stability(problem, traj, x_star, rtol=1e-9):
    """Energy ``E = V(X) - V(x*)`` along a first-order-flow trajectory.

    Along the exact flow, dE/dt = -||A X'||^2 <= 0. ``decay_ok`` flags
    per-sample decrease within ``rtol * (1 + |E|)``; ``residual`` is
    ``|dE/dt + ||A X'||^2|`` with dE/dt from central differences (nan at
    the endpoints), with X' the trajectory's recorded velocity samples.
    """
    _check_traj(traj, need_velocity=True)
    E = traj.V - eval_V(problem, x_star)
    resid = np.abs(_central_diff(traj.t, E) + _row_term(problem, traj, x_star, "kinetic"))
    return _samples(traj.t, E, _decay_flags(E, rtol), resid)


def monitor_admm_rate(problem, traj, x_star, rtol=1e-9):
    """Rate energy ``E = t (V(X) - V(x*)) + 0.5 ||A (X - x*)||^2``.

    Non-increasing along the exact first-order flow for convex V, which is
    what yields the 1/t objective-gap bound; ``decay_ok`` flags per-sample
    decrease within ``rtol * (1 + |E|)``.
    """
    _check_traj(traj)
    gap = traj.V - eval_V(problem, x_star)
    E = traj.t * gap + 0.5 * _row_term(problem, traj, x_star, "displacement")
    return _samples(traj.t, E, _decay_flags(E, rtol))


def monitor_aadmm_stability(problem, traj, x_star, rtol=1e-5):
    """Mechanical energy ``E = 0.5 ||A X'||^2 + V(X) - V(x*)`` of the
    second-order flow.

    Along the exact flow, dE/dt = -(r/t) ||A X'||^2, with r the damping
    parameter the trajectory records in ``meta["r"]``; ``residual`` reports
    ``|dE/dt + (r/t) ||A X'||^2|`` with dE/dt from central differences.
    """
    r = _damping(traj)
    E0 = eval_V(problem, x_star)
    kinetic = _row_term(problem, traj, x_star, "kinetic")
    E = 0.5 * kinetic + traj.V - E0
    resid = np.abs(_central_diff(traj.t, E) + (r / traj.t) * kinetic)
    return _samples(traj.t, E, _decay_flags(E, rtol), resid)


def monitor_aadmm_rate(problem, traj, x_star, rtol=1e-5):
    """Time-weighted rate energy of the second-order flow.

    With r the trajectory's ``meta["r"]`` and ``eta(t) = 2 log(t / (r - 1))``,

        E = e^eta (V(X) - V(x*)) + 0.5 ||A (X - x* + e^{eta/2} X')||^2,

    which is non-increasing along the exact flow for r >= 3 and yields the
    1/t^2 objective-gap bound. The weight obeys the pointwise identity
    ``e^{-eta/2} + eta'/2 = r/t``; its residual is stored per sample and
    verified to hold to machine precision (relative to max(1, r/t)).
    """
    r = _damping(traj)
    t = traj.t
    eta = _eta(t, r)
    gap = traj.V - eval_V(problem, x_star)
    E = np.exp(eta) * gap + 0.5 * _row_term(problem, traj, x_star, "rate_displacement", r)
    identity_resid = np.abs(np.exp(-0.5 * eta) + 1.0 / t - r / t)
    worst = np.max(identity_resid / np.maximum(1.0, r / t))
    if not worst <= 1e-12:  # NaN too
        raise NumericalError(
            f"damping-weight identity violated (relative residual {worst:.3e}); "
            "sample times or r are inconsistent"
        )
    return _samples(t, E, _decay_flags(E, rtol), identity_resid)


def fit_rate(traj, window, slope_target=None):
    """Least-squares slope of log(gap) against log(t) over a time window.

    Parameters
    ----------
    traj : Trajectory
        The gaps are its ``v_gap``.
    window : (t_lo, t_hi)
        Fit window, ``0 < t_lo < t_hi``; must contain >= ``MIN_FIT_SAMPLES`` samples.
    slope_target : float, optional
        Reference exponent (e.g. -1 or -2), finite. The constant is
        ``C = max gap * t^(-slope_target)`` over the window, so that
        ``gap <= C * t^slope_target`` holds on it. Defaults to the fitted
        slope.

    Raises
    ------
    ValueError
        If ``slope_target`` is not finite, or the window holds a gap that is
        not finite (NaN or inf) or the trajectory a NaN sample time; the
        message names the first such t.
    WindowError
        If any gap in the window is at or below the 1e-14 noise floor; the
        message suggests a usable upper end.
    """
    if slope_target is not None and not np.isfinite(slope_target):
        raise ValueError(f"slope_target must be finite, got {slope_target}")
    t_lo, t_hi = float(window[0]), float(window[1])
    if not 0 < t_lo < t_hi:
        raise ValueError(f"window must satisfy 0 < t_lo < t_hi, got ({t_lo}, {t_hi})")
    mask = ~((traj.t < t_lo) | (traj.t > t_hi))  # a NaN t is kept, to be refused
    t = traj.t[mask]
    gap = traj.v_gap[mask]
    if t.size < MIN_FIT_SAMPLES:
        raise ValueError(f"window contains {t.size} samples; at least {MIN_FIT_SAMPLES} are "
                         "required")
    bad = ~(np.isfinite(t) & np.isfinite(gap))
    if bad.any():
        raise ValueError(f"sample time or objective gap is not finite at t = {t[bad][0]:.6g}")
    if np.any(gap <= GAP_FLOOR):
        usable = t[gap > GAP_FLOOR]
        hint = f"; try t_hi <= {usable.max():.6g}" if usable.size else ""
        raise WindowError(
            f"objective gap falls below the {GAP_FLOOR:g} noise floor inside the window{hint}"
        )
    slope, _ = np.polyfit(np.log(t), np.log(gap), 1)
    target = float(slope) if slope_target is None else float(slope_target)
    C = float(np.max(gap * t ** (-target)))
    return RateFit(slope=float(slope), C=C, window=(t_lo, t_hi), n_samples=int(t.size))


def check_state_convergence(problem, traj, x_star, tail_fraction=0.5):
    """State convergence check for strongly convex quadratic problems.

    Strong convexity (mu > 0, the smallest eigenvalue of the Hessian H of V)
    turns objective-gap decay into state convergence. It is decided by ``mu
    > 64 eps max|eig(H)|`` (:attr:`SplitProblem.modal_backward_tol` times
    H's spectral radius), else :class:`UnsupportedFunctionError`: below that
    the sign of mu is rounding noise of ``eigvalsh`` on a singular H. The
    trailing ``tail_fraction`` of a second-order-flow trajectory should
    approach (x*, 0). The check passes iff, over the tail, both ``||X -
    x*||`` and ``||X'||`` stay below 10x their values at the tail start and
    their oscillation envelope decreases (second-half peak <= first-half
    peak).

    Returns ``(converged, report)``; ``report["mu"]`` is mu.
    """
    _check_traj(traj, need_velocity=True)
    if traj.X is None or traj.Xdot is None:
        raise ValueError("state convergence needs stored state and velocity samples "
                         "(trajectory.X and trajectory.Xdot)")
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must lie in (0, 1]")
    if not problem.is_quadratic:
        raise UnsupportedFunctionError(
            "state convergence needs the smallest Hessian eigenvalue of V, "
            "available only for quadratic problems"
        )
    hessian, _ = _hessian_and_linear_term(problem)
    evals = np.linalg.eigvalsh(hessian)
    mu = float(evals[0])
    if not mu > problem.modal_backward_tol * np.max(np.abs(evals)):
        raise UnsupportedFunctionError(
            f"V is not strongly convex (smallest Hessian eigenvalue {mu:.3e} is not above "
            "64 eps of its spectral radius); objective-gap decay does not control the state"
        )
    x_star = np.asarray(x_star, dtype=float)
    n_tail = max(int(np.ceil(tail_fraction * len(traj))), 2)
    dist = _row_norms(traj.X[-n_tail:], x_star)
    speed = _row_norms(traj.Xdot[-n_tail:])
    half = n_tail // 2
    bounded = bool(np.max(dist) <= 10 * dist[0]) and bool(np.max(speed) <= 10 * speed[0])
    trend = bool(np.max(dist[half:]) <= np.max(dist[:half])) and bool(
        np.max(speed[half:]) <= np.max(speed[:half])
    )
    report = {
        "mu": mu,
        "n_tail": n_tail,
        "dist_start": float(dist[0]),
        "dist_final": float(dist[-1]),
        "dist_peak_first_half": float(np.max(dist[:half])),
        "dist_peak_second_half": float(np.max(dist[half:])),
        "speed_start": float(speed[0]),
        "speed_final": float(speed[-1]),
        "speed_peak_first_half": float(np.max(speed[:half])),
        "speed_peak_second_half": float(np.max(speed[half:])),
        "bounded": bounded,
        "trend_down": trend,
    }
    return bounded and trend, report


def sup_discrepancy(traj_discrete, traj_flow):
    """Relative sup-norm discrepancy between two objective-gap curves.

    The flow curve is linearly interpolated (in t) onto the discrete
    sample times inside the common time range, and the metric is

        max |gap_discrete - gap_flow| / (1 + gap_flow).
    """
    lo = max(traj_discrete.t[0], traj_flow.t[0])
    hi = min(traj_discrete.t[-1], traj_flow.t[-1])
    mask = (traj_discrete.t >= lo) & (traj_discrete.t <= hi)
    if not np.any(mask):
        raise ValueError("the trajectories share no common time range")
    flow_gap = np.interp(traj_discrete.t[mask], traj_flow.t, traj_flow.v_gap)
    disc_gap = traj_discrete.v_gap[mask]
    return float(np.max(np.abs(disc_gap - flow_gap) / (1.0 + flow_gap)))


def write_monitor_csv(samples, path):
    """Write a monitor's record array (columns ``t``, ``value``, ``decay_ok``,
    ``residual``) as CSV with header ``t,E,decay_ok,residual``; ``decay_ok``
    is written as 0/1."""
    write_columns_csv(path, [("t", samples.t), ("E", samples.value),
                             ("decay_ok", samples.decay_ok), ("residual", samples.residual)])
