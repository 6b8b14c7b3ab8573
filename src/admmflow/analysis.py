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
it), and every ``||A y||^2`` term is formed by the same row-wise helper as
the Hamiltonian of the second-order flow. Rate fits read the trajectory's
own objective gaps ``v_gap``.

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
from .problem import _a_sq_norms, _check_damping, _hessian_and_linear_term, eval_V
from .trajectory import write_columns_csv

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
]

GAP_FLOOR = 1e-14  # objective gaps below this are treated as solver noise


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
    if traj.X is None:
        raise ValueError("monitors need state samples (trajectory.X)")
    if need_velocity and traj.Xdot is None:
        raise ValueError("this monitor needs velocity samples (trajectory.Xdot)")


def _resolve_r(traj, r):
    """Damping parameter r of a second-order-flow trajectory with velocities, t > 0."""
    _check_traj(traj, need_velocity=True)
    if np.any(traj.t <= 0):
        raise ValueError("second-order-flow monitors require positive sample times")
    if r is None:
        r = traj.meta.get("r")
    if r is None:
        raise ValueError("damping parameter r not given and absent from trajectory meta")
    return _check_damping(r)


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
    resid = np.abs(_central_diff(traj.t, E) + _a_sq_norms(problem, traj.Xdot))
    return _samples(traj.t, E, _decay_flags(E, rtol), resid)


def monitor_admm_rate(problem, traj, x_star, rtol=1e-9):
    """Rate energy ``E = t (V(X) - V(x*)) + 0.5 ||A (X - x*)||^2``.

    Non-increasing along the exact first-order flow for convex V, which is
    what yields the 1/t objective-gap bound; ``decay_ok`` flags per-sample
    decrease within ``rtol * (1 + |E|)``.
    """
    _check_traj(traj)
    x_star = np.asarray(x_star, dtype=float)
    gap = traj.V - eval_V(problem, x_star)
    E = traj.t * gap + 0.5 * _a_sq_norms(problem, traj.X - x_star)
    return _samples(traj.t, E, _decay_flags(E, rtol))


def monitor_aadmm_stability(problem, traj, x_star, r=None, rtol=1e-5):
    """Mechanical energy ``E = 0.5 ||A X'||^2 + V(X) - V(x*)`` of the
    second-order flow.

    Along the exact flow, dE/dt = -(r/t) ||A X'||^2; ``residual`` reports
    ``|dE/dt + (r/t) ||A X'||^2|`` with dE/dt from central differences.
    """
    r = _resolve_r(traj, r)
    E0 = eval_V(problem, x_star)
    kinetic = _a_sq_norms(problem, traj.Xdot)
    E = 0.5 * kinetic + traj.V - E0
    resid = np.abs(_central_diff(traj.t, E) + (r / traj.t) * kinetic)
    return _samples(traj.t, E, _decay_flags(E, rtol), resid)


def monitor_aadmm_rate(problem, traj, x_star, r=None, rtol=1e-5):
    """Time-weighted rate energy of the second-order flow.

    With ``eta(t) = 2 log(t / (r - 1))``,

        E = e^eta (V(X) - V(x*)) + 0.5 ||A (X - x* + e^{eta/2} X')||^2,

    which is non-increasing along the exact flow for r >= 3 and yields the
    1/t^2 objective-gap bound. The weight obeys the pointwise identity
    ``e^{-eta/2} + eta'/2 = r/t``; its residual is stored per sample and
    verified to hold to machine precision (relative to max(1, r/t)).
    """
    r = _resolve_r(traj, r)
    t = traj.t
    x_star = np.asarray(x_star, dtype=float)
    eta = 2.0 * np.log(t / (r - 1.0))
    weight = np.exp(eta)
    half_weight = np.exp(0.5 * eta)
    gap = traj.V - eval_V(problem, x_star)
    disp = traj.X - x_star + half_weight[:, None] * traj.Xdot
    E = weight * gap + 0.5 * _a_sq_norms(problem, disp)
    identity_resid = np.abs(np.exp(-0.5 * eta) + 1.0 / t - r / t)
    worst = np.max(identity_resid / np.maximum(1.0, r / t))
    if worst > 1e-12:
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
        Fit window, ``0 < t_lo < t_hi``; must contain >= 10 samples.
    slope_target : float, optional
        Reference exponent (e.g. -1 or -2). The constant is
        ``C = max gap * t^(-slope_target)`` over the window, so that
        ``gap <= C * t^slope_target`` holds on it. Defaults to the fitted
        slope.

    Raises
    ------
    WindowError
        If any gap in the window is at or below the 1e-14 noise floor; the
        message suggests a usable upper end.
    """
    t_lo, t_hi = float(window[0]), float(window[1])
    if not 0 < t_lo < t_hi:
        raise ValueError(f"window must satisfy 0 < t_lo < t_hi, got ({t_lo}, {t_hi})")
    mask = (traj.t >= t_lo) & (traj.t <= t_hi)
    t = traj.t[mask]
    gap = traj.v_gap[mask]
    if t.size < 10:
        raise ValueError(f"window contains {t.size} samples; at least 10 are required")
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

    Strong convexity (mu > 0, the smallest eigenvalue of the Hessian of V)
    turns objective-gap decay into state convergence, so the trailing
    ``tail_fraction`` of a second-order-flow trajectory should approach
    (x*, 0). The check passes iff, over the tail, both ``||X - x*||`` and
    ``||X'||`` stay below 10x their values at the tail start and their
    oscillation envelope decreases (second-half peak <= first-half peak).

    Returns ``(converged, report)``.
    """
    _check_traj(traj, need_velocity=True)
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must lie in (0, 1]")
    if not problem.is_quadratic:
        raise UnsupportedFunctionError(
            "state convergence needs the smallest Hessian eigenvalue of V, "
            "available only for quadratic problems"
        )
    hessian, _ = _hessian_and_linear_term(problem)
    mu = float(np.linalg.eigvalsh(hessian)[0])
    if mu <= 0:
        raise UnsupportedFunctionError(
            f"V is not strongly convex (smallest Hessian eigenvalue {mu:.3e}); "
            "objective-gap decay does not control the state"
        )
    x_star = np.asarray(x_star, dtype=float)
    n_tail = max(int(np.ceil(tail_fraction * len(traj))), 2)
    dist = np.linalg.norm(traj.X[-n_tail:] - x_star, axis=1)
    speed = np.linalg.norm(traj.Xdot[-n_tail:], axis=1)
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
