"""Continuous-time counterparts of the discrete solvers.

Two dynamical systems are integrated against a :class:`SplitProblem`:

* the first-order flow ``(A^T A) X' + grad V(X) = 0``, with a classical
  fixed-step 4th-order Runge-Kutta scheme;
* the second-order damped flow ``(A^T A)(X'' + (r/t) X') + grad V(X) = 0``,
  through its Hamiltonian form with canonical momentum
  ``P = t^r (A^T A) X'`` and energy

      H(X, P, t) = 0.5 t^{-r} <P, (A^T A)^{-1} P> + t^r V(X)
                 = t^r (0.5 <X', (A^T A) X'> + V(X)),

  integrated with the symplectic Euler scheme (momentum update first, both
  damping weights evaluated at the pre-step time). The scheme carries
  ``(A^T A)^{-1} P = t^r X'`` rather than P, and H is evaluated in its
  second form, so neither overflows where ``t^{2r}`` would.

For quadratic f and g the velocity ``-(A^T A)^{-1} grad V(X)`` is the affine
map ``-(K X + b)`` of :attr:`SplitProblem.flow_map`, so a step costs matrix-
vector products and no linear solve; callback problems solve with the
cached Cholesky factor of A^T A.

With ``A = I`` these reduce to plain gradient flow and to the damped
oscillator flow of accelerated gradient descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import _as_vector, eval_V, grad_V, resolve_v_star
from .trajectory import build_trajectory, divergence_error

__all__ = [
    "DEFAULT_RK4_H",
    "DEFAULT_SYMPLECTIC_H",
    "IntegratorConfig",
    "admm_flow_rhs",
    "rk4_integrate",
    "aadmm_flow_integrate",
]

# Empirically stable defaults for the benchmark spectra (eigenvalues <= 10,
# cond(A^T A) up to 1e4); both are exposed as CLI flags.
DEFAULT_RK4_H = 1e-3
DEFAULT_SYMPLECTIC_H = 1e-2

# (t_end - t0) / h may land just above a whole number of steps by rounding
GRID_RTOL = 1e-9

# every sample is stored, so a grid is bounded (50x the benchmark's 20,000 steps)
MAX_STEPS = 10**6


@dataclass
class IntegratorConfig:
    """Fixed-step integration window [t0, t_end] with step h.

    The grid ``t0 + i h`` takes the fewest steps that reach t_end, so its
    last sample lies in ``[t_end, t_end + h)`` (up to rounding of the
    quotient ``(t_end - t0) / h``); the window is never cut short. A grid of
    more than ``MAX_STEPS`` steps is refused.

    ``r`` is the damping parameter of the second-order flow (ignored by the
    first-order integrator). The second-order flow has a 1/t singularity at
    t = 0, so with ``r`` set the config also requires t0 > 0 (t0 = h is usual).
    """

    h: float
    t0: float
    t_end: float
    r: float | None = None

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("step size h must be positive")
        if self.t0 < 0:
            raise ValueError("start time t0 must be nonnegative")
        if self.t_end <= self.t0:
            raise ValueError("t_end must exceed t0")
        if self.h > self.t_end - self.t0:
            raise ValueError("h must not exceed t_end - t0")
        steps = (self.t_end - self.t0) / self.h - GRID_RTOL  # n_steps = ceil(steps)
        if not steps <= MAX_STEPS:  # refuses inf and nan too
            raise ValueError(f"a grid of {steps:.6g} steps of h = {self.h:g} exceeds "
                             f"MAX_STEPS = {MAX_STEPS}")
        if self.r is not None and self.r < 3:
            raise ValueError(f"damping parameter r must be >= 3, got {self.r}")
        if self.r is not None and self.t0 <= 0:
            raise ValueError("the second-order flow requires t0 > 0 (1/t damping); t0 = h is typical")

    @property
    def n_steps(self):
        return math.ceil((self.t_end - self.t0) / self.h - GRID_RTOL)


def admm_flow_rhs(problem, X):
    """Right-hand side ``-(A^T A)^{-1} grad V(X)`` of the first-order flow.

    For quadratic f and g this is the affine map ``-(K X + b)`` of
    :attr:`SplitProblem.flow_map`, one matrix-vector product. Otherwise the
    gradient goes through the problem's cached Cholesky factor of A^T A; the
    inverse is never formed. With A = I this is the plain negative gradient.
    """
    X = _as_vector(X, problem.n, "X")
    if problem.is_quadratic:
        K, b = problem.flow_map
        return -(K @ X + b)
    return -problem.solve_ata(grad_V(problem, X))


def _values(problem, xs):
    """V at each row of ``xs``: one pass of matrix products for quadratic f
    and g, one ``eval_V`` call per row otherwise."""
    if not problem.is_quadratic:
        return np.array([eval_V(problem, x) for x in xs], dtype=float)
    f, g = problem.f, problem.g
    zs = xs @ problem.A.T
    return (0.5 * np.einsum("ij,ij->i", xs @ f.M, xs) + xs @ f.q
            + 0.5 * np.einsum("ij,ij->i", zs @ g.M, zs) + zs @ g.q)


def _integrate(problem, x0, config, v_star, meta, label, velocity, step, r=None):
    """Sampling loop shared by both integrators.

    At each grid time t: stop if X is not finite, else record X and the
    velocity ``X' = velocity(t, X)`` and advance with ``X = step(t, X, X')``.
    After the loop V is evaluated at every sample and, when ``r`` is given,
    the Hamiltonian of the second-order flow,
    ``H = t^r (0.5 <X', (A^T A) X'> + V)``.

    Raises
    ------
    DivergenceError
        At the first sample where X, V or H is not finite; it carries the
        last finite time and the trajectory up to it.
    """
    x = np.array(_as_vector(x0, problem.n, "x0"))
    v_star = resolve_v_star(problem, v_star)
    n = config.n_steps + 1
    ts = config.t0 + config.h * np.arange(n)
    xs, xds = np.empty((n, problem.n)), np.empty((n, problem.n))
    columns = {"t": ts, "X": xs, "Xdot": xds}
    # divergence is detected and reported below; silence the raw overflow, and
    # the division by t^r once it underflows to 0 (large r, small t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        end = n
        for i in range(n):
            # before the velocity: cho_solve rejects non-finite input
            if not np.all(np.isfinite(x)):
                end = i
                break
            xs[i] = x
            xds[i] = velocity(ts[i], x)
            if i + 1 < n:
                x = step(ts[i], x, xds[i])
        vals = columns["V"] = _values(problem, xs[:end])
        finite = np.isfinite(vals)
        if r is not None:
            xds_end = xds[:end]
            kinetic = 0.5 * np.einsum("ij,ij->i", xds_end @ problem.ata, xds_end)
            hams = columns["hamiltonian"] = ts[:end] ** r * (kinetic + vals)
            finite &= np.isfinite(hams)
    stop = end if finite.all() else int(np.argmin(finite))
    if stop < n:
        raise divergence_error(label, columns, stop, v_star, meta)
    return build_trajectory(columns, n, v_star, meta)


def rk4_integrate(problem, x0, config, v_star=None):
    """Integrate the first-order flow with classical RK4 from X(t0) = x0.

    The trajectory is sampled at every step and records t, X, the flow
    velocity X' (the right-hand side at the sample) and the objective gap.

    Raises
    ------
    DivergenceError
        If the state leaves the finite range; the exception carries the
        last finite time and the partial trajectory.
    """
    h = config.h

    def step(t, x, k1):
        k2 = admm_flow_rhs(problem, x + 0.5 * h * k1)
        k3 = admm_flow_rhs(problem, x + 0.5 * h * k2)
        k4 = admm_flow_rhs(problem, x + h * k3)
        return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    meta = {
        "method": "admm_flow",
        "integrator": "rk4",
        "h": h,
        "t0": config.t0,
        "t_end": config.t_end,
    }
    return _integrate(problem, x0, config, v_star, meta, "first-order flow",
                      lambda t, x: admm_flow_rhs(problem, x), step)


def aadmm_flow_integrate(problem, x0, config, v_star=None):
    """Integrate the second-order damped flow from rest.

    Starts at t0 > 0 with X(t0) = x0 and zero momentum (carrying the
    zero-initial-velocity condition to t0), then applies symplectic Euler
    steps up to t_end. Samples record t, X, the velocity ``X' = t^{-r} (A^T A)^{-1} P``, the
    objective gap and the Hamiltonian ``H = t^r (0.5 <X', (A^T A) X'> + V(X))``.

    Requires ``config.r``; the config then checks ``r >= 3`` and ``t0 > 0``.
    """
    if config.r is None:
        raise ValueError("config.r is required for the second-order flow")
    r = float(config.r)
    h = config.h
    w = np.zeros(problem.n)  # t^r X' = (A^T A)^{-1} P, carried across the step

    def velocity(t, x):
        return w / t**r

    def step(t, x, xdot):
        nonlocal w
        tr = t**r
        w = w + h * tr * admm_flow_rhs(problem, x)
        return x + (h / tr) * w

    meta = {
        "method": "aadmm_flow",
        "integrator": "symplectic_euler",
        "h": h,
        "t0": config.t0,
        "t_end": config.t_end,
        "r": r,
    }
    return _integrate(problem, x0, config, v_star, meta, "second-order flow", velocity, step, r)
