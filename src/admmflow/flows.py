"""Continuous-time counterparts of the discrete solvers.

Two dynamical systems are integrated against a :class:`SplitProblem`:

* the first-order flow ``(A^T A) X' + grad V(X) = 0``, with a classical
  fixed-step 4th-order Runge-Kutta scheme;
* the second-order damped flow ``(A^T A)(X'' + (r/t) X') + grad V(X) = 0``,
  through its Hamiltonian form with canonical momentum
  ``P = t^r (A^T A) X'`` and energy

      H(X, P, t) = 0.5 t^{-r} <P, (A^T A)^{-1} P> + t^r V(X)
                 = t^r (0.5 ||A X'||^2 + V(X)),

  integrated with the symplectic Euler scheme (momentum update first, both
  damping weights evaluated at the pre-step time). Written in X' itself,
  with ``f(X) = -(A^T A)^{-1} grad V(X)``, a step is

      v = X'_k + h f(X_k),   X_{k+1} = X_k + h v,   X'_{k+1} = (t_k / t_{k+1})^r v,

  the factor taken as ``exp(r log(t_k / t_{k+1}))``, so no ``t^r`` enters
  the step. H is evaluated in its second form after the loop; ``t^r``
  overflows there for large r and t (near t = 35 at r = 200), where H is
  ``inf``. Divergence is judged on X, X' and V alone.

For quadratic f and g the velocity ``f(X)`` is the affine map
``-(K X + b)`` of :attr:`SplitProblem.flow_map`, so no step solves a linear
system. One RK4 step of it is itself an affine map ``X -> P X + d``, built
once per run, and X is checked for finite values once after the loop (and
every ``FINITE_CHECK_EVERY`` samples, to stop a diverged run early).
Callback problems solve with the cached Cholesky factor of A^T A, take the
four-stage RK4 step, and check X before each velocity and X' before each
step, so a callback never sees a non-finite input.

With ``A = I`` these reduce to plain gradient flow and to the damped
oscillator flow of accelerated gradient descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import _a_sq_norms, _as_vector, _check_damping, eval_V, grad_V, resolve_v_star
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

# samples between the finiteness checks inside a quadratic run's loop
FINITE_CHECK_EVERY = 1024


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
        if self.r is not None:
            _check_damping(self.r)
            if self.t0 <= 0:
                raise ValueError("the second-order flow requires t0 > 0 (1/t damping); "
                                 "t0 = h is typical")

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


def _rk4_propagator(problem, h):
    """``(P, d)`` such that one classical RK4 step of ``x' = -(K x + b)`` is
    ``x -> P x + d``.

    With ``z = -h K``: ``P = R(z) = 1 + z phi(z)``, the RK4 stability
    function ``sum_{j<=4} z^j / j!``, and ``d = h phi(z) (-b)``, where
    ``phi(z) = 1 + z/2 + z^2/6 + z^3/24`` is evaluated in Horner form.
    """
    K, b = problem.flow_map
    z = -h * K
    eye = np.eye(problem.n)
    phi = eye + z / 4.0
    phi = eye + (z / 3.0) @ phi
    phi = eye + (z / 2.0) @ phi
    return eye + z @ phi, -h * (phi @ b)


def _integrate(problem, x0, config, v_star, meta, label, velocity, step, r=None):
    """Sampling loop shared by both integrators.

    At each grid time: record X and the velocity ``X' = velocity(X)`` and
    advance with ``X = step(t, t_next, X, X')``. For callback problems the
    loop stops at the first non-finite X, before its velocity is taken, and
    at the first non-finite X', before the step passes it to a callback; for
    quadratic problems X is checked only every ``FINITE_CHECK_EVERY``
    samples, so a diverged run stops within that many steps, and the stored
    X block is checked once after the loop.
    After the loop V is evaluated at every sample and, when ``r`` is given,
    the Hamiltonian of the second-order flow, ``H = t^r (0.5 ||A X'||^2 + V)``;
    H is ``inf`` where ``t^r`` overflows, which is not divergence.

    Raises
    ------
    DivergenceError
        At the first sample where X, X' or V is not finite; it carries the
        last finite time and the trajectory up to it.
    """
    x = np.array(_as_vector(x0, problem.n, "x0"))
    v_star = resolve_v_star(problem, v_star)
    n = config.n_steps + 1
    ts = config.t0 + config.h * np.arange(n)
    xs, xds = np.empty((n, problem.n)), np.empty((n, problem.n))
    columns = {"t": ts, "X": xs, "Xdot": xds}
    # a callback must never see a non-finite X or X' (nor cho_solve, which
    # rejects it); a quadratic run's X is checked in full after the loop, so
    # the check inside it only stops a diverged run early
    check_every = FINITE_CHECK_EVERY if problem.is_quadratic else 1
    # divergence is detected and reported below; silence the raw overflow, and
    # t^r overflowing in H (large r and t), which leaves H = inf
    with np.errstate(over="ignore", invalid="ignore"):
        end = n
        for i in range(n):
            if i % check_every == 0 and not np.all(np.isfinite(x)):
                end = i
                break
            xs[i] = x
            xds[i] = velocity(x)
            if check_every == 1 and not np.all(np.isfinite(xds[i])):
                end = i + 1  # sample i is kept, and the check below stops there
                break
            if i + 1 < n:
                x = step(ts[i], ts[i + 1], x, xds[i])
        vals = columns["V"] = _values(problem, xs[:end])
        if r is not None:
            columns["hamiltonian"] = ts[:end] ** r * (0.5 * _a_sq_norms(problem, xds[:end]) + vals)
    finite = (np.isfinite(xs[:end]).all(axis=1) & np.isfinite(xds[:end]).all(axis=1)
              & np.isfinite(vals))
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
    if problem.is_quadratic:
        P, d = _rk4_propagator(problem, h)

        def step(t, t_next, x, k1):
            return P @ x + d
    else:
        def step(t, t_next, x, k1):
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
                      lambda x: admm_flow_rhs(problem, x), step)


def aadmm_flow_integrate(problem, x0, config, v_star=None):
    """Integrate the second-order damped flow from rest.

    Starts at t0 > 0 with X(t0) = x0 and X'(t0) = 0 (carrying the
    zero-initial-velocity condition to t0), then applies symplectic Euler
    steps up to t_end. Samples record t, X, the velocity X', the objective
    gap and the Hamiltonian ``H = t^r (0.5 ||A X'||^2 + V(X))`` (``inf``
    where ``t^r`` overflows).

    Requires ``config.r``; the config then checks ``r >= 3`` and ``t0 > 0``.
    """
    if config.r is None:
        raise ValueError("config.r is required for the second-order flow")
    r = float(config.r)
    h = config.h
    carried = np.zeros(problem.n)  # X' at the next sample

    def velocity(x):
        return carried

    def step(t, t_next, x, xdot):
        nonlocal carried
        v = xdot + h * admm_flow_rhs(problem, x)
        carried = math.exp(r * math.log(t / t_next)) * v  # (t / t_next)^r v
        return x + h * v

    meta = {
        "method": "aadmm_flow",
        "integrator": "symplectic_euler",
        "h": h,
        "t0": config.t0,
        "t_end": config.t_end,
        "r": r,
    }
    return _integrate(problem, x0, config, v_star, meta, "second-order flow", velocity, step, r)
