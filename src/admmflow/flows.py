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

      v = X'_k + h f(X_k),   X_{k+1} = X_k + h v,   X'_{k+1} = d_k v,

  with ``d_k = (t_k / t_{k+1})^r`` formed once per grid as
  ``exp(r log(t_k / t_{k+1}))``, so no ``t^r`` enters the step. H is
  evaluated in its second form after the loop; ``t^r`` overflows there for
  large r and t (near t = 35 at r = 200), where H is ``inf``. Divergence is
  judged on X, X' and V alone.

For quadratic f and g both flows run on the modal basis
:attr:`SplitProblem.modes`: with ``X = phi y`` the first-order flow splits
into scalar modes ``y_i' = -(lam_i y_i + beta_i)``. RK4 multiplies each
mode's ``y - y*`` by its stability factor ``R(-h lam)`` per step, so every
sample has a closed form, formed in row blocks of ``FINITE_CHECK_EVERY``;
symplectic Euler takes its step on the mode coordinates, elementwise. X and
X' are products with ``phi^T``, and ``meta["modal_backward_error"]`` records
the basis's backward error in units of eps. Callback problems solve with
:meth:`SplitProblem.solve_ata` and take the four-stage RK4 step or the same
symplectic step. One sampling loop runs every stepped flow; on callbacks it
checks X before each velocity and X' before each step, so a callback never
sees a non-finite input.

With ``A = I`` these reduce to plain gradient flow and to the damped
oscillator flow of accelerated gradient descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import _a_sq_norms, _as_vector, _check_damping, _values, grad_V, resolve_v_star
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

# rows per block of a quadratic flow run, and steps between the finiteness
# checks of its loop: a diverged run stops within this many samples
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

    The gradient goes through :meth:`SplitProblem.solve_ata`, two
    matrix-vector products with the cached inverse of the Cholesky factor of
    A^T A. With A = I this is the plain negative gradient.
    """
    X = _as_vector(X, problem.n, "X")
    return -problem.solve_ata(grad_V(problem, X))


def _start(problem, x0, config, v_star, method, integrator, r=None):
    """``x0`` as a vector, the resolved ``v_star``, the run meta (with ``r``
    when given, and the modal backward error of a quadratic problem) and the
    preallocated columns ``t``, ``X`` and ``Xdot`` of the config's grid."""
    x = np.array(_as_vector(x0, problem.n, "x0"))
    v_star = resolve_v_star(problem, v_star)
    meta = {"method": method, "integrator": integrator, "h": config.h, "t0": config.t0,
            "t_end": config.t_end}
    if r is not None:
        meta["r"] = r
    if problem.is_quadratic:
        meta["modal_backward_error"] = problem.modes.backward_error
    n = config.n_steps + 1
    columns = {"t": config.t0 + config.h * np.arange(n),
               "X": np.empty((n, problem.n)), "Xdot": np.empty((n, problem.n))}
    return x, v_star, meta, columns


def _finish(problem, columns, end, v_star, meta, label, r=None):
    """Trajectory of a run whose first ``end`` samples of X and X' are stored.

    V is evaluated at those samples and, when ``r`` is given, the Hamiltonian
    of the second-order flow, ``H = t^r (0.5 ||A X'||^2 + V)``; H is ``inf``
    where ``t^r`` overflows, which is not divergence.

    Raises
    ------
    DivergenceError
        At the first sample where X, X' or V is not finite, or at ``end``
        when that falls short of the grid; it carries the last finite time
        and the trajectory up to it.
    """
    n = len(columns["t"])
    xs, xds = columns["X"][:end], columns["Xdot"][:end]
    # divergence is detected and reported below; silence the overflow of a
    # diverged run, and of t^r in H (large r and t), which leaves H = inf
    with np.errstate(over="ignore", invalid="ignore"):
        vals = columns["V"] = _values(problem, xs)
        if r is not None:
            columns["hamiltonian"] = columns["t"][:end] ** r * (0.5 * _a_sq_norms(problem, xds)
                                                                + vals)
    finite = np.isfinite(xs).all(axis=1) & np.isfinite(xds).all(axis=1) & np.isfinite(vals)
    stop = end if finite.all() else int(np.argmin(finite))
    if stop < n:
        raise divergence_error(label, columns, stop, v_star, meta)
    return build_trajectory(columns, n, v_star, meta)


def _sample(columns, x, xdot, velocity, step, check_every):
    """Sampling loop of every stepped flow; returns the number of samples stored.

    At sample i the loop stores X, then X', which is ``velocity(X)`` or,
    with ``velocity`` None, the ``xdot`` the last step returned, and advances
    with ``X, X' = step(i, X, X')``. Every ``check_every`` samples it stops
    at a non-finite X before its velocity is taken and at a non-finite X'
    before the step passes it on, so with ``check_every = 1`` a callback
    never sees a non-finite input.
    """
    xs, xds = columns["X"], columns["Xdot"]
    n = len(xs)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            check = i % check_every == 0
            if check and not np.isfinite(x).all():
                return i
            xs[i] = x
            if velocity is not None:
                xdot = velocity(x)
            xds[i] = xdot
            if check and not np.isfinite(xdot).all():
                return i + 1  # sample i is kept, and _finish stops there
            if i + 1 < n:
                x, xdot = step(i, x, xdot)
    return n


def _modal_rk4(modes, x, columns, h):
    """RK4 samples of a quadratic problem's first-order flow, mode by mode;
    returns the number of samples stored.

    With ``z = -h lam``, one step multiplies ``y - y*`` (``y* = -beta / lam``)
    by ``R(z) = 1 + z phi(z)``, ``phi(z) = 1 + z/2 + z^2/6 + z^3/24``, so
    sample k is ``y0 + (R^k - 1)(y0 - y*)`` with ``R^k - 1 = expm1(k log1p(z
    phi(z)))``, accurate for lam near 0; a mode with ``z phi(z) = 0`` drifts
    as ``y0 - k h beta``, which RK4 integrates exactly. A run stops after the
    first block holding a non-finite row of X or X'.
    """
    lam, beta = modes.lam, modes.beta
    z = -h * lam
    growth = z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))  # R(z) - 1
    log_r = np.log1p(growth)
    drift = growth == 0.0
    y0 = modes.coordinates(x)
    gap = y0 - np.divide(-beta, lam, out=np.zeros_like(lam), where=~drift)  # y0 - y*
    # X = phi y and X' = -phi (lam y + beta), as products with the rows y
    phi_t = modes.phi.T
    neg_phi_t = -phi_t
    xs, xds = columns["X"], columns["Xdot"]
    n = len(xs)
    steps = np.arange(min(FINITE_CHECK_EVERY, n), dtype=float)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        within = np.expm1(steps * log_r)  # R^j - 1 for the rows j of a block
        for start in range(0, n, FINITE_CHECK_EVERY):
            rows = slice(start, min(start + FINITE_CHECK_EVERY, n))
            ahead = np.expm1(start * log_r)  # R^start - 1
            part = within[:rows.stop - start]
            ys = part * ahead
            ys += part
            ys += ahead  # R^k - 1 = (R^j - 1)(R^start - 1) + (R^j - 1) + (R^start - 1)
            ys *= gap
            ys += y0
            if drift.any():
                ys[:, drift] = y0[drift] - ((start + steps[:len(ys)]) * h) * beta[drift]
            np.matmul(ys, phi_t, out=xs[rows])
            ys *= lam
            ys += beta
            np.matmul(ys, neg_phi_t, out=xds[rows])
            if not (np.isfinite(xs[rows]).all() and np.isfinite(xds[rows]).all()):
                return rows.stop
    return n


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
    x, v_star, meta, columns = _start(problem, x0, config, v_star, "admm_flow", "rk4")
    if problem.is_quadratic:
        end = _modal_rk4(problem.modes, x, columns, h)
    else:
        def rhs(x):
            return admm_flow_rhs(problem, x)

        def step(i, x, k1):
            k2 = rhs(x + 0.5 * h * k1)
            k3 = rhs(x + 0.5 * h * k2)
            k4 = rhs(x + h * k3)
            return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), None

        end = _sample(columns, x, None, rhs, step, 1)
    return _finish(problem, columns, end, v_star, meta, "first-order flow")


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
    r, h = float(config.r), config.h
    x, v_star, meta, columns = _start(problem, x0, config, v_star, "aadmm_flow",
                                      "symplectic_euler", r)
    ts = columns["t"]
    damping = np.exp(r * np.log(ts[:-1] / ts[1:])).tolist()  # (t_k / t_{k+1})^r
    if problem.is_quadratic:
        # the loop steps the mode coordinates (y, w) of (X, X') = phi (y, w)
        modes = problem.modes
        h_lam, h_beta = h * modes.lam, h * modes.beta
        x, check_every = modes.coordinates(x), FINITE_CHECK_EVERY

        def kick(y):
            return -(h_lam * y + h_beta)
    else:
        check_every = 1

        def kick(x):
            return h * admm_flow_rhs(problem, x)

    def step(i, x, xdot):
        v = xdot + kick(x)
        return x + h * v, damping[i] * v

    end = _sample(columns, x, np.zeros(problem.n), None, step, check_every)
    if problem.is_quadratic:
        phi_t = modes.phi.T
        with np.errstate(over="ignore", invalid="ignore"):
            for name in ("X", "Xdot"):
                columns[name][:end] = columns[name][:end] @ phi_t
    return _finish(problem, columns, end, v_star, meta, "second-order flow", r)
