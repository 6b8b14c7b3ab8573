"""Penalty-scaled ADMM and its momentum-accelerated variant.

Both methods solve ``min f(x) + g(z)  s.t.  z = A x`` by alternating two
subproblem minimizations with a scaled dual update:

    x+ = argmin_x f(x) + (rho/2) ||A x - z + u||^2
    z+ = argmin_z g(z) + (rho/2) ||A x+ - z + u||^2
    u+ = u + A x+ - z+

The accelerated variant runs the same sweep against extrapolated copies
(z_hat, u_hat) and then re-extrapolates them with the momentum weight
``gamma = k / (k + r)``, ``r >= 3``.

Steps are pure functions of ``(problem, state)``; for quadratic ``f, g``
they use cached Cholesky solves, otherwise they delegate to a user-supplied
inner minimizer. A state checks its own parameters on construction
(rho > 0, and r >= 3 for the accelerated iterate). The ``run_*`` drivers
record trajectories, placing iterate k at flow time ``t = k / time_scale``
(``rho`` for ADMM, ``sqrt(rho)`` for A-ADMM), and raise
:class:`DivergenceError` at the first non-finite iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .exceptions import NumericalError, UnsupportedFunctionError
from .problem import _as_vector, _check_damping, eval_V, resolve_v_star
from .trajectory import build_trajectory, divergence_error

__all__ = [
    "AdmmState",
    "AccAdmmState",
    "SubproblemCache",
    "initial_admm_state",
    "initial_aadmm_state",
    "momentum_coefficient",
    "admm_step",
    "aadmm_step",
    "run_admm",
    "run_aadmm",
]

# Relative tolerance on the linear-system residual of each subproblem solve
SUBPROBLEM_RTOL = 1e-10


@dataclass
class AdmmState:
    """Iterate (x, z, u) with counter k and penalty rho > 0 (u is the scaled dual)."""

    x: np.ndarray
    z: np.ndarray
    u: np.ndarray
    k: int
    rho: float

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError(f"penalty parameter rho must be positive, got {self.rho}")
        self.rho = float(self.rho)


@dataclass
class AccAdmmState(AdmmState):
    """Accelerated iterate: adds the extrapolated copies (z_hat, u_hat) and
    the damping parameter r >= 3."""

    z_hat: np.ndarray
    u_hat: np.ndarray
    r: float

    def __post_init__(self):
        super().__post_init__()
        self.r = _check_damping(self.r)


def momentum_coefficient(k, r):
    """Momentum weight ``k / (k + r)`` used by the accelerated step leaving counter k."""
    return k / (k + r)


def time_scale(rho, accelerated):
    """Iterations per unit of flow time: ``rho`` for ADMM, ``sqrt(rho)`` for
    accelerated ADMM, whose iterate k sits at ``t = k / time_scale``."""
    return math.sqrt(rho) if accelerated else rho


def initial_admm_state(problem, x0, rho):
    """Start state with z0 = A x0 and u0 = 0."""
    x0 = np.array(_as_vector(x0, problem.n, "x0"))
    return AdmmState(x=x0, z=problem.A @ x0, u=np.zeros(problem.m), k=0, rho=rho)


def initial_aadmm_state(problem, x0, rho, r):
    """Start state with z0 = A x0, u0 = 0 and the extrapolated copies equal to them."""
    base = initial_admm_state(problem, x0, rho)
    return AccAdmmState(**vars(base), z_hat=base.z.copy(), u_hat=base.u.copy(), r=r)


class SubproblemCache:
    """Cholesky factors of the two quadratic subproblem systems for a fixed rho.

    The x-step solves ``(M_f + rho A^T A) x = rho A^T v - q_f`` and the
    z-step solves ``(M_g + rho I) z = rho w - q_g``. Both matrices are
    positive definite under full column rank of A with rho > 0, and are
    factored once per (problem, rho). Every solve is residual-checked to
    ``SUBPROBLEM_RTOL * (1 + ||rhs||)`` with one iterative-refinement retry.
    """

    def __init__(self, problem, rho):
        if not problem.is_quadratic:
            raise UnsupportedFunctionError(
                "closed-form subproblem solves require quadratic f and g; "
                "pass inner_solver for callback functions"
            )
        if rho <= 0:
            raise ValueError("penalty parameter rho must be positive")
        self.problem = problem
        self.rho = float(rho)
        self._hx = problem.f.M + rho * problem.ata
        self._hz = problem.g.M + rho * np.eye(problem.m)
        try:
            self._hx_factor = cho_factor(self._hx)
            self._hz_factor = cho_factor(self._hz)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular subproblem system: {exc}") from exc

    def solve_x(self, v):
        rhs = self.rho * (self.problem.A.T @ v) - self.problem.f.q
        return self._solve(self._hx, self._hx_factor, rhs, "x")

    def solve_z(self, w):
        rhs = self.rho * w - self.problem.g.q
        return self._solve(self._hz, self._hz_factor, rhs, "z")

    def _solve(self, H, factor, rhs, which):
        sol = cho_solve(factor, rhs)
        tol = SUBPROBLEM_RTOL * (1.0 + np.linalg.norm(rhs))
        resid = rhs - H @ sol
        if np.linalg.norm(resid) > tol:
            sol = sol + cho_solve(factor, resid)
            resid = rhs - H @ sol
            if np.linalg.norm(resid) > tol:
                raise NumericalError(
                    f"{which}-subproblem residual {np.linalg.norm(resid):.3e} "
                    f"exceeds tolerance {tol:.3e}"
                )
        return sol


def _solve_generic(h, rho, residual, adjoint, start, inner_solver):
    """Minimize ``h(y) + (rho/2) ||residual(y)||^2`` with the inner solver,
    from ``start``; ``adjoint`` is the transpose of the residual's linear part."""

    def fun(y):
        resid = residual(y)
        return h.value(y) + 0.5 * rho * float(resid @ resid)

    def grad(y):
        return h.grad(y) + rho * adjoint(residual(y))

    return np.asarray(inner_solver(fun, grad, start), dtype=float)


def _sweep(problem, state, z, u, cache, inner_solver):
    """x-minimization, z-minimization and scaled dual ascent against (z, u).

    Returns ``(x+, z+, u+)``. An inner solver is warm-started from the
    current iterate (state.x, state.z).
    """
    if state.x.shape != (problem.n,) or state.z.shape != (problem.m,) or state.u.shape != (problem.m,):
        raise ValueError("state dimensions do not match the problem")
    A, rho = problem.A, state.rho
    if inner_solver is not None:
        v = z - u
        x_new = _solve_generic(problem.f, rho, lambda y: A @ y - v, lambda res: A.T @ res,
                               state.x, inner_solver)
        ax = A @ x_new
        w = ax + u
        z_new = _solve_generic(problem.g, rho, lambda y: y - w, lambda res: res,
                               state.z, inner_solver)
    else:
        if cache is None:
            cache = SubproblemCache(problem, rho)
        elif cache.problem is not problem or cache.rho != rho:
            raise ValueError("subproblem cache was built for a different (problem, rho)")
        x_new = cache.solve_x(z - u)
        ax = A @ x_new
        z_new = cache.solve_z(ax + u)
    return x_new, z_new, u + ax - z_new


def admm_step(problem, state, cache=None, inner_solver=None):
    """One ADMM sweep: x-minimization, z-minimization, scaled dual ascent.

    With quadratic f, g the two subproblems are solved exactly through
    cached Cholesky factors (built on the fly when ``cache`` is None;
    drivers build it once per run). Otherwise ``inner_solver(fun, grad, x0)``
    must minimize a smooth convex function to gradient-norm tolerance 1e-10.
    """
    x_new, z_new, u_new = _sweep(problem, state, state.z, state.u, cache, inner_solver)
    return AdmmState(x=x_new, z=z_new, u=u_new, k=state.k + 1, rho=state.rho)


def aadmm_step(problem, state, cache=None, inner_solver=None):
    """One accelerated sweep against the extrapolated copies (z_hat, u_hat).

    The sweep mirrors :func:`admm_step` with (z_hat, u_hat) in place of
    (z, u); afterwards the copies are re-extrapolated with weight
    ``gamma = k / (k + r)`` evaluated at the pre-step counter, so the very
    first step (k = 0, gamma = 0) coincides with plain ADMM.
    """
    x_new, z_new, u_new = _sweep(problem, state, state.z_hat, state.u_hat, cache, inner_solver)
    g = momentum_coefficient(state.k, state.r)
    return AccAdmmState(
        x=x_new,
        z=z_new,
        u=u_new,
        z_hat=z_new + g * (z_new - state.z),
        u_hat=u_new + g * (u_new - state.u),
        k=state.k + 1,
        rho=state.rho,
        r=state.r,
    )


def _run(problem, state, max_iter, stop_tol, v_star, inner_solver):
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    v_star = resolve_v_star(problem, v_star)
    accelerated = isinstance(state, AccAdmmState)
    rho = state.rho
    cache = None
    if inner_solver is None:
        cache = SubproblemCache(problem, rho)
    delta = 1.0 / time_scale(rho, accelerated)

    n_max = max_iter + 1
    ks = np.arange(n_max)
    columns = {
        "t": ks * delta,
        "V": np.empty(n_max),
        "X": np.empty((n_max, problem.n)),
        "k": ks,
        "primal_residual": np.empty(n_max),
    }
    xs, vals, primal = columns["X"], columns["V"], columns["primal_residual"]
    meta = {
        "method": "aadmm" if accelerated else "admm",
        "rho": rho,
        "max_iter": int(max_iter),
        "stop_tol": float(stop_tol),
        "stopped_early": False,
    }
    if accelerated:
        meta["r"] = state.r
    label = f"{'accelerated ADMM' if accelerated else 'ADMM'} at rho = {rho:g}"

    def record(i, st):
        xs[i] = st.x
        vals[i] = eval_V(problem, st.x)
        primal[i] = np.linalg.norm(problem.A @ st.x - st.z)
        if not (np.isfinite(vals[i]) and np.isfinite(primal[i])):
            raise divergence_error(label, columns, i, v_star, meta)

    step = aadmm_step if accelerated else admm_step
    # divergence is detected and reported in record(); silence the raw overflow
    with np.errstate(over="ignore", invalid="ignore"):
        record(0, state)
        while state.k < max_iter:
            z_prev = state.z
            state = step(problem, state, cache=cache, inner_solver=inner_solver)
            record(state.k, state)
            if primal[state.k] + np.linalg.norm(state.z - z_prev) <= stop_tol:
                meta["stopped_early"] = True
                break
    return build_trajectory(columns, state.k + 1, v_star, meta)


def run_admm(problem, x0, rho, max_iter, stop_tol=0.0, v_star=None, inner_solver=None):
    """Drive ADMM from ``x0`` (z0 = A x0, u0 = 0), recording a trajectory.

    Iterates until ``k = max_iter`` or
    ``||A x_k - z_k|| + ||z_k - z_{k-1}|| <= stop_tol`` (default 0, i.e. a
    fixed budget). The time column is ``t = k / rho``. Records per iterate:
    x, objective gap and primal residual.
    """
    return _run(problem, initial_admm_state(problem, x0, rho), max_iter, stop_tol, v_star,
                inner_solver)


def run_aadmm(problem, x0, rho, r, max_iter, stop_tol=0.0, v_star=None, inner_solver=None):
    """Drive accelerated ADMM; same recording as :func:`run_admm`, with the
    time column ``t = k / sqrt(rho)``."""
    return _run(problem, initial_aadmm_state(problem, x0, rho, r), max_iter, stop_tol, v_star,
                inner_solver)
