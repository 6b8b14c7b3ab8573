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
they apply the affine subproblem operators of a :class:`SubproblemCache`
(``x = S_x v - s_x``, ``z = S_z w - s_z``, built once per (problem, rho)),
so a sweep solves no system: it is three matrix-vector products, or two
and an O(m) scaling when ``M_g`` is diagonal (``S_z`` is then the identity
for g = 0, which every generated draw has);
otherwise they delegate to a user-supplied inner minimizer, which sees the
x-subproblem in the coordinates ``w = L^T x`` of the Cholesky factor
``A^T A = L L^T`` (its Hessian is then ``rho I + L^{-1} (grad^2 f) L^{-T}``,
well conditioned as rho grows) and the z-subproblem as posed. A state checks
its own parameters on construction (rho > 0, and r >= 3 for the accelerated
iterate). The ``run_*`` drivers record trajectories, placing iterate k at
flow time ``t = k / time_scale`` (``rho`` for ADMM, ``sqrt(rho)`` for
A-ADMM), and raise :class:`DivergenceError` at the first non-finite iterate.

A quadratic run advances in blocks of ``BLOCK`` steps through the same step
functions, with each solve's residual check deferred to the end of the
block. There, matrix products over the block's rows give V (without its g
terms when g = 0), the primal residuals, finiteness, the ``stop_tol`` test
and the residual check of every x- and z-solve (same formula and tolerance
as a single solve). The first step with a failing solve is replayed through
the checked cache (one refinement retry, else :class:`NumericalError`), the
steps after it are dropped, and the run goes on in blocks;
``meta["refinements"]`` counts the replays. A run with an inner solver checks
every step before the next.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError, UnsupportedFunctionError
from .problem import _as_vector, _check_damping, _values, resolve_v_star
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

# iterations a quadratic run advances between the checks of its solves
BLOCK = 64


def _solve(H, rhs):
    """``H^{-1} rhs`` for a vector or a matrix ``rhs``: by LU with partial
    pivoting, or by division for a diagonal ``H`` held as its diagonal. The
    refinement retries and the builds of the dense operators of
    :class:`SubproblemCache` go through this one name."""
    return np.linalg.solve(H, rhs) if H.ndim == 2 else rhs / H


def _apply(v, op):
    """``v @ op`` for a vector or the rows of a matrix ``v``, where a 1-D
    ``op`` is a diagonal matrix held as its diagonal (then ``v * op``)."""
    return v @ op if op.ndim == 2 else v * op


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
    """The two quadratic subproblems for a fixed rho, as factor-once affine operators.

    The x-step solves ``H_x x = rho A^T v - q_f`` with ``H_x = M_f + rho A^T A``
    and the z-step solves ``H_z z = rho w - q_g`` with ``H_z = M_g + rho I``.
    Both matrices are positive definite under full column rank of A with
    rho > 0; a matrix that is not numerically so (``np.linalg.cholesky``
    fails, or a diagonal ``H_z`` has an entry <= 0) is refused with
    :class:`NumericalError`. Each becomes an affine operator:
    ``x = S_x v - s_x`` with ``S_x = rho H_x^{-1} A^T`` and ``s_x = H_x^{-1} q_f``,
    and ``z = S_z w - s_z`` with ``S_z = rho H_z^{-1}`` and ``s_z = H_z^{-1} q_g``.
    A dense operator takes one LU solve on a matrix right-hand side per
    (problem, rho), and a solve is then one matrix-vector product. When
    ``M_g`` is diagonal (``g.diagonal``, g = 0 included), ``H_z``, ``S_z``
    and ``s_z`` are held as vectors (``h_z = diag(M_g) + rho``,
    ``S_z = rho / h_z``, ``s_z = q_g / h_z``), and the z-solve, its check and
    its retry are O(m).

    Every solution is checked to ``||rhs - H sol|| <= SUBPROBLEM_RTOL (1 + ||rhs||)``,
    with one iterative-refinement retry (``H delta = rhs - H sol`` by an LU
    solve, or a division for a diagonal ``H_z``), else :class:`NumericalError`.
    :meth:`solve_x` and :meth:`solve_z` check each solution at once. On a
    copy from :meth:`deferred` they skip the check and log the solve instead,
    and :meth:`first_failure` applies the same check to all logged solves at
    once, with matrix products over their rows.
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
        d = problem.g.diagonal
        h_x = problem.f.M + rho * problem.ata
        h_z = problem.g.M + rho * np.eye(problem.m) if d is None else d + rho
        for H in (h_x, h_z):
            try:
                if H.ndim == 2:
                    np.linalg.cholesky(H)
                elif not np.all(H > 0):
                    raise np.linalg.LinAlgError(f"diagonal entry {np.min(H):.3e} <= 0")
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"singular subproblem system: {exc}") from exc
        self._h = {"x": h_x, "z": h_z}
        self._ops = {"x": self._operator(h_x, problem.A.T, problem.f.q),
                     "z": self._operator(h_z, np.eye(problem.m), problem.g.q) if d is None
                     else (self.rho / h_z, problem.g.q / h_z)}
        self._log = None  # {"x": [(v, x), ...], "z": [(w, z), ...]} on a deferred copy

    def _operator(self, H, B, q):
        """``(rho H^{-1} B, H^{-1} q)``, from one solve on ``[rho B, q]``."""
        sol = _solve(H, np.column_stack([self.rho * B, q]))
        return np.ascontiguousarray(sol[:, :-1]), np.ascontiguousarray(sol[:, -1])

    def solve_x(self, v):
        return self._solve("x", v)

    def solve_z(self, w):
        return self._solve("z", w)

    def deferred(self):
        """A copy sharing the operators whose solves skip the check and are
        logged for :meth:`first_failure`."""
        log = copy.copy(self)
        log._log = {"x": [], "z": []}
        return log

    def _residual(self, which, args, sols):
        """``rhs - H sol`` of the ``which`` solves of ``args`` (one per row, or
        a single vector) and the tolerance of each."""
        if which == "x":
            rhs = self.rho * (args @ self.problem.A) - self.problem.f.q
        else:
            rhs = self.rho * args - self.problem.g.q
        tol = SUBPROBLEM_RTOL * (1.0 + np.linalg.norm(rhs, axis=-1))
        return rhs - _apply(sols, self._h[which]), tol

    def _solve(self, which, arg):
        S, s = self._ops[which]
        sol = _apply(arg, S.T) - s  # arg @ S.T is the BLAS product S @ arg
        if self._log is not None:
            self._log[which].append((arg, sol))
            return sol
        resid, tol = self._residual(which, arg, sol)
        if np.linalg.norm(resid) > tol:
            sol = sol + _solve(self._h[which], resid)
            resid, tol = self._residual(which, arg, sol)
            if np.linalg.norm(resid) > tol:
                raise NumericalError(
                    f"{which}-subproblem residual {np.linalg.norm(resid):.3e} "
                    f"exceeds tolerance {tol:.3e}"
                )
        return sol

    def first_failure(self):
        """Index of the first logged sweep whose x- or z-solve fails the check,
        or None. A solution that is not finite is left to the run's
        divergence check."""
        failures = []
        for which, log in self._log.items():
            if log:
                args, sols = (np.array(col) for col in zip(*log))
                resid, tol = self._residual(which, args, sols)
                bad = (np.linalg.norm(resid, axis=1) > tol) & np.isfinite(sols).all(axis=1)
                failures.extend(np.flatnonzero(bad)[:1])
        return int(min(failures)) if failures else None


def _solve_generic(which, h, rho, target, start, inner_solver, factor=None):
    """Minimize ``h(y) + (rho/2) ||L^T y - target||^2`` with the inner solver,
    posed in ``w = L^T y``: the solver minimizes ``h(L^{-T} w) + (rho/2)
    ||w - target||^2`` from ``w = start`` (a fresh array, already in w) with
    the gradient ``L^{-1} grad h(L^{-T} w) + rho (w - target)``, and the
    result is mapped back as ``y = L^{-T} w``. ``factor`` is ``(L^{-1},
    L^{-T})``, or None for ``L = I``. A result whose shape is not the
    target's is refused with ValueError naming the ``which``-subproblem."""
    inv, inv_t = factor or (None, None)

    def primal(w):
        return w if inv_t is None else inv_t @ w

    def fun(w):
        d = w - target
        return h.value(primal(w)) + 0.5 * rho * float(d @ d)

    def grad(w):
        grad_h = h.grad(primal(w))
        return (grad_h if inv is None else inv @ grad_h) + rho * (w - target)

    w = np.asarray(inner_solver(fun, grad, start), dtype=float)
    if w.shape != target.shape:
        raise ValueError(f"inner solver returned shape {w.shape} for the {which}-subproblem, "
                         f"expected {target.shape}")
    return primal(w)


def _sweep(problem, state, z, u, cache, inner_solver):
    """x-minimization, z-minimization and scaled dual ascent against (z, u).

    Returns ``(x+, z+, u+)``. An inner solver is warm-started from fresh
    copies of the current iterate (state.x, state.z); with ``A^T A = L L^T``,
    ``(rho/2) ||A x - v||^2`` is ``(rho/2) ||L^T x - L^{-1} A^T v||^2`` up to
    a constant.
    """
    if state.x.shape != (problem.n,) or state.z.shape != (problem.m,) or state.u.shape != (problem.m,):
        raise ValueError("state dimensions do not match the problem")
    A, rho = problem.A, state.rho
    if inner_solver is not None:
        if cache is not None:
            raise ValueError("pass a subproblem cache or an inner solver, not both")
        chol, inv, inv_t = problem._ata_inverse_factor
        x_new = _solve_generic("x", problem.f, rho, inv @ (A.T @ (z - u)), chol.T @ state.x,
                               inner_solver, (inv, inv_t))
        ax = A @ x_new
        z_new = _solve_generic("z", problem.g, rho, ax + u, state.z.copy(), inner_solver)
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

    With quadratic f, g the two subproblems are solved exactly by the
    checked operators of a :class:`SubproblemCache` (built on the fly when
    ``cache`` is None; drivers build it once per run). Otherwise
    ``inner_solver(fun, grad, x0)`` must minimize a smooth convex function to
    gradient-norm tolerance 1e-10 and return an array of ``x0``'s shape
    (else ``ValueError``); a ``cache`` given with it is refused with
    ``ValueError``. The solver sees the x-subproblem in ``w = L^T x``, with
    ``A^T A = L L^T`` the factor behind :meth:`SplitProblem.solve_ata`
    (:class:`NumericalError` where it does not exist): it minimizes
    ``f(L^{-T} w) + (rho/2) ||w - L^{-1} A^T (z - u)||^2`` from ``L^T x``,
    with Hessian ``rho I + L^{-1} (grad^2 f) L^{-T}``, and ``x = L^{-T} w``.
    It sees the z-subproblem as posed.
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


def _run(problem, start, args, max_iter, stop_tol, v_star, inner_solver):
    # a start that is not finite is reported below, at sample 0
    with np.errstate(over="ignore", invalid="ignore"):
        state = start(problem, *args)
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    v_star = resolve_v_star(problem, v_star)
    accelerated = isinstance(state, AccAdmmState)
    rho = state.rho
    cache = SubproblemCache(problem, rho) if inner_solver is None else None
    if cache is None:
        # the inner solver's x-coordinates need the factor of A^T A: a problem
        # without one raises its NumericalError here, before sample 0
        problem._ata_inverse_factor
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
        "refinements": 0,
    }
    if accelerated:
        meta["r"] = state.r
    label = f"{'accelerated ADMM' if accelerated else 'ADMM'} at rho = {rho:g}"
    step = aadmm_step if accelerated else admm_step
    size = BLOCK  # steps in the next block

    def advance(state):
        """The states after ``state``: one with an inner solver, else a block
        of steps whose solves are checked together afterwards. The first step
        with a failing solve is replayed through the checked cache and the
        steps after it are dropped; the block length then restarts at 1 and
        doubles back to BLOCK, so an operator that keeps failing costs about
        one replay per step, not a block."""
        nonlocal size
        if cache is None:
            return [step(problem, state, inner_solver=inner_solver)]
        deferred = cache.deferred()
        states = [state]
        for _ in range(min(size, max_iter - state.k)):
            states.append(step(problem, states[-1], cache=deferred))
        bad = deferred.first_failure()
        if bad is None:
            size = min(2 * size, BLOCK)
        else:
            meta["refinements"] += 1
            states[bad + 1:] = [step(problem, states[bad], cache=cache)]
            size = 1
        return states[1:]

    def record(states, z_prev):
        """Store the samples of consecutive ``states`` and return how many the
        run keeps: all, or up to the first that meets ``stop_tol`` (tested when
        ``z_prev``, the z before them, is given). Raises DivergenceError at the
        first sample whose V or primal residual is not finite."""
        rows = slice(states[0].k, states[-1].k + 1)
        xs[rows] = [st.x for st in states]
        zs = np.array([st.z for st in states])
        axs = xs[rows] @ problem.A.T
        vals[rows] = _values(problem, xs[rows], axs)
        primal[rows] = np.linalg.norm(axs - zs, axis=1)
        finite = np.isfinite(vals[rows]) & np.isfinite(primal[rows])
        n_ok = len(states) if finite.all() else int(np.argmin(finite))
        if z_prev is not None:
            dz = np.linalg.norm(np.diff(zs, axis=0, prepend=z_prev[None]), axis=1)
            met = np.flatnonzero(primal[rows][:n_ok] + dz[:n_ok] <= stop_tol)
            if met.size:
                meta["stopped_early"] = True
                return int(met[0]) + 1
        if n_ok < len(states):
            raise divergence_error(label, columns, rows.start + n_ok, v_star, meta)
        return len(states)

    # divergence is detected and reported in record(); silence the raw overflow
    with np.errstate(over="ignore", invalid="ignore"):
        record([state], None)
        while state.k < max_iter and not meta["stopped_early"]:
            states = advance(state)
            state = states[record(states, state.z) - 1]
    return build_trajectory(columns, state.k + 1, v_star, meta)


def run_admm(problem, x0, rho, max_iter, stop_tol=0.0, v_star=None, inner_solver=None):
    """Drive ADMM from ``x0`` (z0 = A x0, u0 = 0), recording a trajectory.

    Iterates until ``k = max_iter`` or
    ``||A x_k - z_k|| + ||z_k - z_{k-1}|| <= stop_tol`` (default 0: only an
    exact fixed point stops early); ``meta["stopped_early"]`` records a stop
    by this test. The time column is ``t = k / rho``. Records per iterate:
    x, objective gap and primal residual.
    """
    return _run(problem, initial_admm_state, (x0, rho), max_iter, stop_tol, v_star, inner_solver)


def run_aadmm(problem, x0, rho, r, max_iter, stop_tol=0.0, v_star=None, inner_solver=None):
    """Drive accelerated ADMM; same recording as :func:`run_admm`, with the
    time column ``t = k / sqrt(rho)``."""
    return _run(problem, initial_aadmm_state, (x0, rho, r), max_iter, stop_tol, v_star,
                inner_solver)
