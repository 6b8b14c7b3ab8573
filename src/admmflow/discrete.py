"""Penalty-scaled ADMM and its momentum-accelerated variant.

Both methods solve ``min f(x) + g(z)  s.t.  z = A x`` by alternating two
subproblem minimizations with a scaled dual update:

    x+ = argmin_x f(x) + (rho/2) ||A x - z + u||^2
    z+ = argmin_z g(z) + (rho/2) ||A x+ - z + u||^2
    u+ = u + A x+ - z+

The accelerated variant runs the same sweep against extrapolated copies
(z_hat, u_hat) and then re-extrapolates them with the momentum weight
``gamma = k / (k + r)``, ``r >= 3``.

One sweep body serves both methods, on the route ``(A, xstep, zstep)``
:func:`_substeps` builds once per step or run: for quadratic ``f, g`` the
affine subproblem operators of :func:`_operators` (``x = S_x v - s_x``, ``z
= S_z w - s_z``, one checked build per (problem, rho), the last rho's kept
on the problem), so a sweep is three matrix-vector products and ``A^T A`` is
never formed; otherwise a user-supplied inner minimizer, which sees the
z-subproblem as posed and the x-subproblem in ``w = R x`` (``A = U R``),
where its Hessian ``rho I + R^{-T} (grad^2 f) R^{-1}`` is well conditioned
as rho grows. Steps are pure functions of ``(problem, state)``; a state
checks rho > 0 (and r >= 3) on construction. The ``run_*`` drivers build one
state, the start, and carry the iterate through the sweeps as arrays; they
place iterate k at flow time ``t = k / time_scale`` (``rho`` for ADMM,
``sqrt(rho)`` for A-ADMM) and raise :class:`DivergenceError` at the first
non-finite iterate.

A run with quadratic f, g = 0 (every generated draw) and no inner solver
takes the modal route, in the mode coordinates ``y = Q^T R x`` of
:attr:`SplitProblem.modes` (``x = phi y``): A = I, z = y, u = 0, the z-step
the identity and the x-step ``v -> d v - e``, ``d = rho / (lam + rho)``, ``e
= beta / (lam + rho)``; ``lam + rho <= 0`` is refused as Cholesky refuses K.

A quadratic run advances in blocks of ``BLOCK`` iterations; at the end of
each, matrix products over the block's rows give X (from y on the modal
path), V (without its g terms when g = 0), the primal residuals (with z = A
x, 0 on the modal path), finiteness and the ``stop_tol`` test. A run with an
inner solver records every step before the next, so no callback sees the
state after a non-finite one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError, UnsupportedFunctionError
from .problem import (MAX_STEPS, _as_vector, _check_damping, _check_finite, _is_zero, _values,
                      resolve_v_star)
from .trajectory import build_trajectory, divergence_error

__all__ = [
    "AdmmState",
    "AccAdmmState",
    "initial_admm_state",
    "initial_aadmm_state",
    "momentum_coefficient",
    "admm_step",
    "aadmm_step",
    "run_admm",
    "run_aadmm",
]

# Relative tolerance on the residual of each column of a subproblem operator's
# linear system, checked once when the operator is built
SUBPROBLEM_RTOL = 1e-10

# iterations a quadratic run advances between the records of its samples
BLOCK = 64


@dataclass
class AdmmState:
    """Iterate (x, z, u) with counter k and penalty rho > 0 (u is the scaled dual)."""

    x: np.ndarray
    z: np.ndarray
    u: np.ndarray
    k: int
    rho: float

    def __post_init__(self):
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError(f"penalty parameter rho must be finite and positive, got {self.rho}")
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
    """Start state with z0 = A x0 and u0 = 0; a NaN or inf entry of x0 is refused by name."""
    x0 = np.array(_as_vector(x0, problem.n, "x0"))
    _check_finite(x0, "x0")
    return AdmmState(x=x0, z=problem.A @ x0, u=np.zeros(problem.m), k=0, rho=rho)


def initial_aadmm_state(problem, x0, rho, r):
    """Start state with z0 = A x0, u0 = 0 and the extrapolated copies equal to them."""
    base = initial_admm_state(problem, x0, rho)
    return AccAdmmState(**vars(base), z_hat=base.z.copy(), u_hat=base.u.copy(), r=r)


def _checked_solve(which, H, rhs):
    """``H^{-1} rhs`` for a symmetric ``H`` and a matrix ``rhs``, by LU with
    partial pivoting. :class:`NumericalError` names the ``which``-subproblem
    when H is not numerically positive definite (``np.linalg.cholesky``
    fails) or when a column fails ``||rhs - H sol|| <= SUBPROBLEM_RTOL (1 +
    ||rhs||)``."""
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular subproblem system ({which}): {exc}") from exc
    sol = np.linalg.solve(H, rhs)
    resid = np.linalg.norm(rhs - H @ sol, axis=0)
    tol = SUBPROBLEM_RTOL * (1.0 + np.linalg.norm(rhs, axis=0))
    bad = np.flatnonzero(~(resid <= tol))
    if bad.size:
        j = bad[0]
        raise NumericalError(f"{which}-subproblem operator fails its residual check: "
                             f"column {j}: {resid[j]:.3e} exceeds {tol[j]:.3e}")
    return sol


def _operators(problem, rho):
    """The two quadratic subproblems at ``rho`` as affine operators, the
    read-only, C-contiguous ``(S_x, s_x, S_z, s_z)``, kept on the problem as
    ``(rho, ops)`` for the last rho built (either of two concurrent builds),
    so ADMM and A-ADMM at one rho in one ``run`` share one build.

    The x-step ``H_x x = rho A^T v - q_f`` (``H_x = M_f + rho A^T A``) and
    the z-step ``H_z z = rho w - q_g`` (``H_z = M_g + rho I``) become ``x =
    S_x v - s_x`` and ``z = S_z w - s_z``, one matrix-vector product each.
    ``H_x`` is never formed. With the problem's cached factor ``A = U R``
    (``SplitProblem._factor``, diag R > 0) and ``w = R x``
    the x-step is ``K w = rho U^T v - R^{-T} q_f`` with ``K = R^{-T} M_f
    R^{-1} + rho I``, whose condition number is at most ``1 + ||M_f|| /
    (rho sigma_min^2)``, so ``S_x = R^{-1} K^{-1} rho U^T`` and ``s_x =
    R^{-1} K^{-1} R^{-T} q_f`` come from one LU solve with K on the matrix
    right-hand side ``[rho U^T, R^{-T} q_f]``. ``S_z = rho H_z^{-1}`` and
    ``s_z = H_z^{-1} q_g`` come from one solve on ``[rho I, q_g]``.

    Each system is checked once, by :func:`_checked_solve`; a build that
    fails its check keeps nothing. Callback problems are refused with
    :class:`UnsupportedFunctionError`.
    """
    kept = problem._operators
    if kept is not None and kept[0] == rho:
        return kept[1]
    if not problem.is_quadratic:
        raise UnsupportedFunctionError(
            "closed-form subproblem solves require quadratic f and g; "
            "pass inner_solver for callback functions"
        )
    f, g, m = problem.f, problem.g, problem.m
    U, _, inv = problem._factor
    K = inv.T @ f.M @ inv
    K[np.diag_indices_from(K)] += rho
    sol_x = _checked_solve("x", K, np.column_stack([rho * U.T, inv.T @ f.q]))
    sol_z = _checked_solve("z", g.M + rho * np.eye(m), np.column_stack([rho * np.eye(m), g.q]))
    ops = tuple(np.ascontiguousarray(a) for a in (inv @ sol_x[:, :-1], inv @ sol_x[:, -1],
                                                  sol_z[:, :-1], sol_z[:, -1]))
    for a in ops:
        a.flags.writeable = False
    problem._operators = (rho, ops)
    return ops


def _solve_generic(which, h, rho, target, start, inner_solver, inv=None):
    """Minimize ``h(y) + (rho/2) ||R y - target||^2`` with the inner solver,
    posed in ``w = R y``: the solver minimizes ``h(R^{-1} w) + (rho/2)
    ||w - target||^2`` from ``w = start`` (a fresh array, already in w) with
    the gradient ``R^{-T} grad h(R^{-1} w) + rho (w - target)``, and the
    result is mapped back as ``y = R^{-1} w``. ``inv`` is ``R^{-1}``, or None
    for ``R = I``. A result whose shape is not the target's is refused with
    ValueError naming the ``which``-subproblem."""

    def primal(w):
        return w if inv is None else inv @ w

    def fun(w):
        d = w - target
        return h.value(primal(w)) + 0.5 * rho * float(d @ d)

    def grad(w):
        grad_h = h.grad(primal(w))
        return (grad_h if inv is None else grad_h @ inv) + rho * (w - target)

    w = np.asarray(inner_solver(fun, grad, start), dtype=float)
    if w.shape != target.shape:
        raise ValueError(f"inner solver returned shape {w.shape} for the {which}-subproblem, "
                         f"expected {target.shape}")
    return primal(w)


def _substeps(problem, rho, inner_solver, modes=None):
    """The route ``(A, xstep, zstep)`` of every sweep at ``rho``: ``xstep(v,
    x)`` and ``zstep(w, z)`` minimize ``f + (rho/2) ||A . - v||^2`` and ``g +
    (rho/2) ||. - w||^2``, by the operators of :func:`_operators` (built or
    refused here), by the inner solver started from copies of the current z
    and ``R x`` (``||A x - v||^2`` is ``||R x - U^T v||^2`` up to a constant),
    or, given a run's ``modes``, on the modal route (``A`` None for the
    identity; ``lam + rho <= 0`` is refused here)."""
    if modes is not None:
        h_x = modes.lam + rho  # the eigenvalues of K = R^{-T} M_f R^{-1} + rho I
        if not np.all(h_x > 0):
            raise NumericalError(f"singular subproblem system (x): lam + rho = {np.min(h_x):.3e}")
        d, e = rho / h_x, modes.beta / h_x
        return None, (lambda v, x: d * v - e), (lambda w, z: w)
    if inner_solver is None:
        S_x, s_x, S_z, s_z = _operators(problem, rho)
        # v @ S.T is the BLAS product S @ v
        return problem.A, (lambda v, x: v @ S_x.T - s_x), (lambda w, z: w @ S_z.T - s_z)
    f, g, (U, R, inv) = problem.f, problem.g, problem._factor
    return (problem.A, lambda v, x: _solve_generic("x", f, rho, v @ U, R @ x, inner_solver, inv),
            lambda w, z: _solve_generic("z", g, rho, w, z.copy(), inner_solver))


def _sweep(route, x, z, u, hat=None, gamma=0.0):
    """The iterate after (x, z, u) on ``route``, the ``(A, xstep, zstep)`` of
    :func:`_substeps` (``A`` None for the identity), as ``(x, z, u, hat)``: a
    sweep against (z, u), or when ``hat`` = (z_hat, u_hat) is given against
    it, re-extrapolated with weight ``gamma``."""
    A, xstep, zstep = route
    z_sweep, u_sweep = hat or (z, u)
    x = xstep(z_sweep - u_sweep, x)
    ax = x if A is None else A @ x
    z_new = zstep(ax + u_sweep, z)
    u_new = u_sweep + ax - z_new
    if hat is not None:
        hat = (z_new + gamma * (z_new - z), u_new + gamma * (u_new - u))
    return x, z_new, u_new, hat


def _step(problem, state, inner_solver, accelerated):
    """Check the state's shapes, then sweep once on the route for ``state.rho``."""
    if state.x.shape != (problem.n,) or state.z.shape != (problem.m,) or state.u.shape != (problem.m,):
        raise ValueError("state dimensions do not match the problem")
    route = _substeps(problem, state.rho, inner_solver)
    if not accelerated:
        x, z, u, _ = _sweep(route, state.x, state.z, state.u)
        return AdmmState(x=x, z=z, u=u, k=state.k + 1, rho=state.rho)
    x, z, u, (z_hat, u_hat) = _sweep(route, state.x, state.z, state.u, (state.z_hat, state.u_hat),
                                     momentum_coefficient(state.k, state.r))
    return AccAdmmState(x=x, z=z, u=u, z_hat=z_hat, u_hat=u_hat, k=state.k + 1, rho=state.rho,
                        r=state.r)


def admm_step(problem, state, inner_solver=None):
    """One ADMM sweep: x-minimization, z-minimization, scaled dual ascent.

    With quadratic f, g and no inner solver the two subproblems are solved
    exactly by the checked operators of :func:`_operators` at ``state.rho``,
    built by the first step at that rho and kept until one at another rho.
    Otherwise ``inner_solver(fun, grad, x0)`` must minimize a smooth convex
    function to gradient-norm tolerance 1e-10 and return an array of
    ``x0``'s shape (else ``ValueError``). The solver sees the x-subproblem in
    ``w = R x``, with ``A = U R`` the problem's one factor
    (:attr:`SplitProblem._factor`): it minimizes ``f(R^{-1} w) + (rho/2) ||w
    - U^T (z - u)||^2`` from ``R x``, with Hessian ``rho I + R^{-T} (grad^2
    f) R^{-1}``, and ``x = R^{-1} w``. It sees the z-subproblem as posed.
    """
    return _step(problem, state, inner_solver, False)


def aadmm_step(problem, state, inner_solver=None):
    """One accelerated sweep against the extrapolated copies (z_hat, u_hat).

    The sweep mirrors :func:`admm_step` with (z_hat, u_hat) in place of
    (z, u); afterwards the copies are re-extrapolated with weight
    ``gamma = k / (k + r)`` evaluated at the pre-step counter, so the very
    first step (k = 0, gamma = 0) coincides with plain ADMM. A state that is
    not an :class:`AccAdmmState` is refused with TypeError.
    """
    if not isinstance(state, AccAdmmState):
        raise TypeError("aadmm_step needs an AccAdmmState (see initial_aadmm_state), "
                        f"got {type(state).__name__}")
    return _step(problem, state, inner_solver, True)


def _check_budget(max_iter, stop_tol):
    """Refuse a ``max_iter`` that is a bool or not an integer in [1, ``MAX_STEPS``]
    (every iterate is stored), and a NaN or infinite ``stop_tol``."""
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral):
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
    if not 1 <= max_iter <= MAX_STEPS:
        raise ValueError(f"max_iter must be in [1, MAX_STEPS = {MAX_STEPS}], got {max_iter}")
    if not math.isfinite(stop_tol):
        raise ValueError(f"stop_tol must be finite, got {stop_tol}")


def _run(problem, start, args, max_iter, stop_tol, v_star, inner_solver):
    _check_budget(max_iter, stop_tol)  # before any column of the run is allocated
    # a finite x0 whose A x0 overflows is reported below, at sample 0
    with np.errstate(over="ignore", invalid="ignore"):
        state = start(problem, *args)
    v_star = resolve_v_star(problem, v_star)
    accelerated = isinstance(state, AccAdmmState)
    rho, r = state.rho, (state.r if accelerated else None)
    modal = inner_solver is None and problem.is_quadratic and _is_zero(problem.g)
    modes = problem.modes if modal else None
    route = _substeps(problem, rho, inner_solver, modes)  # refused here, before sample 0
    size = 1 if inner_solver is not None else BLOCK  # steps between records
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
        meta["r"] = r
    label = f"{'accelerated ADMM' if accelerated else 'ADMM'} at rho = {rho:g}"

    def advance(k, count):
        """Store X of samples k + 1 .. k + count and return their z, or None
        where z = A x (the modal route, whose rows are y until mapped to x)."""
        nonlocal x, z, u, hat
        rows = xs[k + 1:k + 1 + count]
        zs = None if modal else np.empty((count, problem.m))
        for j in range(count):
            gamma = momentum_coefficient(k + j, r) if accelerated else 0.0
            x, z, u, hat = _sweep(route, x, z, u, hat, gamma)
            rows[j] = x
            if zs is not None:
                zs[j] = z
        if modal:
            np.matmul(rows, modes.phi.T, out=rows)
        return zs

    def record(rows, zs, z_prev):
        """Complete the samples ``rows``, whose X is stored and whose z is
        ``zs`` (A x where None), and return how many the run keeps and the z
        of the last: all, or up to the first that meets ``stop_tol`` (tested
        when ``z_prev``, the z before them, is given). Raises DivergenceError
        at the first sample whose V or primal residual is not finite."""
        axs = xs[rows] @ problem.A.T
        zs = axs if zs is None else zs
        vals[rows] = _values(problem, xs[rows], axs)
        primal[rows] = np.linalg.norm(axs - zs, axis=1)
        finite = np.isfinite(vals[rows]) & np.isfinite(primal[rows])
        n_ok = len(zs) if finite.all() else int(np.argmin(finite))
        if z_prev is not None:
            dz = np.linalg.norm(np.diff(zs, axis=0, prepend=z_prev[None]), axis=1)
            met = np.flatnonzero(primal[rows][:n_ok] + dz[:n_ok] <= stop_tol)
            if met.size:
                meta["stopped_early"] = True
                return int(met[0]) + 1, None
        if n_ok < len(zs):
            raise divergence_error(label, columns, rows.start + n_ok, v_star, meta)
        return len(zs), zs[-1]

    # divergence is detected and reported in record(); silence the raw overflow
    with np.errstate(over="ignore", invalid="ignore"):
        # the run carries the iterate as arrays; a state is built only by a step
        x, z, u = state.x, state.z, state.u
        hat = (state.z_hat, state.u_hat) if accelerated else None
        xs[0] = x
        k, z_prev = 0, record(slice(0, 1), None if modal else z[None], None)[1]
        if modal:  # the sweep's start in mode coordinates
            x = z = modes.coordinates(x)
            u = np.zeros(problem.n)
            hat = (z, u) if accelerated else None
        while k < max_iter and not meta["stopped_early"]:
            count = min(size, max_iter - k)
            kept, z_prev = record(slice(k + 1, k + 1 + count), advance(k, count), z_prev)
            k += kept
    return build_trajectory(columns, k + 1, v_star, meta)


def run_admm(problem, x0, rho, max_iter, stop_tol=0.0, v_star=None, inner_solver=None):
    """Drive ADMM from ``x0`` (z0 = A x0, u0 = 0), recording a trajectory.

    Iterates until ``k = max_iter`` or
    ``||A x_k - z_k|| + ||z_k - z_{k-1}|| <= stop_tol`` (default 0: only an
    exact fixed point stops early); ``meta["stopped_early"]`` records a stop
    by this test. The time column is ``t = k / rho``. Records per iterate:
    x, objective gap and primal residual. A non-integer ``max_iter`` and a
    non-finite ``stop_tol`` are refused by name before the run starts.
    """
    return _run(problem, initial_admm_state, (x0, rho), max_iter, stop_tol, v_star, inner_solver)


def run_aadmm(problem, x0, rho, r, max_iter, stop_tol=0.0, v_star=None, inner_solver=None):
    """Drive accelerated ADMM; same recording as :func:`run_admm`, with the
    time column ``t = k / sqrt(rho)``."""
    return _run(problem, initial_aadmm_state, (x0, rho, r), max_iter, stop_tol, v_star,
                inner_solver)
