"""Split optimization problems, the composite objective, and problem generators.

The central object is :class:`SplitProblem`: two continuously differentiable
convex functions ``f`` on R^n and ``g`` on R^m together with an m-by-n
matrix ``A`` of full column rank, representing

    minimize  f(x) + g(z)   subject to  z = A x.

Solvers, flows and monitors are all written against the composite objective
``V(x) = f(x) + g(A x)``, i.e. the constrained objective evaluated on the
feasible manifold ``z = A x``.
"""

from __future__ import annotations

import json
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .exceptions import NumericalError, UnsupportedFunctionError

__all__ = [
    "QuadraticFunction",
    "CallbackFunction",
    "SplitProblem",
    "eval_V",
    "grad_V",
    "optimal_value",
    "resolve_v_star",
    "gen_figure1_problem",
    "save_problem",
    "load_problem",
]


def _as_vector(x, dim, name):
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise ValueError(f"{name} must have shape ({dim},), got {x.shape}")
    return x


def _check_damping(r):
    """``r`` as a float, if it is a valid damping parameter of the second-order
    flow and of A-ADMM: ``r >= 3`` (Su, Boyd & Candes, arXiv:1503.01243)."""
    if r is None or not r >= 3:
        raise ValueError(f"damping parameter r must be >= 3, got {r}")
    return float(r)


class QuadraticFunction:
    """Convex quadratic ``h(v) = 0.5 * <v, M v> + <q, v>``.

    Parameters
    ----------
    M : array_like, shape (dim, dim)
        Quadratic coefficient matrix. It is symmetrized on input and must
        be positive semidefinite (smallest eigenvalue >= -1e-10 * ||M||).
    q : array_like, shape (dim,), optional
        Linear coefficient; defaults to zero.

    Instances are immutable: the stored arrays are read-only.
    """

    psd_rtol = 1e-10

    def __init__(self, M, q=None):
        M = np.array(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"M must be a square matrix, got shape {M.shape}")
        M = 0.5 * (M + M.T)
        dim = M.shape[0]
        if q is None:
            q = np.zeros(dim)
        else:
            q = np.array(_as_vector(q, dim, "q"))
        evals = np.linalg.eigvalsh(M)
        scale = float(np.max(np.abs(evals)))
        if evals[0] < -self.psd_rtol * scale:
            raise ValueError(
                f"M must be positive semidefinite; smallest eigenvalue is {evals[0]:.3e}"
            )
        M.flags.writeable = False
        q.flags.writeable = False
        self.M = M
        self.q = q
        self.dim = dim

    @classmethod
    def zero(cls, dim):
        """The identically-zero function on R^dim."""
        return cls(np.zeros((dim, dim)))

    def value(self, v):
        return float(0.5 * (v @ (self.M @ v)) + self.q @ v)

    def grad(self, v):
        return self.M @ v + self.q

    def __repr__(self):
        return f"QuadraticFunction(dim={self.dim})"


class CallbackFunction:
    """Differentiable convex function given by value and gradient callbacks.

    Supported everywhere a gradient oracle suffices; operations that need
    closed-form subproblem solves (``optimal_value``, the quadratic solver
    path) reject it with :class:`UnsupportedFunctionError`.
    """

    def __init__(self, fn, grad_fn, dim):
        self.fn = fn
        self.grad_fn = grad_fn
        self.dim = int(dim)

    def value(self, v):
        return float(self.fn(v))

    def grad(self, v):
        return np.asarray(self.grad_fn(v), dtype=float)

    def __repr__(self):
        return f"CallbackFunction(dim={self.dim})"


class SplitProblem:
    """Problem data for ``min f(x) + g(z)  s.t.  z = A x``.

    Parameters
    ----------
    f : QuadraticFunction or CallbackFunction
        Convex differentiable function on R^n.
    g : QuadraticFunction or CallbackFunction
        Convex differentiable function on R^m.
    A : array_like, shape (m, n) with m >= n
        Constraint matrix; must have full column rank
        (sigma_min > 1e-10 * sigma_max).
    seed, generator_params : optional
        Provenance of generated problems, carried into serialization.

    The instance is immutable after construction; the Gram matrix ``A^T A``
    and its Cholesky factor are computed eagerly and shared by all solvers,
    so a problem can safely back many concurrent runs. The flow map of a
    quadratic problem is computed on first use and cached (:attr:`flow_map`).
    """

    rank_rtol = 1e-10
    # normwise backward error allowed of the flow map (Higham, Accuracy and
    # Stability of Numerical Algorithms, sec. 7.1)
    flow_map_backward_tol = 64 * np.finfo(float).eps

    def __init__(self, f, g, A, seed=None, generator_params=None):
        A = np.array(A, dtype=float)
        if A.ndim != 2:
            raise ValueError(f"A must be a matrix, got shape {A.shape}")
        m, n = A.shape
        if m < n:
            raise ValueError(f"A must have m >= n rows, got shape ({m}, {n})")
        if f.dim != n:
            raise ValueError(f"f is defined on R^{f.dim}, expected R^{n}")
        if g.dim != m:
            raise ValueError(f"g is defined on R^{g.dim}, expected R^{m}")
        svals = np.linalg.svd(A, compute_uv=False)
        if svals[-1] <= self.rank_rtol * svals[0]:
            raise ValueError(
                "A must have full column rank; "
                f"sigma_min/sigma_max = {svals[-1] / svals[0]:.3e}"
            )
        A.flags.writeable = False
        self.f = f
        self.g = g
        self.A = A
        self.n = n
        self.m = m
        self.sigma_max = float(svals[0])
        self.sigma_min = float(svals[-1])
        ata = A.T @ A
        self._ata_factor = cho_factor(ata)
        ata.flags.writeable = False
        self.ata = ata
        self.seed = seed
        self.generator_params = dict(generator_params) if generator_params else None

    @property
    def is_quadratic(self):
        return isinstance(self.f, QuadraticFunction) and isinstance(
            self.g, QuadraticFunction
        )

    @property
    def cond_A(self):
        return self.sigma_max / self.sigma_min

    def solve_ata(self, b):
        """Solve ``(A^T A) y = b`` through the cached Cholesky factor."""
        return cho_solve(self._ata_factor, b)

    @cached_property
    def flow_map(self):
        """``(K, b)`` with ``(A^T A)^{-1} grad V(x) = K x + b``, for quadratic f and g.

        ``K = (A^T A)^{-1} H`` and ``b = (A^T A)^{-1} c``, where ``H`` and ``c``
        are the Hessian and linear term of V. Both come from the cached
        Cholesky factor on first access (O(n^3), so never in the constructor)
        and are read-only.

        Raises
        ------
        UnsupportedFunctionError
            If ``f`` or ``g`` is a callback function.
        NumericalError
            If the normwise backward error of K,
            ``||(A^T A) K - H||_F / (||A^T A||_F ||K||_F + ||H||_F)``, exceeds
            ``64 eps``, or the same test of ``b`` against ``c`` fails. An
            exactly rounded solve gives a small multiple of eps at any
            conditioning of A, so the test accepts ill-conditioned A and
            refuses a solve that went wrong.
        """
        if not self.is_quadratic:
            raise UnsupportedFunctionError("the flow map requires quadratic f and g")
        H, c = _hessian_and_linear_term(self)
        K, b = self.solve_ata(H), self.solve_ata(c)
        ata_norm = np.linalg.norm(self.ata)
        for name, got, rhs, want in (("K", K, "H", H), ("b", b, "c", c)):
            resid = np.linalg.norm(self.ata @ got - want)
            scale = ata_norm * np.linalg.norm(got) + np.linalg.norm(want)
            tol = self.flow_map_backward_tol * scale
            if resid > tol:
                raise NumericalError(
                    f"flow map {name} fails its residual check: ||(A^T A) {name} - {rhs}|| = "
                    f"{resid:.3e} exceeds {tol:.3e} (cond(A) = {self.cond_A:.3g})"
                )
        K.flags.writeable = False
        b.flags.writeable = False
        return K, b

    def __repr__(self):
        return f"SplitProblem(n={self.n}, m={self.m}, cond_A={self.cond_A:.3g})"


def eval_V(problem, x):
    """Composite objective ``V(x) = f(x) + g(A x)``."""
    x = _as_vector(x, problem.n, "x")
    return problem.f.value(x) + problem.g.value(problem.A @ x)


def grad_V(problem, x):
    """Gradient of the composite objective, ``grad f(x) + A^T grad g(A x)``."""
    x = _as_vector(x, problem.n, "x")
    return problem.f.grad(x) + problem.A.T @ problem.g.grad(problem.A @ x)


def _a_sq_norms(problem, ys):
    """``||A y||^2`` for each row ``y`` of ``ys``: the kinetic term of the
    second-order flow and the quadratic part of the Lyapunov energies."""
    ays = ys @ problem.A.T
    return np.einsum("ij,ij->i", ays, ays)


def _hessian_and_linear_term(problem):
    """``(H, c)`` of a quadratic V: ``H = M_f + A^T M_g A`` and ``c = q_f + A^T q_g``."""
    H = problem.f.M + problem.A.T @ (problem.g.M @ problem.A)
    c = problem.f.q + problem.A.T @ problem.g.q
    return H, c


def optimal_value(problem):
    """Minimizer and optimal value of V for the quadratic class.

    Solves the normal equations ``H x = -c`` with ``H = M_f + A^T M_g A``
    and ``c = q_f + A^T q_g`` by a least-squares (SVD) solve, which picks
    the minimum-norm minimizer when H is singular. The optimal value is
    unique even when the minimizer is not.

    Returns
    -------
    (x_star, v_star) : (ndarray, float)

    Raises
    ------
    UnsupportedFunctionError
        If ``f`` or ``g`` is not a :class:`QuadraticFunction`; callers must
        then supply the optimal value externally.
    NumericalError
        If the candidate fails first-order optimality
        (``||grad V(x*)|| <= 1e-8 * (1 + ||grad V(0)||)``), e.g. when V is
        unbounded below.
    """
    if not problem.is_quadratic:
        raise UnsupportedFunctionError(
            "optimal_value requires quadratic f and g; supply the optimal value "
            "externally for callback functions"
        )
    H, c = _hessian_and_linear_term(problem)
    x_star, *_ = np.linalg.lstsq(H, -c, rcond=None)
    g0 = np.linalg.norm(grad_V(problem, np.zeros(problem.n)))
    g_star = np.linalg.norm(grad_V(problem, x_star))
    if g_star > 1e-8 * (1.0 + g0):
        raise NumericalError(
            f"no stationary point found (||grad V(x*)|| = {g_star:.3e}); "
            "V may be unbounded below"
        )
    return x_star, eval_V(problem, x_star)


def resolve_v_star(problem, v_star=None):
    """Return ``v_star`` if given, else compute it for quadratic problems."""
    if v_star is not None:
        return float(v_star)
    try:
        return optimal_value(problem)[1]
    except UnsupportedFunctionError as exc:
        raise UnsupportedFunctionError(
            "the optimal value is not available in closed form; pass v_star explicitly"
        ) from exc


def gen_figure1_problem(n, zero_eigs, eig_hi, cond_a, seed, m=None):
    """Random benchmark problem: rank-deficient PSD quadratic f, g = 0, and
    an A with prescribed condition number.

    Construction, deterministic given ``seed`` (draws happen in this order):

    1. ``Q`` orthogonal from the QR factorization of an n-by-n standard
       Gaussian matrix, and a spectrum with exactly ``zero_eigs`` zeros and
       ``n - zero_eigs`` values uniform on (0, eig_hi]; then
       ``f(x) = 0.5 <x, M x>`` with ``M = Q diag(spectrum) Q^T``.
    2. ``g = 0`` on R^m.
    3. ``A = U diag(s) W^T`` with ``U`` (m-by-m) and ``W`` (n-by-n) random
       orthogonal and singular values ``s`` log-uniformly spaced on
       [1, cond_a].

    Parameters
    ----------
    n : int
        Primal dimension.
    zero_eigs : int
        Number of zero eigenvalues of M, ``0 <= zero_eigs < n``.
    eig_hi : float
        Upper end of the nonzero-eigenvalue range, > 0.
    cond_a : float
        Condition number of A, >= 1.
    seed : int
        RNG seed; identical seeds give bitwise-identical problems.
    m : int, optional
        Number of rows of A (default n; must be >= n).
    """
    n = int(n)
    zero_eigs = int(zero_eigs)
    m = n if m is None else int(m)
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= zero_eigs < n:
        raise ValueError(f"zero_eigs must satisfy 0 <= zero_eigs < n, got {zero_eigs}")
    if eig_hi <= 0:
        raise ValueError("eig_hi must be positive")
    if cond_a < 1:
        raise ValueError("cond_a must be >= 1")
    if m < n:
        raise ValueError(f"m must be >= n, got m={m}, n={n}")

    rng = np.random.default_rng(seed)
    q_mat, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spectrum = np.zeros(n)
    # 1 - U[0,1) lies in (0,1], so nonzero eigenvalues stay strictly positive
    spectrum[zero_eigs:] = eig_hi * (1.0 - rng.uniform(size=n - zero_eigs))
    M = (q_mat * spectrum) @ q_mat.T
    u_mat, _ = np.linalg.qr(rng.standard_normal((m, m)))
    w_mat, _ = np.linalg.qr(rng.standard_normal((n, n)))
    svals = np.logspace(0.0, np.log10(cond_a), num=n)
    A = (u_mat[:, :n] * svals) @ w_mat.T

    params = {
        "n": n,
        "zero_eigs": zero_eigs,
        "eig_hi": float(eig_hi),
        "cond_a": float(cond_a),
        "m": m,
    }
    return SplitProblem(
        QuadraticFunction(M),
        QuadraticFunction.zero(m),
        A,
        seed=int(seed),
        generator_params=params,
    )


def save_problem(problem, path):
    """Write a quadratic problem as JSON (matrices row-major). Deterministic
    for identical problems."""
    if not problem.is_quadratic:
        raise UnsupportedFunctionError(
            "only quadratic problems can be serialized (callback functions have no data form)"
        )
    data = {
        "n": problem.n,
        "m": problem.m,
        "M_f": problem.f.M.ravel().tolist(),
        "q_f": problem.f.q.tolist(),
        "M_g": problem.g.M.ravel().tolist(),
        "q_g": problem.g.q.tolist(),
        "A": problem.A.ravel().tolist(),
        "seed": problem.seed,
        "generator_params": problem.generator_params,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def load_problem(path):
    """Read a problem written by :func:`save_problem`."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        n = int(data["n"])
        m = int(data["m"])
        f = QuadraticFunction(
            np.asarray(data["M_f"], dtype=float).reshape(n, n),
            np.asarray(data["q_f"], dtype=float),
        )
        g = QuadraticFunction(
            np.asarray(data["M_g"], dtype=float).reshape(m, m),
            np.asarray(data["q_g"], dtype=float),
        )
        A = np.asarray(data["A"], dtype=float).reshape(m, n)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a valid problem file: missing or malformed field ({exc})")
    return SplitProblem(
        f, g, A, seed=data.get("seed"), generator_params=data.get("generator_params")
    )
