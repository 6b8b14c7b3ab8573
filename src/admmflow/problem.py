"""Split optimization problems, the composite objective, and problem generators.

The central object is :class:`SplitProblem`: two continuously differentiable
convex functions ``f`` on R^n and ``g`` on R^m together with an m-by-n
matrix ``A`` of full column rank, representing

    minimize  f(x) + g(z)   subject to  z = A x.

Solvers, flows and monitors are all written against the composite objective
``V(x) = f(x) + g(A x)``, i.e. the constrained objective evaluated on the
feasible manifold ``z = A x``.

Both flows and the ADMM x-step are posed in ``A^T A``, whose condition
number is ``cond(A)^2``. It is never formed: the reduced QR factorization
``A = U R`` is the one factor behind :meth:`SplitProblem.solve_ata`, the
callback velocity, the modal basis and the discrete x-operator, so their
results lose digits as ``cond(A)``, and everything the rank test accepts
(``sigma_min > 1e-10 sigma_max``) can be run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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


# rows per block of a product over the samples of a run: bounds its temporaries
ROW_BLOCK = 1024

# normwise backward error of a stationary point that optimal_value accepts
STATIONARY_BACKWARD_TOL = 1e-10


def _as_vector(x, dim, name):
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise ValueError(f"{name} must have shape ({dim},), got {x.shape}")
    return x


def _check_finite(x, name):
    """Refuse an array with a NaN or inf entry, naming it and the first such entry."""
    bad = np.argwhere(~np.isfinite(x))
    if bad.size:
        index = tuple(int(i) for i in bad[0])
        raise ValueError(f"{name} must be finite; {name}[{', '.join(map(str, index))}] "
                         f"is {float(x[index])!r}")


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
        Quadratic coefficient matrix. It must be finite, is symmetrized on
        input and must be positive semidefinite (smallest eigenvalue
        >= -1e-10 * ||M||).
    q : array_like, shape (dim,), optional
        Linear coefficient, finite; defaults to zero.

    A NaN or inf entry of M or q raises ValueError naming the entry.

    Instances are immutable: the stored arrays are read-only. ``eigenvalues``
    holds the spectrum of M, ascending, from the positive-semidefinite check.
    ``diagonal`` is the diagonal of M when M is diagonal (a zero M included),
    else None; the spectrum of a diagonal M is its sorted diagonal, and the
    solvers use ``diagonal`` to apply ``M + rho I`` in O(dim).
    """

    psd_rtol = 1e-10

    def __init__(self, M, q=None):
        M = np.array(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"M must be a square matrix, got shape {M.shape}")
        _check_finite(M, "M")
        M = 0.5 * (M + M.T)
        dim = M.shape[0]
        if q is None:
            q = np.zeros(dim)
        else:
            q = np.array(_as_vector(q, dim, "q"))
            _check_finite(q, "q")
        diagonal = M.diagonal()  # a read-only view
        if np.count_nonzero(M) > np.count_nonzero(diagonal):
            diagonal = None
        evals = np.linalg.eigvalsh(M) if diagonal is None else np.sort(diagonal)
        scale = float(np.max(np.abs(evals)))
        if evals[0] < -self.psd_rtol * scale:
            raise ValueError(
                f"M must be positive semidefinite; smallest eigenvalue is {evals[0]:.3e}"
            )
        for array in (M, q, evals):
            array.flags.writeable = False
        self.M = M
        self.q = q
        self.eigenvalues = evals
        self.diagonal = diagonal
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


def _qr(A):
    """``(U, R, R^{-1})`` of the reduced QR factorization ``A = U R`` with
    ``diag R > 0``, read-only. ``R^T`` is then the Cholesky factor of
    ``A^T A = R^T R``, which is never formed: a product with ``R^{-1}``
    carries ``cond(A) eps`` of rounding where one with the factor of the
    formed Gram matrix carries ``cond(A)^2 eps`` (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 20; Golub & Van Loan, Matrix
    Computations, sec. 5.3). ``R^{-1}`` is the LU inverse of R, which for
    an upper triangular R pivots no row and is back substitution."""
    U, R = np.linalg.qr(A)
    sign = np.copysign(1.0, R.diagonal())
    U *= sign
    R *= sign[:, None]
    factor = U, R, np.linalg.inv(R)
    for a in factor:
        a.flags.writeable = False
    return factor


@dataclass(frozen=True, eq=False)
class Modes:
    """Modal basis of the pencil ``(H, A^T A)`` (:attr:`SplitProblem.modes`).

    ``phi^T (A^T A) phi = I``, ``phi^T H phi = diag(lam)`` (lam ascending) and
    ``beta = phi^T c``, so with ``X = phi y`` the first-order flow splits into
    the scalar modes ``y_i' = -(lam_i y_i + beta_i)``. ``q`` holds the
    eigenvectors behind ``phi = R^{-1} q``, ``chol`` the factor ``L = R^T``
    of ``A^T A = L L^T`` from ``A = U R``, and ``backward_error`` the pencil
    test's ratio in units of eps.
    """

    lam: np.ndarray
    phi: np.ndarray
    beta: np.ndarray
    q: np.ndarray
    chol: np.ndarray
    backward_error: float

    def coordinates(self, x):
        """Mode coordinates ``y = Q^T (R x)`` of a point, so that ``x = phi y``
        (the equal ``phi^T (A^T A) x`` amplifies the rounding of ``phi``)."""
        return self.q.T @ (self.chol.T @ x)


class SplitProblem:
    """Problem data for ``min f(x) + g(z)  s.t.  z = A x``.

    Parameters
    ----------
    f : QuadraticFunction or CallbackFunction
        Convex differentiable function on R^n.
    g : QuadraticFunction or CallbackFunction
        Convex differentiable function on R^m.
    A : array_like, shape (m, n) with m >= n
        Constraint matrix; must be finite (else ValueError naming the entry)
        and have full column rank (sigma_min > 1e-10 * sigma_max).
    seed, generator_params : optional
        Provenance of generated problems, carried into serialization.

    The instance is immutable after construction. The Gram matrix ``A^T A``
    is never formed: every solve with it goes through the reduced QR
    factorization ``A = U R`` (:func:`_qr`). The factor and the pair behind
    :meth:`solve_ata` (used by callback runs), and the modal basis of a
    quadratic problem (:attr:`modes`, used by the quadratic flows and by the
    discrete solvers when g = 0) are computed on first use and cached, so a
    run pays only for what it uses. The discrete solvers keep the subproblem
    operators of a g != 0 problem per rho in ``_operators`` (see
    :class:`SubproblemCache`).
    """

    rank_rtol = 1e-10
    # normwise backward error allowed of the modal basis (Higham, Accuracy and
    # Stability of Numerical Algorithms, sec. 7.1)
    modal_backward_tol = 64 * np.finfo(float).eps

    def __init__(self, f, g, A, seed=None, generator_params=None):
        A = np.array(A, dtype=float)
        if A.ndim != 2:
            raise ValueError(f"A must be a matrix, got shape {A.shape}")
        _check_finite(A, "A")
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
        for a in (A, svals):
            a.flags.writeable = False
        self.f = f
        self.g = g
        self.A = A
        self.n = n
        self.m = m
        self.sigma_max = float(svals[0])
        self.sigma_min = float(svals[-1])
        self._svals = svals
        self._operators = {}
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

    @cached_property
    def _factor(self):
        """``(U, R, R^{-1})`` of ``A = U R`` (:func:`_qr`); computed on first use."""
        return _qr(self.A)

    @cached_property
    def _ata_inverse(self):
        """``(P, Q)`` with ``P = (A^T A)^{-1} = R^{-1} R^{-T}`` and
        ``Q = P A^T = R^{-1} U^T``, read-only; formed on first use from
        :attr:`_factor`."""
        U, _, inv = self._factor
        P = inv @ inv.T
        Q = inv @ U.T
        for a in (P, Q):
            a.flags.writeable = False
        return P, Q

    def solve_ata(self, b):
        """Solve ``(A^T A) y = b`` as ``y = P b``, one matrix product with the
        cached ``P = (A^T A)^{-1} = R^{-1} R^{-T}`` (``A = U R``) that the
        callback flows' velocity applies too; ``b`` is a vector or a matrix
        of right-hand sides.

        There is no refinement step. The normwise backward error
        ``||b - A^T (A y)|| / (||A^T A|| ||y|| + ||b||)`` is a fraction of eps
        for random vectors and blocks and for ``M_f`` on the generated draws
        at cond(A) 1e2 to 9e9. The forward error against the exact solve is
        of order ``cond(A)^2 eps``, the condition number of the system.
        """
        return self._ata_inverse[0] @ b

    @cached_property
    def modes(self):
        """The :class:`Modes` of a quadratic problem.

        With ``A = U R`` (the factor behind :meth:`solve_ata`): ``eigh`` of
        the symmetrised ``R^{-T} M_f R^{-1} + U^T M_g U`` (which is
        ``R^{-T} H R^{-1}`` for the Hessian H of V, formed without
        ``A^T M_g A``) gives ``Q`` and ``lam``, then ``phi = R^{-1} Q`` and
        ``beta = Q^T (R^{-T} q_f + U^T q_g)``. Built on first access (O(n^3))
        by a quadratic flow or a g = 0 discrete run; the arrays are read-only.

        Raises
        ------
        UnsupportedFunctionError
            If ``f`` or ``g`` is a callback function.
        NumericalError
            If a normwise backward error (Higham, Accuracy and Stability of
            Numerical Algorithms, sec. 7.1) exceeds ``64 eps``: that of the
            pencil, ``||H phi - (A^T A) phi diag(lam)||_F / ((||H||_F +
            ||A^T A||_F max|lam|) ||phi||_F)``, or that of the linear term,
            ``||(A^T A) phi beta - c|| / (||A^T A||_F ||phi||_F ||beta|| +
            ||c||)``, with ``c = q_f + A^T q_g``. Both residuals are formed
            as products with A (``H phi = M_f phi + A^T (M_g (A phi))``),
            and ``||A^T A||_F = (sum sigma_i^4)^(1/2)`` comes from the
            singular values of A. A correct decomposition scores a small
            multiple of eps at any conditioning of A.
        """
        if not self.is_quadratic:
            raise UnsupportedFunctionError("the modal basis requires quadratic f and g")
        f, g, A = self.f, self.g, self.A
        U, R, inv = _qr(A)  # not the cached _factor: no U or R^{-1} outlives the build
        S, s = inv.T @ f.M @ inv, inv.T @ f.q
        g_terms = not _is_zero(g)  # the g terms, exact zeros when g = 0
        if g_terms:
            S += U.T @ g.M @ U
            s += U.T @ g.q
        lam, Q = np.linalg.eigh(0.5 * (S + S.T))
        phi = inv @ Q
        beta = Q.T @ s
        # H is formed only for its norm, the pencil gate's scale
        H, c = _hessian_and_linear_term(self)
        a_phi = A @ phi
        h_phi = f.M @ phi
        if g_terms:
            h_phi += A.T @ (g.M @ a_phi)
        ata_norm, phi_norm = np.linalg.norm(self._svals**2), np.linalg.norm(phi)
        lam_max = float(np.max(np.abs(lam)))
        pencil = np.linalg.norm(h_phi - (A.T @ a_phi) * lam)
        pencil_scale = (np.linalg.norm(H) + ata_norm * lam_max) * phi_norm
        linear = np.linalg.norm(A.T @ (A @ (phi @ beta)) - c)
        linear_scale = ata_norm * phi_norm * np.linalg.norm(beta) + np.linalg.norm(c)
        for name, resid, scale in (("pencil", pencil, pencil_scale),
                                   ("linear-term", linear, linear_scale)):
            tol = self.modal_backward_tol * scale
            if resid > tol:
                raise NumericalError(
                    f"modal basis fails its {name} check: residual {resid:.3e} exceeds "
                    f"{tol:.3e} (cond(A) = {self.cond_A:.3g})"
                )
        eps = np.finfo(float).eps
        for a in (lam, phi, beta, Q):
            a.flags.writeable = False
        return Modes(lam, phi, beta, Q, R.T,
                     float(pencil / pencil_scale / eps) if pencil_scale else 0.0)

    def __repr__(self):
        return f"SplitProblem(n={self.n}, m={self.m}, cond_A={self.cond_A:.3g})"


def eval_V(problem, x):
    """Composite objective ``V(x) = f(x) + g(A x)``."""
    x = _as_vector(x, problem.n, "x")
    return problem.f.value(x) + problem.g.value(problem.A @ x)


def _is_zero(h):
    """Whether the quadratic ``h`` is identically zero (M = 0 and q = 0)."""
    return h.diagonal is not None and not h.diagonal.any() and not h.q.any()


def _values(problem, xs, axs=None):
    """V at each row of ``xs``, taking ``axs``, the rows of ``xs @ A^T``, when
    the caller has them. For quadratic f and g: one pass of matrix products,
    without the g terms when g is identically zero. Otherwise: one value
    call of f and of g per row, with ``A x`` from ``axs`` or from one
    product per block of ``ROW_BLOCK`` rows; a row whose x or ``A x`` is not
    finite reads NaN and calls neither."""
    f, g = problem.f, problem.g
    if not problem.is_quadratic:
        vals = np.empty(len(xs))
        for start in range(0, len(xs), ROW_BLOCK):
            rows = slice(start, start + ROW_BLOCK)
            block = xs[rows] @ problem.A.T if axs is None else axs[rows]
            finite = np.isfinite(xs[rows]).all(axis=1) & np.isfinite(block).all(axis=1)
            vals[rows] = [f.value(x) + g.value(ax) if ok else np.nan
                          for x, ax, ok in zip(xs[rows], block, finite)]
        return vals
    vals = 0.5 * np.einsum("ij,ij->i", xs @ f.M, xs) + xs @ f.q
    if _is_zero(g):
        return vals
    if axs is None:
        axs = xs @ problem.A.T
    return vals + 0.5 * np.einsum("ij,ij->i", axs @ g.M, axs) + axs @ g.q


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
    """``(H, c)`` of a quadratic V: ``H = M_f + A^T M_g A`` and ``c = q_f + A^T q_g``,
    or ``(M_f, q_f)`` itself when g is identically zero (the same values)."""
    f, g, A = problem.f, problem.g, problem.A
    if _is_zero(g):
        return f.M, f.q
    return f.M + A.T @ (g.M @ A), f.q + A.T @ g.q


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
        If the candidate is not stationary to ``STATIONARY_BACKWARD_TOL``
        in the normwise backward error ``||H x* + c|| / (||H||_F ||x*|| +
        ||c||)`` (Higham, Accuracy and Stability of Numerical Algorithms,
        sec. 7.1), which is scale-free: V is then unbounded below (c has a
        component outside the range of H), where it reads about 1.
    """
    if not problem.is_quadratic:
        raise UnsupportedFunctionError(
            "optimal_value requires quadratic f and g; supply the optimal value "
            "externally for callback functions"
        )
    H, c = _hessian_and_linear_term(problem)
    x_star, *_ = np.linalg.lstsq(H, -c, rcond=None)
    resid = np.linalg.norm(H @ x_star + c)
    scale = np.linalg.norm(H) * np.linalg.norm(x_star) + np.linalg.norm(c)
    if resid > STATIONARY_BACKWARD_TOL * scale:
        raise NumericalError(
            f"no stationary point found (backward error of H x* = -c is "
            f"{resid / scale:.3e}, above {STATIONARY_BACKWARD_TOL:g}); V may be unbounded below"
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


# floats formatted per write of a problem file's arrays: bounds the text in memory
JSON_CHUNK = 4096


def _write_json_floats(fh, values):
    """Write a float array as ``json.dump(values.tolist(), fh, indent=1)``
    would nested one level deep, ``JSON_CHUNK`` floats at a time. ``repr``
    of a list of floats writes each as ``json`` does (``float.__repr__``)."""
    fh.write("[\n  ")
    for start in range(0, values.size, JSON_CHUNK):
        if start:
            fh.write(",\n  ")
        fh.write(repr(values[start:start + JSON_CHUNK].tolist())[1:-1].replace(", ", ",\n  "))
    fh.write("\n ]")


def save_problem(problem, path):
    """Write a quadratic problem as JSON (matrices row-major), byte for byte
    the text of ``json.dump(data, fh, indent=1)`` and a newline, with the
    float arrays streamed in chunks rather than built as one string.
    Deterministic for identical problems."""
    if not problem.is_quadratic:
        raise UnsupportedFunctionError(
            "only quadratic problems can be serialized (callback functions have no data form)"
        )
    data = {
        "n": problem.n,
        "m": problem.m,
        "M_f": problem.f.M.ravel(),
        "q_f": problem.f.q,
        "M_g": problem.g.M.ravel(),
        "q_g": problem.g.q,
        "A": problem.A.ravel(),
        "seed": problem.seed,
        "generator_params": problem.generator_params,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{")
        for i, (key, value) in enumerate(data.items()):
            fh.write(f"{',' if i else ''}\n {json.dumps(key)}: ")
            if isinstance(value, np.ndarray):
                _write_json_floats(fh, value)
            else:
                fh.write(json.dumps(value, indent=1).replace("\n", "\n "))
        fh.write("\n}\n")


def _load_quadratic(data, name, dim):
    """The quadratic ``name`` ("f" or "g") of a problem file's data; a
    ValueError of its fields is prefixed with ``name``."""
    try:
        return QuadraticFunction(np.asarray(data[f"M_{name}"], dtype=float).reshape(dim, dim),
                                 np.asarray(data[f"q_{name}"], dtype=float))
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def load_problem(path):
    """Read a problem written by :func:`save_problem`.

    A file that is not JSON, or a field that is missing, malformed, not
    finite or otherwise invalid, raises ValueError prefixed with ``path``
    (and with ``f:`` or ``g:`` for the data of one function), e.g.
    ``p.json: f: M must be finite; M[0, 1] is nan``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        n = int(data["n"])
        m = int(data["m"])
        f, g = _load_quadratic(data, "f", n), _load_quadratic(data, "g", m)
        A = np.asarray(data["A"], dtype=float).reshape(m, n)
        return SplitProblem(
            f, g, A, seed=data.get("seed"), generator_params=data.get("generator_params")
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(
            f"{path}: not a valid problem file: missing or malformed field ({exc})") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
