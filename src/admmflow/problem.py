"""Split optimization problems, the composite objective, and problem generators.

The central object is :class:`SplitProblem`: two continuously differentiable
convex functions ``f`` on R^n and ``g`` on R^m together with an m-by-n
matrix ``A`` of full column rank, representing

    minimize  f(x) + g(z)   subject to  z = A x.

Solvers, flows and monitors are all written against the composite objective
``V(x) = f(x) + g(A x)``, i.e. the constrained objective evaluated on the
feasible manifold ``z = A x``.

Both flows and the ADMM x-step are posed in ``A^T A``, whose condition
number is ``cond(A)^2``. It is never formed: A is factored once per
problem, as ``A = U R`` (reduced QR, cached on first use), and that one
factor is behind the callback velocity, the reduced system of V's
quadratic (:attr:`SplitProblem.modes`, :func:`optimal_value`) and the
discrete x-operator, so their results lose digits as ``cond(A)``, and
everything the rank test accepts (``sigma_min > 1e-10 sigma_max``) can be
run.
"""

from __future__ import annotations

import json
import math
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


# rows per block of a product over the samples of a run (_row_blocks): it then
# holds O(ROW_BLOCK n) floats of temporaries, not a copy of the run. A short
# last block is folded into the one before it: at n = 60 OpenBLAS rounded a
# 147-row product unlike the same rows of one full product; 300+ rows did not
ROW_BLOCK = 1024

# every sample of a run is stored, so a flow grid and a discrete run are
# bounded (50x the benchmark's 20,000 steps)
MAX_STEPS = 10**6

# normwise backward error of a stationary point that optimal_value accepts
STATIONARY_BACKWARD_TOL = 1e-10


def _as_vector(x, dim, name):
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise ValueError(f"{name} must have shape ({dim},), got {x.shape}")
    return x


def _row_blocks(n):
    """Slices of ``ROW_BLOCK`` rows covering ``range(n)``, the last holding the rest."""
    bounds = [i * ROW_BLOCK for i in range(max(n // ROW_BLOCK, 1))] + [n]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _map_rows(fn, n, work=None, out=None):
    """``fn(rows)`` for the slices of :func:`_row_blocks` (n), concatenated;
    given ``work``, ``fn(slice(None), work, out)``: the n rows as the caller's
    one block, whose products ``fn`` writes into ``work`` and its result into
    ``out``."""
    if work is not None:
        return fn(slice(None), work, out)
    return np.concatenate([fn(rows) for rows in _row_blocks(n)])


def _out_view(work, rows, cols):
    """The first ``rows x cols`` floats of the flat buffer ``work`` as a
    C-contiguous matrix, the ``out`` of a product over one block of rows; None
    without a buffer, so that the product allocates its result."""
    return None if work is None else work[:rows * cols].reshape(rows, cols)


def _row_norms(ys, shift=None, *, work=None, out=None):
    """``||y - shift||`` for each row ``y`` of ``ys``, formed as
    ``np.linalg.norm(axis=1)`` forms it (squares, row sums, square roots), so
    the bits are its own, by :func:`_map_rows`; or, given ``work``, a flat
    buffer of at least ``ys.size`` floats, with ``ys`` as one block whose
    squares are written there and whose norms into ``out``."""
    def block(rows, work=None, out=None):
        y = ys[rows]
        squares = _out_view(work, *y.shape)
        if shift is not None:
            y = np.subtract(y, shift, out=squares)
        squares = np.multiply(y, y, out=squares)
        return np.sqrt(np.add.reduce(squares, axis=1, out=out), out=out)

    return _map_rows(block, len(ys), work, out)


def _check_finite(x, name):
    """Refuse an array with a NaN or inf entry, naming it and the first such entry."""
    bad = np.argwhere(~np.isfinite(x))
    if bad.size:
        index = tuple(int(i) for i in bad[0])
        raise ValueError(f"{name} must be finite; {name}[{', '.join(map(str, index))}] "
                         f"is {float(x[index])!r}")


def _norm(a):
    """The 2-norm (Frobenius for a matrix) of ``a`` as ``s ||a / s||`` with
    ``s = max |a|``, so that no square overflows; ``s`` itself when that is 0,
    inf or NaN."""
    s = np.max(np.abs(a))
    return s * np.linalg.norm(a / s) if 0 < s < np.inf else s


def _check_damping(r):
    """``r`` as a float, if it is a valid damping parameter of the second-order
    flow and of A-ADMM: ``3 <= r < inf`` (Su, Boyd & Candes, arXiv:1503.01243);
    r = inf would freeze the flow and turn A-ADMM into plain ADMM."""
    if r is None or not 3 <= r < np.inf:
        raise ValueError(f"damping parameter r must be >= 3 and finite, got {r}")
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
    holds the spectrum of M, ascending, from the positive-semidefinite check
    (zeros, without an eigendecomposition, for a zero M).
    """

    psd_rtol = 1e-10

    def __init__(self, M, q=None):
        M = np.array(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1] or not M.size:
            raise ValueError(f"M must be a square matrix of size at least 1, got shape {M.shape}")
        _check_finite(M, "M")
        M = 0.5 * M + 0.5 * M.T  # M + M.T can overflow; each half is exact
        dim = M.shape[0]
        if q is None:
            q = np.zeros(dim)
        else:
            q = np.array(_as_vector(q, dim, "q"))
            _check_finite(q, "q")
        nonzero = M.any()
        evals = np.linalg.eigvalsh(M) if nonzero else np.zeros(dim)
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
        self.dim = dim
        self._zero = not nonzero and not q.any()

    @classmethod
    def zero(cls, dim):
        """The identically-zero function on R^dim."""
        return cls(np.zeros((dim, dim)))

    def value(self, v):
        return float(0.5 * (v @ (self.M @ v)) + self.q @ v)

    def grad(self, v):
        return self._grad_into(v, np.empty(self.dim))

    def _grad_into(self, v, out):
        """``M v + q`` written into the float vector ``out`` of shape (dim,), returned."""
        self.M.dot(v, out)
        out += self.q
        return out

    def __repr__(self):
        return f"QuadraticFunction(dim={self.dim})"


class CallbackFunction:
    """Differentiable convex function on R^dim given by value and gradient callbacks.

    ``dim`` is an integer of at least 1 (a numpy integer too, but not a
    bool). ``grad_fn(v)`` must return a vector of ``dim`` numbers: an array
    of shape (dim,), of any real dtype, or a sequence of that length. Any
    other result (a scalar, ``None``, a (dim, 1) column, a vector of
    another length) raises ValueError naming its shape, e.g. ``gradient
    callback returned shape (2, 1), expected (2,)``, on every path: the
    flows, :func:`admm_flow_rhs`, :func:`grad_V` and an inner solver's
    subproblem. ``fn(v)`` must return one number (a float, a numpy scalar or
    a 0-d array); ``None``, a vector or a length-1 array raises ValueError
    naming its type or shape, e.g. ``value callback returned shape (1,),
    expected a number``. The flows pass buffers they reuse, so a callback
    must not keep its argument beyond the call.

    Supported everywhere a gradient oracle suffices; operations that need
    closed-form subproblem solves (``optimal_value``, the quadratic solver
    path) reject it with :class:`UnsupportedFunctionError`.
    """

    def __init__(self, fn, grad_fn, dim):
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
            raise ValueError(f"dim must be an integer of at least 1, got {dim!r}")
        self.fn = fn
        self.grad_fn = grad_fn
        self.dim = int(dim)

    def value(self, v):
        """``fn(v)`` as a float. A result that ``float`` does not take as one
        number (``None``, a vector, a length-1 array) is refused with
        ValueError naming its type or shape; the good path costs nothing more."""
        value = self.fn(v)
        try:
            return float(value)
        except TypeError:
            shape = np.shape(value)
            got = "None" if value is None else f"shape {shape}" if shape else type(value).__name__
            raise ValueError(f"value callback returned {got}, expected a number") from None

    def grad(self, v):
        return self._grad_into(v, np.empty(self.dim))

    def _grad_into(self, v, out):
        """``grad_fn(v)`` written into the float vector ``out`` of shape
        (dim,), returned: the one conversion of the callback's result. An
        array of the right shape costs one shape compare; anything else is
        read as an array first and refused unless it has that shape."""
        grad = self.grad_fn(v)
        if getattr(grad, "shape", None) != out.shape:
            if grad is None:
                raise ValueError(f"gradient callback returned None, expected shape {out.shape}")
            shape = np.shape(grad)
            if shape != out.shape:
                raise ValueError(f"gradient callback returned shape {shape}, expected {out.shape}")
        out[...] = grad
        return out

    def __repr__(self):
        return f"CallbackFunction(dim={self.dim})"


@dataclass(frozen=True, eq=False)
class Modes:
    """Modal basis of the pencil ``(H, A^T A)`` (:attr:`SplitProblem.modes`).

    ``phi^T (A^T A) phi = I``, ``phi^T H phi = diag(lam)`` (lam ascending) and
    ``beta = phi^T c``, so with ``X = phi y`` the first-order flow splits into
    the scalar modes ``y_i' = -(lam_i y_i + beta_i)``. ``q`` holds the
    eigenvectors behind ``phi = R^{-1} q``, ``chol`` the factor ``L = R^T``
    of ``A^T A = L L^T`` from ``A = U R``, and ``backward_error`` the pencil
    test's ratio in units of eps, on the scale ``||A^T A||_F max|lam|
    ||phi||_F``.
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
    is never formed: every path posed in it reads the one factorization of
    A, ``A = U R`` (:attr:`_factor`). The factor and the modal basis of a
    quadratic problem (:attr:`modes`, used by the quadratic flows and by the
    discrete solvers when g = 0) are computed on first use and cached, so a
    run pays only for what it uses. The discrete solvers keep
    the subproblem operators of a quadratic problem per rho in
    ``_operators`` (see :func:`discrete._operators`).
    """

    rank_rtol = 1e-10
    # normwise backward error allowed of the modal basis (Higham, Accuracy and
    # Stability of Numerical Algorithms, sec. 7.1)
    modal_backward_tol = 64 * np.finfo(float).eps

    def __init__(self, f, g, A, seed=None, generator_params=None):
        A = np.array(A, dtype=float)
        if A.ndim != 2:
            raise ValueError(f"A must be a matrix, got shape {A.shape}")
        if not A.size:
            raise ValueError(f"A must have at least one row and one column, got shape {A.shape}")
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
        """``(U, R, R^{-1})`` of the reduced QR factorization ``A = U R`` with
        ``diag R > 0``, read-only; the only factorization of A, computed on
        first use and kept. ``R^T`` is then the Cholesky factor of ``A^T A =
        R^T R``, which is never formed: a product with ``R^{-1}`` carries
        ``cond(A) eps`` of rounding where one with the factor of the formed
        Gram matrix carries ``cond(A)^2 eps`` (Higham, Accuracy and Stability
        of Numerical Algorithms, ch. 20; Golub & Van Loan, Matrix
        Computations, sec. 5.3). ``R^{-1}`` is the LU inverse of R, which for
        an upper triangular R pivots no row and is back substitution."""
        U, R = np.linalg.qr(self.A)
        sign = np.copysign(1.0, R.diagonal())
        U *= sign
        R *= sign[:, None]
        factor = U, R, np.linalg.inv(R)
        for a in factor:
            a.flags.writeable = False
        return factor

    @cached_property
    def modes(self):
        """The :class:`Modes` of a quadratic problem.

        ``eigh`` of the reduced ``S`` of :func:`_reduced_system` gives ``Q``
        and ``lam``, then ``phi = R^{-1} Q`` and ``beta = Q^T s``. Built on
        first access (O(n^3)); the arrays are read-only.

        Raises
        ------
        UnsupportedFunctionError
            If ``f`` or ``g`` is a callback function.
        NumericalError
            If a normwise backward error (Higham, Accuracy and Stability of
            Numerical Algorithms, sec. 7.1) exceeds ``64 eps``: that of the
            pencil, ``||H phi - (A^T A) phi diag(lam)||_F / (||A^T A||_F
            max|lam| ||phi||_F)``, or that of the linear term, ``||(A^T A)
            phi beta - c|| / (||A^T A||_F ||phi||_F ||beta|| + ||q_f|| +
            ||A^T q_g||)``, with ``c = q_f + A^T q_g``, rounded at the size
            of its terms. H is not formed: V is convex, so ``||H||_F <=
            sqrt(n) ||A^T A||_2 max|lam|``, and adding ``||H||_F`` to the
            pencil scale would widen it at most ``1 + sqrt(n)``-fold. The
            residuals are products with A (``H phi = M_f phi + A^T (M_g (A
            phi))``), and ``||A^T A||_F = (sum sigma_i^4)^(1/2)`` comes from
            the singular values of A. Every norm is scaled (:func:`_norm`),
            so none overflows; the basis is built with numpy's overflow
            warnings silenced, and a residual or scale that is not finite
            fails by name. A correct decomposition scores a small multiple
            of eps at any conditioning of A.
        """
        if not self.is_quadratic:
            raise UnsupportedFunctionError("the modal basis requires quadratic f and g")
        f, g, A = self.f, self.g, self.A
        _, R, inv = self._factor
        # a draw of extreme scale overflows here; the gates refuse it by name
        with np.errstate(over="ignore", invalid="ignore"):
            S, s = _reduced_system(self)
            lam, Q = np.linalg.eigh(S)
            phi = inv @ Q
            beta = Q.T @ s
            a_phi = A @ phi
            h_phi, c = f.M @ phi, f.q
            if not _is_zero(g):
                h_phi += A.T @ (g.M @ a_phi)
                c = f.q + A.T @ g.q
            ata_norm, phi_norm = _norm(self._svals**2), _norm(phi)
            pencil = _norm(h_phi - (A.T @ a_phi) * lam)
            pencil_scale = ata_norm * float(np.max(np.abs(lam))) * phi_norm
            linear = _norm(A.T @ (A @ (phi @ beta)) - c)
            linear_scale = ata_norm * phi_norm * _norm(beta) + _norm(f.q) + _norm(A.T @ g.q)
        for name, resid, scale in (("pencil", pencil, pencil_scale),
                                   ("linear-term", linear, linear_scale)):
            tol = self.modal_backward_tol * scale
            if not resid <= tol:
                fault = (f"scale {scale:.3e} is not finite" if not math.isfinite(scale)
                         else f"residual {resid:.3e} is not finite" if not math.isfinite(resid)
                         else f"residual {resid:.3e} exceeds {tol:.3e}")
                raise NumericalError(f"modal basis fails its {name} check: {fault} "
                                     f"(cond(A) = {self.cond_A:.3g})")
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
    return h._zero


def _values(problem, xs, axs=None, *, work=None, out=None):
    """V at each row of ``xs``, taking ``axs``, the rows of ``xs @ A^T``, when
    the caller has them, one block of :func:`_row_blocks` at a time, so the
    temporaries are O(``ROW_BLOCK`` n); or, given ``work``, two flat buffers
    of at least ``len(xs) * max(n, m)`` floats, with ``xs`` as one block whose
    products are written there and whose values into ``out``. For quadratic
    f and g: matrix products, without the g terms (nor ``A x``) when g is
    identically zero. Otherwise: one value call of f and of g per row; a row
    whose x or ``A x`` is not finite reads NaN and calls neither."""
    f, g, quadratic = problem.f, problem.g, problem.is_quadratic
    n, m = problem.n, problem.m

    def block(rows, work=(None, None), out=None):
        x_blk = xs[rows]
        k = len(x_blk)
        if quadratic:
            x_m = np.matmul(x_blk, f.M, out=_out_view(work[0], k, n))
            vals = np.einsum("ij,ij->i", x_m, x_blk, out=out)
            vals *= 0.5
            vals += x_blk @ f.q
            if _is_zero(g):
                return vals
        ax_blk = (np.matmul(x_blk, problem.A.T, out=_out_view(work[1], k, m))
                  if axs is None else axs[rows])
        if quadratic:
            ax_m = np.matmul(ax_blk, g.M, out=_out_view(work[0], k, m))
            g_part = np.einsum("ij,ij->i", ax_m, ax_blk)
            g_part *= 0.5
            vals += g_part
            vals += ax_blk @ g.q
            return vals
        finite = np.isfinite(x_blk).all(axis=1) & np.isfinite(ax_blk).all(axis=1)
        vals = np.empty(k) if out is None else out
        for i, (x, ax, ok) in enumerate(zip(x_blk, ax_blk, finite)):
            vals[i] = f.value(x) + g.value(ax) if ok else np.nan
        return vals

    return _map_rows(block, len(xs), work, out)


def grad_V(problem, x):
    """Gradient of the composite objective, ``grad f(x) + A^T grad g(A x)``."""
    x = _as_vector(x, problem.n, "x")
    return problem.f.grad(x) + problem.A.T @ problem.g.grad(problem.A @ x)


def _a_sq_norms(problem, ys, *, work=None, out=None):
    """``||A y||^2`` for each row ``y`` of ``ys``: the kinetic term of the
    second-order flow and the quadratic part of the Lyapunov energies, formed
    one block of :func:`_row_blocks` at a time; or, given ``work``, a flat
    buffer of at least ``len(ys) * m`` floats, with ``ys`` as one block whose
    product ``A y`` is written there and whose norms into ``out``."""
    def block(rows, work=None, out=None):
        y = ys[rows]
        ays = np.matmul(y, problem.A.T, out=_out_view(work, len(y), problem.m))
        return np.einsum("ij,ij->i", ays, ays, out=out)

    return _map_rows(block, len(ys), work, out)


def _reduced_system(problem):
    """``(S, s)`` of a quadratic V in ``w = R x``, from the problem's factor
    ``A = U R`` (:attr:`SplitProblem._factor`): the symmetrised ``S = R^{-T}
    M_f R^{-1} + U^T M_g U``, which is ``R^{-T} H R^{-1}`` for the Hessian
    ``H = M_f + A^T M_g A`` of V formed without ``A^T M_g A``, and ``s =
    R^{-T} q_f + U^T q_g``, so that ``V = 0.5 <w, S w> + <s, w>``; the g
    terms are skipped when g is identically zero. Not cached: S is an n x n
    matrix that the problem need not keep."""
    f, g = problem.f, problem.g
    U, _, inv = problem._factor
    S, s = inv.T @ f.M @ inv, inv.T @ f.q
    if not _is_zero(g):
        S += U.T @ g.M @ U
        s += U.T @ g.q
    return 0.5 * (S + S.T), s


def optimal_value(problem):
    """Minimizer and optimal value of V for the quadratic class.

    Solves the stationarity system of V by a least-squares (SVD) solve:
    ``M_f x = -q_f`` when g is identically zero, which never sees A, and
    otherwise ``S w = -s`` of :func:`_reduced_system` in ``w = R x``, then
    ``x* = R^{-1} w``, so that the Hessian ``H = M_f + A^T M_g A`` (whose
    condition number carries ``cond(A)^2``) is never formed. When the
    Hessian is singular the minimizer is not unique, and the one returned
    is of least norm: ``||x||`` when g = 0, ``||A x||`` otherwise. The
    optimal value is unique even when the minimizer is not.

    Returns
    -------
    (x_star, v_star) : (ndarray, float)

    Raises
    ------
    UnsupportedFunctionError
        If ``f`` or ``g`` is not a :class:`QuadraticFunction`; callers must
        then supply the optimal value externally.
    NumericalError
        If the solution w of the system ``K w = -k`` solved is not stationary
        to ``STATIONARY_BACKWARD_TOL`` in the normwise backward error ``||K w
        + k|| / (||K||_F ||w|| + ||k||)`` (Higham, Accuracy and Stability of
        Numerical Algorithms, sec. 7.1), which is scale-free: V is then
        unbounded below (k has a component outside the range of K).
    """
    if not problem.is_quadratic:
        raise UnsupportedFunctionError(
            "optimal_value requires quadratic f and g; supply the optimal value "
            "externally for callback functions"
        )
    reduced = not _is_zero(problem.g)
    K, k = _reduced_system(problem) if reduced else (problem.f.M, problem.f.q)
    w, *_ = np.linalg.lstsq(K, -k, rcond=None)
    resid = np.linalg.norm(K @ w + k)
    scale = np.linalg.norm(K) * np.linalg.norm(w) + np.linalg.norm(k)
    if resid > STATIONARY_BACKWARD_TOL * scale:
        raise NumericalError(
            f"no stationary point found (backward error of the stationarity system is "
            f"{resid / scale:.3e}, above {STATIONARY_BACKWARD_TOL:g}); V may be unbounded below"
        )
    x_star = problem._factor[2] @ w if reduced else w
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
        Upper end of the nonzero-eigenvalue range, finite and > 0.
    cond_a : float
        Condition number of A, finite and >= 1; exactly 1 when n = 1.
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
    if not 0 < eig_hi < np.inf:
        raise ValueError(f"eig_hi must be positive and finite, got {eig_hi}")
    if not 1 <= cond_a < np.inf:
        raise ValueError(f"cond_a must be >= 1 and finite, got {cond_a}")
    if n == 1 and cond_a != 1:  # one singular value: A is a multiple of an orthonormal column
        raise ValueError(f"cond_a must be 1 when n = 1, got {cond_a}")
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


def _load_array(data, name, shape):
    """Field ``name`` of a problem file's data as a float array of ``shape``:
    one ``np.asarray``, refused unless it reads numbers (integers within
    int64), flat or nested but not ragged, as many as ``shape`` holds."""
    try:
        values = np.asarray(data[name])
    except ValueError as exc:  # numpy's "inhomogeneous shape"
        raise ValueError(f"{name} must be an array of numbers; it is ragged") from exc
    if values.dtype.kind not in "iuf":  # bool (b), str (U) or object (O), as for a null
        raise ValueError(f"{name} must be an array of numbers; it reads as {values.dtype.name}: "
                         "a string, a null, only true/false or an integer beyond int64")
    if values.size != math.prod(shape):
        raise ValueError(f"{name} must hold {math.prod(shape)} numbers for shape {shape}, "
                         f"got {values.size}")
    return values.astype(float, copy=False).reshape(shape)


def _load_quadratic(data, name, dim):
    """The quadratic ``name`` ("f" or "g") of a problem file's data; a
    ValueError of its fields is prefixed with ``name``."""
    M, q = _load_array(data, f"M_{name}", (dim, dim)), _load_array(data, f"q_{name}", (dim,))
    try:
        return QuadraticFunction(M, q)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def load_problem(path):
    """Read a problem written by :func:`save_problem`.

    A file that is not JSON, or a field that is missing, malformed, not
    finite or otherwise invalid, raises ValueError prefixed with ``path``
    (and with ``f:`` or ``g:`` for the data of one function), e.g.
    ``p.json: f: M must be finite; M[0, 1] is nan``. ``n`` and ``m`` must be
    JSON integers of at least 1, and arrays flat or nested lists of as many
    numbers as their shape holds (a bool among numbers reads as 1 or 0).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        n, m = data["n"], data["m"]
        if type(n) is not int or type(m) is not int:  # 4.0, "4" and true are not
            raise ValueError(f"n and m must be integers, got n = {n!r}, m = {m!r}")
        if n < 1 or m < 1:
            raise ValueError(f"n and m must be at least 1, got n = {n}, m = {m}")
        f, g = _load_quadratic(data, "f", n), _load_quadratic(data, "g", m)
        A = _load_array(data, "A", (m, n))
        return SplitProblem(
            f, g, A, seed=data.get("seed"), generator_params=data.get("generator_params")
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(
            f"{path}: not a valid problem file: missing or malformed field ({exc})") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
