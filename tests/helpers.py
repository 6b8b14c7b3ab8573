"""Shared test oracles, kept independent of the implementation paths they check."""

import numpy as np

# trajectory CSVs with a cell that is not a number, and the fault the loader
# reports: the bad cell's file line counts the header and, in the second
# file, the rows the loader skips (a truncation marker and a blank line); a
# bad first cell is a fault too, not a row to skip
NOT_A_NUMBER = {
    "not-a-number": ("t,V_gap\n1,2\n3,x\n", "line 3, column 2: 'x' is not a number"),
    "not-a-number-after-skipped-rows": ("t,V_gap\n1,2\ntruncated,note\n\n3,4\n5,x\n",
                                        "line 6, column 2: 'x' is not a number"),
    "not-a-number-first-cell": ("t,V_gap\n1,2\nx0.74,1.34\n3,4\n",
                                "line 3, column 1: 'x0.74' is not a number"),
    "not-a-number-comment-row": ("t,V_gap\n1,2\n# note,3\n",
                                 "line 3, column 1: '# note' is not a number"),
}


def with_g(problem, kind, seed=1):
    """``problem`` with its f and A and a quadratic g of the given structure:
    ``"zero"``, ``"linear"`` (``M_g = 0``), ``"diagonal"``
    (``M_g = diag(0.1 + 5U)``) or ``"dense"`` (``M_g = Q diag(0.1 + 5U) Q^T``,
    Q random orthogonal); q_g ~ N(0, I) unless g is zero."""
    from admmflow import QuadraticFunction, SplitProblem

    m = problem.m
    if kind == "zero":
        g = QuadraticFunction.zero(m)
    else:
        rng = np.random.default_rng(seed)
        spectrum = 0.1 + 5.0 * rng.uniform(size=m)
        if kind == "linear":
            M = np.zeros((m, m))
        elif kind == "diagonal":
            M = np.diag(spectrum)
        else:
            q_mat, _ = np.linalg.qr(rng.standard_normal((m, m)))
            M = (q_mat * spectrum) @ q_mat.T
        g = QuadraticFunction(M, rng.standard_normal(m))
    return SplitProblem(problem.f, g, problem.A)


def random_problem(seed, n, extra_rows):
    """A random small quadratic problem and its generator: strongly convex f,
    convex g, both with linear terms, and sigma_min(A) >= about 1.5."""
    from admmflow import QuadraticFunction, SplitProblem

    rng = np.random.default_rng(seed)
    m = n + extra_rows
    B = rng.standard_normal((n, n))
    C = rng.standard_normal((m, m))
    f = QuadraticFunction(B @ B.T + np.eye(n), rng.standard_normal(n))
    g = QuadraticFunction(C @ C.T, rng.standard_normal(m))
    A = 3.0 * np.eye(m, n) + 0.3 * rng.standard_normal((m, n))
    return SplitProblem(f, g, A), rng


# a random_problem draw whose linear term c = q_f + A^T q_g cancels: q_f =
# -1.1255 and A^T q_g = 1.1281 leave c = 0.0026
CANCELLING_DRAW = (23192242, 1, 0)


def range_term_draw(cond_a, n=8, zero_eigs=2, seed=38, w_seed=3):
    """A bounded g = 0 draw with a linear term: ``gen_figure1_problem(n,
    zero_eigs, 10, cond_a, seed)`` with ``q_f = M_f w``, ``w ~ N(0, I)``
    from ``w_seed``, so ``x* = -w`` (up to the null space of M_f). Returns
    the problem and ``V* = -w^T M_f w / 2`` summed exactly (at DIGITS
    digits), then rounded."""
    from decimal import localcontext

    from admmflow import QuadraticFunction, SplitProblem, gen_figure1_problem

    base = gen_figure1_problem(n, zero_eigs, 10.0, cond_a, seed)
    w, M = np.random.default_rng(w_seed).standard_normal(n), base.f.M
    with localcontext() as ctx:
        ctx.prec = DIGITS
        w_dec = _dec(w)
        v_star = float(-sum(a * b for a, b in zip(w_dec, _mv(_dec(M), w_dec))) / 2)
    return SplitProblem(QuadraticFunction(M, M @ w), base.g, base.A), v_star


def as_callbacks(problem, calls=None):
    """``problem`` with f and g behind callbacks. With a dict ``calls``, each
    call is counted in it, keyed ``("f", "grad")``, ``("g", "value")`` and
    so on."""
    from admmflow import CallbackFunction, SplitProblem

    def counted(name, kind, fn):
        if calls is None:
            return fn

        def call(v):
            calls[(name, kind)] = calls.get((name, kind), 0) + 1
            return fn(v)
        return call

    f, g = (CallbackFunction(counted(name, "value", h.value), counted(name, "grad", h.grad),
                             h.dim)
            for name, h in (("f", problem.f), ("g", problem.g)))
    return SplitProblem(f, g, problem.A)


def fd_grad(fun, x, step=1e-5):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * step)
    return g


def cg_minimize(fun, grad, x0, tol=1e-12, max_iter=None):
    """Generic convex inner solver for quadratic objectives.

    Linear conjugate gradient where the Hessian matvec is extracted from
    gradient differences (exact for quadratics), run to a relative residual
    of ``tol``. Usable as the discrete solvers' ``inner_solver`` hook and
    as an independent oracle for the closed-form subproblem path.
    """
    x0 = np.asarray(x0, dtype=float)
    g0 = grad(np.zeros_like(x0))

    def matvec(p):
        return grad(p) - g0

    b = -g0
    x = x0.copy()
    r = b - matvec(x)
    p = r.copy()
    rs = float(r @ r)
    b_norm = float(np.linalg.norm(b)) or 1.0
    if max_iter is None:
        max_iter = 50 * x0.size + 100
    for _ in range(max_iter):
        if np.sqrt(rs) <= tol * b_norm:
            break
        hp = matvec(p)
        alpha = rs / float(p @ hp)
        x = x + alpha * p
        r = r - alpha * hp
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


class GradCounter:
    """An inner solver (``cg_minimize`` unless given) that counts its solves
    and the gradient calls they make."""

    def __init__(self, solver=cg_minimize):
        self.solver = solver
        self.solves = 0
        self.grad_calls = 0

    def __call__(self, fun, grad, x0):
        def counted(y):
            self.grad_calls += 1
            return grad(y)

        self.solves += 1
        return self.solver(fun, counted, x0)


def rk4_reference(rhs, y0, t0, t_end, h):
    """Classical RK4 on a time-dependent system y' = rhs(t, y).

    Independent reference integrator for second-order flows written in
    first-order form. Returns (times, states) sampled every step.
    """
    n_steps = int(round((t_end - t0) / h))
    y = np.array(y0, dtype=float)
    ts = t0 + h * np.arange(n_steps + 1)
    ys = np.empty((n_steps + 1, y.size))
    ys[0] = y
    for i in range(n_steps):
        t = ts[i]
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ys[i + 1] = y
    return ts, ys


def second_order_rhs(problem, r):
    """First-order form of the damped second-order flow, for rk4_reference.

    Solves with numpy directly (no cached factorization), so it shares no
    linear-algebra path with the symplectic integrator under test.
    """
    from admmflow import grad_V

    B = problem.A.T @ problem.A
    n = problem.n

    def rhs(t, y):
        x, v = y[:n], y[n:]
        return np.concatenate([v, -(r / t) * v - np.linalg.solve(B, grad_V(problem, x))])

    return rhs


# Exact-arithmetic oracles in stdlib decimal: a binary float converts to a
# Decimal exactly, so these act on the problem's own data. At DIGITS
# significant digits the solves of a Gram matrix of cond(A)^2 <= 1e20 keep
# more than 25 correct digits, far below the double-precision errors the
# tests bound.
DIGITS = 50


def _dec(a):
    """A float array as nested lists of Decimal (exact)."""
    from decimal import Decimal

    return [_dec(row) for row in a] if np.ndim(a) > 1 else [Decimal(float(v)) for v in a]


def _mv(M, v):
    return [sum(a * b for a, b in zip(row, v)) for row in M]


def _mm(M, N):
    cols = list(zip(*N))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in M]


def _gauss_jordan_inverse(M):
    """Inverse of a square Decimal matrix by Gauss-Jordan with partial pivoting."""
    from decimal import Decimal

    n = len(M)
    aug = [list(row) + [Decimal(int(i == j)) for j in range(n)] for i, row in enumerate(M)]
    for col in range(n):
        piv = max(range(col, n), key=lambda i: abs(aug[i][col]))
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [v / p for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def decimal_admm(problem, x0, rho, max_iter, r=None):
    """The exact X iterates of ADMM (``r`` None) or A-ADMM on a quadratic
    problem from ``x0`` (z0 = A x0, u0 = 0), as a float array of
    ``max_iter + 1`` rows: the same recursion as the package's steps, with
    each subproblem matrix (``M_f + rho A^T A``, ``M_g + rho I``) inverted
    once by Gauss-Jordan at DIGITS digits."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = DIGITS
        f, g = problem.f, problem.g
        A, M_f, q_f, M_g, q_g = (_dec(a) for a in (problem.A, f.M, f.q, g.M, g.q))
        At = [list(col) for col in zip(*A)]
        rho_d, m, n = Decimal(float(rho)), problem.m, problem.n
        ata = _mm(At, A)
        inv_x = _gauss_jordan_inverse([[M_f[i][j] + rho_d * ata[i][j] for j in range(n)]
                                       for i in range(n)])
        inv_z = _gauss_jordan_inverse([[M_g[i][j] + (rho_d if i == j else 0) for j in range(m)]
                                       for i in range(m)])
        x = _dec(x0)
        z, u = _mv(A, x), [Decimal(0)] * m
        z_hat, u_hat = z, u
        xs = [x]
        for k in range(max_iter):
            rhs = [rho_d * a - b for a, b in zip(_mv(At, [p - q for p, q in zip(z_hat, u_hat)]),
                                                  q_f)]
            x = _mv(inv_x, rhs)
            ax = _mv(A, x)
            z_new = _mv(inv_z, [rho_d * (a + b) - c for a, b, c in zip(ax, u_hat, q_g)])
            u_new = [a + b - c for a, b, c in zip(u_hat, ax, z_new)]
            gamma = Decimal(0) if r is None else Decimal(k) / (Decimal(k) + Decimal(float(r)))
            z_hat = [a + gamma * (a - b) for a, b in zip(z_new, z)]
            u_hat = [a + gamma * (a - b) for a, b in zip(u_new, u)]
            z, u = z_new, u_new
            xs.append(x)
        return np.array([[float(v) for v in x] for x in xs])


def _decimal_hessian(problem):
    """``(H, c, A^T A)`` of a quadratic problem, ``H = M_f + A^T M_g A`` and
    ``c = q_f + A^T q_g``, formed exactly from its data as Decimal lists;
    called in a context of DIGITS digits."""
    f, g = problem.f, problem.g
    A, M_f, q_f, M_g, q_g = (_dec(a) for a in (problem.A, f.M, f.q, g.M, g.q))
    At = [list(col) for col in zip(*A)]
    H = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(M_f, _mm(At, _mm(M_g, A)))]
    return H, [a + b for a, b in zip(q_f, _mv(At, q_g))], _mm(At, A)


def decimal_optimum(problem):
    """The minimizer ``x* = -H^{-1} c`` and optimal value ``V* = <c, x*> / 2``
    of a quadratic problem with a positive definite Hessian, as a float
    vector and a float: H and c formed exactly and H inverted by
    Gauss-Jordan, at DIGITS digits."""
    from decimal import localcontext

    with localcontext() as ctx:
        ctx.prec = DIGITS
        H, c, _ = _decimal_hessian(problem)
        x_star = [-v for v in _mv(_gauss_jordan_inverse(H), c)]
        v_star = sum(a * b for a, b in zip(c, x_star)) / 2
        return np.array([float(v) for v in x_star]), float(v_star)


def decimal_flow(problem, x0, times):
    """The exact first-order flow ``(A^T A) X' = -(H X + c)`` of a quadratic
    problem from ``X(0) = x0`` at each of ``times``, as a float array with a
    row per time. At DIGITS digits: the Cholesky factor ``A^T A = L L^T``
    turns the flow into ``w' = -(S w + d)`` in ``w = L^T X``, with the
    symmetric ``S = L^{-1} H L^{-T}`` and ``d = L^{-1} c``, whose
    propagator is ``expm`` of the augmented matrix ``[[-S, -d], [0, 0]]``:
    a Taylor series after scaling by ``2^-s`` to norm < 1/2, then ``s``
    squarings."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = DIGITS
        n = problem.n
        H, c, ata = _decimal_hessian(problem)
        L = [[Decimal(0)] * n for _ in range(n)]
        for j in range(n):
            L[j][j] = (ata[j][j] - sum(v * v for v in L[j][:j])).sqrt()
            for i in range(j + 1, n):
                L[i][j] = (ata[i][j] - sum(a * b for a, b in zip(L[i][:j], L[j][:j]))) / L[j][j]
        inv = _gauss_jordan_inverse(L)
        inv_t = [list(col) for col in zip(*inv)]
        S, d = _mm(inv, _mm(H, inv_t)), _mv(inv, c)
        G = [[-v for v in row] + [-di] for row, di in zip(S, d)] + [[Decimal(0)] * (n + 1)]
        w0 = _mv([list(col) for col in zip(*L)], _dec(x0)) + [Decimal(1)]
        norm = max(sum(abs(v) for v in row) for row in G)
        rows = []
        for t in times:
            t = Decimal(float(t))
            s = 0
            while norm * t / 2**s >= Decimal("0.5"):
                s += 1
            Z = [[v * t / 2**s for v in row] for row in G]
            E = [[Decimal(int(i == j)) for j in range(n + 1)] for i in range(n + 1)]
            term = E
            for k in range(1, 40):
                term = [[v / k for v in row] for row in _mm(term, Z)]
                E = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(E, term)]
            for _ in range(s):
                E = _mm(E, E)
            rows.append([float(v) for v in _mv(inv_t, _mv(E, w0)[:n])])
        return np.array(rows)
