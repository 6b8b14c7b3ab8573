"""Shared test oracles, kept independent of the implementation paths they check."""

import numpy as np

# trajectory CSVs with a cell that is not a number, and the fault the loader
# reports: the bad cell's file line counts the header and, in the second
# file, the rows the loader skips (a truncation marker and a blank line)
NOT_A_NUMBER = {
    "not-a-number": ("t,V_gap\n1,2\n3,x\n", "line 3, column 2: 'x' is not a number"),
    "not-a-number-after-skipped-rows": ("t,V_gap\n1,2\ntruncated,note\n\n3,4\n5,x\n",
                                        "line 6, column 2: 'x' is not a number"),
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
