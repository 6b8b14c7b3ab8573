import itertools
import json
import re
import warnings

import numpy as np
import pytest

import admmflow as af
from admmflow.exceptions import DivergenceError, NumericalError, UnsupportedFunctionError
from admmflow.problem import ROW_BLOCK, _is_zero, _values

from helpers import (CANCELLING_DRAW, as_callbacks, cg_minimize, decimal_optimum, fd_grad,
                     random_problem, range_term_draw, with_g)

EPS = np.finfo(float).eps


def test_eval_V_one_d(one_d_problem):
    # f(2) = 2 with g = 0 contributing nothing
    assert af.eval_V(one_d_problem, np.array([2.0])) == pytest.approx(2.0)


def test_eval_V_one_d_with_g():
    p = af.SplitProblem(
        af.QuadraticFunction([[1.0]]), af.QuadraticFunction([[1.0]]), [[1.0]]
    )
    # hand evaluation: 0.5*4 + 0.5*4
    assert af.eval_V(p, np.array([2.0])) == pytest.approx(4.0)


def test_eval_V_zero_at_minimizer(pd_2d_problem):
    x_star, v_star = af.optimal_value(pd_2d_problem)
    assert af.eval_V(pd_2d_problem, x_star) == pytest.approx(v_star)
    # quadratic with q = 0 has V(0) = 0
    q0 = af.SplitProblem(
        af.QuadraticFunction(np.diag([1.0, 2.0])), af.QuadraticFunction.zero(2), np.eye(2)
    )
    assert af.eval_V(q0, np.zeros(2)) == 0.0


def test_eval_V_figure1_eigendecomposition_oracle(figure1_problem, figure1_x0):
    # independent route: V(x0) = 0.5 * sum_i lambda_i <q_i, x0>^2
    evals, evecs = np.linalg.eigh(figure1_problem.f.M)
    expected = 0.5 * float(np.sum(evals * (evecs.T @ figure1_x0) ** 2))
    assert af.eval_V(figure1_problem, figure1_x0) == pytest.approx(expected, rel=1e-12)


def test_eval_V_dimension_mismatch(one_d_problem):
    with pytest.raises(ValueError):
        af.eval_V(one_d_problem, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        af.grad_V(one_d_problem, np.ones(3))


def test_grad_V_identity_quadratic():
    p = af.SplitProblem(
        af.QuadraticFunction([[1.0]]), af.QuadraticFunction.zero(1), [[1.0]]
    )
    assert af.grad_V(p, np.array([3.0])) == pytest.approx(np.array([3.0]))


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_grad_V_matches_finite_differences(seed):
    p = af.gen_figure1_problem(5, 2, 4.0, 10.0, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for _ in range(20):
        x = rng.standard_normal(p.n)
        g = af.grad_V(p, x)
        g_fd = fd_grad(lambda y: af.eval_V(p, y), x, step=1e-5)
        assert np.linalg.norm(g - g_fd) <= 1e-6 * np.linalg.norm(g)


def test_grad_V_zero_at_stationary_point():
    # f(x) = (x-1)^2/2 encoded as M=1, q=-1; x* = 1 exactly
    p = af.SplitProblem(
        af.QuadraticFunction([[1.0]], [-1.0]), af.QuadraticFunction.zero(1), [[1.0]]
    )
    x_star, v_star = af.optimal_value(p)
    assert x_star == pytest.approx(np.array([1.0]))
    assert v_star == pytest.approx(-0.5)
    assert np.linalg.norm(af.grad_V(p, x_star)) <= 1e-10


def test_optimal_value_trivial(one_d_problem):
    x_star, v_star = af.optimal_value(one_d_problem)
    assert np.allclose(x_star, 0.0)
    assert v_star == 0.0


def test_optimal_value_figure1_minimum_norm(figure1_problem):
    # PSD quadratic with q = 0 and g = 0: the minimizer of least Euclidean
    # norm (lstsq on M_f) is 0 and V* = 0
    x_star, v_star = af.optimal_value(figure1_problem)
    assert np.linalg.norm(x_star) <= 1e-10
    assert abs(v_star) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_optimal_value_stationarity(seed):
    p = af.gen_figure1_problem(8, 3, 5.0, 50.0, seed=seed)
    x_star, _ = af.optimal_value(p)
    g0 = np.linalg.norm(af.grad_V(p, np.zeros(p.n)))
    assert np.linalg.norm(af.grad_V(p, x_star)) <= 1e-8 * (1.0 + g0)


def test_optimal_value_solves_an_ill_conditioned_dense_g_draw():
    # M_g is PD, so V is bounded below at any cond(A); the gradient-norm test
    # 1e-8 (1 + ||grad V(0)||) refused this draw. The normwise backward error
    # in the formed H reads 0.23 eps, the forward error of x* 0.0092
    # cond(A) eps (lstsq on the formed H read 2.9 eps and 4.1e7 cond(A) eps)
    p = with_g(af.gen_figure1_problem(8, 2, 10.0, 1e8, seed=38), "dense")
    x_star, v_star = af.optimal_value(p)
    H, c = p.f.M + p.A.T @ (p.g.M @ p.A), p.f.q + p.A.T @ p.g.q
    assert np.linalg.norm(H @ x_star + c) <= 64 * EPS * (
        np.linalg.norm(H) * np.linalg.norm(x_star) + np.linalg.norm(c))
    assert np.linalg.norm(x_star - decimal_optimum(p)[0]) <= 1e8 * EPS * np.linalg.norm(x_star)
    assert v_star == af.eval_V(p, x_star)


@pytest.mark.parametrize("cond_a", [1e2, 1e6, 1e8, 9e9])
def test_optimal_value_forward_error_on_dense_g_draws(cond_a):
    # against the exact optimum of the formed H at 50 digits, x* and V* are
    # held to C cond(A) eps with C = 1, fixed from one measurement: at most
    # 0.11 (x*) and 0.025 (V*). The reduced system S w = -s never forms H;
    # lstsq on the formed H read up to 4.1e7 (x*) and 2.5e6 (V*) here
    p = with_g(af.gen_figure1_problem(8, 2, 10.0, cond_a, seed=38), "dense")
    x_exact, v_exact = decimal_optimum(p)
    x_star, v_star = af.optimal_value(p)
    bound = cond_a * EPS
    assert np.linalg.norm(x_star - x_exact) <= bound * np.linalg.norm(x_exact)
    assert abs(v_star - v_exact) <= bound * abs(v_exact)


@pytest.mark.parametrize("cond_a", [1e2, 1e6, 1e8, 9e9])
def test_optimal_value_on_a_g_zero_draw_with_a_range_linear_term(cond_a):
    # q_f = M_f w on a singular M_f: V is bounded and x* = -w. The lstsq
    # solve of M_f x = -q_f does not see A, and measured 0.79 eps of
    # backward error and 0.81 eps of V* error at every cond(A); both are
    # held to 4 eps. A route through the modal basis of the pencil
    # (M_f, A^T A), x* = phi (-beta / lam), loses digits as cond(A) grows
    p, v_exact = range_term_draw(cond_a)
    x_star, v_star = af.optimal_value(p)
    M, q = p.f.M, p.f.q
    eps = np.finfo(float).eps
    assert np.linalg.norm(M @ x_star + q) <= 4 * eps * (
        np.linalg.norm(M) * np.linalg.norm(x_star) + np.linalg.norm(q))
    assert abs(v_star - v_exact) <= 4 * eps * abs(v_exact)


def test_optimal_value_rejects_callbacks():
    f = af.CallbackFunction(lambda x: float(x @ x), lambda x: 2.0 * x, 2)
    p = af.SplitProblem(f, af.QuadraticFunction.zero(2), np.eye(2))
    with pytest.raises(UnsupportedFunctionError):
        af.optimal_value(p)


def test_optimal_value_unbounded_below(figure1_problem):
    # zero curvature with a linear term: no stationary point. On the figure1
    # draw with a linear g, q_g has a component along the null space of M_f:
    # the reduced system reads a backward error of 1.5e-2
    one_d = af.SplitProblem(
        af.QuadraticFunction([[0.0]], [1.0]), af.QuadraticFunction.zero(1), [[1.0]]
    )
    for p in (one_d, with_g(figure1_problem, "linear")):
        with pytest.raises(NumericalError, match="no stationary point"):
            af.optimal_value(p)


def test_gen_figure1_rank_and_condition():
    p = af.gen_figure1_problem(60, 40, 10.0, 100.0, seed=7)
    svals = np.linalg.svd(p.f.M, compute_uv=False)
    rank = int(np.sum(svals > 1e-8 * svals[0]))
    assert rank == 20
    assert p.cond_A == pytest.approx(100.0, rel=1e-6)


def test_gen_figure1_orthogonal_A_when_cond_one():
    p = af.gen_figure1_problem(2, 0, 1.0, 1.0, seed=1)
    assert np.allclose(p.A.T @ p.A, np.eye(2), atol=1e-12)
    assert np.linalg.eigvalsh(p.f.M)[0] > 0.0


def test_gen_figure1_spectrum_matches_construction():
    # replay the documented draw order and compare spectra
    n, zero_eigs, eig_hi, seed = 12, 5, 8.0, 3
    p = af.gen_figure1_problem(n, zero_eigs, eig_hi, 30.0, seed=seed)
    rng = np.random.default_rng(seed)
    np.linalg.qr(rng.standard_normal((n, n)))
    drawn = np.zeros(n)
    drawn[zero_eigs:] = eig_hi * (1.0 - rng.uniform(size=n - zero_eigs))
    assert np.allclose(np.sort(np.linalg.eigvalsh(p.f.M)), np.sort(drawn), atol=1e-8)


def test_gen_figure1_reproducible():
    a = af.gen_figure1_problem(10, 4, 2.0, 20.0, seed=42)
    b = af.gen_figure1_problem(10, 4, 2.0, 20.0, seed=42)
    assert np.array_equal(a.f.M, b.f.M)
    assert np.array_equal(a.A, b.A)
    c = af.gen_figure1_problem(10, 4, 2.0, 20.0, seed=43)
    assert not np.array_equal(a.A, c.A)


def test_gen_figure1_rejects_bad_params():
    with pytest.raises(ValueError):
        af.gen_figure1_problem(5, 5, 1.0, 10.0, seed=0)  # zero_eigs >= n
    with pytest.raises(ValueError):
        af.gen_figure1_problem(5, 1, 0.0, 10.0, seed=0)
    with pytest.raises(ValueError, match="eig_hi must be positive and finite, got nan"):
        af.gen_figure1_problem(5, 1, np.nan, 10.0, seed=0)
    with pytest.raises(ValueError):
        af.gen_figure1_problem(5, 1, 1.0, 0.5, seed=0)
    with pytest.raises(ValueError, match="cond_a must be >= 1 and finite, got inf"):
        af.gen_figure1_problem(5, 1, 1.0, np.inf, seed=0)
    with pytest.raises(ValueError):
        af.gen_figure1_problem(5, 1, 1.0, 10.0, seed=0, m=3)
    # one singular value: cond(A) is 1 whatever was asked, which
    # generator_params (and so problem.json) would have misrecorded
    with pytest.raises(ValueError, match="cond_a must be 1 when n = 1, got 100.0"):
        af.gen_figure1_problem(1, 0, 10.0, 100.0, seed=38)
    p = af.gen_figure1_problem(1, 0, 10.0, 1.0, seed=38)
    assert p.cond_A == 1.0 and p.generator_params["cond_a"] == 1.0


def test_gen_figure1_rectangular_extension():
    p = af.gen_figure1_problem(4, 1, 2.0, 10.0, seed=5, m=6)
    assert p.A.shape == (6, 4)
    assert p.cond_A == pytest.approx(10.0, rel=1e-6)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_convexity_of_V(seed):
    p = af.gen_figure1_problem(6, 2, 3.0, 10.0, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(25):
        x = rng.standard_normal(p.n)
        y = rng.standard_normal(p.n)
        lam = rng.uniform()
        lhs = af.eval_V(p, lam * x + (1 - lam) * y)
        rhs = lam * af.eval_V(p, x) + (1 - lam) * af.eval_V(p, y)
        assert lhs <= rhs + 1e-10


def test_quadratic_function_symmetrizes_and_checks_psd():
    q = af.QuadraticFunction([[1.0, 0.3], [0.1, 1.0]])
    assert np.max(np.abs(q.M - q.M.T)) == 0.0
    # the spectrum of the symmetrised M = [[1, 0.2], [0.2, 1]], ascending
    assert np.allclose(q.eigenvalues, [0.8, 1.2], rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        af.QuadraticFunction([[-1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        af.QuadraticFunction(np.ones((2, 3)))


def test_quadratic_function_immutable():
    q = af.QuadraticFunction(np.eye(2))
    with pytest.raises(ValueError):
        q.M[0, 0] = 5.0
    with pytest.raises(ValueError):
        q.eigenvalues[0] = 5.0


def test_diagonal_spectrum_is_the_sorted_diagonal(monkeypatch):
    # eigvalsh returns a diagonal M's sorted diagonal bit for bit (0
    # mismatches in 140 draws with n <= 480); a zero M's spectrum is zeros,
    # with no eigvalsh call, and the function is zero when q is zero too
    rng = np.random.default_rng(3)
    d = rng.uniform(size=50) * (rng.uniform(size=50) < 0.7)
    q = af.QuadraticFunction(np.diag(d))
    assert np.array_equal(q.eigenvalues, np.sort(d))
    assert not _is_zero(q)
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or real(a))
    zero, linear = af.QuadraticFunction.zero(4), af.QuadraticFunction(np.zeros((4, 4)), np.ones(4))
    assert not calls
    for h in (zero, linear):
        assert np.array_equal(h.eigenvalues, np.zeros(4))
        with pytest.raises(ValueError):
            h.eigenvalues[0] = 5.0
    assert _is_zero(zero) and not _is_zero(linear)
    assert not _is_zero(af.QuadraticFunction([[1.0, 1e-300], [1e-300, 1.0]]))
    assert calls == [1]


def test_huge_finite_M_is_stored_finite():
    # symmetrizing as (M + M^T) / 2 overflowed to M[0, 0] = inf; each half
    # is exact, so the largest finite entries survive
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = af.QuadraticFunction([[1e308, 0.0], [0.0, 1.0]])
    assert q.M[0, 0] == 1e308
    assert np.all(np.isfinite(q.eigenvalues))


def test_modes_gates_take_scaled_norms(monkeypatch):
    # ||q_f||^2 overflows for f = x^2/2 + 1e306 x, so plain norms made the
    # linear-term gate compare inf with inf; scaled norms pass it with no
    # warning, and the run then diverges where V overflows, at sample 1
    p = af.SplitProblem(af.QuadraticFunction([[1.0]], [1e306]), af.QuadraticFunction.zero(1),
                        [[1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert p.modes.backward_error == 0.0
        with pytest.raises(DivergenceError) as err:
            af.run_admm(p, [1.0], rho=1.0, max_iter=3, v_star=0.0)
    assert err.value.t_last == 0.0 and len(err.value.trajectory) == 1
    # a NaN residual fails its gate rather than passing it
    exact = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda S: (exact(S)[0] * np.nan, exact(S)[1]))
    with pytest.raises(NumericalError, match="fails its pencil check"):
        af.SplitProblem(p.f, p.g, p.A).modes


@pytest.mark.parametrize("M, q, A, fault", [
    ([[0.0]], [1e120], [[1e-100]], "linear-term check: residual inf is not finite"),
    ([[1.0]], None, [[1e-200]], "pencil check: scale nan is not finite"),
    (np.eye(2), None, np.diag([1e-200, 2e-200]), "pencil check: scale nan is not finite"),
])
def test_modes_refuse_an_extreme_scale_without_warning(M, q, A, fault):
    # phi = R^{-1} Q and the gates' products overflow on these draws; the
    # basis is built under np.errstate, and the refusal names what is not
    # finite rather than reporting "exceeds nan". optimal_value answers the
    # bounded two (x* = 0), which need no basis
    p = af.SplitProblem(af.QuadraticFunction(M, q), af.QuadraticFunction.zero(len(A)), A)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=re.escape(fault)):
            p.modes
        if q is None:
            assert not af.optimal_value(p)[0].any()
            with pytest.raises(NumericalError, match=re.escape(fault)):
                af.run_admm(p, np.ones(p.n), rho=1.0, max_iter=3)


@pytest.mark.parametrize("kind", ["zero", "linear", "diagonal", "dense"])
def test_values_by_g_structure(figure1_problem, kind):
    # V at rows: the left-to-right four-term sum when g != 0 (bit for bit,
    # with A x passed in or not; M_g = 0 with q_g != 0 included), the two f
    # terms alone when g = 0
    p = with_g(figure1_problem, kind)
    xs = np.random.default_rng(4).standard_normal((7, p.n))
    axs = xs @ p.A.T
    f_terms = 0.5 * np.einsum("ij,ij->i", xs @ p.f.M, xs) + xs @ p.f.q
    expected = f_terms if kind == "zero" else (
        f_terms + 0.5 * np.einsum("ij,ij->i", axs @ p.g.M, axs) + axs @ p.g.q)
    assert np.array_equal(_values(p, xs), expected)
    assert np.array_equal(_values(p, xs, axs), expected)
    if kind != "zero":
        assert not np.array_equal(expected, f_terms)


def test_callback_values_span_row_blocks(pd_2d_problem):
    # on callbacks V takes A x from one product per block of ROW_BLOCK rows,
    # or from the caller's A x: every row of a longer run gets its own value
    p = as_callbacks(pd_2d_problem)
    xs = np.random.default_rng(6).standard_normal((2 * ROW_BLOCK + 5, p.n))
    want = np.array([af.eval_V(p, x) for x in xs])
    for axs in (None, xs @ p.A.T):
        assert np.max(np.abs(_values(p, xs, axs) - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["zero", "linear", "diagonal", "dense"])
def test_hessian_and_linear_term_by_g_structure(monkeypatch, figure1_problem, kind):
    # the Hessian and linear term of V that optimal_value's one lstsq solves:
    # when g = 0 f's own (M, -q), with no product with A (A is not even
    # factored); otherwise (S, -s) of V in w = R x, bit for bit the
    # symmetrised R^{-T} M_f R^{-1} + U^T M_g U and R^{-T} q_f + U^T q_g. No
    # lstsq runs on the formed H = M_f + A^T M_g A
    p = with_g(figure1_problem, kind)
    f, g, A = p.f, p.g, p.A
    solved = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda a, b, **kw: solved.append((a, b))
                        or lstsq(a, b, **kw))
    try:
        af.optimal_value(p)
    except NumericalError:
        assert kind == "linear"  # unbounded below (test_optimal_value_unbounded_below)
    [(a, b)] = solved
    if kind == "zero":
        assert a is f.M and np.array_equal(b, -f.q) and "_factor" not in p.__dict__
        return
    U, _, inv = p._factor
    S = inv.T @ f.M @ inv + U.T @ g.M @ U
    assert np.array_equal(a, 0.5 * (S + S.T))
    assert np.array_equal(b, -(inv.T @ f.q + U.T @ g.q))
    assert not np.array_equal(a, f.M + A.T @ (g.M @ A))


@pytest.mark.parametrize("build, message", [
    (lambda: af.QuadraticFunction([[1.0, np.nan], [0.0, 1.0]]), r"M must be finite; M\[0, 1\] is nan"),
    (lambda: af.QuadraticFunction(np.eye(3), [0.0, 0.0, np.inf]), r"q must be finite; q\[2\] is inf"),
    (lambda: af.SplitProblem(af.QuadraticFunction(np.eye(2)), af.QuadraticFunction.zero(3),
                             [[1.0, 0.0], [0.0, 1.0], [-np.inf, 0.0]]),
     r"A must be finite; A\[2, 0\] is -inf"),
], ids=["M-nan", "q-inf", "A-inf"])
def test_non_finite_data_is_refused_by_name(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("cond_a", [1e2, 1e4, 1e6])
def test_admm_flow_rhs_backward_error(cond_a):
    # y = admm_flow_rhs(x) solves (A^T A) y = b, b = -grad V(x), by the two
    # products R^{-1} (R^{-T} b) with the problem's factor. Its normwise
    # backward error ||b - A^T (A y)|| / (||A^T A|| ||y|| + ||b||) is a small
    # multiple of eps at any cond(A): for a random b (f = <b, x>, at x = 0)
    # and for each column of M_f (at x = e_j); ||A^T A||_F = (sum
    # sigma_i^4)^(1/2)
    p = af.gen_figure1_problem(60, 40, 10.0, cond_a, seed=38)
    linear = af.SplitProblem(af.QuadraticFunction(np.zeros((60, 60)),
                                                  np.random.default_rng(1).standard_normal(60)),
                             p.g, p.A)
    ata_norm = np.linalg.norm(np.linalg.svd(p.A, compute_uv=False) ** 2)
    for q, x in [(linear, np.zeros(60))] + [(p, e) for e in np.eye(60)]:
        b = -af.grad_V(q, x)
        y = af.admm_flow_rhs(q, x)
        resid = np.linalg.norm(b - p.A.T @ (p.A @ y))
        assert resid <= 64 * EPS * (ata_norm * np.linalg.norm(y) + np.linalg.norm(b))


def test_modes_accept_every_full_rank_A():
    # A passes the rank test at cond(A) = 1e9 < 1e10, where the formed A^T A
    # (cond 1e18) has no Cholesky factor in double precision; the QR factor
    # of A serves the modal basis there, with the same backward error as at
    # cond(A) = 1e2. The rank test itself refuses cond(A) = 1e10
    p = af.gen_figure1_problem(60, 40, 10.0, 1e9, seed=38)
    assert 0.0 <= p.modes.backward_error < 64.0
    assert np.all(np.diag(p.modes.chol) > 0)  # diag R > 0 makes R^T the Cholesky factor
    with pytest.raises(ValueError, match="full column rank"):
        af.gen_figure1_problem(8, 2, 10.0, 1e10, seed=38)


def test_a_is_factored_once_per_problem(monkeypatch):
    # a flow (through modes), ADMM at two rho (through the operators and,
    # for V*, the reduced system) and the flow velocity all read the one
    # cached A = U R
    p = with_g(af.gen_figure1_problem(20, 5, 10.0, 100.0, seed=38), "dense")
    factored = []
    qr = np.linalg.qr

    def counted(a, *args, **kwargs):
        if np.shape(a) == p.A.shape and np.array_equal(a, p.A):
            factored.append(a)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    x0 = np.ones(p.n)
    af.rk4_integrate(p, x0, af.IntegratorConfig(h=0.1, t0=0.0, t_end=1.0))
    for rho in (10.0, 50.0):
        af.run_admm(p, x0, rho=rho, max_iter=5)
    af.admm_flow_rhs(p, x0)
    assert len(factored) == 1
    assert set(p._operators) == {10.0, 50.0} and "modes" in p.__dict__


def _callback(dim):
    return af.CallbackFunction(lambda v: 0.0, lambda v: v, dim)


@pytest.mark.parametrize("build, message", [
    (lambda: _callback(2.7), r"dim must be an integer of at least 1, got 2\.7"),
    (lambda: _callback("2"), r"dim must be an integer of at least 1, got '2'"),
    (lambda: _callback(True), r"dim must be an integer of at least 1, got True"),
    (lambda: _callback(0), r"dim must be an integer of at least 1, got 0"),
    (lambda: _callback(-1), r"dim must be an integer of at least 1, got -1"),
    (lambda: _callback(np.int64(0)), r"dim must be an integer of at least 1, got np\.int64\(0\)"),
    (lambda: af.QuadraticFunction(np.zeros((0, 0))),
     r"M must be a square matrix of size at least 1, got shape \(0, 0\)"),
    (lambda: af.SplitProblem(af.QuadraticFunction.zero(1), af.QuadraticFunction.zero(1),
                             np.zeros((1, 0))),
     r"A must have at least one row and one column, got shape \(1, 0\)"),
    (lambda: af.SplitProblem(af.QuadraticFunction.zero(1), af.QuadraticFunction.zero(1),
                             np.zeros((0, 0))),
     r"A must have at least one row and one column, got shape \(0, 0\)"),
], ids=["dim-float", "dim-str", "dim-bool", "dim-0", "dim-neg", "dim-np-0", "M-empty",
        "A-no-column", "A-empty"])
def test_degenerate_dimensions_are_refused_by_name(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_callback_dim_takes_a_numpy_integer():
    f = _callback(np.int64(3))
    assert f.dim == 3 and type(f.dim) is int


# f = |x|^2/2 behind a callback whose gradient misses the contract, g = 0,
# A = I_2, x0 = [1, 2]: every path that takes a gradient refuses the result
# by name, and none reports it as a divergence
MALFORMED_GRADIENTS = {
    "scalar": (lambda x: 1.0, r"returned shape \(\), expected \(2,\)"),
    "column": (lambda x: x[:, None], r"returned shape \(2, 1\), expected \(2,\)"),
    "long": (lambda x: np.append(x, 0.0), r"returned shape \(3,\), expected \(2,\)"),
    "none": (lambda x: None, r"returned None, expected shape \(2,\)"),
}
GRADIENT_PATHS = {
    "rk4": lambda p, x0: af.rk4_integrate(p, x0, af.IntegratorConfig(h=0.1, t0=0.0, t_end=1.0),
                                          v_star=0.0),
    "symplectic": lambda p, x0: af.aadmm_flow_integrate(
        p, x0, af.IntegratorConfig(h=0.1, t0=0.1, t_end=1.0, r=3.0), v_star=0.0),
    "rhs": af.admm_flow_rhs,
    "grad_V": af.grad_V,
    "admm-inner": lambda p, x0: af.run_admm(p, x0, rho=1.0, max_iter=5, v_star=0.0,
                                            inner_solver=cg_minimize),
}


def _half_square(grad):
    f = af.CallbackFunction(lambda x: 0.5 * float(np.dot(x, x)), grad, 2)
    return af.SplitProblem(f, af.QuadraticFunction.zero(2), np.eye(2))


@pytest.mark.parametrize("path", GRADIENT_PATHS)
@pytest.mark.parametrize("kind", MALFORMED_GRADIENTS)
def test_a_malformed_gradient_is_refused_by_name(kind, path):
    grad, message = MALFORMED_GRADIENTS[kind]
    with pytest.raises(ValueError, match="gradient callback " + message) as err:
        GRADIENT_PATHS[path](_half_square(grad), np.array([1.0, 2.0]))
    assert not isinstance(err.value, DivergenceError)


@pytest.mark.parametrize("path", ["rk4", "symplectic", "admm-inner"])
def test_list_and_integer_gradients_run_as_float_ones(path):
    # a gradient given as a list, or as an integer array, is read as the
    # float64 vector of the same numbers: the run is bit for bit the same
    runs = {}
    for kind, grad in (("float", lambda x: np.array(x, dtype=float)),
                       ("list", lambda x: [float(v) for v in x])):
        runs[kind] = GRADIENT_PATHS[path](_half_square(grad), np.array([1.0, 2.0]))
    c = np.array([3.0, -1.0])  # f = <c, x>: an integer gradient of the same numbers
    for kind, grad in (("float-linear", lambda x: c), ("int-linear", lambda x: c.astype(int))):
        f = af.CallbackFunction(lambda x: float(c @ x), grad, 2)
        runs[kind] = GRADIENT_PATHS[path](
            af.SplitProblem(f, af.QuadraticFunction.zero(2), [[1.0, 0.5], [0.0, 2.0]]),
            np.array([1.0, 2.0]))
    for got, want in (("list", "float"), ("int-linear", "float-linear")):
        for field in ("X", "V") + (("Xdot",) if path != "admm-inner" else ()):
            assert np.array_equal(getattr(runs[got], field), getattr(runs[want], field)), field


# the same f behind a value callback that misses the contract: every path that
# evaluates V refuses the result by name rather than with float()'s TypeError
MALFORMED_VALUES = {
    "none": (lambda x: None, r"returned None, expected a number"),
    "vector": (lambda x: np.asarray(x), r"returned shape \(2,\), expected a number"),
    "length-1": (lambda x: np.array([0.5 * float(np.dot(x, x))]),
                 r"returned shape \(1,\), expected a number"),
}


@pytest.mark.parametrize("path", ["eval_V", "rk4", "symplectic", "admm-inner"])
@pytest.mark.parametrize("kind", MALFORMED_VALUES)
def test_a_malformed_value_is_refused_by_name(kind, path):
    fn, message = MALFORMED_VALUES[kind]
    f = af.CallbackFunction(fn, lambda x: x, 2)
    p = af.SplitProblem(f, af.QuadraticFunction.zero(2), np.eye(2))
    run = af.eval_V if path == "eval_V" else GRADIENT_PATHS[path]
    with pytest.raises(ValueError, match="value callback " + message) as err:
        run(p, np.array([1.0, 2.0]))
    assert not isinstance(err.value, DivergenceError)


def test_split_problem_validation():
    f1 = af.QuadraticFunction(np.eye(2))
    g1 = af.QuadraticFunction.zero(2)
    with pytest.raises(ValueError):
        af.SplitProblem(f1, g1, np.ones((2, 2)))  # rank deficient
    with pytest.raises(ValueError):
        af.SplitProblem(f1, g1, np.eye(3)[:2, :])  # m < n is (2, 3)
    with pytest.raises(ValueError):
        af.SplitProblem(f1, af.QuadraticFunction.zero(3), np.eye(2))  # g dim


def test_serialization_round_trip(tmp_path, pd_2d_problem):
    path = tmp_path / "p.json"
    af.save_problem(pd_2d_problem, path)
    q = af.load_problem(path)
    assert np.array_equal(q.A, pd_2d_problem.A)
    assert np.array_equal(q.f.M, pd_2d_problem.f.M)
    assert np.array_equal(q.g.q, pd_2d_problem.g.q)


def test_serialization_byte_identical(tmp_path):
    p1 = af.gen_figure1_problem(8, 3, 5.0, 40.0, seed=9)
    p2 = af.gen_figure1_problem(8, 3, 5.0, 40.0, seed=9)
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    af.save_problem(p1, f1)
    af.save_problem(p2, f2)
    assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize("build", [
    lambda: af.gen_figure1_problem(2, 1, 5.0, 10.0, seed=3),
    lambda: af.gen_figure1_problem(60, 40, 10.0, 100.0, seed=38),
    lambda: with_g(af.gen_figure1_problem(5, 2, 5.0, 10.0, seed=3), "dense"),
], ids=["gen-n2", "gen-n60", "no-provenance"])
def test_save_problem_matches_json_dump(monkeypatch, tmp_path, build):
    # the streamed writer lays out the text of json.dump(..., indent=1) + "\n",
    # with its chunks of floats as they are and as short as 7 (a boundary
    # inside every array)
    p = build()
    data = {"n": p.n, "m": p.m, "M_f": p.f.M.ravel().tolist(), "q_f": p.f.q.tolist(),
            "M_g": p.g.M.ravel().tolist(), "q_g": p.g.q.tolist(), "A": p.A.ravel().tolist(),
            "seed": p.seed, "generator_params": p.generator_params}
    expected = json.dumps(data, indent=1) + "\n"
    path = tmp_path / "p.json"
    for chunk in (af.problem.JSON_CHUNK, 7):
        monkeypatch.setattr(af.problem, "JSON_CHUNK", chunk)
        af.save_problem(p, path)
        text = path.read_text(encoding="utf-8")
        if text != expected:  # not `assert ==`: pytest's diff of long strings takes minutes
            first = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b),
                         min(len(text), len(expected)))
            pytest.fail(f"chunk {chunk}: first difference at {first}: "
                        f"{text[first - 20:first + 20]!r}")


def test_serialization_keeps_generator_params(tmp_path):
    p = af.gen_figure1_problem(6, 2, 3.0, 10.0, seed=4)
    path = tmp_path / "p.json"
    af.save_problem(p, path)
    data = json.loads(path.read_text())
    assert data["seed"] == 4
    assert data["generator_params"]["zero_eigs"] == 2
    q = af.load_problem(path)
    assert q.generator_params == p.generator_params


def test_serialization_rejects_callbacks(tmp_path):
    f = af.CallbackFunction(lambda x: float(x @ x), lambda x: 2.0 * x, 1)
    p = af.SplitProblem(f, af.QuadraticFunction.zero(1), [[1.0]])
    with pytest.raises(UnsupportedFunctionError):
        af.save_problem(p, tmp_path / "p.json")


def test_load_rejects_malformed(tmp_path, pd_2d_problem):
    path = tmp_path / "bad.json"
    for text in ('{"n": 2}', "not json"):
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            af.load_problem(path)
    # one malformed field per row, refused by name: n not a JSON integer or
    # below 1, arrays holding a string, only true/false or a null, and arrays
    # ragged or of the wrong size (n = m = 2)
    af.save_problem(pd_2d_problem, path)
    good = json.loads(path.read_text())
    rows = [("n", 2.7, "n and m must be integers"), ("n", "2", "n and m must be integers"),
            ("M_f", ["2", 0.0, 0.0, 1.0], "M_f must be an array of numbers"),
            ("A", [True, False, False, True], "A must be an array of numbers"),
            ("q_f", [1.0, None], "q_f must be an array of numbers"),
            ("M_f", [[1, 2], [3]], "M_f must be an array of numbers; it is ragged$"),
            ("A", 3.0, r"A must hold 4 numbers for shape \(2, 2\), got 1$"),
            ("A", [1.0, 0.0, 0.0, 1.0, 0.0], r"A must hold 4 numbers for shape \(2, 2\), got 5$"),
            ("q_g", [0.2], r"q_g must hold 2 numbers for shape \(2,\), got 1$"),
            ("n", -1, "n and m must be at least 1, got n = -1, m = 2$"),
            ("n", 0, "n and m must be at least 1, got n = 0, m = 2$"),
            ("m", 0, "n and m must be at least 1, got n = 2, m = 0$")]
    for field, value, message in rows:
        path.write_text(json.dumps(dict(good, **{field: value})))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            af.load_problem(path)
    # a bool among numbers reads as 0 or 1
    path.write_text(json.dumps(dict(good, q_f=[True, 0.5])))
    assert np.array_equal(af.load_problem(path).f.q, [1.0, 0.5])


def test_composite_objective_wrapper(pd_2d_problem):
    # V(x) = f(x) + g(A x), its gradient, and the optimal value V(x*)
    p = pd_2d_problem
    x = np.array([0.7, -0.3])
    assert af.eval_V(p, x) == p.f.value(x) + p.g.value(p.A @ x)
    assert np.array_equal(af.grad_V(p, x), p.f.grad(x) + p.A.T @ p.g.grad(p.A @ x))
    x_star, v_star = af.optimal_value(p)
    assert v_star == af.eval_V(p, x_star)


# The flow map -(A^T A)^{-1} grad V of a quadratic problem is held as its
# modal basis, problem.modes; the tests below check that basis.


def test_flow_map_is_the_flow_velocity(pd_2d_problem):
    p = pd_2d_problem
    modes = p.modes
    lam, phi, beta = modes.lam, modes.phi, modes.beta
    H = p.f.M + p.A.T @ p.g.M @ p.A
    c = p.f.q + p.A.T @ p.g.q
    assert np.all(np.diff(lam) >= 0)  # ascending
    ata = p.A.T @ p.A
    assert np.allclose(phi.T @ ata @ phi, np.eye(2), rtol=0, atol=1e-12)
    # chol is the Cholesky factor L = R^T of A^T A = L L^T, from A = U R
    assert np.all(np.diag(modes.chol) > 0) and np.allclose(np.triu(modes.chol, 1), 0.0)
    assert np.allclose(modes.chol @ modes.chol.T, ata, rtol=0, atol=1e-12)
    assert np.allclose(phi.T @ H @ phi, np.diag(lam), rtol=0, atol=1e-12)
    assert np.allclose(beta, phi.T @ c, rtol=0, atol=1e-12)
    # in mode coordinates the velocity is -(lam y + beta), and x = phi y
    x = np.array([0.7, -1.3])
    y = modes.coordinates(x)
    assert np.allclose(phi @ y, x, rtol=1e-12, atol=1e-12)
    want = np.linalg.solve(ata, af.grad_V(p, x))
    assert np.allclose(phi @ (lam * y + beta), want, rtol=1e-12, atol=1e-12)
    for array in (lam, phi, beta, modes.q, modes.chol):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        phi[0, 0] = 1.0
    assert p.modes is p.modes  # built once


def test_flow_map_rejects_callbacks(pd_2d_problem):
    f = af.CallbackFunction(pd_2d_problem.f.value, pd_2d_problem.f.grad, 2)
    p = af.SplitProblem(f, pd_2d_problem.g, pd_2d_problem.A)
    with pytest.raises(UnsupportedFunctionError):
        p.modes


def test_flow_map_refuses_inaccurate_map(pd_2d_problem, monkeypatch):
    # an eigendecomposition off by 1e-9 relative: far above the 64 eps
    # backward-error gates, whatever the conditioning of A. Scaled
    # eigenvalues fail the pencil test; scaled eigenvectors leave the
    # (scale-free) pencil ratio alone and fail the linear-term test, also
    # where the terms of the linear term cancel (its gate's scale is theirs)
    exact = np.linalg.eigh
    perturbations = {"pencil": lambda lam, Q: (lam * (1.0 + 1e-9), Q),
                     "linear-term": lambda lam, Q: (lam, Q * (1.0 + 1e-9))}
    for base, (name, perturb) in itertools.product(
            (pd_2d_problem, random_problem(*CANCELLING_DRAW)[0]), perturbations.items()):
        monkeypatch.setattr(np.linalg, "eigh", lambda S, perturb=perturb: perturb(*exact(S)))
        p = af.SplitProblem(base.f, base.g, base.A)
        with pytest.raises(NumericalError, match=f"fails its {name} check"):
            p.modes
        config = af.flows.IntegratorConfig(h=0.1, t0=0.1, t_end=1.0, r=3.0)
        for integrate in (af.rk4_integrate, af.aadmm_flow_integrate):
            with pytest.raises(NumericalError):
                integrate(af.SplitProblem(base.f, base.g, base.A), np.ones(base.n), config)


def test_flow_map_accepts_a_linear_term_that_cancels():
    # c = q_f + A^T q_g = 0.0026 from terms of size 1.13: the rounding of
    # forming c is about eps 1.13, 162 eps of a gate scaled by ||c||. Scaled
    # by ||q_f|| + ||A^T q_g||, the correct decomposition reads 0.37 eps of
    # its 64 eps gate
    p = random_problem(*CANCELLING_DRAW)[0]
    terms = abs(p.f.q[0]) + abs((p.A.T @ p.g.q)[0])
    assert abs((p.f.q + p.A.T @ p.g.q)[0]) < 0.01 * terms  # the premise: c cancels
    assert 0.0 <= p.modes.backward_error < 64.0
    x_star, _ = af.optimal_value(p)
    traj = af.rk4_integrate(p, x_star + 1.0, af.flows.IntegratorConfig(h=0.1, t0=0.0, t_end=1.0))
    assert np.all(np.isfinite(traj.X)) and traj.v_gap[-1] < traj.v_gap[0]


@pytest.mark.parametrize("cond_a", [1e2, 1e4, 1e5, 1e6])
def test_flow_map_accepts_ill_conditioned_A(cond_a):
    # a correctly computed basis has a pencil backward error of a fraction of
    # eps on these draws (0.26 eps at 1e5), far inside the 64 eps gate; the
    # flow map's old residual check 1e-10 (1 + ||H||) refused them from 5e3 on
    p = af.gen_figure1_problem(20, 5, 10.0, cond_a, seed=1)
    assert 0.0 <= p.modes.backward_error < 64.0
    config = af.flows.IntegratorConfig(h=0.1, t0=0.0, t_end=1.0)
    traj = af.rk4_integrate(p, np.ones(20), config)
    assert np.all(np.isfinite(traj.X)) and traj.v_gap[-1] < traj.v_gap[0]
