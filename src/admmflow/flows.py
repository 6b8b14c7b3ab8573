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
  ``exp(r log(t_k / t_{k+1}))``, so no ``t^r`` enters the step. The step
  writes into vectors it holds, so it makes no array. H is evaluated in its
  second form after the loop; ``t^r`` overflows there for large r and t
  (near t = 35 at r = 200), where H is ``inf``. Divergence is judged on X,
  X' and V alone.

For quadratic f and g both flows run on the modal basis
:attr:`SplitProblem.modes`: with ``X = phi y`` the first-order flow splits
into scalar modes ``y_i' = -(lam_i y_i + beta_i)``. RK4 multiplies each
mode's ``y - y*`` by its stability factor ``R(-h lam)`` per step, so every
sample has a closed form, formed a chunk of rows at a time; symplectic
Euler takes its step on the mode coordinates, elementwise. Each writes
``(y, y')`` into the driver's two work arrays, which the driver alone maps
to ``(X, X') = phi (y, y')``, straight into the rows of X and X', and
``meta["modal_backward_error"]`` records the basis's pencil backward error
in units of eps. Callback problems take the four-stage RK4 step or the
same symplectic step on the velocity
``-(P grad f(X) + Q grad g(A X))``, with ``P = (A^T A)^{-1} = R^{-1} R^{-T}``
and ``Q = P A^T = R^{-1} U^T`` stacked once per run into one operator
``-[P | Q]`` from the problem's one factor ``A = U R``
(``SplitProblem._factor``) and not kept after it, so a velocity is one
product with the stacked gradients, each written into one buffer by its
function's ``_grad_into``, the one conversion of a gradient, which refuses
a callback result that is not a vector of the function's dimension. RK4
keeps X and its four stages as the rows of one 5 x n matrix, and forms
each stage input and the next X as one product of a coefficient row with
its leading rows, written into one buffer. Every flow run is one
:meth:`_Samples.run`, given a ``fill(start, stop, xs, xds)`` that writes
samples ``start .. stop - 1`` into the rows it is handed; a stepped fill
takes the step to sample i when it writes sample i, so no gradient is
called past the last sample kept. The driver checks X and X' once per
chunk of ``ROW_BLOCK`` rows, after its map from mode coordinates, so every
run is checked on X and X'; that per-row finiteness test is the run's
one. A non-finite X or X' stays non-finite from step to step, so a
diverged run stops after the chunk holding its first non-finite sample,
which :meth:`_Samples.finish` reports; a non-finite x0 is refused by name
before a run starts.

Samples are formed one block of :func:`_row_blocks` at a time
(:class:`_Samples`), and each block is folded once formed, the one place a
run's per-sample terms are formed: V, the CSV's ``x_norm`` and
``xdot_norm`` and the monitors' terms of
:func:`~admmflow.analysis._monitor_terms`, ``kinetic`` ``||A X'||^2``
(which H reads too) and, given ``x_star``, the flow's term at it. The
trajectory carries them in ``terms``. The fold writes each product over a
block into the run's two work arrays, made once per run, and each term
into its column, so no chunk or block makes a temporary of its size. A run
given ``x_star`` records it in ``meta["x_star"]``, forms its blocks in two
block buffers it reuses and stores no X or X'; otherwise the blocks are
rows of the stored X and X'. Both give the same bytes of every per-sample
value, the blocks and their products being the same. The one check before
a gradient call is the velocity's: when ``A X`` is not finite (as for
every non-finite X, A having full column rank) it returns NaN and calls
neither gradient, so no callback sees a non-finite X or ``A X`` (V reads
NaN there without a call).

With ``A = I`` these reduce to plain gradient flow and to the damped
oscillator flow of accelerated gradient descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import _monitor_terms
from .problem import (MAX_STEPS, ROW_BLOCK, _as_vector, _check_damping, _check_finite,
                      _out_view, _row_blocks, _row_norms, _values, resolve_v_star)
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


@dataclass
class IntegratorConfig:
    """Fixed-step integration window [t0, t_end] with step h.

    The grid ``t0 + i h`` takes the fewest steps that reach t_end, so its
    last sample lies in ``[t_end, t_end + h)`` (up to rounding of the
    quotient ``(t_end - t0) / h``); the window is never cut short. A NaN or
    infinite h, t0 or t_end is refused by name, and a grid of more than
    ``MAX_STEPS`` steps is refused.

    ``r`` is the damping parameter of the second-order flow (ignored by the
    first-order integrator). The second-order flow has a 1/t singularity at
    t = 0, so with ``r`` set the config also requires t0 > 0 (t0 = h is usual).
    """

    h: float
    t0: float
    t_end: float
    r: float | None = None

    def __post_init__(self):
        for name, value in (("step size h", self.h), ("start time t0", self.t0),
                            ("end time t_end", self.t_end)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.h <= 0:
            raise ValueError("step size h must be positive")
        if self.t0 < 0:
            raise ValueError("start time t0 must be nonnegative")
        if self.t_end <= self.t0:
            raise ValueError("t_end must exceed t0")
        if self.h > self.t_end - self.t0:
            raise ValueError("h must not exceed t_end - t0")
        steps = (self.t_end - self.t0) / self.h - GRID_RTOL  # n_steps = ceil(steps)
        if not steps <= MAX_STEPS:  # refuses a quotient that overflows to inf too
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

    def times(self):
        """The grid's sample times ``t0 + h k``, k = 0 .. n_steps."""
        return self.t0 + self.h * np.arange(self.n_steps + 1)


def _flow_velocity(problem):
    """The velocity ``X -> -(P grad f(X) + Q grad g(A X))`` of the first-order
    flow, with ``P = (A^T A)^{-1} = R^{-1} R^{-T}`` and ``Q = P A^T = R^{-1}
    U^T`` from the problem's factor ``A = U R``. The stacked operator ``-[P |
    Q]`` (n x (n + m)) and one gradient buffer of length n + m are formed
    here and held only by the returned closure: a call is ``A X``, the two
    gradients written into the buffer by ``f._grad_into`` and
    ``g._grad_into`` (the one conversion of each, which refuses a callback
    result that is not a vector of the function's dimension) and one
    product, written into ``out`` when given. When ``A X`` is not finite the
    buffer is NaN and neither gradient is called, the one check before a
    gradient call of a flow run. The input is not validated; callers pass a
    vector of shape (n,), which may be a buffer the caller reuses."""
    U, _, inv = problem._factor
    n = problem.n
    op = np.concatenate((inv @ inv.T, inv @ U.T), axis=1)
    np.negative(op, out=op)
    grads = np.empty(n + problem.m)
    grad_f, grad_g = grads[:n], grads[n:]
    f_grad, g_grad, A = problem.f._grad_into, problem.g._grad_into, problem.A
    zero = np.zeros(problem.m)

    def velocity(x, out=None):
        ax = A.dot(x)
        # A x . 0 is NaN exactly when an entry of A x is not finite (inf 0 and
        # NaN 0 are NaN), a third of the cost of np.isfinite(ax).all() here
        if math.isfinite(ax.dot(zero)):
            f_grad(x, grad_f)
            g_grad(ax, grad_g)
        else:
            grads.fill(np.nan)
        return op.dot(grads, out)

    return velocity


def admm_flow_rhs(problem, X):
    """Right-hand side ``-(A^T A)^{-1} grad V(X)`` of the first-order flow,
    as ``-R^{-1} (R^{-T} grad f(X) + U^T grad g(A X))`` on the problem's
    factor ``A = U R``, forming no n x n matrix; NaN, with neither gradient
    called, when ``A X`` is not finite. With A = I it is the negative gradient.
    """
    x = _as_vector(X, problem.n, "X")
    U, _, inv = problem._factor
    ax = problem.A @ x
    if not np.isfinite(ax).all():
        return np.full(problem.n, np.nan)
    return -(inv @ (inv.T @ problem.f.grad(x) + U.T @ problem.g.grad(ax)))


def _start(problem, x0, x_star, config, v_star, method, integrator, label, r=None):
    """``x0`` in the coordinates the run steps in (its mode coordinates for a
    quadratic problem) and the run's :class:`_Samples`, with the resolved
    ``v_star`` and the run meta (with ``r`` and ``x_star`` when given, and the
    modal backward error of a quadratic problem). An x0 or x_star of another
    shape than (n,), or with a NaN or inf entry, is refused by name first."""
    x = np.array(_as_vector(x0, problem.n, "x0"))
    _check_finite(x, "x0")
    meta = {"method": method, "integrator": integrator, "h": config.h, "t0": config.t0,
            "t_end": config.t_end}
    if x_star is not None:
        meta["x_star"] = np.array(_as_vector(x_star, problem.n, "x_star"))
        _check_finite(meta["x_star"], "x_star")
    v_star = resolve_v_star(problem, v_star)
    if r is not None:
        meta["r"] = r
    if problem.is_quadratic:
        meta["modal_backward_error"] = problem.modes.backward_error
        x = problem.modes.coordinates(x)
    return x, _Samples(problem, config.times(), v_star, meta, label)


class _Samples:
    """The samples of one flow run on the grid ``t``, formed one block of
    :func:`_row_blocks` at a time, with the run's ``v_star``, ``meta``
    (which gives ``x_star`` and the damping ``r``) and ``label``.

    :meth:`block` gives the rows X and X' of a block to fill: views of the
    stored X and X', or, for a run given ``x_star``, two block buffers
    reused from block to block, so that no samples x n array is made.
    :meth:`run` makes ``work``, two flat work arrays of (largest block rows)
    x max(n, m) floats, once per run: for a quadratic problem a fill writes
    the mode coordinates ``(y, y')`` of a chunk there, which :meth:`run`
    maps to ``(X, X') = phi (y, y')`` by ``to_x`` straight into the block's
    rows, and :meth:`fold` writes each product over a block there.
    :meth:`run` records the finiteness test of each chunk's rows in
    ``finite``, and :meth:`fold` records V and the per-sample ``terms``:
    ``x_norm``, ``xdot_norm`` and those of
    :func:`~admmflow.analysis._monitor_terms` (``kinetic``, and the flow's
    term at ``x_star`` when given; ``r`` picks the flow), each written into
    its column. A run that stops early stops within a block; as the checks
    fall on multiples of ``ROW_BLOCK``, the blocks folded are then those of
    :func:`_row_blocks` of the samples formed.
    """

    def __init__(self, problem, t, v_star, meta, label):
        n = len(t)
        x_star, self.r = meta.get("x_star"), meta.get("r")
        self.problem, self.t = problem, t
        self.to_x = problem.modes.phi.T if problem.is_quadratic else None
        self.v_star, self.meta, self.label = v_star, meta, label
        self.stored = x_star is None
        self.blocks = _row_blocks(n)
        self.functions = _monitor_terms(problem, t, x_star, self.r)
        self.V = np.empty(n)
        self.finite = np.empty(n, dtype=bool)
        self.terms = {name: np.empty(n) for name in ("x_norm", "xdot_norm", *self.functions)}
        rows = n if self.stored else max(b.stop - b.start for b in self.blocks)
        self._X, self._Xdot = np.empty((rows, problem.n)), np.empty((rows, problem.n))

    def block(self, rows):
        if self.stored:
            return self._X[rows], self._Xdot[rows]
        return self._X, self._Xdot

    def run(self, fill):
        """The trajectory of the samples ``fill(start, stop, xs, xds)`` writes
        into the chunks of ``ROW_BLOCK`` rows of each block (a block's last
        chunk may be short): the rows of X and X', or, for a quadratic
        problem, the mode coordinates in ``work``, mapped to X and X' (the
        one map from mode coordinates). Each chunk is then checked, its rows'
        finiteness test written into ``finite``: a run stops after the first
        chunk holding a non-finite row of X or X'. The work arrays are let go
        before :meth:`finish`. Divergence is reported from the samples, so
        their overflow is silenced, as is that of ``t^r`` in :meth:`finish`."""
        size = max(b.stop - b.start for b in self.blocks) * max(self.problem.n, self.problem.m)
        self.work = np.empty(size), np.empty(size)
        with np.errstate(over="ignore", invalid="ignore"):
            end = self._form(fill)
            del self.work
            return self.finish(end)

    def _form(self, fill):
        """The number of samples :meth:`run` forms and folds: all, or those up
        to the end of the first chunk holding a non-finite row."""
        n = self.problem.n
        # a chunk's entries' finiteness, in the bytes of a work array the
        # chunk no longer needs once mapped
        flags = self.work[0].view(bool)
        for rows in self.blocks:
            xs, xds = self.block(rows)
            for start in range(rows.start, rows.stop, ROW_BLOCK):
                stop = min(start + ROW_BLOCK, rows.stop)
                chunk = slice(start - rows.start, stop - rows.start)
                x_chunk, xd_chunk = xs[chunk], xds[chunk]
                if self.to_x is None:
                    fill(start, stop, x_chunk, xd_chunk)
                else:
                    ys, yds = (_out_view(w, stop - start, n) for w in self.work)
                    fill(start, stop, ys, yds)
                    np.matmul(ys, self.to_x, out=x_chunk)
                    np.matmul(yds, self.to_x, out=xd_chunk)
                finite = self.finite[start:stop]
                entries = _out_view(flags, stop - start, n)
                np.logical_and.reduce(np.isfinite(x_chunk, out=entries), axis=1, out=finite)
                finite &= np.logical_and.reduce(np.isfinite(xd_chunk, out=entries), axis=1)
                if not finite.all():
                    self.fold(rows, stop)
                    return stop
            self.fold(rows, rows.stop)
        return len(self.t)

    def fold(self, rows, stop):
        """Take the rows of the block ``rows`` up to sample ``stop``."""
        formed = slice(rows.start, stop)
        xs, xds = (a[:stop - rows.start] for a in self.block(rows))
        work, terms = self.work, self.terms
        _values(self.problem, xs, work=work, out=self.V[formed])
        _row_norms(xs, work=work[0], out=terms["x_norm"][formed])
        _row_norms(xds, work=work[0], out=terms["xdot_norm"][formed])
        for name, fn in self.functions.items():
            fn(formed, xs, xds, work=work, out=terms[name][formed])

    def finish(self, end):
        """Trajectory of a run whose first ``end`` samples are folded, with the
        Hamiltonian of the second-order flow, ``H = t^r (0.5 ||A X'||^2 +
        V)``, when the damping ``r`` is given; H is ``inf`` where ``t^r``
        overflows, which is not divergence.

        Raises
        ------
        DivergenceError
            At the first sample where X, X' or V is not finite, or at ``end``
            when that falls short of the grid; it carries the last finite time
            and the trajectory up to it.
        """
        n = len(self.t)
        columns = {"t": self.t, "V": self.V, "terms": self.terms}
        if self.stored:
            columns["X"], columns["Xdot"] = self._X, self._Xdot
        vals = self.V[:end]
        if self.r is not None:  # t^r overflows for large r and t, leaving H = inf
            columns["hamiltonian"] = (self.t[:end] ** self.r
                                      * (0.5 * self.terms["kinetic"][:end] + vals))
        finite = self.finite[:end] & np.isfinite(vals)
        stop = end if finite.all() else int(np.argmin(finite))
        if stop < n:
            raise divergence_error(self.label, columns, stop, self.v_star, self.meta)
        return build_trajectory(columns, n, self.v_star, self.meta)


def _modal_rk4(modes, y0, h):
    """The fill of RK4 samples of a quadratic problem's first-order flow from
    the mode coordinates ``y0``, mode by mode: y and ``y' = -(lam y + beta)``.

    With ``z = -h lam``, one step multiplies ``y - y*`` (``y* = -beta / lam``)
    by ``R(z) = 1 + z phi(z)``, ``phi(z) = 1 + z/2 + z^2/6 + z^3/24``, so
    sample k is ``y0 + (R^k - 1)(y0 - y*)`` with ``R^k - 1 = expm1(k log1p(z
    phi(z)))``, accurate for lam near 0; a mode with ``z phi(z) = 0`` drifts
    as ``y0 - k h beta``, which RK4 integrates exactly. The per-mode factors
    and ``R^j - 1`` for the rows j of a chunk are formed with the first
    chunk, where the driver silences their overflow on a diverging grid.
    A chunk is written into the driver's work arrays it is handed, y by
    in-place products with those factors and y' from y, the drift modes'
    y formed first in the rows y' then takes, so a chunk makes no array of
    its size.
    """
    lam, beta = modes.lam, modes.beta
    steps = np.arange(ROW_BLOCK, dtype=float)[:, None]
    log_r = drift = gap = within = None

    def fill(start, stop, ys, yds):
        nonlocal log_r, drift, gap, within
        if start == 0:
            z = -h * lam
            growth = z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))  # R(z) - 1
            log_r = np.log1p(growth)
            drift = growth == 0.0
            gap = y0 - np.divide(-beta, lam, out=np.zeros_like(lam), where=~drift)  # y0 - y*
            within = np.empty((stop, len(lam)))  # R^j - 1 for the rows j of a chunk,
            np.copyto(within, log_r)  # from j log_r formed in place
            within *= steps[:stop]
            np.expm1(within, within)
        ahead = np.expm1(start * log_r)  # R^start - 1
        part = within[:stop - start]
        np.multiply(part, ahead, ys)
        ys += part
        ys += ahead  # R^k - 1 = (R^j - 1)(R^start - 1) + (R^j - 1) + (R^start - 1)
        ys *= gap
        ys += y0
        if drift.any():  # y0 - t beta on the drift modes, formed in yds, written next
            np.copyto(yds, beta)
            yds *= (start + steps[:len(ys)]) * h
            np.subtract(y0, yds, yds)
            np.copyto(ys, yds, where=drift)
        np.multiply(ys, lam, yds)
        yds += beta
        np.negative(yds, yds)

    return fill


def rk4_integrate(problem, x0, config, v_star=None, *, x_star=None):
    """Integrate the first-order flow with classical RK4 from X(t0) = x0.

    The trajectory is sampled at every step and records t, X, the flow
    velocity X' (the right-hand side at the sample), the objective gap and
    the per-sample ``terms`` of its blocks. With ``x_star``, the point the
    monitors are taken at, the terms also hold ``displacement``
    ``||A (X - x*)||^2`` and the trajectory stores no X or X'.

    Raises
    ------
    DivergenceError
        If the state leaves the finite range; the exception carries the
        last finite time and the partial trajectory.
    """
    h = config.h
    x, samples = _start(problem, x0, x_star, config, v_star, "admm_flow", "rk4",
                        "first-order flow")
    if problem.is_quadratic:
        return samples.run(_modal_rk4(problem.modes, x, h))
    rhs = _flow_velocity(problem)
    # rows X, k1 .. k4: each stage input and the next X is one product of a
    # coefficient row with the leading rows, written into one buffer
    state = np.empty((5, problem.n))
    state[0] = x
    x, k1, k2, k3, k4 = state  # k1 is each sample's X'
    lead2, lead3, lead4 = state[:2], state[:3], state[:4]
    c2, c3, c4 = (np.array(c) for c in ([1.0, h / 2], [1.0, 0.0, h / 2], [1.0, 0.0, 0.0, h]))
    weights = np.array([1.0, h / 6, h / 3, h / 3, h / 6])
    buf = np.empty(problem.n)

    def fill(start, stop, xs, xds):
        for i in range(start, stop):
            if i:  # the step from sample i - 1
                rhs(c2.dot(lead2, buf), k2)  # at x + (h/2) k1
                rhs(c3.dot(lead3, buf), k3)  # at x + (h/2) k2
                rhs(c4.dot(lead4, buf), k4)  # at x + h k3
                x[...] = weights.dot(state, buf)  # x + (h/6) (k1 + 2 k2 + 2 k3 + k4)
            rhs(x, k1)
            xs[i - start], xds[i - start] = x, k1

    return samples.run(fill)


def aadmm_flow_integrate(problem, x0, config, v_star=None, *, x_star=None):
    """Integrate the second-order damped flow from rest.

    Starts at t0 > 0 with X(t0) = x0 and X'(t0) = 0 (carrying the
    zero-initial-velocity condition to t0), then applies symplectic Euler
    steps up to t_end. Samples record t, X, the velocity X', the objective
    gap and the Hamiltonian ``H = t^r (0.5 ||A X'||^2 + V(X))`` (``inf``
    where ``t^r`` overflows). ``x_star`` is as for :func:`rk4_integrate`,
    its term ``rate_displacement`` ``||A (X - x* + e^{eta/2} X')||^2``.

    Requires ``config.r``; the config then checks ``r >= 3`` and ``t0 > 0``.
    """
    if config.r is None:
        raise ValueError("config.r is required for the second-order flow")
    r, h = float(config.r), config.h
    x, samples = _start(problem, x0, x_star, config, v_star, "aadmm_flow", "symplectic_euler",
                        "second-order flow", r)
    ts = samples.t
    damping = np.exp(r * np.log(ts[:-1] / ts[1:])).tolist()  # (t_k / t_{k+1})^r
    if problem.is_quadratic:  # x and xdot are the mode coordinates (y, y')
        h_lam, h_beta = h * problem.modes.lam, h * problem.modes.beta

        def kick(y, out):  # -(h lam y + h beta)
            np.multiply(h_lam, y, out)
            out += h_beta
            return np.negative(out, out)
    else:
        velocity = _flow_velocity(problem)

        def kick(x, out):  # h times the velocity
            velocity(x, out)
            out *= h
            return out

    # x and xdot are this run's own vectors, advanced in place: the fill
    # stores each sample before the next step
    xdot, v, hv = np.zeros(problem.n), np.empty(problem.n), np.empty(problem.n)

    def fill(start, stop, xs, xds):
        for i in range(start, stop):
            if i:  # the step from sample i - 1
                np.add(kick(x, v), xdot, v)  # X' + kick
                np.add(x, np.multiply(h, v, hv), x)
                np.multiply(damping[i - 1], v, xdot)
            xs[i - start], xds[i - start] = x, xdot

    return samples.run(fill)
