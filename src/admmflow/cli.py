"""Command-line harness: generate problems, run solvers and flows, fit rates,
and reproduce the benchmark experiment end to end.

A flow run of ``run`` or ``figure1`` is given the problem's x* and so
stores no X and X': its trajectory (t, V, the gap, H) carries the
per-sample terms its CSV (``x_norm``, ``xdot_norm``) and its monitors
read, folded by the run itself, and the CSV and the monitors are the
library's own, as on a stored run.

Exit codes: 0 success, 2 usage or input error, 3 numerical divergence,
4 rate-check failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .analysis import (
    MIN_FIT_SAMPLES,
    RateFit,
    fit_rate,
    monitor_aadmm_rate,
    monitor_aadmm_stability,
    monitor_admm_rate,
    monitor_admm_stability,
    sup_discrepancy,
    write_monitor_csv,
)
from .discrete import _check_budget, run_aadmm, run_admm, time_scale
from .exceptions import AdmmFlowError, DivergenceError
from .flows import (
    DEFAULT_RK4_H,
    DEFAULT_SYMPLECTIC_H,
    MAX_STEPS,
    IntegratorConfig,
    aadmm_flow_integrate,
    rk4_integrate,
)
from .problem import _check_damping, gen_figure1_problem, load_problem, optimal_value, save_problem
from .trajectory import ColumnText, Trajectory, load_trajectory_csv, write_columns_csv

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGENCE = 3
EXIT_CHECK_FAILED = 4

OUTDIR_ENV = "ADMMFLOW_OUTDIR"

SOLVERS = ("admm", "aadmm", "admm_flow", "aadmm_flow")

# the paper's experiment, and the defaults of gen, run, figure1 and rates:
# problem draw, start point x0 * ones, rho, r, iterations and rate-fit window
FIGURE1 = {"n": 60, "zero_eigs": 40, "eig_hi": 10.0, "cond_a": 100.0, "seed": 38,
           "x0": 5.0, "rho": 50.0, "r": 10.0, "max_iter": 300,
           "window_lo": 2.0, "window_hi": 20.0}


def _default_outdir():
    return os.environ.get(OUTDIR_ENV, ".")


def _finite(convert, positive=False):
    """argparse type: a finite ``convert(text)`` (e.g. x0), > 0 if ``positive`` (e.g. rho)."""
    def parse(text):
        value = convert(text)
        if not (math.isfinite(value) and (value > 0 or not positive)):
            raise argparse.ArgumentTypeError(
                f"must be a {'positive ' * positive}finite number, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid <type> value"
    return parse


def _seed(text):
    """argparse type of ``--seed``: a non-negative integer, as numpy's generator takes."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def cmd_gen(args):
    problem = gen_figure1_problem(
        args.n, args.zero_eigs, args.eig_hi, args.cond_a, seed=args.seed, m=args.m
    )
    out = args.out or os.path.join(_default_outdir(), "problem.json")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    save_problem(problem, out)
    evals = problem.f.eigenvalues
    print(f"wrote {out}")
    print(f"n={problem.n} m={problem.m} rank(M_f)={np.sum(evals > 1e-8 * evals[-1])} "
          f"cond(A)={problem.cond_A:.6f}")
    return EXIT_OK


def _run_to_csv(path, run, *args, text=None, **kwargs):
    """Return ``run(*args, **kwargs)`` after writing its trajectory to ``path``
    (with ``text``, the :class:`ColumnText` of :meth:`Trajectory.to_csv`);
    on divergence write the partial one with a truncation marker and re-raise."""
    try:
        traj = run(*args, **kwargs)
    except DivergenceError as err:
        if err.trajectory is not None:
            err.trajectory.to_csv(path, truncation_note=f"divergence near t={err.t_last:.6g}")
        raise
    traj.to_csv(path, text=text)
    return traj


def _driver(solver, *, rho, r, max_iter, stop_tol=0.0, h=None, t0=None, t_end=None):
    """Driver and keyword arguments of one run of ``solver``. A flow's grid is
    built, and so checked, here: ``h``/``t0`` None take RK4 h = 1e-3, t0 = 0
    and symplectic h = 1e-2, t0 = h; ``t_end`` None is where the matching
    discrete method's iterate ``max_iter`` sits."""
    budget = {"rho": rho, "max_iter": max_iter, "stop_tol": stop_tol}
    if solver in ("admm", "aadmm"):  # checked as the run would, before any file is written
        _check_budget(max_iter, stop_tol)
        if solver == "admm":
            return run_admm, budget
        _check_damping(r)
        return run_aadmm, dict(budget, r=r)
    accelerated = solver == "aadmm_flow"
    t_end = max_iter / time_scale(rho, accelerated) if t_end is None else t_end
    if not accelerated:
        h = DEFAULT_RK4_H if h is None else h
        config = IntegratorConfig(h=h, t0=0.0 if t0 is None else t0, t_end=t_end)
        return rk4_integrate, {"config": config}
    h = DEFAULT_SYMPLECTIC_H if h is None else h
    config = IntegratorConfig(h=h, t0=h if t0 is None else t0, t_end=t_end, r=r)
    return aadmm_flow_integrate, {"config": config}


def cmd_run(args):
    flows = [solver for solver in args.solver if solver.endswith("_flow")]
    for flag, value in (("--h", args.h), ("--t0", args.t0), ("--t-end", args.t_end)):
        if value is not None and not flows:
            raise ValueError(f"{flag} applies only to the flow solvers admm_flow and aadmm_flow")
    if args.stop_tol_given and len(flows) == len(args.solver):
        raise ValueError("--stop-tol applies only to the discrete solvers admm and aadmm")
    if args.max_iter_given and args.t_end is not None and len(flows) == len(args.solver):
        raise ValueError("--max-iter sets the discrete solvers' budget and a flow's default "
                         "--t-end; with --t-end given and no discrete solver it has no use")
    problem = load_problem(args.problem)
    drivers = {solver: _driver(solver, rho=args.rho, r=args.r, max_iter=args.max_iter,
                               stop_tol=args.stop_tol, h=args.h, t0=args.t0, t_end=args.t_end)
               for solver in args.solver}
    _check_damping(args.r)  # a bad --r is refused even when no solver reads it
    x0 = np.full(problem.n, args.x0)
    outdir = args.out_dir or _default_outdir()
    os.makedirs(outdir, exist_ok=True)
    # a flow given x* stores no X and X'; without a flow the first run
    # computes V* and the others reuse it
    x_star, v_star = optimal_value(problem) if flows else (None, None)
    for solver, (run, kwargs) in drivers.items():
        path = os.path.join(outdir, f"{solver}.csv")
        if solver in flows:
            kwargs = dict(kwargs, x_star=x_star)
        traj = _run_to_csv(path, run, problem, x0, v_star=v_star, **kwargs)
        v_star = traj.v_star
        print(f"{solver}: wrote {path}, final V_gap={traj.v_gap[-1]:.6e}")
        if traj.meta.get("stopped_early") and traj.k[-1] < args.max_iter:
            print(f"{solver}: stopped early at k={traj.k[-1]} of --max-iter {args.max_iter}: "
                  f"primal residual + z movement <= --stop-tol {args.stop_tol:g}")
    return EXIT_OK


def _interp_or_blank(grid, traj):
    inside = (grid >= traj.t[0]) & (grid <= traj.t[-1])
    gaps = np.interp(grid, traj.t, traj.v_gap).tolist()
    return np.array([repr(gap) if ok else "" for gap, ok in zip(gaps, inside)], dtype=object)


def cmd_figure1(args):
    if not 0 < args.window_lo < args.window_hi:
        raise ValueError(f"rate-fit window must satisfy 0 < window-lo < window-hi, got "
                         f"({args.window_lo:g}, {args.window_hi:g})")
    if args.overlay_points > MAX_STEPS + 1:  # the samples of the longest flow grid
        raise ValueError(f"--overlay-points must be at most {MAX_STEPS + 1}")
    rhos = args.rho or [FIGURE1["rho"]]
    window = (args.window_lo, args.window_hi)
    stem = "{}_rho{:g}".format  # CSV stem of a discrete run; a flow's is its name

    # the method table, which every stage below iterates: each discrete method's
    # flow, with the flow's step and start-time flags, rate-fit target and
    # monitors by kind. Built per call, so a monitor replaced on the module
    # after import (as a tracer does) is the one that runs
    methods = {"admm": ("admm_flow", args.h_rk4, None, -1.0,
                        {"stability": monitor_admm_stability, "rate": monitor_admm_rate}),
               "aadmm": ("aadmm_flow", args.h_symplectic, args.t0, -2.0,
                         {"stability": monitor_aadmm_stability, "rate": monitor_aadmm_rate})}
    monitors = {f"monitor_{flow}_{kind}": (flow, monitor)
                for flow, *_, kinds in methods.values() for kind, monitor in kinds.items()}

    # one run per CSV stem, in run order; the penalty-free flows run once, over
    # the rate window and the smallest rho's (longest) discrete time range.
    # Every grid is built, and so checked, before any file is written
    runs = {}
    for method, (flow, h, t0, *_) in methods.items():
        t_end = args.max_iter / time_scale(min(rhos), accelerated=method == "aadmm")
        runs[flow] = _driver(flow, rho=min(rhos), r=args.r, max_iter=args.max_iter, h=h,
                             t0=t0, t_end=max(args.window_hi, t_end))
    for rho in rhos:
        for method in methods:
            if stem(method, rho) in runs:
                raise ValueError(f"each --rho must name its own CSVs (admm_rho<rho:g>.csv), got "
                                 f"{' '.join(f'{value:g}' for value in rhos)}")
            runs[stem(method, rho)] = _driver(method, rho=rho, r=args.r, max_iter=args.max_iter)
    for flow, *_ in methods.values():  # fit_rate's count, on the grid a run samples
        ts = runs[flow][1]["config"].times()
        inside = np.count_nonzero((ts >= args.window_lo) & (ts <= args.window_hi))
        if inside < MIN_FIT_SAMPLES:
            raise ValueError(f"rate-fit window [{args.window_lo:g}, {args.window_hi:g}] holds "
                             f"{inside} samples of the {flow} grid; at least {MIN_FIT_SAMPLES} "
                             "are required")
    outdir = args.out_dir or os.path.join(_default_outdir(), "figure1_out")
    os.makedirs(outdir, exist_ok=True)
    # every file the run writes, in the order it writes them, from the run and
    # monitor tables: each is removed first, so a rerun that fails leaves only
    # its own files. report.json is the index, written last: such a rerun leaves none
    files = {"problem": os.path.join(outdir, "problem.json")}
    files.update((name, os.path.join(outdir, f"{name}.csv"))
                 for name in (*runs, *monitors, "rates", "discrepancy", "overlay"))
    report_path = os.path.join(outdir, "report.json")
    for path in (*files.values(), report_path):
        if os.path.lexists(path):
            os.remove(path)
    t_start = time.perf_counter()

    problem = gen_figure1_problem(FIGURE1["n"], FIGURE1["zero_eigs"], FIGURE1["eig_hi"],
                                  FIGURE1["cond_a"], seed=args.seed)
    save_problem(problem, files["problem"])
    x_star, v_star = optimal_value(problem)
    x0 = np.full(problem.n, FIGURE1["x0"])

    # each trajectory is written as soon as it is computed; a DivergenceError
    # keeps the partial CSV and exits through main(). A flow, given x*,
    # keeps the row terms of its CSV and monitors in place of X and X'; its
    # monitors read them last, and each run then keeps only what later
    # stages read. A flow's CSV records its t and V_gap text in `text`, which
    # its monitor CSVs, written after every run, write again unformatted
    samples = {}
    text = ColumnText()

    def run_to_csv(name, run, kwargs):
        if name.endswith("_flow"):
            kwargs = dict(kwargs, x_star=x_star, text=text)
        traj = _run_to_csv(files[name], run, problem, x0, v_star=v_star, **kwargs)
        samples.update((key, monitor(problem, traj, x_star))
                       for key, (flow, monitor) in monitors.items() if flow == name)
        return replace(traj, X=None, Xdot=None, terms=None)

    trajs = {name: run_to_csv(name, run, kwargs) for name, (run, kwargs) in runs.items()}
    monitor_summary = {}
    for name, monitored in samples.items():
        write_monitor_csv(monitored, files[name], text=text)
        monitor_summary[name] = np.count_nonzero(monitored.decay_ok) / len(monitored)

    fits = {flow: fit_rate(trajs[flow], window, slope_target=target)
            for flow, _, _, target, _ in methods.values()}
    rows = [[name] + fit.summary().split(",") for name, fit in fits.items()]
    header = ("method",) + RateFit.FIELDS
    write_columns_csv(files["rates"], list(zip(header, zip(*rows))))

    discrepancies = [  # each method's sup distance from its flow, at each rho
        {"rho": rho} | {f"{method}_vs_flow": sup_discrepancy(trajs[stem(method, rho)], trajs[flow])
                        for method, (flow, *_) in methods.items()}
        for rho in rhos]
    write_columns_csv(files["discrepancy"], [
        (key, np.array([row[key] for row in discrepancies], dtype=float))
        for key in discrepancies[0]
    ])

    # overlay of V-gap vs t for every method and its flow at the first rho
    curves = {label: name for method, (flow, *_) in methods.items()
              for label, name in ((method, stem(method, rhos[0])), (flow, flow))}
    grid = np.linspace(0.0, max(trajs[name].t[-1] for name in curves.values()),
                       args.overlay_points)
    write_columns_csv(files["overlay"], [("t", grid)] + [
        (f"V_gap_{label}", _interp_or_blank(grid, trajs[name])) for label, name in curves.items()
    ])

    report = {
        "params": {
            "seed": args.seed,
            "rho": rhos,
            "r": args.r,
            "max_iter": args.max_iter,
            "h_rk4": args.h_rk4,
            "h_symplectic": args.h_symplectic,
            "x0": FIGURE1["x0"],
            "window": list(window),
        },
        "v_star": v_star,
        "final_v_gap": {stem(method, rho): float(trajs[stem(method, rho)].v_gap[-1])
                        for rho in rhos for method in methods},
        "rate_fits": {name: asdict(fit) for name, fit in fits.items()},
        "discrepancies": discrepancies,
        "monitor_decay_fraction": monitor_summary,
        "files": files,
        # what the run ran on: fixed for an installation, so reruns stay identical
        "env": {"admmflow": __version__, "python": platform.python_version(),
                "numpy": np.__version__},
        "wall_time_s": time.perf_counter() - t_start,
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")

    for name, fit in fits.items():
        print(f"{name}: slope={fit.slope:.4f} C={fit.C:.4g} on t in [{window[0]:g}, {window[1]:g}]")
    for row in discrepancies:
        print(f"rho={row['rho']:g}: sup-discrepancy "
              + " ".join(f"{method}={row[f'{method}_vs_flow']:.4f}" for method in methods))
    print(f"report: {report_path}")
    return EXIT_OK


def cmd_rates(args):
    cols = load_trajectory_csv(args.trajectory)
    if "t" not in cols or "V_gap" not in cols:
        raise ValueError("trajectory CSV must have t and V_gap columns")
    v_star = args.v_star
    if args.problem is not None:
        _, v_star = optimal_value(load_problem(args.problem))
    gap = cols["V_gap"]
    traj = Trajectory(t=cols["t"], V=gap, v_gap=gap - v_star)
    fit = fit_rate(traj, (args.window_lo, args.window_hi), slope_target=args.target)
    print(",".join(RateFit.FIELDS))
    print(fit.summary())
    if fit.slope <= args.target + args.tol:
        return EXIT_OK
    print(f"rate check failed: slope {fit.slope:.4f} > target {args.target:g} "
          f"+ tol {args.tol:g}", file=sys.stderr)
    return EXIT_CHECK_FAILED


def _figure1_default(parser, flag, type, help=None, **kwargs):
    """Add ``flag`` with its default from :data:`FIGURE1`, named in its help."""
    default = FIGURE1[flag[2:].replace("-", "_")]
    parser.add_argument(flag, type=type, default=default,
                        help=help and f"{help} (default {default:g})", **kwargs)


class _NoteGiven(argparse.Action):
    """Store the value and set ``<dest>_given``, so that a command can refuse
    a flag it has no use for while its default still shows in ``--help``."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        setattr(namespace, f"{self.dest}_given", True)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="admmflow",
        description="ADMM/accelerated-ADMM solvers, their continuous-limit flows, "
                    "and convergence diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate and save a random benchmark problem")
    _figure1_default(gen, "--n", int, "primal dimension")
    _figure1_default(gen, "--zero-eigs", int, "zero eigenvalues of the quadratic term")
    _figure1_default(gen, "--eig-hi", float, "upper end of the nonzero eigenvalue range")
    _figure1_default(gen, "--cond-a", float, "condition number of A")
    gen.add_argument("--m", type=int, default=None, help="rows of A (default n)")
    gen.add_argument("--seed", type=_seed, default=7, help="RNG seed (default 7)")
    gen.add_argument("--out", default=None,
                     help="output path (default <outdir>/problem.json)")
    gen.set_defaults(func=cmd_gen)

    run = sub.add_parser(
        "run",
        help="run solvers/flows on a saved problem; one CSV each",
        epilog="CSV columns: discrete methods k,t,V_gap,primal_residual,x_norm "
               "(t = k/rho for admm, k/rho**0.5 for aadmm); flows "
               "t,V_gap[,hamiltonian],x_norm,xdot_norm. On divergence the "
               "partial CSV ends with a 'truncated,...' marker row.",
    )
    run.add_argument("--problem", required=True, help="problem JSON file")
    run.add_argument("--solver", action="append", choices=SOLVERS, required=True,
                     help="method to run (repeatable): admm_flow = first-order flow (RK4), "
                          "aadmm_flow = second-order flow (symplectic Euler)")
    _figure1_default(run, "--rho", _finite(float, positive=True), "penalty parameter")
    _figure1_default(run, "--r", float, "damping parameter")
    _figure1_default(run, "--max-iter", _finite(int, positive=True),
                     "iteration budget; also sets default flow t-end via the method time scale",
                     action=_NoteGiven)
    run.add_argument("--stop-tol", type=_finite(float), default=0.0, action=_NoteGiven,
                     help="early-stop tolerance on primal residual + z movement (default 0: "
                          "stops only at an exact fixed point)")
    run.add_argument("--h", type=float, default=None,
                     help="flow step size (defaults: rk4 1e-3, symplectic 1e-2)")
    run.add_argument("--t0", type=float, default=None,
                     help="flow start time (defaults: rk4 0, symplectic h)")
    run.add_argument("--t-end", type=float, default=None,
                     help="flow end time (default max_iter * method time scale)")
    _figure1_default(run, "--x0", _finite(float), "initial point, replicated across coordinates")
    run.add_argument("--out-dir", default=None, help=f"output directory (default ${OUTDIR_ENV} or .)")
    run.set_defaults(func=cmd_run, max_iter_given=False, stop_tol_given=False)

    fig = sub.add_parser(
        "figure1",
        help="benchmark experiment: all four methods, monitors, rate fits, "
             "discrete-vs-flow discrepancies, overlay data",
        epilog="Outputs: trajectory CSVs as in 'run'; monitor CSVs "
               f"t,E,decay_ok,residual; rates.csv method,{','.join(RateFit.FIELDS)}; "
               "discrepancy.csv rho,admm_vs_flow,"
               "aadmm_vs_flow; overlay.csv t plus one V-gap column per "
               "method; report.json index written last.",
    )
    _figure1_default(fig, "--seed", _seed, "problem seed")
    fig.add_argument("--rho", type=_finite(float, positive=True), action="append",
                     help=f"penalty parameter, repeatable for a sweep (default {FIGURE1['rho']:g})")
    _figure1_default(fig, "--r", float, "damping parameter")
    _figure1_default(fig, "--max-iter", _finite(int, positive=True), "discrete iteration budget")
    fig.add_argument("--h-rk4", type=float, default=DEFAULT_RK4_H,
                     help="first-order flow step (default 1e-3)")
    fig.add_argument("--h-symplectic", type=float, default=DEFAULT_SYMPLECTIC_H,
                     help="second-order flow step (default 1e-2)")
    fig.add_argument("--t0", type=float, default=None,
                     help="second-order flow start time (default h)")
    _figure1_default(fig, "--window-lo", float, "rate-fit window lower end")
    _figure1_default(fig, "--window-hi", float, "rate-fit window upper end")
    fig.add_argument("--overlay-points", type=_finite(int, positive=True), default=2001,
                     help="grid size of the overlay file (default 2001)")
    fig.add_argument("--out-dir", default=None,
                     help=f"report directory (default ${OUTDIR_ENV}/figure1_out)")
    fig.set_defaults(func=cmd_figure1)

    rates = sub.add_parser("rates", help="fit a rate exponent on a trajectory CSV and gate on it")
    rates.add_argument("--trajectory", required=True, help="trajectory CSV (t, V_gap columns)")
    offset = rates.add_mutually_exclusive_group()
    offset.add_argument("--v-star", type=_finite(float), default=0.0,
                        help="offset subtracted from V_gap before fitting (default 0; "
                             "this package's CSVs already store gaps)")
    offset.add_argument("--problem", default=None,
                        help="problem file whose optimal value supplies the offset "
                             "(for CSVs whose V_gap column holds raw objective values)")
    rates.add_argument("--target", type=_finite(float), required=True,
                       help="target slope, e.g. -1 or -2")
    rates.add_argument("--tol", type=_finite(float), default=0.1,
                       help="slack added to the target (default 0.1)")
    _figure1_default(rates, "--window-lo", float)
    _figure1_default(rates, "--window-hi", float)
    rates.set_defaults(func=cmd_rates)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (ValueError, OSError, AdmmFlowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
