"""One repetition of one benchmark workload, in a fresh process.

    python3 rep.py --workload W --seed N --ref REF.npz --result OUT.json [--trace]

Run it in an empty directory, with the program's ``src`` on ``PYTHONPATH``
and BLAS pinned through the environment; ``run.py`` does both. Outputs
are written relative to the working directory, so two repetitions write
byte-identical files.

The timed region runs from just before ``import admmflow`` to the return
of the workload's last call. Its first solver or integrator call ends the
set-up part. Layers are timed from outside: the public names the calling
code looks up (``admmflow.cli.rk4_integrate``, ``Trajectory.to_csv``, ...)
are replaced by wrappers. Without ``--trace`` only the four solver and
integrator names are wrapped, to mark the end of set-up; with ``--trace``
every listed name records a span (name, start, end, parent, run id).
Spans stay in memory and are written to the result file at the end.

A speed probe (``SpeedProbe``) samples the machine's speed all through the
timed region. ``wall_s``, ``setup_s``, ``import_s`` and the span times of
a traced run are the raw times, less the probe's own time, scaled to a
fixed reference speed; the raw times and the slowdown are reported next
to them.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import hashlib
import importlib
import io
import json
import os
import resource
import signal
import sys
import time
from collections import defaultdict

from workloads import CALLBACK, EXPECTED_COUNTS, FIGURE1, SWEEP, figure1_problem_args

# On a shared host the same repetition runs up to twice as slow while
# another tenant loads the sibling hyperthread of the CPU it runs on, and
# that load changes within seconds and drifts over minutes, so raw wall
# times of the same code spread by a third between runs. A SIGALRM handler
# therefore times a fixed kernel every PROBE_INTERVAL_S while the workload
# runs (between its bytecodes; about 1 % of the run): 40 products of a
# 60 x 60 matrix with a vector in a Python loop, the mix of interpreter and
# small array work the program spends its time in. The kernel uses nothing
# of the program, so a change to the program cannot move it. A sample's
# speed is the kernel's reference time divided by its measured time, and
# the reported times are the raw ones times the mean speed over the
# repetition: seconds at the reference speed, which is the uncontended
# speed of a 2-vCPU Xeon at 2.0 GHz. Of the kernels tried (pure Python,
# this one, an n = 480 matrix-vector product, and three with larger memory
# footprints) this one tracked the workloads' own slowdown best.
PROBE_INTERVAL_S = 0.01
PROBE_REF_S = 115e-6


class SpeedProbe:
    """Samples the machine's speed while a repetition runs (see above)."""

    def __init__(self):
        self.np = None  # set once the program has imported numpy
        self.speeds = []
        self.handler_s = []  # (start, seconds) of every handler call
        self._arrays = None
        self._starts = None
        self._cumulative = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        if self.np is not None:
            if self._arrays is None:
                self._arrays = (self.np.linspace(0.0, 1.0, 3600).reshape(60, 60),
                                self.np.ones(60))
            a, v = self._arrays
            t = time.perf_counter()
            x = v
            for _ in range(40):
                x = a @ x * 1e-3 + v
            self.speeds.append(PROBE_REF_S / (time.perf_counter() - t))
        self.handler_s.append((start, time.perf_counter() - start))

    def seconds_before(self, t):
        """Time spent in the handler before ``t`` (call once the run is over)."""
        if self._cumulative is None:
            self._starts = [start for start, _ in self.handler_s]
            self._cumulative = [0.0]
            for _, d in self.handler_s:
                self._cumulative.append(self._cumulative[-1] + d)
        return self._cumulative[bisect.bisect_left(self._starts, t)]

    def speed(self):
        return sum(self.speeds) / len(self.speeds) if self.speeds else float("nan")

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


SOLVER_NAMES = ("rk4_integrate", "aadmm_flow_integrate", "run_admm", "run_aadmm")


def _size(args, kwargs, result):
    """Size of the file written by ``save_problem(problem, path)`` or
    ``Trajectory.to_csv(self, path)``."""
    return {"bytes": os.path.getsize(kwargs["path"] if "path" in kwargs else args[1])}


def _steps(args, kwargs, traj):
    return {"steps": len(traj) - 1}


def _samples(args, kwargs, samples):
    return {"samples": len(samples)}


# public name -> (span name, attributes taken from the call after it ends)
TRACED_FUNCTIONS = {
    "main": ("cli.main", None),
    "gen_figure1_problem": ("problem.gen", None),
    "optimal_value": ("problem.optimal_value", None),
    "save_problem": ("problem.save", _size),
    "load_problem": ("problem.load", None),
    "rk4_integrate": ("flows.rk4", _steps),
    "aadmm_flow_integrate": ("flows.symplectic", _steps),
    "run_admm": ("discrete.admm", _steps),
    "run_aadmm": ("discrete.aadmm", _steps),
    "monitor_admm_stability": ("analysis.monitor", _samples),
    "monitor_admm_rate": ("analysis.monitor", _samples),
    "monitor_aadmm_stability": ("analysis.monitor", _samples),
    "monitor_aadmm_rate": ("analysis.monitor", _samples),
    "write_monitor_csv": ("analysis.write_csv", None),
    "fit_rate": ("analysis.fit", None),
    "sup_discrepancy": ("analysis.discrepancy", None),
    "load_trajectory_csv": ("trajectory.load_csv", None),
}


class Tracer:
    """Wraps public names and records spans, or only the first solver call."""

    def __init__(self, run_id, t_origin, full):
        self.run_id = run_id
        self.t_origin = t_origin
        self.full = full
        self.spans = []
        self.first_solver_at = None
        self._stack = []

    def install(self, namespaces, traj_class):
        for ns in namespaces:
            for attr, (name, attrs) in TRACED_FUNCTIONS.items():
                if hasattr(ns, attr) and (self.full or attr in SOLVER_NAMES):
                    setattr(ns, attr, self.wrap(getattr(ns, attr), name, attrs,
                                                attr in SOLVER_NAMES))
        if self.full:
            traj_class.to_csv = self.wrap(
                traj_class.to_csv, "trajectory.to_csv",
                lambda a, kw, r: {"rows": len(a[0]), **_size(a, kw, r)}, False)

    def span(self, fn, name):
        """``fn`` recording a span per call when tracing, else ``fn`` itself."""
        return self.wrap(fn, name, None, False) if self.full else fn

    def wrap(self, fn, name, attrs, solver):
        if not self.full:
            @functools.wraps(fn)
            def mark(*args, **kwargs):
                if self.first_solver_at is None:
                    self.first_solver_at = time.perf_counter()
                return fn(*args, **kwargs)
            return mark

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            if solver and self.first_solver_at is None:
                self.first_solver_at = start
            rec = {"name": name, "start": start - self.t_origin, "end": None,
                   "parent": self._stack[-1] if self._stack else None, "run": self.run_id}
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter() - self.t_origin
                self._stack.pop()
            if attrs is not None:
                rec.update(attrs(args, kwargs, result))
            return result
        return traced


class CountedCalls:
    """Callback counters owned by one run."""

    def __init__(self):
        self.grad = 0
        self.value = 0
        self.inner = 0

    def function(self, af, quadratic):
        def fn(v):
            self.value += 1
            return quadratic.value(v)

        def grad_fn(v):
            self.grad += 1
            return quadratic.grad(v)
        return af.CallbackFunction(fn, grad_fn, quadratic.dim)

    def cg_minimize(self, np):
        """Linear CG inner solver; the Hessian product comes from gradient
        differences, exact for the quadratic subproblems of this workload."""
        def solve(fun, grad, x0, tol=1e-12):
            self.inner += 1
            g0 = grad(np.zeros_like(x0))
            x = np.array(x0, dtype=float)
            r = -g0 - (grad(x) - g0)
            p = r.copy()
            rs = float(r @ r)
            b_norm = float(np.linalg.norm(g0)) or 1.0
            for _ in range(50 * x.size + 100):
                if np.sqrt(rs) <= tol * b_norm:
                    break
                hp = grad(p) - g0
                alpha = rs / float(p @ hp)
                x = x + alpha * p
                r = r - alpha * hp
                rs_new = float(r @ r)
                p = r + (rs_new / rs) * p
                rs = rs_new
            return x
        return solve


def _quiet(fn, *args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = fn(*args)
    return code, out.getvalue()


def run_figure1(af, cli, tracer, seed):
    """``admmflow figure1`` with its defaults, then both ``rates`` gates."""
    codes, lines = {}, {}
    codes["figure1"], _ = _quiet(cli.main, ["figure1", "--seed", str(seed),
                                            "--out-dir", FIGURE1["out_dir"]])
    for name, (target, tol) in FIGURE1["rates"].items():
        path = os.path.join(FIGURE1["out_dir"], f"{name}.csv")
        codes[f"rates_{name}"], text = _quiet(
            cli.main, ["rates", "--trajectory", path, "--target", repr(target), "--tol", repr(tol)])
        lines[name] = (text.splitlines() or [""])[-1]
    return {"exit_codes": codes, "rate_lines": lines}


def run_sweep(af, cli, tracer, seed):
    """``admmflow gen --n 480 --zero-eigs 320``, then ``run`` at three penalties."""
    codes = {}
    codes["gen"], _ = _quiet(cli.main, ["gen", "--n", str(SWEEP["n"]), "--zero-eigs",
                                        str(SWEEP["zero_eigs"]), "--seed", str(seed),
                                        "--out", SWEEP["problem"]])
    for rho in SWEEP["rhos"]:
        codes[f"run_rho{rho:g}"], _ = _quiet(cli.main, [
            "run", "--problem", SWEEP["problem"], "--solver", "admm", "--solver", "aadmm",
            "--rho", repr(rho), "--r", repr(SWEEP["r"]), "--max-iter", str(SWEEP["max_iter"]),
            "--x0", repr(SWEEP["x0"]), "--out-dir", SWEEP["out_dir"].format(rho=rho)])
    return {"exit_codes": codes}


def run_callback(af, cli, tracer, seed):
    """The n = 60 draw behind counted callbacks: every quadratic fast path is skipped."""
    import numpy as np
    from admmflow.flows import IntegratorConfig

    calls = CountedCalls()
    quad = af.gen_figure1_problem(*figure1_problem_args(seed))
    problem = af.SplitProblem(calls.function(af, quad.f), calls.function(af, quad.g), quad.A)
    x0 = np.full(problem.n, CALLBACK["x0"])
    zero = np.zeros(problem.n)
    inner = tracer.span(calls.cg_minimize(np), "discrete.inner")
    rho, r, iters = CALLBACK["rho"], CALLBACK["r"], CALLBACK["max_iter"]
    trajs = {
        "admm": af.run_admm(problem, x0, rho=rho, max_iter=iters, v_star=0.0,
                            inner_solver=inner),
        "aadmm": af.run_aadmm(problem, x0, rho=rho, r=r, max_iter=iters, v_star=0.0,
                              inner_solver=inner),
        "rk4": af.rk4_integrate(problem, x0, IntegratorConfig(**CALLBACK["rk4"]), v_star=0.0),
        "symplectic": af.aadmm_flow_integrate(
            problem, x0, IntegratorConfig(**CALLBACK["symplectic"]), v_star=0.0),
    }
    monitors = {
        "admm_stability": af.monitor_admm_stability(problem, trajs["rk4"], zero),
        "admm_rate": af.monitor_admm_rate(problem, trajs["rk4"], zero),
        "aadmm_stability": af.monitor_aadmm_stability(problem, trajs["symplectic"], zero),
        "aadmm_rate": af.monitor_aadmm_rate(problem, trajs["symplectic"], zero),
    }
    return {"trajs": trajs, "monitors": monitors, "calls": calls}


WORKLOADS = {"figure1": run_figure1, "sweep_n480": run_sweep, "callback_n60": run_callback}


def layer_metrics(spans, counts, duration):
    """Per-layer metrics of one traced repetition; ``duration(span)`` is a
    span's time at the reference speed."""
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    for i, s in enumerate(spans):
        by_name[s["name"]].append(i)
        if s["parent"] is not None:
            child_time[s["parent"]] += duration(s)

    def total(name):
        return sum((duration(spans[i]) for i in by_name[name]), 0.0)

    def attr(name, key):
        return sum(spans[i].get(key, 0) for i in by_name[name])

    def self_time(*names):
        return sum((duration(spans[i]) - child_time[i] for name in names for i in by_name[name]),
                   0.0)

    def per(seconds, n, scale=1e6):
        return scale * seconds / n if n else 0.0

    rk4_steps, sym_steps = attr("flows.rk4", "steps"), attr("flows.symplectic", "steps")
    admm_iters, aadmm_iters = attr("discrete.admm", "steps"), attr("discrete.aadmm", "steps")
    rows, samples = attr("trajectory.to_csv", "rows"), attr("analysis.monitor", "samples")
    return {
        "flows.rk4_us_per_step": per(total("flows.rk4"), rk4_steps),
        "flows.rk4_steps": rk4_steps,
        "flows.symplectic_us_per_step": per(total("flows.symplectic"), sym_steps),
        "flows.symplectic_steps": sym_steps,
        "discrete.admm_us_per_iter": per(total("discrete.admm"), admm_iters),
        "discrete.aadmm_us_per_iter": per(total("discrete.aadmm"), aadmm_iters),
        "discrete.iters": admm_iters + aadmm_iters,
        "discrete.self_s": self_time("discrete.admm", "discrete.aadmm"),
        "discrete.inner_calls": len(by_name["discrete.inner"]),
        "discrete.inner_s": total("discrete.inner"),
        "problem.gen_s": total("problem.gen"),
        "problem.optimal_value_s": total("problem.optimal_value"),
        "problem.save_s": total("problem.save"),
        "problem.load_s": total("problem.load"),
        "problem.json_bytes": attr("problem.save", "bytes"),
        "trajectory.to_csv_us_per_row": per(total("trajectory.to_csv"), rows),
        "trajectory.rows": rows,
        "trajectory.bytes": attr("trajectory.to_csv", "bytes"),
        "trajectory.load_csv_s": total("trajectory.load_csv"),
        "analysis.monitor_us_per_sample": per(total("analysis.monitor"), samples),
        "analysis.monitor_samples": samples,
        "analysis.write_csv_s": total("analysis.write_csv"),
        "analysis.fit_s": total("analysis.fit"),
        "cli.self_s": self_time("cli.main"),
        "callback.grad_calls": counts.get("callback.grad_calls", 0),
        "callback.value_calls": counts.get("callback.value_calls", 0),
    }


def output_hashes(root="."):
    """SHA-256 of every file the workload wrote; ``wall_time_s`` is dropped
    from ``report.json``, the one field that is allowed to differ."""
    hashes = {}
    for dirpath, _, files in os.walk(root):
        for fname in sorted(files):
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as fh:
                data = fh.read()
            if fname == "report.json":
                report = json.loads(data)
                report.pop("wall_time_s", None)
                data = json.dumps(report, sort_keys=True).encode()
            hashes[os.path.relpath(path, root)] = hashlib.sha256(data).hexdigest()
    return hashes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ref", required=True, help="reference .npz from checks.py")
    parser.add_argument("--result", required=True, help="result JSON to write")
    parser.add_argument("--run-id", default="0")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    probe = SpeedProbe()
    with probe:
        t_start = time.perf_counter()
        af = importlib.import_module("admmflow")
        cli = importlib.import_module("admmflow.cli")
        t_imported = time.perf_counter()
        probe.np = sys.modules["numpy"]
        tracer = Tracer(args.run_id, t_start, args.trace)
        tracer.install((af, cli), af.Trajectory)
        out = WORKLOADS[args.workload](af, cli, tracer, args.seed)
        t_end = time.perf_counter()
    usage = resource.getrusage(resource.RUSAGE_SELF)

    # everything below is outside the timed region
    import numpy as np
    import checks as chk

    import_raw_s = t_imported - t_start - probe.seconds_before(t_imported)
    setup_end = tracer.first_solver_at or t_end
    wall_raw_s = t_end - t_start - probe.seconds_before(t_end)
    setup_raw_s = setup_end - t_start - probe.seconds_before(setup_end)
    speed = probe.speed()
    result = {
        "wall_s": wall_raw_s * speed,
        "setup_s": setup_raw_s * speed,
        "wall_raw_s": wall_raw_s,
        "setup_raw_s": setup_raw_s,
        "slowdown": 1.0 / speed,
        "import_s": import_raw_s * speed,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "traced": args.trace,
    }
    checks = chk.Checks()
    checks.add("a solver or integrator was called", tracer.first_solver_at is not None)
    checks.add("the speed probe sampled the run", len(probe.speeds) >= 20, len(probe.speeds))
    ref = dict(np.load(args.ref))
    counts = {}
    if args.workload == "figure1":
        chk.check_figure1(checks, args.seed, ref, out["exit_codes"], out["rate_lines"])
    elif args.workload == "sweep_n480":
        chk.check_sweep(checks, ref, out["exit_codes"])
    else:
        calls = out["calls"]
        counts = {"callback.grad_calls": calls.grad, "callback.value_calls": calls.value,
                  "discrete.inner_calls": calls.inner}
        checks.add("inner solves", calls.inner == EXPECTED_COUNTS[args.workload]
                   ["discrete.inner_calls"], calls.inner)
        got = {f"{name}.{field}": getattr(traj, field)
               for name, traj in out["trajs"].items() for field in ("v_gap", "X")}
        got.update({f"monitor.{name}": np.array([s.value for s in samples])
                    for name, samples in out["monitors"].items()})
        chk.check_callback(checks, ref, got)
        digest = hashlib.sha256()
        for name in sorted(got):
            digest.update(np.ascontiguousarray(got[name]).tobytes())
        result["hashes"] = {"arrays": digest.hexdigest()}
    if args.workload != "callback_n60":
        result["hashes"] = output_hashes()
    if args.trace:
        def duration(span):
            start, end = t_start + span["start"], t_start + span["end"]
            return (end - start - probe.seconds_before(end) + probe.seconds_before(start)) * speed
        layers = layer_metrics(tracer.spans, counts, duration)
        for name, want in EXPECTED_COUNTS[args.workload].items():
            checks.add(f"traced {name} matches the configuration", layers[name] == want,
                       layers[name])
        result["layers"] = layers
        result["spans"] = tracer.spans
    result["counts"] = counts
    result["checks"] = checks.results
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
