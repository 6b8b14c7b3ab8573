"""Reference answers and output checks for the benchmark workloads.

The references are computed once per seed, outside the timed region:

* ``figure1``: the first-order flow of a quadratic problem splits into
  scalar modes of the pencil ``(H, A^T A)`` (``scipy.linalg.eigh``), so its
  objective gap has a closed form.
* ``sweep_n480``: ADMM and A-ADMM re-run as a dense LU-solve recursion.
* ``callback_n60``: the quadratic (Cholesky) path of the program itself,
  which the callback path must reproduce.

Run as ``python3 checks.py --workload W --seed N --out REF.npz`` with the
program's ``src`` directory on ``PYTHONPATH``. ``rep.py`` calls the
``check_*`` functions after its timed region.
"""

from __future__ import annotations

import argparse
import csv
import json
import os

import numpy as np
import scipy.linalg

from workloads import (
    CALLBACK,
    FIGURE1,
    PAPER_SEED,
    SWEEP,
    figure1_problem_args,
    sweep_problem_args,
)

# Each tolerance sits well above the rounding the measured paths show and
# well below the error a coarser integrator or a wrong recursion leaves.
EXACT_FLOW_RTOL = 1e-9  # figure1 RK4 V_gap vs the modal solution, per sample (seen: 5e-12)
SWEEP_RTOL = 1e-9  # sweep V_gap vs the dense-solve recursion, sup norm (seen: 3e-12)
CALLBACK_RTOL = 1e-6  # callback vs quadratic path, sup norm, as tests/test_discrete.py (seen: 1e-7)
IDENTITY_TOL = 1e-12  # damping-weight identity residual, relative to max(1, r/t)
DECAY_MIN = 0.99  # Lyapunov decay fraction of each monitor (paper draw only)


def _problem_arrays(problem):
    return {"M_f": np.asarray(problem.f.M), "M_g": np.asarray(problem.g.M),
            "q_f": np.asarray(problem.f.q), "q_g": np.asarray(problem.g.q),
            "A": np.asarray(problem.A)}


def reference(workload, seed):
    """Reference arrays for one workload at one seed (a dict for ``np.savez``)."""
    import admmflow as af

    if workload == "figure1":
        problem = af.gen_figure1_problem(*figure1_problem_args(seed))
        ref = _problem_arrays(problem)
        H = ref["M_f"] + ref["A"].T @ ref["M_g"] @ ref["A"]
        B = ref["A"].T @ ref["A"]
        lam, phi = scipy.linalg.eigh(H, B)
        ref["modes"] = np.clip(lam, 0.0, None)
        ref["modal_x0"] = phi.T @ (B @ np.full(problem.n, FIGURE1["x0"]))
        return ref
    if workload == "sweep_n480":
        problem = af.gen_figure1_problem(*sweep_problem_args(seed))
        ref = _problem_arrays(problem)
        for rho in SWEEP["rhos"]:
            ref[f"admm_rho{rho:g}"] = _dense_admm(ref, rho, None, SWEEP["max_iter"])
            ref[f"aadmm_rho{rho:g}"] = _dense_admm(ref, rho, SWEEP["r"], SWEEP["max_iter"])
        return ref
    if workload == "callback_n60":
        from admmflow.flows import IntegratorConfig

        problem = af.gen_figure1_problem(*figure1_problem_args(seed))
        x0 = np.full(problem.n, CALLBACK["x0"])
        zero = np.zeros(problem.n)
        rho, r = CALLBACK["rho"], CALLBACK["r"]
        ref = {}
        trajs = {
            "admm": af.run_admm(problem, x0, rho=rho, max_iter=CALLBACK["max_iter"]),
            "aadmm": af.run_aadmm(problem, x0, rho=rho, r=r, max_iter=CALLBACK["max_iter"]),
            "rk4": af.rk4_integrate(problem, x0, IntegratorConfig(**CALLBACK["rk4"])),
            "symplectic": af.aadmm_flow_integrate(
                problem, x0, IntegratorConfig(**CALLBACK["symplectic"])),
        }
        for name, traj in trajs.items():
            ref[f"{name}.v_gap"] = traj.v_gap
            ref[f"{name}.X"] = traj.X
        monitors = {
            "admm_stability": af.monitor_admm_stability(problem, trajs["rk4"], zero),
            "admm_rate": af.monitor_admm_rate(problem, trajs["rk4"], zero),
            "aadmm_stability": af.monitor_aadmm_stability(problem, trajs["symplectic"], zero),
            "aadmm_rate": af.monitor_aadmm_rate(problem, trajs["symplectic"], zero),
        }
        for name, samples in monitors.items():
            ref[f"monitor.{name}"] = np.array([s.value for s in samples])
        return ref
    raise ValueError(f"unknown workload {workload!r}")


def _dense_admm(ref, rho, r, max_iter):
    """Objective gaps of ADMM (``r`` None) or A-ADMM by dense LU solves.

    The generator has no linear terms, so the optimal value is 0 and the
    gap is the objective itself.
    """
    M_f, M_g, q_f, q_g, A = ref["M_f"], ref["M_g"], ref["q_f"], ref["q_g"], ref["A"]
    m = A.shape[0]
    lu_x = scipy.linalg.lu_factor(M_f + rho * (A.T @ A))
    lu_z = scipy.linalg.lu_factor(M_g + rho * np.eye(m))
    x = np.full(A.shape[1], SWEEP["x0"])
    z = A @ x
    u = np.zeros(m)
    z_hat, u_hat = z, u

    def objective(x):
        ax = A @ x
        return 0.5 * x @ (M_f @ x) + q_f @ x + 0.5 * ax @ (M_g @ ax) + q_g @ ax

    gaps = [objective(x)]
    for k in range(max_iter):
        x = scipy.linalg.lu_solve(lu_x, rho * (A.T @ (z_hat - u_hat)) - q_f)
        ax = A @ x
        z_new = scipy.linalg.lu_solve(lu_z, rho * (ax + u_hat) - q_g)
        u_new = u_hat + ax - z_new
        if r is None:
            z_hat, u_hat = z_new, u_new
        else:
            gamma = k / (k + r)
            z_hat = z_new + gamma * (z_new - z)
            u_hat = u_new + gamma * (u_new - u)
        z, u = z_new, u_new
        gaps.append(objective(x))
    return np.array(gaps)


class Checks:
    """Named pass/fail results; every one counts in the run's fail fraction."""

    def __init__(self):
        self.results = []

    def add(self, name, ok, detail=""):
        self.results.append([name, bool(ok), str(detail)])

    def guard(self, name, fn):
        """Run ``fn`` (which adds its own results); a crash counts as a failure."""
        try:
            fn()
        except Exception as err:  # a malformed output must fail the check, not the run
            self.add(name, False, f"{type(err).__name__}: {err}")


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    data = np.array([[float(c) for c in row] for row in body], dtype=float)
    return {name: data[:, j] for j, name in enumerate(header)}


def _rel_err(got, want):
    """Largest error relative to each sample."""
    return float(np.max(np.abs(got - want) / np.abs(want)))


def _sup_rel_err(got, want):
    """Largest error relative to the largest reference value. A-ADMM gaps
    pass close to zero, where rounding has no relative meaning."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _check_problem_file(checks, path, ref):
    def run():
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        n, m = int(data["n"]), int(data["m"])
        same = all(
            np.array_equal(np.asarray(data[key], dtype=float).reshape(ref[key].shape), ref[key])
            for key in ("M_f", "M_g", "q_f", "q_g", "A")
        ) and ref["A"].shape == (m, n)
        checks.add(f"{os.path.basename(path)} holds the seeded draw", same)
    checks.guard(f"{path} readable", run)


def check_figure1(checks, seed, ref, exit_codes, rate_lines):
    out = FIGURE1["out_dir"]
    checks.add("figure1 exits 0", exit_codes["figure1"] == 0, exit_codes["figure1"])
    _check_problem_file(checks, os.path.join(out, "problem.json"), ref)

    for name, (target, tol) in FIGURE1["rates"].items():
        code = exit_codes[f"rates_{name}"]

        def rate_gate(name=name, target=target, tol=tol, code=code):
            slope = float(rate_lines[name].split(",")[0])
            verdict = 0 if slope <= target + tol else 4
            checks.add(f"rates {name} verdict matches slope {slope:.4f}", code == verdict, code)
            if seed == PAPER_SEED:
                checks.add(f"rates {name} gate passes on the paper draw", code == 0, code)
        checks.guard(f"rates {name} output", rate_gate)

    def flows():
        plain = _read_csv(os.path.join(out, "admm_flow.csv"))
        acc = _read_csv(os.path.join(out, "aadmm_flow.csv"))
        checks.add("admm_flow.csv rows", plain["t"].size == FIGURE1["rk4_steps"] + 1, plain["t"].size)
        checks.add("aadmm_flow.csv rows", acc["t"].size == FIGURE1["symplectic_steps"] + 1,
                   acc["t"].size)
        lam = ref["modes"]
        exact = 0.5 * np.exp(-2.0 * np.outer(plain["t"], lam)) @ (lam * ref["modal_x0"] ** 2)
        err = _rel_err(plain["V_gap"], exact)
        checks.add("first-order flow V_gap vs exact modal solution", err <= EXACT_FLOW_RTOL,
                   f"{err:.3e}")
    checks.guard("flow CSVs", flows)

    def discrete():
        for method in ("admm", "aadmm"):
            cols = _read_csv(os.path.join(out, f"{method}_rho{FIGURE1['rho']:g}.csv"))
            checks.add(f"{method} CSV rows", cols["k"].size == FIGURE1["max_iter"] + 1, cols["k"].size)
    checks.guard("discrete CSVs", discrete)

    def monitors():
        cols = _read_csv(os.path.join(out, "monitor_aadmm_flow_rate.csv"))
        r = FIGURE1["r"]
        worst = float(np.max(cols["residual"] / np.maximum(1.0, r / cols["t"])))
        checks.add("damping-weight identity residual", worst <= IDENTITY_TOL, f"{worst:.3e}")
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        files = report["files"]
        checks.add("report.json lists existing files",
                   len(files) >= 12 and all(os.path.isfile(p) for p in files.values()), len(files))
        if seed == PAPER_SEED:
            fracs = report["monitor_decay_fraction"]
            low = {k: v for k, v in fracs.items() if v < DECAY_MIN}
            checks.add("monitor decay fractions >= 0.99 on the paper draw",
                       len(fracs) == 4 and not low, low or min(fracs.values()))
    checks.guard("monitor CSVs and report", monitors)


def check_sweep(checks, ref, exit_codes):
    checks.add("gen exits 0", exit_codes["gen"] == 0, exit_codes["gen"])
    _check_problem_file(checks, SWEEP["problem"], ref)
    for rho in SWEEP["rhos"]:
        checks.add(f"run rho={rho:g} exits 0", exit_codes[f"run_rho{rho:g}"] == 0,
                   exit_codes[f"run_rho{rho:g}"])
        for method in ("admm", "aadmm"):
            def compare(method=method, rho=rho):
                cols = _read_csv(os.path.join(SWEEP["out_dir"].format(rho=rho), f"{method}.csv"))
                want = ref[f"{method}_rho{rho:g}"]
                checks.add(f"{method} rho={rho:g} rows", cols["k"].size == want.size, cols["k"].size)
                err = _sup_rel_err(cols["V_gap"], want)
                checks.add(f"{method} rho={rho:g} V_gap vs dense recursion", err <= SWEEP_RTOL,
                           f"{err:.3e}")
            checks.guard(f"{method} rho={rho:g} CSV", compare)


def check_callback(checks, ref, results):
    """``results`` maps trajectory fields (``admm.X``, ...) and monitor
    energies (``monitor.admm_rate``, ...) to arrays, keyed as in ``ref``."""
    for key, want in sorted(ref.items()):
        got = results[key]
        if got.shape != want.shape:
            checks.add(f"{key} callback vs quadratic path", False, f"shape {got.shape}")
            continue
        err = _sup_rel_err(got, want)
        checks.add(f"{key} callback vs quadratic path", err <= CALLBACK_RTOL, f"{err:.3e}")


def main():
    parser = argparse.ArgumentParser(description="compute the reference answers for one seed")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    np.savez(args.out, **reference(args.workload, args.seed))


if __name__ == "__main__":
    main()
