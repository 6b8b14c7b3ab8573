"""admmflow benchmark: one workload, one seed, timed in fresh child processes.

    python3 perfbench/run.py --workload figure1 --seed 38 --seconds 20 --trace 0

Run from the root of a source checkout (it needs ``src/admmflow``). The
seed is the problem draw; 38 is the paper's. Workloads (see
``workloads.py`` and ``BENCHMARK.json``):

* ``figure1``: ``admmflow figure1`` with its defaults, then ``admmflow
  rates`` on both flow CSVs. The paper's experiment; at n = 60 the flow
  integrators' per-call overhead dominates, and it is the only workload
  that covers ``analysis`` and both CSV paths of ``trajectory``.
* ``sweep_n480``: ``admmflow gen --n 480 --zero-eigs 320``, then ``admmflow
  run`` with ADMM and A-ADMM at rho = 10, 50, 200. BLAS-bound discrete
  solvers and the JSON save/load path of ``problem``; no flows.
* ``callback_n60``: the n = 60 draw behind counted callbacks with a CG
  inner solver owned by the benchmark. It skips every quadratic-only fast
  path, so an optimisation of those should leave it unchanged.

Method. A closed loop with one caller: each repetition is a fresh child
(``rep.py``) with BLAS pinned to one thread through its environment, and
the next starts when the previous has exited. Repetitions run while the
next one is expected to end within ``--seconds`` (at least two run).
Times are in seconds at a fixed reference speed: a speed probe in the
child (``SpeedProbe`` in ``rep.py``) samples how fast the machine runs a
fixed kernel all through the repetition, because on a shared host the
same repetition runs up to twice as slow while other tenants load the
CPU. Every metric is the median over the repetitions. Before the loop
one child imports the package (warming the file cache) and reports the
environment, and one computes the seed's reference answers
(``checks.py``). Every repetition's outputs are checked against them,
and against each other byte for byte.

``--trace 0`` reports the end-to-end metrics, from untraced repetitions
only. ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics of the traced ones; ``trace.overhead_s`` is
the median traced ``wall_s`` minus the median untraced one, and the
``proc.*`` metrics come from the untraced ones (``proc.wall_raw_s`` and
``proc.setup_raw_s`` are the unscaled times, ``proc.slowdown`` the factor
between them and the scaled ones). The spans of the traced repetitions
are written to ``.perfbench_work/spans-<workload>-seed<N>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed /
attempted`` is the fail fraction over every child run and check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

T_PROCESS = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_work"
DEADLINE_S = 170  # the whole run, children included, ends within this
MIN_REPS = 2
PINNED_THREADS = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
PROC_METRICS = {"proc.import_s": "import_s", "proc.cpu_s": "cpu_s",
                "proc.wall_raw_s": "wall_raw_s", "proc.setup_raw_s": "setup_raw_s",
                "proc.slowdown": "slowdown"}

ENV_PROBE = r"""
import json, platform
import numpy, scipy
import admmflow
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "admmflow": getattr(admmflow, "__version__", None),
    "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
}))
"""


def metric_units(root, kind):
    """Units of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def child_env(root):
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    # compile the package on every import, as the runs that set the bounds
    # did, and write nothing into the source tree
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(cmd, env, cwd):
    """Run a child to completion, or kill it at the run's deadline.

    Returns (exit code, stdout, stderr tail). The child is killed and
    waited for whatever interrupts the wait, so none outlives the run.
    """
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - T_PROCESS))
    with subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            return -1, out, f"killed at the {DEADLINE_S} s deadline"
        except BaseException:
            proc.kill()
            raise
    return proc.returncode, out, err[-2000:]


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Tally:
    """Attempted and failed operations and checks of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")


def main():
    parser = argparse.ArgumentParser(description="admmflow benchmark (see module docstring)")
    parser.add_argument("--workload", required=True,
                        choices=["figure1", "sweep_n480", "callback_n60"])
    parser.add_argument("--seed", type=int, default=38)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # a terminated run unwinds, so its child is killed and its files removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "admmflow", "__init__.py")):
        print("error: run from the root of an admmflow checkout (src/admmflow not found)",
              file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}"
    work = os.path.join(root, WORK_DIR, f"{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        return bench(args, root, work, tag)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(args, root, work, tag):
    env = child_env(root)
    tally = Tally()

    code, out, err = run_child([sys.executable, "-c", ENV_PROBE], env, work)
    if code != 0:
        print(f"error: cannot import the program:\n{err}", file=sys.stderr)
        return 1
    env_block = json.loads(out)
    env_block.update({
        "blas_threads": int(PINNED_THREADS["OPENBLAS_NUM_THREADS"]),
        "blas_threads_source": "child environment (" + ", ".join(PINNED_THREADS) + ")",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(root),
        "seed": args.seed,
        "argv": sys.argv,
    })
    print("env " + json.dumps(env_block, sort_keys=True))

    ref = os.path.join(work, "ref.npz")
    code, _, err = run_child([sys.executable, os.path.join(HERE, "checks.py"),
                              "--workload", args.workload, "--seed", str(args.seed),
                              "--out", ref], env, work)
    tally.add("reference", code == 0, err)
    if code != 0:
        print(f"error: reference computation failed:\n{err}", file=sys.stderr)
        return 1

    reps = []
    rep_seconds = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        n_traced = sum(r["traced"] for r in reps)
        n_plain = len(reps) - n_traced
        enough = n_plain >= MIN_REPS and (not args.trace or n_traced >= MIN_REPS)
        # start another repetition only if it is expected to end in time
        if enough and (time.perf_counter() - start + statistics.median(rep_seconds)
                       > args.seconds):
            break
        rep_start = time.perf_counter()
        i = len(reps)
        rep_dir = os.path.join(work, f"rep{i}")
        os.makedirs(rep_dir)
        result_path = os.path.join(work, f"rep{i}.json")
        cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--ref", ref, "--result", result_path,
               "--run-id", f"{tag}-rep{i}"] + (["--trace"] if traced else [])
        code, _, err = run_child(cmd, env, rep_dir)
        rep_seconds.append(time.perf_counter() - rep_start)
        tally.add(f"rep {i} exits 0", code == 0, err)
        if code != 0:
            reps.append({"traced": traced, "failed": True})
            if len(reps) >= 2 * MIN_REPS and all(r.get("failed") for r in reps):
                break
            continue
        with open(result_path, encoding="utf-8") as fh:
            rep = json.load(fh)
        for name, ok, detail in rep["checks"]:
            tally.add(f"rep {i}: {name}", ok, detail)
        reps.append(rep)
        shutil.rmtree(rep_dir)

    done = [r for r in reps if not r.get("failed")]
    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if not plain or (args.trace and not traced):
        print("error: no repetition completed:\n" + "\n".join(tally.failures[-5:]),
              file=sys.stderr)
        return 1
    for key in ("hashes", "counts"):
        tally.add(f"{key} identical across repetitions",
                  all(r[key] == done[0][key] for r in done), key)
    if traced:
        exact = [k for k, v in traced[0]["layers"].items() if isinstance(v, int)]
        for k in exact:
            tally.add(f"{k} identical across traced repetitions",
                      all(r["layers"][k] == traced[0]["layers"][k] for r in traced), k)

    if args.trace:
        units = metric_units(root, "per_layer")
        samples = {name: [r["layers"][name] for r in traced]
                   for name in units if name in traced[0]["layers"]}
        for name, key in PROC_METRICS.items():
            samples[name] = [r[key] for r in plain]
        spans_path = os.path.join(root, WORK_DIR, f"spans-{tag}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump([s for r in traced for s in r["spans"]], fh)
    else:
        units = metric_units(root, "end_to_end")
        samples = {name: [r[name] for r in plain] for name in units}
    # counts repeat exactly (checked above); median_low keeps them integers
    metrics = {name: (statistics.median_low if isinstance(values[0], int)
                      else statistics.median)(values)
               for name, values in samples.items()}
    if args.trace:
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in plain))
        samples["trace.overhead_s"] = [metrics["trace.overhead_s"]]

    missing = sorted(set(units) - set(metrics))
    tally.add("every metric measured", not missing, missing)
    failed = len(tally.failures)
    print(f"{args.workload} seed={args.seed}: {len(plain)} untraced and {len(traced)} traced "
          f"repetitions in {time.perf_counter() - start:.1f} s")
    print(f"  {'metric':32s} {'reported':>14s} {'unit':6s} median [quartiles] min")
    for name in sorted(metrics):
        values = samples[name]
        lo, hi = quartiles(values)
        print(f"  {name:32s} {metrics[name]:14.6g} {units[name]:6s} "
              f"{statistics.median(values):.6g} [{lo:.6g} .. {hi:.6g}] {min(values):.6g}")
    if not args.trace:
        for key in ("wall_raw_s", "setup_raw_s", "slowdown"):
            values = [r[key] for r in plain]
            lo, hi = quartiles(values)
            print(f"  {key:32s} {'(not reported)':>14s} {'':6s} "
                  f"{statistics.median(values):.6g} [{lo:.6g} .. {hi:.6g}] {min(values):.6g}")
    print(f"  {'fail_frac':32s} {failed / tally.attempted:14.6g} {'1':6s} "
          f"({failed} of {tally.attempted} operations and checks)")
    for line in tally.failures[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units
                    if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
