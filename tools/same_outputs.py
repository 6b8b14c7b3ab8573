"""Check that two revisions write the same bytes on the benchmark's commands.

    python3 tools/same_outputs.py --parent REV --change REV [--seed 38]

Run from the root of a git checkout that holds both revisions (any tree-ish
``git archive`` takes). Each revision is copied with ``git archive`` into a
temporary directory, removed at the end. In each copy, with the benchmark
harness's child environment (one BLAS thread, the copy's ``src`` on
``PYTHONPATH``), the script runs ``admmflow figure1`` at the seed and a short
two-rho ``figure1`` sweep, then the ``sweep_n480`` workload's ``gen`` at the
seed, its three ``run``s and one ``run`` of both flows on its problem. The
sweep's arguments come from ``perfbench/workloads.py``. Each command's argv,
exit code and stdout go to a file ``cmd<i>.out`` beside its outputs. It then
compares the SHA-256 of every file the two sides wrote, by
``perfbench/rep.py``'s ``output_hashes``, which drops ``wall_time_s`` from
``report.json`` first. It names every file that differs or that one side
lacks, and exits 1 if there is any, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # nothing is written beside the harness's files
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import rep  # noqa: E402
import run as harness  # noqa: E402
from workloads import FIGURE1, PAPER_SEED, SWEEP, sweep_problem_args  # noqa: E402

from pairs import archive  # noqa: E402


def commands(seed):
    """``admmflow`` argument lists of one check: figure1 and a two-rho
    figure1, then the sweep and a run of both flows on its problem."""
    n, zero_eigs, eig_hi, cond_a, seed = sweep_problem_args(seed)
    yield ["figure1", "--seed", str(seed), "--out-dir", FIGURE1["out_dir"]]
    yield ["figure1", "--seed", str(seed), "--rho", "20", "--rho", "80", "--max-iter", "40",
           "--h-rk4", "1e-2", "--h-symplectic", "2e-2", "--window-lo", "0.2",
           "--window-hi", "1.9", "--overlay-points", "51", "--out-dir", "figure1_rho_sweep"]
    yield ["gen", "--n", str(n), "--zero-eigs", str(zero_eigs), "--eig-hi", repr(eig_hi),
           "--cond-a", repr(cond_a), "--seed", str(seed), "--out", SWEEP["problem"]]
    for rho in SWEEP["rhos"]:
        yield ["run", "--problem", SWEEP["problem"], "--solver", "admm", "--solver", "aadmm",
               "--rho", repr(rho), "--r", repr(SWEEP["r"]), "--max-iter", str(SWEEP["max_iter"]),
               "--x0", repr(SWEEP["x0"]), "--out-dir", SWEEP["out_dir"].format(rho=rho)]
    yield ["run", "--problem", SWEEP["problem"], "--solver", "admm_flow", "--solver",
           "aadmm_flow", "--t-end", "2", "--out-dir", "flows"]


def record(path, argv, code, stdout):
    """Write what one command did beyond its files: its argv, exit code and stdout."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"argv: {' '.join(argv)}\nexit: {code}\n{stdout}")


def differing(parent_dir, change_dir):
    """Paths, relative to each directory, of the files whose hashes differ
    or that only one of the two directories holds, sorted."""
    parent, change = rep.output_hashes(parent_dir), rep.output_hashes(change_dir)
    return sorted(path for path in parent.keys() | change.keys()
                  if parent.get(path) != change.get(path))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--seed", type=int, default=PAPER_SEED)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        outs = {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            copy, outs[side] = os.path.join(tmp, side), os.path.join(tmp, f"{side}-out")
            archive(rev, copy)
            os.makedirs(outs[side])
            for i, argv in enumerate(commands(args.seed)):
                done = subprocess.run([sys.executable, "-m", "admmflow.cli", *argv],
                                      cwd=outs[side], env=harness.child_env(copy),
                                      stdout=subprocess.PIPE, text=True)
                record(os.path.join(outs[side], f"cmd{i}.out"), argv, done.returncode,
                       done.stdout)
                if done.returncode:
                    print(f"{side}: admmflow {argv[0]} exited {done.returncode}",
                          file=sys.stderr)
        files = len(rep.output_hashes(outs["change"]))
        differ = differing(outs["parent"], outs["change"])
    for path in differ:
        print(f"differs: {path}")
    print(f"seed {args.seed}: {len(differ)} of {files} files differ between "
          f"{args.parent} and {args.change}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
