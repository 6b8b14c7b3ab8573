"""Alternating parent/change runs of the perfbench harness, each side from two copies.

    python3 tools/pairs.py --parent REV --change REV --workload sweep_n480 --pairs 10 \\
        --set final --out BENCH_N.json [--seed 38] [--trace 0]

Run from the root of a git checkout that holds both revisions (any tree-ish
``git archive`` takes). Each side runs from ``COPIES`` fresh ``git
archive`` copies of its revision, made in a temporary directory and removed
at the end, and pair p runs copy (p - 1) mod ``COPIES`` of each side. Two
copies of one commit can differ by about 2 % in the harness's times, so
rotating them puts that spread into each side's quartiles. The parent runs
first in odd pairs and the change in even ones.

Each run is ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace X`` in its copy, with T the ``run_seconds`` of ``BENCHMARK.json``.
It appends one record to the set ``--set`` of the JSON file ``--out``. A
record holds the workload, seed, trace, pair, side, copy and ``result``,
the harness's last output line. The file also holds ``env`` and, for each
side, the tree of ``src`` that was measured; a set already in ``--out``
that holds runs of other trees is refused by name. At the end the script
prints, under a header naming the workload, seed and trace of its runs,
each side's failed and attempted operations and, for each metric,
each side's median, the parent's quartiles, the number of pairs in which
the change read lower and whether that is a gain by the claim rule: lower
in at least nine tenths of the pairs, and the medians apart by more than
the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")
COPIES = 2  # per side


def archive(rev, dest):
    os.makedirs(dest)
    data = subprocess.run(["git", "archive", rev], capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=data, check=True)


def run_once(copy, args, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)]
    done = subprocess.run(cmd, cwd=copy, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return cmd[1:], env, json.loads(lines[-1])


def summary(runs):
    """Lines of one block per (workload, seed, trace) of ``runs``, in the
    order first seen: a header, each side's failed/attempted totals, then
    each metric's medians, parent quartiles, pairs the change read lower and
    whether the claim rule holds (lower in at least nine tenths of the
    pairs, and the median lower by more than the parent's interquartile
    range). Each invocation numbers its pairs from 1, so runs are paired
    within their block only."""
    blocks = {}
    for run in runs:
        key = (run["workload"], run["seed"], run["trace"])
        blocks.setdefault(key, []).append(run)
    lines = []
    for (workload, seed, trace), block in blocks.items():
        lines.append(f"{workload} seed {seed} trace {trace}:")
        lines += _block_summary(block)
    return lines


def _block_summary(runs):
    """The totals and metric lines of :func:`summary` for runs of one block."""
    by_pair = {}
    totals = {side: [0, 0] for side in SIDES}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
        totals[run["side"]][0] += run["result"]["failed"]
        totals[run["side"]][1] += run["result"]["attempted"]
    pairs = [sides for sides in by_pair.values() if len(sides) == 2]
    lines = ["  failed/attempted: " + ", ".join(
        f"{side} {failed}/{attempted}" for side, (failed, attempted) in totals.items())]
    for name in pairs[0]["parent"] if pairs else ():
        parent = [p["parent"][name]["value"] for p in pairs]
        change = [p["change"][name]["value"] for p in pairs]
        lo, hi = statistics.quantiles(parent, n=4)[::2] if len(parent) > 1 else parent * 2
        lower = sum(c < p for p, c in zip(parent, change))
        drop = statistics.median(parent) - statistics.median(change)
        claim = 10 * lower >= 9 * len(pairs) and drop > hi - lo
        lines.append(f"  {name:32s} {statistics.median(parent):.6g} [{lo:.6g} .. {hi:.6g}] -> "
                     f"{statistics.median(change):.6g}, lower in {lower}/{len(pairs)}, "
                     f"claim {'holds' if claim else 'fails'}")
    return lines


def find_set(bench, name, trees):
    """The set ``name`` of ``bench``, added if it is new. One that holds runs
    of other trees of ``src`` is refused by name: its runs would be filed
    under trees they did not measure."""
    target = next((s for s in bench["sets"] if s["name"] == name), None)
    if target is None:
        target = {"name": name, "src_trees": trees, "runs": []}
        bench["sets"].append(target)
    elif target["src_trees"] != trees:
        sys.exit(f"pairs.py: set {name!r} holds runs of src trees {target['src_trees']}, "
                 f"not {trees}; name another --set")
    return target


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--set", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=38)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    revs = {"parent": args.parent, "change": args.change}
    bench = {"description": "", "env": {}, "sets": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            bench = json.load(fh)
    trees = {side: subprocess.run(["git", "rev-parse", f"{rev}:src"], capture_output=True,
                                  text=True, check=True).stdout.strip()
             for side, rev in revs.items()}
    target = find_set(bench, args.set, trees)
    runs = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        copies = {side: [os.path.join(tmp, f"{side}{i}") for i in range(COPIES)]
                  for side in SIDES}
        for side in SIDES:
            for copy in copies[side]:
                archive(revs[side], copy)
        for pair in range(1, args.pairs + 1):
            for side in SIDES if pair % 2 else SIDES[::-1]:
                copy = (pair - 1) % COPIES
                argv, env, result = run_once(copies[side][copy], args, seconds)
                runs.append({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                             "pair": pair, "side": side, "copy": copy, "argv": argv,
                             "result": result})
                target["runs"].append(runs[-1])
                bench["env"] = bench["env"] or {key: env.get(key) for key in (
                    "python", "numpy", "scipy", "blas_threads", "nproc", "cpu_count")}
                with open(args.out, "w", encoding="utf-8") as fh:  # after every run
                    json.dump(bench, fh, indent=1)
                    fh.write("\n")
                print(f"pair {pair} {side} copy {copy}: "
                      + json.dumps(result["metrics"]), flush=True)
    print("\n".join(summary(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
