"""Fixed configuration of the benchmark workloads (standard library only).

The seed given to the benchmark is the problem draw; everything else here
is constant, so the work a run does is the same for every seed. Step and
iteration counts follow from the CLI defaults:

* ``figure1``: RK4 runs on [0, max(20, 300/50)] with h = 1e-3, 20,000
  steps; symplectic Euler on [0.01, max(20, 300/sqrt(50))] with h = 1e-2,
  round(42.416/0.01) = 4,242 steps; ADMM and A-ADMM 300 iterations each.
* ``sweep_n480``: 3 penalties x 2 solvers x 500 iterations.
* ``callback_n60``: RK4 to t = 6 (6,000 steps), symplectic Euler to
  t = 300/sqrt(50) (4,242 steps), 2 x 300 iterations with 2 inner solves
  each.
"""

import math

PAPER_SEED = 38  # the draw whose figures the paper thresholds apply to

FIGURE1 = {
    "out_dir": "figure1_out",
    "x0": 5.0,
    "rho": 50.0,
    "r": 10.0,
    "max_iter": 300,
    "rk4_steps": 20000,
    "symplectic_steps": 4242,
    # rates gates: trajectory file -> (target slope, tolerance)
    "rates": {"admm_flow": (-1.0, 0.1), "aadmm_flow": (-2.0, 0.3)},
}

SWEEP = {
    "n": 480,
    "zero_eigs": 320,
    "problem": "problem.json",
    "out_dir": "rho{rho:g}",
    "x0": 5.0,
    "rhos": (10.0, 50.0, 200.0),
    "r": 10.0,
    "max_iter": 500,
}

CALLBACK = {
    "x0": 5.0,
    "rho": 50.0,
    "r": 10.0,
    "max_iter": 300,
    "rk4": {"h": 1e-3, "t0": 0.0, "t_end": 6.0},
    "symplectic": {"h": 1e-2, "t0": 1e-2, "t_end": 300 / math.sqrt(50.0), "r": 10.0},
    "rk4_steps": 6000,
    "symplectic_steps": 4242,
}

# counts a traced run must reproduce exactly, per workload
EXPECTED_COUNTS = {
    "figure1": {
        "flows.rk4_steps": FIGURE1["rk4_steps"],
        "flows.symplectic_steps": FIGURE1["symplectic_steps"],
        "discrete.iters": 2 * FIGURE1["max_iter"],
    },
    "sweep_n480": {
        "flows.rk4_steps": 0,
        "flows.symplectic_steps": 0,
        "discrete.iters": len(SWEEP["rhos"]) * 2 * SWEEP["max_iter"],
    },
    "callback_n60": {
        "flows.rk4_steps": CALLBACK["rk4_steps"],
        "flows.symplectic_steps": CALLBACK["symplectic_steps"],
        "discrete.iters": 2 * CALLBACK["max_iter"],
        "discrete.inner_calls": 2 * 2 * CALLBACK["max_iter"],
    },
}


def figure1_problem_args(seed):
    """Arguments of ``gen_figure1_problem`` for the paper's n = 60 draw
    (``figure1`` and ``callback_n60``)."""
    return 60, 40, 10.0, 100.0, seed


def sweep_problem_args(seed):
    """``admmflow gen --n 480 --zero-eigs 320`` with the CLI's other defaults."""
    return SWEEP["n"], SWEEP["zero_eigs"], 10.0, 100.0, seed

