"""ADMM and accelerated ADMM, their continuous-limit flows, and
Lyapunov-based convergence diagnostics."""

from .analysis import (
    LyapunovSample,
    RateFit,
    check_state_convergence,
    fit_rate,
    monitor_aadmm_rate,
    monitor_aadmm_stability,
    monitor_admm_rate,
    monitor_admm_stability,
    sup_discrepancy,
    write_monitor_csv,
)
from .discrete import (
    AccAdmmState,
    AdmmState,
    SubproblemCache,
    aadmm_step,
    admm_step,
    initial_aadmm_state,
    initial_admm_state,
    momentum_coefficient,
    run_aadmm,
    run_admm,
)
from .exceptions import (
    AdmmFlowError,
    DivergenceError,
    NumericalError,
    UnsupportedFunctionError,
    WindowError,
)
from .flows import (
    DEFAULT_RK4_H,
    DEFAULT_SYMPLECTIC_H,
    IntegratorConfig,
    aadmm_flow_integrate,
    admm_flow_rhs,
    rk4_integrate,
)
from .problem import (
    CallbackFunction,
    QuadraticFunction,
    SplitProblem,
    eval_V,
    gen_figure1_problem,
    grad_V,
    load_problem,
    optimal_value,
    problem_from_dict,
    problem_to_dict,
    resolve_v_star,
    save_problem,
)
from .trajectory import Trajectory, load_trajectory_csv

__version__ = "0.1.0"
