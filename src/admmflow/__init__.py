"""ADMM and accelerated ADMM, their continuous-limit flows, and
Lyapunov-based convergence diagnostics."""

# the package re-exports exactly the names each module lists in __all__
from .analysis import *
from .discrete import *
from .exceptions import *
from .flows import *
from .problem import *
from .trajectory import *

__version__ = "0.1.0"
