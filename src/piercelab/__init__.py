"""piercelab: exact-arithmetic toolkit for Pierce expansions.

Digit dynamics over exact rationals, the sequence space and its
evaluation map, convergence-exponent estimators with analytic
certificates, witness factories, and desk-scale covering experiments,
all exposed through a deterministic machine-readable CLI.
"""

# Each module's __all__ is the one list of its public names.
from .arith import *
from .pierce import *
from .rules import *
from .space import *
from .exponent import *
from .constructions import *
from .dimension import *

__version__ = "0.1.0"
