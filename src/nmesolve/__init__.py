"""Dense solvers and pencil eigenvalue shifting for X + A^T X^{-1} A = Q.

Each module's ``__all__`` is the one list of its public names."""

from . import exceptions
from .exceptions import NmeError
from .harness import *  # noqa: F401,F403
from .problem import *  # noqa: F401,F403
from .shifting import *  # noqa: F401,F403
from .solvers import *  # noqa: F401,F403

__version__ = "0.1.0"
