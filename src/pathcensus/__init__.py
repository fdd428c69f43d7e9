"""Exact per-type counts of oriented Hamiltonian paths in transitive
tournaments, with a subset-DP vertex-order census and scan/ranking tools."""

# Each module's __all__ is the one list of its public names; errors has no
# __all__, so its star import exports every public name it defines, which
# are exactly its exception classes.
from .analysis import *
from .engine import *
from .errors import *
from .oracle import *
from .types import *

__version__ = "0.1.0"
