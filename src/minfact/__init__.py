"""Prefixes of minimal transposition factorizations of the full cycle.

A library for the length-k prefixes of shortest factorizations of the
n-cycle (1 2 ... n) into transpositions: exhaustive enumeration with a
closed-form count, a symmetric-group action on chains by conditional braid
moves, a circular parking process, and the surjection from (sequence, set)
pairs onto prefixes whose fibres are rotation orbits of size n.
"""

from . import action, chains, counting, parking, perms, surjection
from .perms import *
from .chains import *
from .counting import *
from .action import *
from .parking import *
from .surjection import *

__version__ = "0.1.0"

# the public names of every module, each star-imported above
__all__ = [
    *perms.__all__,
    *chains.__all__,
    *counting.__all__,
    *action.__all__,
    *parking.__all__,
    *surjection.__all__,
]
