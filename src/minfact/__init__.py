"""Prefixes of minimal transposition factorizations of the full cycle.

A library for the length-k prefixes of shortest factorizations of the
n-cycle (1 2 ... n) into transpositions: exhaustive enumeration with a
closed-form count, a symmetric-group action on chains by conditional braid
moves, a circular parking process, and the surjection from (sequence, set)
pairs onto prefixes whose fibres are rotation orbits of size n.
"""

from . import action, chains, counting, parking, perms, surjection
from .perms import (
    Permutation,
    Transposition,
    below_long_cycle_geometric,
    multiply,
    precedes,
)
from .chains import (
    CapExceeded,
    Chain,
    DEFAULT_CAP,
    ValidityReport,
    check_sorted_criterion,
    enumerate_sigma,
    intermediate,
    involute,
    iter_sigma,
    support,
    validate,
)
from .counting import count_formula
from .action import (
    apply_generator,
    apply_permutation,
    braid_step,
    projection,
    sort_chain,
)
from .parking import (
    CarTrace,
    ParkingInput,
    ParkingOutcome,
    normalize,
    park,
    park_trace,
    residue,
    shift_pair,
    shift_value,
)
from .surjection import (
    PairAB,
    VerifyReport,
    VerifyRow,
    fiber,
    gamma,
    section,
    verify,
)

__version__ = "0.1.0"

# the public names of every module, each imported above
__all__ = [
    *perms.__all__,
    *chains.__all__,
    *counting.__all__,
    *action.__all__,
    *parking.__all__,
    *surjection.__all__,
]
