"""Prefixes of minimal transposition factorizations of the full cycle.

A library for the length-k prefixes of shortest factorizations of the
n-cycle (1 2 ... n) into transpositions: exhaustive enumeration with a
closed-form count, a symmetric-group action on chains by conditional braid
moves, a circular parking process, and the surjection from (sequence, set)
pairs onto prefixes whose fibres are rotation orbits of size n.
"""

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

__all__ = [
    "Permutation",
    "Transposition",
    "multiply",
    "precedes",
    "below_long_cycle_geometric",
    "Chain",
    "ValidityReport",
    "CapExceeded",
    "DEFAULT_CAP",
    "intermediate",
    "validate",
    "iter_sigma",
    "enumerate_sigma",
    "involute",
    "support",
    "check_sorted_criterion",
    "count_formula",
    "projection",
    "braid_step",
    "apply_generator",
    "apply_permutation",
    "sort_chain",
    "ParkingInput",
    "ParkingOutcome",
    "CarTrace",
    "park",
    "park_trace",
    "residue",
    "shift_value",
    "shift_pair",
    "normalize",
    "PairAB",
    "gamma",
    "section",
    "fiber",
    "verify",
    "VerifyReport",
    "VerifyRow",
]
