"""Closed-form count of the k-prefixes, in exact integer arithmetic."""

from __future__ import annotations

from math import comb

__all__ = ["count_formula"]


def count_formula(n: int, k: int) -> int:
    """Number of length-k prefixes of minimal factorizations of the n-cycle.

    Evaluates n**(k-1) * C(n, k+1) exactly; k = 0 counts the empty chain
    alone and k >= n gives 0.

    >>> [count_formula(4, k) for k in range(5)]
    [1, 6, 16, 16, 0]
    >>> count_formula(8, 4)
    28672
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k >= n:
        return 0
    if k == 0:
        return 1
    return n ** (k - 1) * comb(n, k + 1)
