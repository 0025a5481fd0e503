"""The public value classes survive ``pickle``, ``copy`` and ``deepcopy``.

A change to a class's representation (slots, a packed form, properties in
place of fields) must keep each copy equal to, hashed like and printed
like its original.
"""

import copy
import pickle

import pytest

from minfact import Chain, Permutation, Transposition, section

WORKED = Chain.parse("(3 8)(5 7)(1 8)(3 7)", 8)
VALUES = [
    Transposition(3, 8),
    Permutation((2, 3, 1)),
    Permutation(()),
    WORKED,
    Chain(1, ()),
    section(WORKED),
    section(Chain(1, ())),
]

COPIERS = [
    *(
        pytest.param(lambda v, p=p: pickle.loads(pickle.dumps(v, p)), id=f"pickle{p}")
        for p in range(pickle.HIGHEST_PROTOCOL + 1)
    ),
    pytest.param(copy.copy, id="copy"),
    pytest.param(copy.deepcopy, id="deepcopy"),
]


@pytest.mark.parametrize("copier", COPIERS)
@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_copy_keeps_equality_hash_and_repr(value, copier):
    clone = copier(value)
    assert type(clone) is type(value)
    assert clone == value
    assert hash(clone) == hash(value)
    assert repr(clone) == repr(value)
