import minfact
from minfact import action, chains, counting, parking, perms, surjection

MODULES = (perms, chains, counting, action, parking, surjection)


def test_public_names_are_pinned():
    assert sorted(minfact.__all__) == [
        "CapExceeded", "CarTrace", "Chain", "DEFAULT_CAP", "PairAB", "ParkingInput",
        "ParkingOutcome", "Permutation", "Transposition", "ValidityReport", "VerifyReport",
        "VerifyRow", "apply_generator", "apply_permutation", "below_long_cycle_geometric",
        "braid_step", "check_sorted_criterion", "count_formula", "enumerate_sigma", "fiber",
        "gamma", "intermediate", "involute", "iter_sigma", "multiply", "normalize", "park",
        "park_trace", "precedes", "projection", "residue", "section", "shift_pair",
        "shift_value", "sort_chain", "support", "validate", "verify",
    ]


def test_each_name_is_its_modules_object_once():
    assert len(set(minfact.__all__)) == len(minfact.__all__)
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(minfact, name) is obj, (module.__name__, name)
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name
    assert minfact.__all__ == [name for module in MODULES for name in module.__all__]
