import dataclasses
import inspect

import museb
from museb import compose, construct, errors, familyfile, matspace, search, trio, verify

SUBMODULES = (compose, construct, errors, familyfile, matspace, search, trio, verify)


def test_package_exports_exactly_the_submodule_lists():
    union = [name for mod in SUBMODULES for name in mod.__all__]
    assert len(union) == len(set(union))
    assert len(museb.__all__) == len(set(museb.__all__))
    assert set(museb.__all__) == set(union)
    # the public surface is counted; growing it shows in this line's diff
    assert len(museb.__all__) == 57
    for mod in SUBMODULES:
        for name in mod.__all__:
            assert getattr(museb, name) is getattr(mod, name)


def test_test_only_shims_are_gone():
    for name in ("StateVector", "state_to_matrix", "matrix_to_state", "kron",
                 "IntFactorization", "has_real_2x3", "RecipeSpec",
                 "family_set_to_dict", "family_set_from_dict", "matrix_to_list"):
        assert name not in museb.__all__
        assert not hasattr(museb, name)
    assert not hasattr(compose, "RecipeSpec")
    # museb-1 family sets are read and written only through load_family_set and save_family_set
    assert not {"family_set_to_dict", "family_set_from_dict", "matrix_to_list"} & set(vars(familyfile))
    # len(fs) counts the families; the descent's step scale is a module constant
    assert not hasattr(museb.FamilySet, "witness_count")
    assert "step_scale" not in {f.name for f in dataclasses.fields(museb.SearchConfig)}
    # the penalty scores against the one frozen pair eq16 and eq17, and no other
    assert list(inspect.signature(museb.unbiasedness_penalty).parameters) == ["w"]
