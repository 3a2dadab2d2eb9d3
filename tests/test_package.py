"""The package namespace."""

import types

import tsdyn


def test_all_lists_resolvable_names_and_no_modules():
    assert len(set(tsdyn.__all__)) == len(tsdyn.__all__)
    for name in tsdyn.__all__:
        assert not isinstance(getattr(tsdyn, name), types.ModuleType), name

