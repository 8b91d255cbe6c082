"""The package surface: every submodule's public names, each once."""

import pytest

import fixedb
from fixedb import (
    bounds,
    discrete,
    distances,
    errors,
    harness,
    oracle,
    orderstats,
    procedures,
    resampling,
)

MODULES = (bounds, discrete, distances, errors, harness, oracle, orderstats, procedures, resampling)


def test_all_has_no_duplicates():
    assert len(fixedb.__all__) == len(set(fixedb.__all__))


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_package_names_are_the_submodule_objects(module):
    # catches a star import shadowing a name another submodule exports
    for name in module.__all__:
        assert name in fixedb.__all__
        assert getattr(fixedb, name) is getattr(module, name), name
