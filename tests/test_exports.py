"""Every exported name resolves: a deletion cannot leave a dangling export.

``from repro.x import *`` and the package re-exports promise the names in
each module's ``__all__``; a name whose definition was deleted would fail
only at a user's import.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    ["repro"]
    + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")
    ]
)


def test_the_walk_sees_the_whole_package():
    assert len(MODULES) > 50
    assert {"repro.prob", "repro.query.rewrite", "repro.service.core"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [symbol for symbol in exported if not hasattr(module, symbol)]
    assert missing == []
