"""Every name a module exports in __all__ must resolve.

Tools that walk __all__ (for example a tracer wrapping each public
function) call getattr on every entry, so a stale export breaks them.
"""
import importlib

import pytest

MODULES = (
    "gossipgp",
    "gossipgp.features",
    "gossipgp.info_filter",
    "gossipgp.robust",
    "gossipgp.dynamics",
    "gossipgp.consensus",
    "gossipgp.ensemble",
    "gossipgp.harness",
    "gossipgp.harness.streams",
    "gossipgp.harness.metrics",
    "gossipgp.harness.config",
    "gossipgp.harness.runner",
    "gossipgp.harness.cli",
)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"
    assert len(set(module.__all__)) == len(module.__all__), f"{name}.__all__ has duplicates"
