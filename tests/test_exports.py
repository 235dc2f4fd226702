"""Every name a module exports in __all__ must resolve, and each package
exports exactly its modules' __all__.

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


PACKAGES = {
    "gossipgp": ("features", "info_filter", "robust", "dynamics", "consensus", "ensemble"),
    "gossipgp.harness": ("streams", "metrics", "config", "runner"),
}


@pytest.mark.parametrize("name", PACKAGES)
def test_package_exports_its_modules_all(name):
    # Each public name is listed once, in its module's __all__; the package
    # re-exports the modules' lists, so a name the modules share would let
    # one silently hide the other.
    package = importlib.import_module(name)
    modules = [importlib.import_module(f"{name}.{m}") for m in PACKAGES[name]]
    joined = [attr for module in modules for attr in module.__all__]
    assert len(set(joined)) == len(joined), f"{name}'s modules export a name twice"
    assert [a for a in package.__all__ if a != "__version__"] == joined
    for module in modules:
        for attr in module.__all__:
            assert getattr(package, attr) is getattr(module, attr), f"{name}.{attr}"
