"""The package namespace: every submodule export, once, unshadowed."""
import importlib
import pkgutil

import aoi_bandit


def _exporting_submodules():
    for info in pkgutil.iter_modules(aoi_bandit.__path__):
        module = importlib.import_module(f"aoi_bandit.{info.name}")
        if hasattr(module, "__all__"):
            yield module


def test_exports_are_unique():
    assert len(aoi_bandit.__all__) == len(set(aoi_bandit.__all__))


def test_exports_are_the_submodule_exports():
    modules = list(_exporting_submodules())
    assert modules
    names = {name for module in modules for name in module.__all__}
    assert set(aoi_bandit.__all__) == names | {"__version__"}
    for module in modules:
        for name in module.__all__:
            # a name exported by two submodules would shadow one of them
            assert getattr(aoi_bandit, name) is getattr(module, name), (module.__name__, name)
