"""Run the doctests embedded in module/class docstrings, and check exports.

Executable examples in docstrings rot silently unless exercised; this
module collects them across the package so CI keeps them honest.  The
export checks keep each subpackage's ``__all__`` importable and free of
names the library no longer has.
"""

import doctest
import importlib

import pytest

MODULES_WITH_DOCTESTS = [
    "repro",
    "repro.core.mn",
    "repro.designs.cache",
    "repro.designs.compiled",
    "repro.designs.protocol",
    "repro.designs.registry",
    "repro.designs.store",
    "repro.faults.plan",
    "repro.serve.breaker",
    "repro.serve.protocol",
    "repro.engine.backend",
    "repro.noise.models",
    "repro.rng.mt19937",
    "repro.parallel.partition",
    "repro.parallel.sort",
]


@pytest.mark.parametrize("module_name", MODULES_WITH_DOCTESTS)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module_name} lists doctests but none were found"
    assert results.failed == 0, f"{module_name}: {results.failed} doctest failure(s)"


def test_doctest_inventory_is_complete():
    """Every module whose docstring contains '>>>' is in the list above."""
    import pkgutil

    import repro

    missing = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        try:
            mod = importlib.import_module(info.name)
        except Exception:  # pragma: no cover - optional deps
            continue
        finder = doctest.DocTestFinder(exclude_empty=True)
        has_examples = any(t.examples for t in finder.find(mod, mod.__name__))
        if has_examples and info.name not in MODULES_WITH_DOCTESTS:
            missing.append(info.name)
    assert not missing, f"modules with unchecked doctests: {missing}"


@pytest.mark.parametrize("package", ["repro", "repro.designs", "repro.parallel"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize(
    "package, name",
    [
        ("repro.designs", "SharedCompiledDesign"),
        ("repro.designs", "CompiledDesignDescriptor"),
        ("repro.designs", "attach_compiled"),
        ("repro.parallel", "CSRMatrix"),
        ("repro", "CSRMatrix"),
    ],
)
def test_deleted_names_are_not_exported(package, name):
    module = importlib.import_module(package)
    assert name not in getattr(module, "__all__", ())
    assert not hasattr(module, name)


@pytest.mark.parametrize("module_name", ["repro.designs.sharing", "repro.parallel.matvec"])
def test_deleted_modules_are_gone(module_name):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module_name)
