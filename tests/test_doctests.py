"""Run the doctests embedded in module/class docstrings, and check exports.

Executable examples in docstrings rot silently unless exercised; this
module collects them across the package so CI keeps them honest.  The
export checks keep each subpackage's ``__all__`` importable and free of
names the library no longer has.
"""

import doctest
import importlib

import pytest

from repro.core.mn import MNDecoder
from repro.designs import DesignKey, DesignStore
from repro.engine import run_trial_grid
from repro.engine.backend import SerialBackend, SharedMemBackend
from repro.parallel.pool import WorkerPool
from repro.serve import Coalescer, DecoderPool, ServeConfig

MODULES_WITH_DOCTESTS = [
    "repro",
    "repro.core.mn",
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
        ("repro.designs", "DesignCache"),
        ("repro.designs", "CacheStats"),
        ("repro.designs", "fetch_compiled"),
        ("repro.designs", "resolve_design_cache"),
        ("repro", "DesignCache"),
        ("repro.parallel", "CSRMatrix"),
        ("repro", "CSRMatrix"),
        ("repro.kernels.threads", "BLAS_THREADS_ENV"),
        ("repro.kernels.threads", "PIN_WORKERS_ENV"),
        ("repro.kernels.threads", "resolve_blas_threads"),
        ("repro.kernels.threads", "blas_thread_limit"),
        ("repro.kernels.threads", "worker_core_slices"),
        ("repro.kernels.threads", "pin_workers_default"),
        ("repro.kernels.threads", "blas_vendor"),
    ],
)
def test_deleted_names_are_not_exported(package, name):
    module = importlib.import_module(package)
    assert name not in getattr(module, "__all__", ())
    assert not hasattr(module, name)


@pytest.mark.parametrize(
    "make",
    [
        lambda root: SerialBackend(blas_threads=1),
        lambda root: SharedMemBackend(2, blas_threads=1),
        lambda root: SharedMemBackend(2, pin_workers=True),
        lambda root: WorkerPool(2, pin_cores=[(0,)]),
        lambda root: DesignStore(root, keep_blocks=False),
        lambda root: MNDecoder().compile(DesignKey.for_stream(64, 12, root_seed=0), cache=None),
        lambda root: run_trial_grid(64, [12], k=2, trials=1, cache=None),
        lambda root: ServeConfig(batch_window_ms=1.0),
        lambda root: Coalescer(DecoderPool({"mn": MNDecoder()}), window_s=0.0),
        lambda root: MNDecoder().compile(DesignKey.for_stream(64, 12, root_seed=0), store=DesignStore(root)),
        lambda root: DecoderPool(MNDecoder()),
    ],
    ids=[
        "SerialBackend-blas_threads",
        "SharedMemBackend-blas_threads",
        "SharedMemBackend-pin_workers",
        "WorkerPool-pin_cores",
        "DesignStore-keep_blocks",
        "MNDecoder.compile-cache",
        "run_trial_grid-cache",
        "ServeConfig-batch_window_ms",
        "Coalescer-window_s",
        "MNDecoder.compile-store",
        "DecoderPool-bare_decoder",
    ],
)
def test_deleted_arguments_are_rejected(make, tmp_path):
    with pytest.raises(TypeError):
        make(tmp_path)


@pytest.mark.parametrize("module_name", ["repro.designs.sharing", "repro.parallel.matvec", "repro.designs.cache"])
def test_deleted_modules_are_gone(module_name):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module_name)
