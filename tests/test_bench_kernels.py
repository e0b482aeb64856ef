"""The kernel timing script imports against the current package."""

import importlib.util
import os
import sys

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "benchmarks", "bench_kernels.py")


def test_bench_kernels_imports(monkeypatch):
    # loading the module runs its imports and module-level names, not main(),
    # so a private name it reaches into cannot vanish unnoticed
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
