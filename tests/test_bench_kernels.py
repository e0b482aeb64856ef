"""The kernel timing script imports against the current package."""

import importlib.util
import os
import sys

from affgroth import packed
from affgroth.cartan import from_type
from affgroth.characters import weyl_kac_character
from affgroth.weights import parse_weight

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "benchmarks", "bench_kernels.py")


def _load(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_kernels_imports(monkeypatch):
    # loading the module runs its imports and module-level names, not main(),
    # so a private name it reaches into cannot vanish unnoticed
    assert callable(_load(monkeypatch).main)


def test_weyl_kac_numerator_over_denominator(monkeypatch):
    # the over_denominator row calls Packing.orbit itself, so a change of
    # its signature must show here and not only when main() runs
    module = _load(monkeypatch)
    cd = from_type("C2~")
    mu = parse_weight("L0 + L2", cd.rank)
    pk, num, floor = module.weyl_kac_numerator(cd, mu, 2)
    got = pk.weights(mu.l, packed.over_denominator(pk, num, floor))
    assert got == weyl_kac_character(cd, mu, 2).coeffs
