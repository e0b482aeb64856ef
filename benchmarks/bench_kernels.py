"""Timing comparison of the pure and compiled polynomial kernels.

Runs the kernel microbenchmarks against both implementations in-process,
then (when both are importable) times an end-to-end table build in a
subprocess per backend.  Usage: python3 benchmarks/bench_kernels.py
"""

import os
import random
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
sys.path.insert(0, SRC)

from affgroth import _qpoly_py as pure  # noqa: E402

try:
    from affgroth import _qpoly_c as compiled
except ImportError:
    compiled = None


def make_cases(rng, count, deg):
    out = []
    for _ in range(count):
        a = tuple(rng.randint(-9, 9) for _ in range(deg)) + (1,)
        b = tuple(rng.randint(-9, 9) for _ in range(deg)) + (1,)
        out.append((a, b))
    return out


def cyclotomic_products(rng, count):
    # the shapes pgcd actually sees: products of (1 - q^k) factors
    out = []
    for _ in range(count):
        g = (1,)
        for _ in range(3):
            k = rng.randint(1, 6)
            g = pure.pmul(g, (1,) + (0,) * (k - 1) + (-1,))
        a = pure.pmul(g, (1,) + tuple(rng.randint(-3, 3) for _ in range(4)) + (1,))
        b = pure.pmul(g, (1,) + tuple(rng.randint(-3, 3) for _ in range(4)) + (1,))
        out.append((a, b))
    return out


def bench(label, fn, cases, repeat=5):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        for a, b in cases:
            fn(a, b)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def main():
    rng = random.Random(20240801)
    mul_cases = make_cases(rng, 400, 30)
    gcd_cases = cyclotomic_products(rng, 60)
    div_cases = [(pure.pmul(a, b), b) for a, b in make_cases(rng, 200, 20)]

    backends = [("pure", pure)]
    if compiled is not None:
        backends.append(("compiled", compiled))
    else:
        print("compiled backend not built; showing pure only")

    rows = []
    for kernel, cases in (("pmul", mul_cases), ("pgcd", gcd_cases),
                          ("pdivexact", div_cases)):
        times = {}
        for name, mod in backends:
            times[name] = bench(name, getattr(mod, kernel), cases)
        line = "%-10s" % kernel
        for name, _ in backends:
            line += "  %s %8.1f us/call" % (name, 1e6 * times[name] / len(cases))
        if len(times) == 2:
            line += "  speedup %.2fx" % (times["pure"] / times["compiled"])
        rows.append(line)
    print("\n".join(rows))

    if compiled is None:
        return
    print("\nend to end: table --type A2~ --max-length 4")
    for name, env_val in (("pure", "1"), ("compiled", "")):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p)
        if env_val:
            env["AFFGROTH_PURE"] = env_val
        else:
            env.pop("AFFGROTH_PURE", None)
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "affgroth.cli", "table", "--type", "A2~",
             "--max-length", "4"],
            env=env, check=True, stdout=subprocess.DEVNULL)
        print("  %-9s %6.2f s" % (name, time.perf_counter() - t0))


if __name__ == "__main__":
    main()
