"""Timing of the q-polynomial kernels (pmul, pgcd, pdivexact), best of 5.

Usage: python3 benchmarks/bench_kernels.py
"""

import os
import random
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
sys.path.insert(0, SRC)

from affgroth import qpoly  # noqa: E402


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
            g = qpoly.pmul(g, (1,) + (0,) * (k - 1) + (-1,))
        a = qpoly.pmul(g, (1,) + tuple(rng.randint(-3, 3) for _ in range(4)) + (1,))
        b = qpoly.pmul(g, (1,) + tuple(rng.randint(-3, 3) for _ in range(4)) + (1,))
        out.append((a, b))
    return out


def bench(fn, cases, repeat=5):
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
    div_cases = [(qpoly.pmul(a, b), b) for a, b in make_cases(rng, 200, 20)]
    for kernel, cases in (("pmul", mul_cases), ("pgcd", gcd_cases),
                          ("pdivexact", div_cases)):
        t = bench(getattr(qpoly, kernel), cases)
        print("%-10s %8.1f us/call" % (kernel, 1e6 * t / len(cases)))


if __name__ == "__main__":
    main()
