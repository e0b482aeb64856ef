"""Timing of the q-polynomial kernels, best of 5: pmul, pdivexact, and the
two gcd routines (pgcd, the PRS; pgcd_cofactors, the heuristic gcd with
both quotients) on the same products of (1 - q^k) factors.  Then the zero
test of a sum of q-fractions two ways on the same parts over (1 - q^k)
products: coefq.sum_is_zero (exact evaluation) and the canonical CoefQ sum.
Last the character product on packed keys: denominator_inverse built cold
(no packing kept from an earlier call) for A2~ to depth 10 and C2~ to depth
12, and one over_denominator call, the Weyl-Kac numerator of L0 + L2 on C2~
over the inverse denominator to depth 12, already built.

Usage: python3 benchmarks/bench_kernels.py
"""

import os
import random
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
sys.path.insert(0, SRC)

from affgroth import packed, qpoly  # noqa: E402
from affgroth.cartan import from_type  # noqa: E402
from affgroth.characters import (_weyl_kac_numerator,  # noqa: E402
                                 denominator_inverse)
from affgroth.coefq import ZERO, CoefQ, sum_is_zero  # noqa: E402
from affgroth.weights import parse_weight  # noqa: E402


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


def fraction_sums(rng, count):
    # the sums verify's vanishing probes see: two or three parts per key over
    # distinct (1 - q^k) products; half of them cancel
    out = []
    for _ in range(count):
        parts = []
        for _ in range(rng.randint(2, 3)):
            den = (1,)
            for _ in range(rng.randint(1, 3)):
                k = rng.randint(1, 4)
                den = qpoly.pmul(den, (1,) + (0,) * (k - 1) + (-1,))
            num = tuple(rng.randint(-3, 3) for _ in range(3)) + (1,)
            parts.append((rng.randint(-2, 2), num, den))
        if rng.random() < 0.5:
            # minus the first two parts, rewritten over the product of
            # their denominators: cancels only as a polynomial identity
            (s1, n1, d1), (s2, n2, d2) = parts[:2]
            s = min(s1, s2)
            num = qpoly.padd((0,) * (s1 - s) + qpoly.pmul(n1, d2),
                             (0,) * (s2 - s) + qpoly.pmul(n2, d1))
            parts = [(s1, n1, d1), (s, qpoly.pneg(num), qpoly.pmul(d1, d2)),
                     (s2, n2, d2)]
        out.append(parts)
    return out


def canonical_is_zero(parts):
    total = ZERO
    for shift, num, den in parts:
        total = total + CoefQ.make(num, shift, den)
    return total.is_zero()


def cold_denominator_inverse(cd, depth):
    packed._PACKINGS.clear()
    return denominator_inverse(cd, depth)


def bench(fn, cases, repeat=5):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        for args in cases:
            fn(*args)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def main():
    rng = random.Random(20240801)
    mul_cases = make_cases(rng, 400, 30)
    gcd_cases = cyclotomic_products(rng, 60)
    div_cases = [(qpoly.pmul(a, b), b) for a, b in make_cases(rng, 200, 20)]
    for kernel, cases in (("pmul", mul_cases), ("pgcd", gcd_cases),
                          ("pgcd_cofactors", gcd_cases),
                          ("pdivexact", div_cases)):
        t = bench(getattr(qpoly, kernel), cases)
        print("%-14s %8.1f us/call" % (kernel, 1e6 * t / len(cases)))
    sums = fraction_sums(rng, 300)
    if [sum_is_zero(p) for p in sums] != [canonical_is_zero(p) for p in sums]:
        raise SystemExit("sum_is_zero disagrees with the canonical sum")
    for name, fn in (("sum_is_zero", sum_is_zero),
                     ("CoefQ sum", canonical_is_zero)):
        t = bench(fn, [(p,) for p in sums])
        print("%-14s %8.1f us/call" % (name, 1e6 * t / len(sums)))
    for type_string, depth in (("A2~", 10), ("C2~", 12)):
        t = bench(cold_denominator_inverse, [(from_type(type_string), depth)])
        print("%-14s %8.2f ms   denominator_inverse to depth %d, cold"
              % (type_string, 1e3 * t, depth))
    cd = from_type("C2~")
    args = _weyl_kac_numerator(cd, parse_weight("L0 + L2", cd.rank), 12)
    packed.packing(cd, 12).denominator_inverse(12)
    t = bench(packed.over_denominator, [args])
    print("%-14s %8.2f ms   over_denominator, L0 + L2 to depth 12"
          % ("C2~", 1e3 * t))


if __name__ == "__main__":
    main()
