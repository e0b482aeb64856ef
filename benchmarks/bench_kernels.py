"""Timing of the q-polynomial kernels, best of 5: pmul, pdivexact, and the
reference gcd pgcd (the PRS, which no module of the package calls) on
products of (1 - q^k) factors.  Then verify's
vanishing probes two ways on the same entry, G_w for w = s_1 s_2 s_0 s_1 in
A2~ and every x of length <= 5 with w not <= x: one probes.nonvanishing_probes
call (one evaluation point per entry, one Weyl letter per probe on packed
pairing keys, read off the entry's own keys, in the narrowest key layout
that holds them) and the canonical j_map(x, g).is_zero() per probe, each
with the bit width of one key digit; then the one call again with the
probes to length 7.  Then the ring check at load: an A1~ cache whose one
denominator is the monic palindrome 1 + 3q^k + q^2k outside R, of degree 64, 256, 1024 and 10,000 (the
exponent ceiling), refused by GrothTable.from_json_obj, and CoefQ.make's
factorization of the distinct denominators (all in R) of A1~ to length
12, A2~ and C2~ to 5 and A3~ to 4, and of the one denominator
(1 - q^997)(1 - q^1009)(1 - q^1013), each with CoefQ's caches cleared.
Then the coefficient
sums that one A3~ to length 4 and one A1~ to length 12 build run,
captured once and replayed with CoefQ's caches cleared: the operand
pairs of every CoefQ +, and the term lists that kring's key sums and
cocycle's check (v_i(mu) + q^-n B(sigma)) hand to coefq.q_shifted_sum,
each counted by its number of terms and of distinct denominators.  Then
the character product on packed keys: denominator_inverse built cold (no
packing kept from an earlier
call; the inverse of the alternating orbit of rho, orbit included) for A2~
to depths 10 and 20 and C2~ to depths 12 and 20, and one over_denominator
call, the Weyl-Kac numerator of L0 + L2 on C2~ (its alternating orbit from
packed.Packing.orbit) over the inverse denominator to depth 12, already
built.  Last the table builds A3~ to length 4 and A1~
to length 12, each from fresh Cartan data in layer order and with CoefQ's
caches cleared, as in a new process, with how
many entries above e were solved and how many were transported from an
orbit-mate along a diagram automorphism, the digit widths of the key
layouts the build made, and the hits and misses of CoefQ's
cancellation, lcm and factorization caches in one build.  Then
GrothTable.save of those two tables, with the bytes written, and
GrothTable.load of each saved file with CoefQ's caches cleared, as in a
new process, with the file's terms and its distinct weights and
coefficients: a load decodes each distinct value once.  Then the kring
operators over the entries of A3~ to length 4: D_i of every entry at
every label, j_w(G_w), psi, relabel along each diagram automorphism but
the identity (warm: the first of five runs fills the relabel memo) and
the products factor * G_{w s_i} of every descent family.  Then a full
verify of every A3~ element to length 3 on a table built to length 4, the
way `affgroth verify` runs on a cache one length deeper, with how many
elements ran the checks; the others pass by an orbit-mate's verdict.
Last the deep regime, where CoefQ's coefficient work dominates: A1~ to
length 24, built as above, best of 3, with its entries, its terms and the
hits and misses of each cache in one build, and its save with no
denominator polynomial built yet, best of 3.

Usage: python3 benchmarks/bench_kernels.py
"""

import json
import os
import random
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
sys.path.insert(0, SRC)

from affgroth import (  # noqa: E402
    cocycle, coefq, groth, keys as keys_mod, kring, packed, probes, qpoly,
    weyl)
from affgroth.cartan import from_type  # noqa: E402
from affgroth.characters import denominator_inverse  # noqa: E402
from affgroth.coefq import CoefQ  # noqa: E402
from affgroth.errors import CacheMismatch  # noqa: E402
from affgroth.groth import GrothTable, grothendieck  # noqa: E402
from affgroth.kring import j_map  # noqa: E402
from affgroth.probes import nonvanishing_probes  # noqa: E402
from affgroth.weights import parse_weight  # noqa: E402


def make_cases(rng, count, deg):
    out = []
    for _ in range(count):
        a = tuple(rng.randint(-9, 9) for _ in range(deg)) + (1,)
        b = tuple(rng.randint(-9, 9) for _ in range(deg)) + (1,)
        out.append((a, b))
    return out


def cyclotomic_products(rng, count):
    # the shapes the tests' reference gcd meets: products of (1 - q^k)
    # factors
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


def probe_case(probe_length=5):
    """(g, xs): G_w for w = s_1 s_2 s_0 s_1 in A2~ and verify's probes of it,
    the x of length <= probe_length with w not <= x, in layer order."""
    cd = from_type("A2~")
    word = (1, 2, 0, 1)
    w = weyl.canonicalize(cd, word)
    xs = [x for layer in weyl.enumerate_up_to(cd, probe_length)
          for x in layer if not weyl.bruhat_leq(w, x)]
    return grothendieck(cd, word), xs


def canonical_probes(g, xs):
    return [x for x in xs if not j_map(x, g).is_zero()]


def digit_bits(g, xs):
    """The width in bits of one digit of the packed keys that
    nonvanishing_probes(g, xs) moves: that of the key layout it picks."""
    layout, _, _ = probes._pairing_keys(g, max(x.length for x in xs))
    return layout.mask.bit_length()


def poisoned_cache(degree):
    """The JSON object of an A1~ table to length 1 whose constant term of
    G_{s_1} has the denominator 1 + 3q^(degree/2) + q^degree: monic and
    palindromic, so only the cyclotomic division at load decides that it
    lies outside R."""
    cd = from_type("A1~")
    table = GrothTable(cd)
    table.compute(weyl.canonicalize(cd, (1,)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.json")
        table.save(path)
        with open(path) as fh:
            obj = json.load(fh)
    entry = next(e for e in obj["entries"] if e["word"] == [1])
    term = next(t for t in entry["terms"] if not any(t["weight"]["l"]))
    term["den_coeffs"] = [[0, 1], [degree // 2, 3], [degree, 1]]
    return cd, obj


def refused_load(cd, obj):
    clear_caches()
    try:
        GrothTable.from_json_obj(obj, cd=cd)
    except CacheMismatch:
        return
    raise SystemExit("a denominator outside R loaded")


def ring_dens(tables):
    """The distinct denominators of the tables' entries."""
    return sorted({c.den for table in tables for g in table.entries.values()
                   for c in g.terms.values()})


def factor_dens(dens):
    clear_caches()
    for d in dens:
        CoefQ.make((1,), den=d)


def captured_sums(type_string, max_length):
    """(pairs, sums) that one table_build runs: the operand pairs of every
    CoefQ +, and for kring and cocycle the (c, n) term lists each hands to
    q_shifted_sum directly, captured by wrapping both."""
    pairs, sums = [], {kring: [], cocycle: []}
    add, q_shifted_sum = CoefQ.__add__, coefq.q_shifted_sum

    def wrapped_add(a, b):
        pairs.append((a, b))
        return add(a, b)

    def wrapped(module):
        def wrapped_sum(terms):
            terms = list(terms)
            sums[module].append(terms)
            return q_shifted_sum(terms)
        return wrapped_sum

    CoefQ.__add__ = wrapped_add
    for module in sums:
        module.q_shifted_sum = wrapped(module)
    try:
        table_build(type_string, max_length)
    finally:
        CoefQ.__add__ = add
        for module in sums:
            module.q_shifted_sum = q_shifted_sum
    return pairs, sums


def replay_adds(pairs):
    clear_caches()
    for a, b in pairs:
        a + b


def replay_sums(sums):
    clear_caches()
    for terms in sums:
        coefq.q_shifted_sum(terms)


def shape_counts(term_lists):
    """"terms k: count" and "dens k: count" over the term lists, the
    number of terms and of distinct denominators among the nonzero ones."""
    terms, dens = {}, {}
    for ts in term_lists:
        terms[len(ts)] = terms.get(len(ts), 0) + 1
        k = len({c.cyc for c in ts if c.num})
        dens[k] = dens.get(k, 0) + 1
    return "terms %s; dens %s" % tuple(
        " ".join("%d:%d" % kv for kv in sorted(d.items()))
        for d in (terms, dens))


def cold_denominator_inverse(cd, depth):
    packed._PACKINGS.clear()
    return denominator_inverse(cd, depth)


def weyl_kac_numerator(cd, mu, depth):
    """over_denominator's arguments (packing, packed numerator, floor) for
    the Weyl-Kac character of the dominant mu to the given depth: the
    alternating orbit of mu + rho, placed with its top key at mu."""
    pk = packed.packing(cd, max(map(abs, mu.m)) + depth)
    keys, signs = pk.orbit(mu + cd.rho(), depth)
    top = pk.pack(mu.m)
    return (pk, {mu.l: {top + k: s for k, s in zip(keys, signs)}},
            sum(mu.m) - depth)


# CoefQ's caches whose hits and misses are reported; clear_caches also
# empties coefq._den_poly.  Key layouts live on the Cartan data, so a
# build from fresh data makes its own, as a new process does
CACHES = (("cancel", coefq._reduced), ("lcm", coefq._den_lcm),
          ("factor", coefq.cyclotomic_exponents))


def clear_caches():
    for _, cache in CACHES:
        cache.cache_clear()
    coefq._den_poly.cache_clear()


def table_build(type_string, max_length):
    clear_caches()
    cd = from_type(type_string)
    table = GrothTable(cd)
    for layer in weyl.enumerate_up_to(cd, max_length):
        for w in layer:
            table.compute(w)
    return table


def build_counts(type_string, max_length):
    """(solved, transported, widths) of one table build: the entries above e
    solved and transported, and the digit widths in bits of the packed keys
    it made layouts for (keys.key_layout), narrowest first."""
    solves, widths = 0, set()
    solve, layout = groth.solve_coboundary, keys_mod.key_layout

    def counted(*args):
        nonlocal solves
        solves += 1
        return solve(*args)

    def recorded(cd, bits):
        got = layout(cd, bits)
        widths.add(got.mask.bit_length())
        return got

    groth.solve_coboundary, keys_mod.key_layout = counted, recorded
    try:
        table = table_build(type_string, max_length)
    finally:
        groth.solve_coboundary, keys_mod.key_layout = solve, layout
    return solves, len(table.entries) - 1 - solves, sorted(widths)


def kring_cases(table):
    """(name, operator, argument tuples) for the kring operators over the
    entries of a table: D_i of every entry at every label, j_w(G_w), psi of
    every entry, relabel of every entry along every diagram automorphism
    but the identity (after the first of five runs, from the relabel memo),
    and every product factor * G_{w s_i} of the descent families."""
    cd = table.cd
    entries = table.entries
    products = []
    for w in entries:
        rho_J = cd.rho_J(weyl.right_descents(w))
        for i in weyl.right_descents(w):
            factor = kring.monomial(cd, rho_J) * (
                kring.k_one(cd) - kring.monomial(cd, -cd.alpha(i)))
            products.append((factor, entries[weyl.mul_gen(w, i)]))
    return (("demazure", kring.demazure,
             [(i, g) for g in entries.values() for i in cd.labels]),
            ("j_map", kring.j_map, list(entries.items())),
            ("psi", kring.psi, [(g,) for g in entries.values()]),
            ("relabel", kring.relabel,
             [(g, p) for g in entries.values()
              for p in cd.automorphisms()[1:]]),
            ("products", kring.KElement.__mul__, products))


def cache_counts():
    """"name hits/misses" of each cache of CACHES since it was last
    cleared."""
    return ", ".join("%s %d/%d" % (name, cache.cache_info().hits,
                                   cache.cache_info().misses)
                     for name, cache in CACHES)


def cold_load(path, cd):
    clear_caches()
    return GrothTable.load(path, cd=cd)


def distinct_values(path):
    """(terms, distinct weights, distinct coefficients) of a saved table."""
    with open(path) as fh:
        terms = [t for ent in json.load(fh)["entries"] for t in ent["terms"]]
    weights = {json.dumps(t["weight"], sort_keys=True) for t in terms}
    coefs = {json.dumps([t["num_coeffs"], t["den_coeffs"]]) for t in terms}
    return len(terms), len(weights), len(coefs)


def verify_all(table, elems):
    """verify every element on a fresh table holding table's entries, so
    no pass of an earlier call stands in for the checks."""
    fresh = GrothTable(table.cd)
    fresh.entries = dict(table.entries)
    for w in elems:
        if fresh.verify(w):
            raise SystemExit("verify failed at %s" % (w.word,))


def full_check_runs(table, elems):
    """How many elements of one verify_all ran the checks: each run decides
    its vanishing probes in one nonvanishing_probes call."""
    runs = 0
    probes = groth.nonvanishing_probes

    def counted(*args):
        nonlocal runs
        runs += 1
        return probes(*args)

    groth.nonvanishing_probes = counted
    try:
        verify_all(table, elems)
    finally:
        groth.nonvanishing_probes = probes
    return runs


def cold_save(table, path):
    """table.save(path) with the denominator polynomials unbuilt, as in a
    new process that loaded or built the table."""
    coefq._den_poly.cache_clear()
    table.save(path)


def deep_table(type_string, max_length):
    """(best time of 3 table_builds, the last table): a deep table takes
    seconds, so it is built three times, not five."""
    tables = []
    t = bench(lambda: tables.append(table_build(type_string, max_length)),
              [()], repeat=3)
    return t, tables[-1]


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
    for kernel, fn, cases in (("pmul", qpoly.pmul, mul_cases),
                              ("pgcd", qpoly.pgcd, gcd_cases),
                              ("pdivexact", qpoly.pdivexact, div_cases)):
        t = bench(fn, cases)
        print("%-14s %8.1f us/call" % (kernel, 1e6 * t / len(cases)))
    g, xs = probe_case()
    if nonvanishing_probes(g, xs) != canonical_probes(g, xs):
        raise SystemExit("nonvanishing_probes disagrees with j_map")
    t = bench(nonvanishing_probes, [(g, xs)])
    print("%-14s %8.2f ms   %d probes of %d terms, %d-bit digits"
          % ("probes", 1e3 * t, len(xs), len(g), digit_bits(g, xs)))
    t = bench(canonical_probes, [(g, xs)])
    print("%-14s %8.2f ms   %d probes of %d terms"
          % ("j_map probes", 1e3 * t, len(xs), len(g)))
    g, xs = probe_case(7)
    t = bench(nonvanishing_probes, [(g, xs)])
    print("%-14s %8.2f ms   %d probes of %d terms to length 7, %d-bit digits"
          % ("long probes", 1e3 * t, len(xs), len(g), digit_bits(g, xs)))
    for degree in (64, 256, 1024, 10000):
        t = bench(refused_load, [poisoned_cache(degree)])
        print("%-14s %8.2f ms   load refusing 1 + 3q^%d + q^%d, outside R"
              % ("ring check", 1e3 * t, degree // 2, degree))
    dens = ring_dens(table_build(type_string, max_length)
                     for type_string, max_length in (("A1~", 12), ("A2~", 5),
                                                     ("C2~", 5), ("A3~", 4)))
    t = bench(factor_dens, [(dens,)])
    print("%-14s %8.2f ms   make factoring the %d distinct denominators of "
          "A1~ <= 12, A2~ <= 5, C2~ <= 5, A3~ <= 4, in R"
          % ("ring check", 1e3 * t, len(dens)))
    wide = (1,)
    for k in (997, 1009, 1013):
        wide = qpoly.pmul(wide, (1,) + (0,) * (k - 1) + (-1,))
    t = bench(factor_dens, [([wide],)])
    print("%-14s %8.2f ms   make factoring (1 - q^997)(1 - q^1009)"
          "(1 - q^1013), in R" % ("ring check", 1e3 * t))
    for type_string, max_length in (("A3~", 4), ("A1~", 12)):
        pairs, sums = captured_sums(type_string, max_length)
        t = bench(replay_adds, [(pairs,)])
        print("%-14s %8.2f ms   %d + pairs of the table to length %d: %s"
              % (type_string, 1e3 * t, len(pairs), max_length,
                 shape_counts(pairs)))
        for module, what in ((kring, "key sums"), (cocycle, "check sums")):
            t = bench(replay_sums, [(sums[module],)])
            print("%-14s %8.2f ms   %d %s: %s"
                  % ("", 1e3 * t, len(sums[module]), what, shape_counts(
                      [[c for c, _ in ts] for ts in sums[module]])))
    for type_string, depth in (("A2~", 10), ("C2~", 12), ("A2~", 20),
                               ("C2~", 20)):
        t = bench(cold_denominator_inverse, [(from_type(type_string), depth)])
        print("%-14s %8.2f ms   denominator_inverse to depth %d, cold"
              % (type_string, 1e3 * t, depth))
    cd = from_type("C2~")
    args = weyl_kac_numerator(cd, parse_weight("L0 + L2", cd.rank), 12)
    packed.packing(cd, 12).denominator_inverse(12)
    t = bench(packed.over_denominator, [args])
    print("%-14s %8.2f ms   over_denominator, L0 + L2 to depth 12"
          % ("C2~", 1e3 * t))
    saves = []
    for type_string, max_length in (("A3~", 4), ("A1~", 12)):
        t = bench(table_build, [(type_string, max_length)])
        solved, transported, widths = build_counts(type_string, max_length)
        print("%-14s %8.2f ms   table to length %d: %d solved, %d "
              "transported, %s-bit digits"
              % (type_string, 1e3 * t, max_length, solved, transported,
                 "/".join(map(str, widths))))
        print("%-14s %11s   cache hits/misses: %s"
              % ("", "", cache_counts()))
        saves.append((type_string, max_length,
                      table_build(type_string, max_length)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.json")
        for type_string, max_length, table in saves:
            t = bench(table.save, [(path,)])
            print("%-14s %8.2f ms   save to length %d: %d bytes"
                  % (type_string, 1e3 * t, max_length, os.path.getsize(path)))
            t = bench(cold_load, [(path, table.cd)])
            print("%-14s %8.2f ms   load: %d terms, %d distinct weights, "
                  "%d distinct coefficients"
                  % (type_string, 1e3 * t, *distinct_values(path)))
    table = table_build("A3~", 4)
    for name, op, cases in kring_cases(table):
        t = bench(op, cases)
        print("%-14s %8.2f ms   kring %s: %d calls on the entries of A3~ "
              "<= 4" % ("A3~", 1e3 * t, name, len(cases)))
    elems = [w for layer in weyl.enumerate_up_to(table.cd, 3) for w in layer]
    t = bench(verify_all, [(table, elems)])
    print("%-14s %8.2f ms   verify to length 3: %d elements, %d checked"
          % ("A3~", 1e3 * t, len(elems), full_check_runs(table, elems)))
    t, table = deep_table("A1~", 24)
    print("%-14s %8.2f s    deep table to length 24: %d entries, %d terms"
          % ("A1~", t, len(table.entries),
             sum(len(g) for g in table.entries.values())))
    print("%-14s %11s   cache hits/misses: %s"
          % ("", "", cache_counts()))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.json")
        t = bench(cold_save, [(table, path)], repeat=3)
        print("%-14s %8.2f ms   save to length 24, cold: %d distinct "
              "denominators built" % ("A1~", 1e3 * t, len(
                  {c.cyc for g in table.entries.values()
                   for c in g.terms.values()})))


if __name__ == "__main__":
    main()
