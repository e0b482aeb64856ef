"""Acceptance battery.

Six criteria, each reported as a single pass/fail line on stdout.  Every
comparison is exact equality of canonical forms; there are no tolerances
anywhere.  Run with -s to see the lines as they complete.
"""

import time

from affgroth.cartan import from_type
from affgroth.characters import (denominator_inverse, euler_character,
                                 local_cohomology_character,
                                 weyl_kac_character)
from affgroth.cocycle import check_cocycle, solve_coboundary
from affgroth.expr import parse_expression, print_element
from affgroth.groth import GrothTable
from affgroth.kring import (demazure, in_window, k_one, monomial,
                            reflect_act)
from affgroth.weights import Weight
from affgroth import weyl

import oracles


def report(num, name, fails, t0, budget=None):
    dt = time.time() - t0
    status = "PASS" if not fails else "FAIL"
    print("criterion %d (%s): %s (%.1fs)" % (num, name, status, dt))
    for f in fails[:25]:
        print("    " + f)
    assert not fails, "criterion %d: %d failures" % (num, len(fails))
    if budget is not None:
        assert dt < budget, "criterion %d exceeded %ds budget" % (num, budget)


def simple_expected(cd, i):
    return k_one(cd) - monomial(cd, -cd.Lam(i))


def test_criterion_1_golden_table():
    t0 = time.time()
    fails = []

    for t in ("A1~", "A2~", "A3~", "C2~", "C3~", "D4~"):
        cd = from_type(t)
        table = GrothTable(cd)
        for i in cd.labels:
            w = weyl.canonicalize(cd, (i,))
            if table.compute(w) != simple_expected(cd, i):
                fails.append("%s: G_{s_%d} != 1 - e^{-Lambda_%d}" % (t, i, i))

    for t, J in (("A3~", (0, 2)), ("A3~", (1, 3)), ("C3~", (0, 2)),
                 ("D4~", (0, 1, 3, 4))):
        cd = from_type(t)
        expect = k_one(cd)
        for j in J:
            expect = expect * simple_expected(cd, j)
        if GrothTable(cd).compute(weyl.canonicalize(cd, J)) != expect:
            fails.append("%s: commuting product at J=%s" % (t, J))

    tables = {}
    for name, t, word in oracles.GOLDEN:
        cd = from_type(t)
        table = tables.setdefault(t, GrothTable(cd))
        got = table.compute(weyl.canonicalize(cd, word))
        want = oracles.load_golden(name, cd)
        if got != want:
            fails.append("golden %s (%s, word %s) disagrees" % (name, t, word))

    report(1, "golden table", fails, t0, budget=600)


def test_criterion_2_verification_battery():
    t0 = time.time()
    fails = []
    for t in ("A1~", "A2~", "C2~"):
        cd = from_type(t)
        table = GrothTable(cd)
        elems = [w for L in weyl.enumerate_up_to(cd, 4) for w in L]
        for w in elems:
            table.compute(w)
        # each element on a table of its own, so every check runs on every
        # entry and none passes by an orbit-mate's verdict
        for w in elems:
            for line in oracles.full_verdict(table, w, probe_length=4):
                fails.append("%s %s: %s" % (t, w.word or "e", line))
        memo = {}
        for w in elems:
            if (oracles.solved_entry(cd, w, memo, order_reversed=True)
                    != table.compute(w)):
                fails.append("%s %s: reversed solver order changed G_w"
                             % (t, w.word or "e"))
    report(2, "entry checks to length 4", fails, t0, budget=900)


def test_criterion_3_demazure_randoms():
    t0 = time.time()
    fails = []
    for t in ("A1~", "A2~"):
        cd = from_type(t)
        rng = oracles.rng_for("acceptance-demazure-" + t)
        braid_elems = [w for L in weyl.enumerate_up_to(cd, 3)[2:] for w in L
                       if len(oracles.reduced_words(w)) > 1]
        for n in range(100):
            f = oracles.random_element(cd, rng)
            for i in cd.labels:
                g = demazure(i, f)
                if g != oracles.demazure_by_division(cd, i, f):
                    fails.append("%s #%d D_%d != division oracle" % (t, n, i))
                if demazure(i, g) != g:
                    fails.append("%s #%d D_%d not idempotent" % (t, n, i))
                if reflect_act(cd, i, g) != g:
                    fails.append("%s #%d image not s_%d-invariant" % (t, n, i))
            for w in braid_elems:
                images = []
                for word in oracles.reduced_words(w):
                    g = f
                    for i in word:
                        g = demazure(i, g)
                    images.append(g)
                if any(g != images[0] for g in images[1:]):
                    fails.append("%s #%d braid mismatch at %s" % (t, n, w.word))
    report(3, "random Demazure checks", fails, t0)


def test_criterion_4_cocycle_round_trips():
    t0 = time.time()
    fails = []
    for t in ("A1~", "A2~"):
        cd = from_type(t)
        k = cd.dual_coxeter
        rng = oracles.rng_for("acceptance-cocycle-" + t)
        for n in range(50):
            b0 = oracles.random_element(cd, rng, max_terms=20,
                                        level_range=(-k, 0))
            v = {i: b0 - reflect_act(cd, i, b0) for i in cd.labels}
            if check_cocycle(cd, v):
                fails.append("%s #%d check_cocycle rejected a coboundary"
                             % (t, n))
                continue
            B = solve_coboundary(cd, v, (-k, 0))
            for i in cd.labels:
                if B - reflect_act(cd, i, B) != v[i]:
                    fails.append("%s #%d solve not exact at i=%d" % (t, n, i))
            if not in_window(B, -k, 0):
                fails.append("%s #%d solution escaped window" % (t, n))
    report(4, "random coboundary solves", fails, t0)


def test_criterion_5_characters():
    t0 = time.time()
    fails = []
    cd = from_type("A1~")
    zero_m = (0,) * cd.rank
    for lcoords in ((1, 0), (0, 1), (2, 0)):
        mu = Weight(lcoords, zero_m)
        ch = weyl_kac_character(cd, mu, 6)
        mult = oracles.freudenthal_multiplicities(cd, mu, 6)
        want = {Weight(mu.l, tuple(-b for b in beta)): m
                for beta, m in mult.items() if m}
        if ch.coeffs != want:
            fails.append("Weyl-Kac vs Freudenthal at mu=%s" % (mu,))
        table = GrothTable(cd)
        e = weyl.identity(cd)
        if euler_character(cd, e, mu, 6, table) != ch:
            fails.append("euler at identity != character at mu=%s" % (mu,))
        dinv = denominator_inverse(cd, 6)
        lc = local_cohomology_character(cd, e, e, mu, 6, table)
        if lc.coeffs != {mu + kappa: c for kappa, c in dinv.items()}:
            fails.append("local cohomology at (e, e) != dual Verma, mu=%s"
                         % (mu,))
    for t in ("A1~", "A2~"):
        cdt = from_type(t)
        ch0 = weyl_kac_character(cdt, oracles.zero_weight(cdt), 8)
        if ch0.coeffs != {oracles.zero_weight(cdt): 1}:
            fails.append("denominator identity fails to depth 8 in " + t)
    report(5, "truncated characters", fails, t0)


def test_criterion_6_io_round_trips(tmp_path):
    t0 = time.time()
    fails = []
    for name, t, word in oracles.GOLDEN:
        cd = from_type(t)
        f = oracles.load_golden(name, cd)
        for mode in ("terms", "orbit"):
            if parse_expression(print_element(f, mode), cd) != f:
                fails.append("golden %s %s-mode round trip" % (name, mode))
    cd = from_type("A2~")
    rng = oracles.rng_for("acceptance-io")
    for n in range(50):
        f = oracles.random_element(cd, rng)
        for mode in ("terms", "orbit"):
            if parse_expression(print_element(f, mode), cd) != f:
                fails.append("random #%d %s-mode round trip" % (n, mode))

    table = GrothTable(cd)
    for L in weyl.enumerate_up_to(cd, 3):
        for w in L:
            table.compute(w)
            table.verify(w, probe_length=1)
    path = tmp_path / "cache.json"
    table.save(str(path))
    first = path.read_bytes()
    loaded = GrothTable.load(str(path), cd=cd)
    if loaded.entries != table.entries or loaded.verified != table.verified:
        fails.append("cache load does not reproduce the table")
    loaded.save(str(path))
    if path.read_bytes() != first:
        fails.append("cache write-read-write not bit-identical")
    report(6, "text and cache round trips", fails, t0)
