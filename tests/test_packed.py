"""Products on packed integer keys against plain {Weight: int} products, where
the packing can go wrong: negative coordinates that borrow, coordinates at
the edge of the base, numerators in Lambda-parts of either sign."""

import pytest

from affgroth import packed, weyl
from affgroth.cartan import from_type
from affgroth.characters import (denominator_inverse, euler_character,
                                 local_cohomology_character,
                                 weyl_kac_character)
from affgroth.groth import GrothTable
from affgroth.weights import Weight, parse_weight

import oracles


@pytest.fixture(autouse=True)
def fresh_packings(monkeypatch):
    # a base left by an earlier call can be larger than the one a call sizes
    # for itself, and would hide a base that is too small
    monkeypatch.setattr(packed, "_PACKINGS", {})


def banded_numerator(cd, rng, size, band, count, lambda_parts):
    """Up to count keys of height in [-band, 0], spread over the given
    Lambda-parts, with coordinates of both signs and size <= size; one packed
    (lower) coordinate of every other key is -size, so that a product with
    the inverse denominator goes below -size and its digits must borrow.
    {Lambda-part: {Weight: coeff}}, one numerator per part."""
    num = {l: {} for l in lambda_parts}
    for j in range(count):
        m = [rng.randint(-size, size) for _ in range(cd.rank - 1)]
        if j % 2 == 0:
            m[j // 2 % len(m)] = -size
        last = -rng.randint(0, band) - sum(m)
        if abs(last) <= size:
            l = lambda_parts[j % len(lambda_parts)]
            num[l][Weight(l, m + [last])] = rng.choice((-3, -2, -1, 1, 2, 3))
    return num


def test_pack_round_trip_borrows():
    cd = from_type("C2~")
    pk = packed.packing(cd, 5)
    for m in [(0, 0, 0), (-1, 0, 0), (0, -1, 7), (-5, 5, -5), (5, -5, 5),
              (-10, -10, 99), (10, 10, -99), (3, -10, 0)]:
        key = pk.pack(m)
        assert pk.unpack(key) == m
        assert pk.height(key) == sum(m)


def test_negative_cutoff_is_empty():
    # a cutoff of -2 sized a base of 4 * -2 + 8 = 0 on a fresh packing
    cd = from_type("A2~")
    mu = cd.Lam(0)
    e = weyl.identity(cd)
    table = GrothTable(cd)
    for N in (-2, -5):
        for ch in (weyl_kac_character(cd, mu, N),
                   euler_character(cd, e, mu, N, table),
                   local_cohomology_character(cd, e, e, mu, N, table)):
            assert len(ch) == 0 and ch.cutoff == N


@pytest.mark.parametrize("t,size,reach", [("A1~", 40, 9), ("A2~", 25, 6),
                                          ("C2~", 30, 6), ("D4~", 12, 3)])
def test_mul_trunc_against_plain_product(t, size, reach):
    cd = from_type(t)
    rng = oracles.rng_for("mul_trunc " + t)
    parts = [cd.Lam(0).l, (cd.Lam(1) - 3 * cd.Lam(0)).l]
    A = banded_numerator(cd, rng, size, reach, 80, parts)
    assert sum(map(len, A.values())) > 20
    floor = -reach
    pk = packed.packing(cd, size)  # size >= reach bounds both factors
    B = pk.denominator_inverse(reach)
    dinv = denominator_inverse(cd, reach)
    for l, group in A.items():
        got = packed.mul_trunc({pk.pack(k.m): c for k, c in group.items()},
                               B, floor, pk.T)
        assert pk.weights(l, got) == oracles.plain_product(group, dinv,
                                                           floor), l


@pytest.mark.parametrize("t,size", [("A1~", 60), ("A2~", 30), ("C2~", 30),
                                    ("A3~", 12)])
def test_over_denominator_against_plain_product(t, size):
    # a numerator lies in one Lambda-part, since reflections and delta
    # shifts keep it; one call per part, for a part of negative level, one
    # of level 1 and 0, on keys of mixed sign at the edge of the base
    cd = from_type(t)
    rng = oracles.rng_for("over_denominator " + t)
    parts = [parse_weight(s, cd.rank).l for s in ("3*L1 - L0", "L0", "0")]
    num = banded_numerator(cd, rng, size, 7, 60, parts)
    assert sum(map(len, num.values())) > 15
    pk = packed.packing(cd, size)  # size >= 7 bounds the depth too
    for depth in (0, 3, 7):
        floor = -depth
        for l, group in num.items():
            got = pk.weights(l, packed.over_denominator(
                pk, {pk.pack(k.m): c for k, c in group.items()}, floor))
            assert got == oracles.over_denominator_by_terms(
                cd, group, floor), (depth, l)
            # a key with no other key above it keeps its coefficient
            assert bool(got) == any(sum(k.m) >= floor for k in group)


def test_far_twist_builds_no_deeper_than_cutoff():
    # the base of an Euler series is the top of its numerator, so the
    # inverse denominator is built at most the cutoff deep however far a
    # non-dominant twist raises the base (a product cut below mu would run
    # 791 deep for L0 + 12*a1 - 16*a0 at cutoff 7)
    cases = [("A1~", (0,), "L0 + 12*a1 - 16*a0", 7),
             ("A1~", (0,), "L0 + 30*a1 - 40*a0", 7),
             ("A1~", (1, 0), "3*L1 - L0 + 5*a0 - 9*a1", 5),
             ("A2~", (0,), "L0 + 6*a1 + 4*a2 - 11*a0", 4),
             ("C2~", (1,), "2*L0 - L1 + 5*a1 - 6*a0", 4)]
    for t, word, text, N in cases:
        cd = from_type(t)
        table = GrothTable(cd)
        w = weyl.canonicalize(cd, word)
        mu = parse_weight(text, cd.rank)
        packed._PACKINGS.clear()
        ch = euler_character(cd, w, mu, N, table)
        assert ch.coeffs and sum(ch.base.m) > sum(mu.m) + 50, text
        assert packed._PACKINGS[cd].depth <= N, text
        if text.startswith("3*L1"):  # near enough for the oracle
            assert len(ch) == 8
            assert ch == oracles.euler_by_terms(cd, w, mu, N, table)


def test_euler_orbits_stop_at_the_base_floor(monkeypatch):
    # every key of a numerator part lies below the part's top key, so the
    # orbits are built to height(top) - N, top the coordinatewise top of mu
    # and the parts' tops, and deeper only by the spread, the height that
    # cancellation takes off that top.  Built down to height(mu) - N, the
    # orbit of A3~'s first case went 1060 deep for a series of one key
    depths = []
    orbit = packed.Packing.orbit

    def recorded(pk, lamr, margin):
        depths.append(margin)
        return orbit(pk, lamr, margin)

    monkeypatch.setattr(packed.Packing, "orbit", recorded)
    # (type, word, twist, cutoff, spread, the one key of the series: an
    # A3~ oracle character would go 1060 deep)
    cases = [("A3~", (0,), "L0 + 12*a1 + 8*a2 + 4*a3 - 24*a0", 4, 0, 264),
             ("A3~", (0,), "L0 + 6*a1 + 4*a2 + 2*a3 - 12*a0", 4, 0, 66),
             ("A1~", (0, 1), "2*L0 + 3*a1", 6, 2, None)]
    for t, word, text, N, spread, k in cases:
        cd = from_type(t)
        table = GrothTable(cd)
        w = weyl.canonicalize(cd, word)
        mu = parse_weight(text, cd.rank)
        del depths[:]
        ch = euler_character(cd, w, mu, N, table)
        assert depths and max(depths) <= N + spread, (text, depths)
        if k:
            top = Weight(mu.l, (k,) * 4)
            assert ch.base == top and ch.coeffs == {top: -1}, text
        else:
            assert ch == oracles.euler_by_terms(cd, w, mu, N, table), text


@pytest.mark.parametrize("t,twists,N", [
    ("A2~", ("L0 + L1", "L0 + L2 - L1", "3*L1 - L0"), 6),
    ("C2~", ("L0 + L2", "2*L0 - L1"), 5),
])
def test_local_cohomology_long_cells(t, twists, N):
    # x of length 3 and 4 against every w below it
    cd = from_type(t)
    table = GrothTable(cd)
    layers = weyl.enumerate_up_to(cd, 4)
    cases = 0
    for text in twists:
        mu = parse_weight(text, cd.rank)
        for x in layers[3][:3] + layers[4][:2]:
            for layer in layers[:3]:
                for w in layer:
                    if not weyl.bruhat_leq(w, x):
                        continue
                    ch = local_cohomology_character(cd, w, x, mu, N, table)
                    floor = sum(ch.base.m) - N
                    assert ch.coeffs == oracles.local_cohomology_by_terms(
                        cd, w, x, mu, floor, table), (text, w.word, x.word)
                    cases += 1
    assert cases > 20
