"""Products on packed integer keys against plain {Weight: int} products, where
the packing can go wrong: negative coordinates that borrow, coordinates at
the edge of the base, several Lambda-parts in one numerator."""

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
    the inverse denominator goes below -size and its digits must borrow."""
    num = {}
    for j in range(count):
        m = [rng.randint(-size, size) for _ in range(cd.rank - 1)]
        if j % 2 == 0:
            m[j // 2 % len(m)] = -size
        last = -rng.randint(0, band) - sum(m)
        if abs(last) <= size:
            l = lambda_parts[j % len(lambda_parts)]
            num[Weight(l, m + [last])] = rng.choice((-3, -2, -1, 1, 2, 3))
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
    assert len(A) > 20
    floor = -reach
    pk = packed.packing(cd, size)  # size >= reach bounds both factors
    B = pk.denominator_inverse(reach)
    dinv = denominator_inverse(cd, reach)
    for l in parts:
        group = {k: c for k, c in A.items() if k.l == l}
        got = packed.mul_trunc({pk.pack(k.m): c for k, c in group.items()},
                               B, floor, pk.T)
        assert pk.weights({l: got}) == oracles.plain_product(group, dinv,
                                                               floor), l


@pytest.mark.parametrize("t,size", [("A1~", 60), ("A2~", 30), ("C2~", 30),
                                    ("A3~", 12)])
def test_over_denominator_against_plain_product(t, size):
    # several Lambda-parts in one numerator, as a non-dominant twist such as
    # 3*L1 - L0 gives them; keys of mixed sign at the edge of the base
    cd = from_type(t)
    rng = oracles.rng_for("over_denominator " + t)
    parts = [parse_weight(s, cd.rank).l for s in ("3*L1 - L0", "L0", "0")]
    num = banded_numerator(cd, rng, size, 7, 60, parts)
    assert len(num) > 15
    for depth in (0, 3, 7):
        floor = -depth
        got = packed.divide(cd, num, floor)
        assert got == oracles.over_denominator_by_terms(cd, num, floor), depth
        assert {k.l for k in got} == {k.l for k in num
                                      if sum(k.m) >= floor}


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
