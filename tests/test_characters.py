"""Truncated characters against the Freudenthal recursion and closed forms."""

import pytest

from affgroth.cartan import build_cartan, from_type
from affgroth.characters import (TruncatedSeries, denominator_inverse,
                                 euler_character, local_cohomology_character,
                                 positive_roots_with_mult, weyl_kac_character)
from affgroth.errors import (NotDominant, NotNonNegativeLevel, NotUntwisted)
from affgroth.groth import GrothTable
from affgroth.weights import Weight
from affgroth import weyl

import oracles


def freudenthal_series(cd, mu, depth):
    """Oracle multiplicities repackaged on absolute weight keys."""
    mult = oracles.freudenthal_multiplicities(cd, mu, depth)
    return {Weight(mu.l, tuple(-b for b in beta)): m
            for beta, m in mult.items() if m}


def test_positive_roots_with_mult():
    for t in ("A1~", "A2~", "C2~"):
        cd = from_type(t)
        N = 7
        got = positive_roots_with_mult(cd, N)
        real = {r.m for r in oracles.positive_real_roots(cd, N)}
        h = sum(cd.marks)
        for beta, mult in got:
            if beta.m in real:
                assert mult == 1
            else:
                # imaginary: a multiple of delta
                n = sum(beta.m) // h
                assert beta == n * cd.delta()
                assert mult == cd.rank - 1
        assert len(got) == len(real) + N // h


def test_positive_roots_refuse_twisted():
    cd = build_cartan([[2, -4], [-1, 2]])
    with pytest.raises(NotUntwisted):
        positive_roots_with_mult(cd, 3)


def test_weyl_kac_vs_freudenthal():
    cases = [("A1~", (1, 0), 6), ("A1~", (0, 1), 5), ("A1~", (2, 0), 5),
             ("A2~", (1, 0, 0), 4), ("C2~", (1, 0, 0), 4)]
    for t, lcoords, depth in cases:
        cd = from_type(t)
        mu = Weight(lcoords, (0,) * cd.rank)
        ch = weyl_kac_character(cd, mu, depth)
        assert ch.base == mu and ch.cutoff == depth
        assert ch.coeffs == freudenthal_series(cd, mu, depth), (t, lcoords)


def test_weyl_kac_head():
    cd = from_type("A2~")
    mu = cd.Lam(0)
    ch = weyl_kac_character(cd, mu, 3)
    assert ch.coeff(mu) == 1
    assert ch.coeff(mu - cd.alpha(0)) == 1
    assert ch.coeff(mu - cd.alpha(1)) == 0  # not a weight of V(Lam_0)


def test_weyl_kac_rejects():
    cd = from_type("A1~")
    with pytest.raises(NotDominant):
        weyl_kac_character(cd, -cd.Lam(0), 3)


def test_denominator_identity():
    # the zero highest weight gives the trivial module: the full Weyl-Kac
    # quotient collapses to 1, which is exactly the denominator identity
    for t in ("A1~", "A2~"):
        cd = from_type(t)
        ch = weyl_kac_character(cd, cd.zero(), 8)
        assert ch.coeffs == {cd.zero(): 1}, t


def test_denominator_inverse_is_partition_like():
    cd = from_type("A1~")
    dinv = denominator_inverse(cd, 6)
    assert dinv[cd.zero()] == 1
    # depth-1 keys: -alpha_0 and -alpha_1
    assert dinv[-cd.alpha(0)] == 1
    assert dinv[-cd.alpha(1)] == 1
    assert all(c > 0 for c in dinv.values())


def test_euler_identity_cell():
    cases = [("A1~", (1, 0), 5), ("A2~", (1, 0, 0), 4)]
    for t, lcoords, depth in cases:
        cd = from_type(t)
        table = GrothTable(cd)
        mu = Weight(lcoords, (0,) * cd.rank)
        ch = euler_character(cd, weyl.identity(cd), mu, depth, table)
        assert ch == weyl_kac_character(cd, mu, depth)


def test_euler_simple_reflection():
    cd = from_type("A1~")
    table = GrothTable(cd)
    mu = cd.Lam(0)
    chi = weyl_kac_character(cd, mu, 5)
    # G_{s_0} = 1 - e^{-Lam_0} removes exactly the head of chi
    ch0 = euler_character(cd, weyl.canonicalize(cd, (0,)), mu, 5, table)
    want = dict(chi.coeffs)
    assert want.pop(mu) == 1
    assert ch0.coeffs == want
    # the -e^{-Lam_1} term shifts mu + rho onto a wall, so it contributes 0
    ch1 = euler_character(cd, weyl.canonicalize(cd, (1,)), mu, 5, table)
    assert ch1.coeffs == chi.coeffs


def test_euler_rejects_negative_level():
    cd = from_type("A1~")
    with pytest.raises(NotNonNegativeLevel):
        euler_character(cd, weyl.identity(cd), -cd.Lam(0), 3, GrothTable(cd))


def test_local_cohomology_dual_verma():
    # w = x = e: j_e(G_e) = 1, so the series is e^mu times the inverse
    # denominator, the character of the dual Verma module
    for t, lcoords, depth in [("A1~", (1, 0), 5), ("A2~", (1, 0, 0), 4)]:
        cd = from_type(t)
        table = GrothTable(cd)
        mu = Weight(lcoords, (0,) * cd.rank)
        e = weyl.identity(cd)
        ch = local_cohomology_character(cd, e, e, mu, depth, table)
        dinv = denominator_inverse(cd, depth)
        assert ch.base == mu
        assert ch.coeffs == {mu + k: c for k, c in dinv.items()}


def test_local_cohomology_vanishes_below():
    cd = from_type("A1~")
    table = GrothTable(cd)
    w = weyl.canonicalize(cd, (0,))
    e = weyl.identity(cd)
    ch = local_cohomology_character(cd, w, e, cd.Lam(0), 4, table)
    assert len(ch) == 0


def test_local_cohomology_shifted_cell():
    cd = from_type("A1~")
    table = GrothTable(cd)
    e = weyl.identity(cd)
    x = weyl.canonicalize(cd, (0,))
    mu = cd.Lam(0)
    ch = local_cohomology_character(cd, e, x, mu, 4, table)
    b0 = weyl.act(x, mu + cd.rho()) - cd.rho()
    assert ch.coeff(b0) == 1
    assert ch.base == b0


def test_series_validation_and_json():
    cd = from_type("A1~")
    mu = cd.Lam(0)
    ch = weyl_kac_character(cd, mu, 4)
    back = TruncatedSeries.from_json(cd, ch.to_json())
    assert back == ch
    with pytest.raises(ValueError):
        TruncatedSeries(cd, mu, 3, {mu + cd.alpha(1): 1})
    assert ch.depth(mu) == 0
    assert ch.depth(mu - cd.alpha(0)) == 1
    assert ch.depth(mu + cd.alpha(0)) is None


def test_series_eq_compares_cartan_data():
    a2, c2 = from_type("A2~"), from_type("C2~")
    mu = a2.Lam(0)
    assert TruncatedSeries(a2, mu, 2, {mu: 1}) != TruncatedSeries(c2, mu, 2, {mu: 1})
    assert (TruncatedSeries(a2, mu, 2, {mu: 1})
            == TruncatedSeries(from_type("A2~"), mu, 2, {mu: 1}))
    ch = weyl_kac_character(from_type("A1~"), from_type("A1~").Lam(0), 2)
    assert not (ch == None)  # noqa: E711
    assert ch != 0


def _oracle_denominator(cd, N):
    """prod_{alpha > 0} (1 - e^{-alpha})^mult on root coordinates m, expanded
    with plain tuple arithmetic and cut at depth N."""
    zero = (0,) * cd.rank
    D = {zero: 1}
    for beta, mult in positive_roots_with_mult(cd, N):
        for _ in range(mult):
            nxt = dict(D)
            for m, c in D.items():
                key = tuple(x - b for x, b in zip(m, beta.m))
                if -sum(key) <= N:
                    nxt[key] = nxt.get(key, 0) - c
            D = {m: c for m, c in nxt.items() if c}
    return D


def _times_oracle(cd, dinv, N):
    out = {}
    for m, c in _oracle_denominator(cd, N).items():
        for k, ck in dinv.items():
            assert not any(k.l)
            key = tuple(x + y for x, y in zip(m, k.m))
            if -sum(key) <= N:
                out[key] = out.get(key, 0) + c * ck
    return {m: c for m, c in out.items() if c}


@pytest.mark.parametrize("t,N", [("A1~", 10), ("A2~", 7), ("C2~", 7),
                                 ("A3~", 5), ("D4~", 4)])
def test_denominator_inverse_against_product(t, N):
    cd = from_type(t)
    one = {(0,) * cd.rank: 1}
    # deep, then shallow (cut from the stored series), then deeper (rebuilt)
    for n in (N, N - 3, N + 1):
        dinv = denominator_inverse(cd, n)
        assert all(-sum(k.m) <= n for k in dinv), (t, n)
        assert _times_oracle(cd, dinv, n) == one, (t, n)


def test_denominator_inverse_returns_fresh_dicts():
    # deeper than any other test goes for A1~, so the first call returns a
    # copy of the stored series itself and the second one a cut of it
    cd = from_type("A1~")
    deep = denominator_inverse(cd, 16)
    shallow = denominator_inverse(cd, 4)
    want_deep, want_shallow = dict(deep), dict(shallow)
    for d in (deep, shallow):
        d[cd.zero()] = 99
        d.pop(-cd.alpha(0))
    assert denominator_inverse(cd, 16) == want_deep
    assert denominator_inverse(cd, 4) == want_shallow


def test_denominator_inverse_negative_cutoff():
    cd = from_type("C2~")
    assert denominator_inverse(cd, -1) == {}
    denominator_inverse(cd, 3)
    assert denominator_inverse(cd, -1) == {}
    assert denominator_inverse(cd, 0) == {cd.zero(): 1}
