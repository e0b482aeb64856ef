"""Truncated characters against the Freudenthal recursion and closed forms."""

import pytest

from affgroth.cartan import build_cartan, from_type
from affgroth.characters import (TruncatedSeries, denominator_inverse,
                                 euler_character, local_cohomology_character,
                                 weyl_kac_character)
from affgroth.errors import NotDominant, NotNonNegativeLevel
from affgroth.groth import GrothTable
from affgroth import packed
from affgroth.weights import Weight, parse_weight
from affgroth import weyl

import oracles


def freudenthal_series(cd, mu, depth, imaginary=None):
    """Oracle multiplicities repackaged on absolute weight keys."""
    mult = oracles.freudenthal_multiplicities(cd, mu, depth, imaginary)
    return {Weight(mu.l, tuple(-b for b in beta)): m
            for beta, m in mult.items() if m}


def datum(name):
    """(Cartan data, Kac's imaginary multiplicities) of a CUSTOM_GCMS name,
    or (Cartan data, None) of a built-in type, which is untwisted."""
    gcm = dict(oracles.CUSTOM_GCMS).get(name)
    if gcm is None:
        return from_type(name), None
    return build_cartan(gcm), oracles.KAC_IMAGINARY[name]


CUSTOM_NAMES = [name for name, _ in oracles.CUSTOM_GCMS]


def test_weyl_kac_vs_freudenthal():
    cases = [("A1~", (1, 0), 6), ("A1~", (0, 1), 5), ("A1~", (2, 0), 5),
             ("A2~", (1, 0, 0), 4), ("C2~", (1, 0, 0), 4)]
    # every fundamental weight of every custom datum, twisted ones included,
    # deep enough for 3 delta (height 12 in D4^(3), where mult is 2, not 1)
    for name, gcm in oracles.CUSTOM_GCMS:
        cases += [(name, tuple(int(j == i) for j in range(len(gcm))), 12)
                  for i in range(len(gcm))]
    for t, lcoords, depth in cases:
        cd, imaginary = datum(t)
        mu = Weight(lcoords, (0,) * cd.rank)
        ch = weyl_kac_character(cd, mu, depth)
        assert ch.base == mu and ch.cutoff == depth
        assert ch.coeffs == freudenthal_series(cd, mu, depth, imaginary), \
            (t, lcoords)


def test_weyl_kac_head():
    cd = from_type("A2~")
    mu = cd.Lam(0)
    ch = weyl_kac_character(cd, mu, 3)
    assert ch.coeffs.get(mu, 0) == 1
    assert ch.coeffs.get(mu - cd.alpha(0), 0) == 1
    assert ch.coeffs.get(mu - cd.alpha(1), 0) == 0  # not a weight of V(Lam_0)


def test_weyl_kac_rejects():
    cd = from_type("A1~")
    with pytest.raises(NotDominant):
        weyl_kac_character(cd, -cd.Lam(0), 3)


def test_denominator_identity():
    # the zero highest weight gives the trivial module: the full Weyl-Kac
    # quotient collapses to 1, which is exactly the denominator identity
    for t in ["A1~", "A2~"] + CUSTOM_NAMES:
        cd, _ = datum(t)
        ch = weyl_kac_character(cd, oracles.zero_weight(cd), 8)
        assert ch.coeffs == {oracles.zero_weight(cd): 1}, t


def test_denominator_inverse_is_partition_like():
    cd = from_type("A1~")
    dinv = denominator_inverse(cd, 6)
    assert dinv[oracles.zero_weight(cd)] == 1
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


# (type, max length of w, cutoff, twists); 129 cases in all
EULER_CASES = [
    ("A1~", 4, 5, ("L0", "2*L0 - L1", "0", "L0 + L1", "3*L1 - L0")),
    ("A2~", 3, 4, ("L0 + L1", "L0 + L2 - L1", "0")),
    ("C2~", 2, 4, ("L0 + L2", "2*L0 - L1", "0")),
]


def test_euler_against_term_by_term_oracle():
    cases = raised = with_den = 0
    for t, max_len, N, twists in EULER_CASES:
        cd = from_type(t)
        table = GrothTable(cd)
        for text in twists:
            mu = parse_weight(text, cd.rank)
            for layer in weyl.enumerate_up_to(cd, max_len):
                for w in layer:
                    ch = euler_character(cd, w, mu, N, table)
                    assert ch == oracles.euler_by_terms(cd, w, mu, N, table), \
                        (t, text, w.word)
                    cases += 1
                    raised += ch.base != mu
                    with_den += any(c.den != (1,)
                                    for c in table.compute(w).terms.values())
    # non-dominant twists raise the base above mu, and (1 - q^k)
    # denominators give infinite q-expansions
    assert cases == 129 and raised and with_den


def test_euler_twisted_against_term_by_term_oracle():
    # A2^(2): the Euler core on a twisted datum, non-dominant twists and
    # (1 - q^k) denominators included
    cd, _ = datum("A2^(2)")
    table = GrothTable(cd)
    cases = raised = with_den = 0
    for text in ("L1", "L0 + L1", "2*L1 - L0", "0"):
        mu = parse_weight(text, cd.rank)
        for layer in weyl.enumerate_up_to(cd, 4):
            for w in layer:
                ch = euler_character(cd, w, mu, 5, table)
                assert ch == oracles.euler_by_terms(cd, w, mu, 5, table), \
                    (text, w.word)
                cases += 1
                raised += ch.base != mu
                with_den += any(c.den != (1,)
                                for c in table.compute(w).terms.values())
    assert cases == 36 and raised and with_den


def _level_twists(cd, level):
    """Every dominant weight sum_i c_i L_i of the given level."""
    out = []

    def extend(coeffs, left):
        i = len(coeffs)
        if i == cd.rank:
            if left == 0:
                out.append(Weight(coeffs, (0,) * cd.rank))
            return
        for c in range(left // cd.comarks[i] + 1):
            extend(coeffs + (c,), left - c * cd.comarks[i])

    extend((), level)
    return out


@pytest.mark.parametrize("t,N,twist", [("C2~", 12, "L0 + L2"),
                                       ("A2~", 10, "L0 + L1")])
def test_euler_every_twist_of_the_level(t, N, twist):
    # the euler benchmark cycles through these twists on its seeds other
    # than 0, at these cutoffs
    cd = from_type(t)
    table = GrothTable(cd)
    twists = _level_twists(cd, cd.level(parse_weight(twist, cd.rank)))
    assert len(twists) == 6
    for mu in twists:
        for layer in weyl.enumerate_up_to(cd, 1):
            for w in layer:
                assert (euler_character(cd, w, mu, N, table)
                        == oracles.euler_by_terms(cd, w, mu, N, table)), \
                    (str(mu), w.word)


def test_orbit_work_pinned(monkeypatch):
    # each orbit is built once per Cartan datum, at the deepest margin asked
    # for: the euler benchmark's 19 characters need the numerator orbits of
    # 21 dominant weights, where one build per character and weight would
    # make 58, and the inverse denominator needs the orbit of rho of each
    # datum, which A2~'s numerators share and C2~'s do not: 22 builds
    monkeypatch.setattr(packed, "_PACKINGS", {})
    builds = 0
    build = packed.Packing._orbit

    def counted_build(self, lamr, margin):
        nonlocal builds
        builds += 1
        return build(self, lamr, margin)

    monkeypatch.setattr(packed.Packing, "_orbit", counted_build)
    for t, N, twist in (("C2~", 12, "L0 + L2"), ("A2~", 10, "L0 + L1")):
        cd = from_type(t)
        table = GrothTable(cd)
        mu = parse_weight(twist, cd.rank)
        for layer in weyl.enumerate_up_to(cd, 2):
            for w in layer:
                euler_character(cd, w, mu, N, table)
    assert builds == 22


def test_euler_equals_cousin_sum():
    # the Euler series is the alternating sum of the local cohomology of
    # the cells x >= w (oracles.cousin_sum), which ties char --euler to
    # char --local and so to G_w's localizations j_x(G_w).  It reads every
    # coefficient's expand_down and top_exponent.  The sign
    # (-1)^len(x) in place of (-1)^(len(x) - len(w)) fails 32 of the 99
    # cases, and no sign at all fails 66
    cases = [("A1~", 4, ("L0", "L1", "2*L0 + L1", "L0 - a1"), 4),
             ("A2~", 2, ("L0", "L1 + L2", "L0 + L1 - a2"), 3),
             ("A2^(2)", 2, ("L0", "L1", "L0 + L1"), 3),
             ("C2~", 2, ("L0", "L0 + L2"), 3)]
    count = nonzero = 0
    for name, max_length, twists, N in cases:
        cd, _ = datum(name)
        table = GrothTable(cd)
        for layer in weyl.enumerate_up_to(cd, max_length):
            for w in layer:
                for text in twists:
                    mu = parse_weight(text, cd.rank)
                    ch = euler_character(cd, w, mu, N, table)
                    assert oracles.cousin_sum(cd, w, mu, N, table) == ch, \
                        (name, w.word, text)
                    count += 1
                    nonzero += bool(ch.coeffs)
    assert count == 99 and nonzero == 83


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
    assert ch.coeffs.get(b0, 0) == 1
    assert ch.base == b0


def test_series_validation_and_json():
    cd = from_type("A1~")
    mu = cd.Lam(0)
    ch = weyl_kac_character(cd, mu, 4)
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


def _oracle_denominator(cd, N, imaginary):
    """prod_{alpha > 0} (1 - e^{-alpha})^mult on root coordinates m, from
    the oracle's positive roots with Kac's multiplicities, expanded with
    plain tuple arithmetic and cut at depth N."""
    zero = (0,) * cd.rank
    D = {zero: 1}
    for beta, mult in oracles.positive_roots(cd, N, imaginary):
        for _ in range(mult):
            nxt = dict(D)
            for m, c in D.items():
                key = tuple(x - b for x, b in zip(m, beta.m))
                if -sum(key) <= N:
                    nxt[key] = nxt.get(key, 0) - c
            D = {m: c for m, c in nxt.items() if c}
    return D


def _times_oracle(cd, dinv, N, imaginary):
    out = {}
    for m, c in _oracle_denominator(cd, N, imaginary).items():
        for k, ck in dinv.items():
            assert not any(k.l)
            key = tuple(x + y for x, y in zip(m, k.m))
            if -sum(key) <= N:
                out[key] = out.get(key, 0) + c * ck
    return {m: c for m, c in out.items() if c}


@pytest.mark.parametrize("t,N", [("A1~", 10), ("A2~", 7), ("C2~", 7),
                                 ("A3~", 5), ("D4~", 4)]
                         + [(name, 12) for name in CUSTOM_NAMES])
def test_denominator_inverse_against_product(t, N):
    cd, imaginary = datum(t)
    one = {(0,) * cd.rank: 1}
    # deep, then shallow (cut from the stored series), then deeper (rebuilt)
    for n in (N, N - 3, N + 1):
        dinv = denominator_inverse(cd, n)
        assert all(-sum(k.m) <= n for k in dinv), (t, n)
        assert _times_oracle(cd, dinv, n, imaginary) == one, (t, n)


def test_denominator_inverse_returns_fresh_dicts():
    # deeper than any other test goes for A1~, so the first call returns a
    # copy of the stored series itself and the second one a cut of it
    cd = from_type("A1~")
    deep = denominator_inverse(cd, 16)
    shallow = denominator_inverse(cd, 4)
    want_deep, want_shallow = dict(deep), dict(shallow)
    for d in (deep, shallow):
        d[oracles.zero_weight(cd)] = 99
        d.pop(-cd.alpha(0))
    assert denominator_inverse(cd, 16) == want_deep
    assert denominator_inverse(cd, 4) == want_shallow


def test_denominator_inverse_negative_cutoff():
    cd = from_type("C2~")
    assert denominator_inverse(cd, -1) == {}
    denominator_inverse(cd, 3)
    assert denominator_inverse(cd, -1) == {}
    assert denominator_inverse(cd, 0) == {oracles.zero_weight(cd): 1}
