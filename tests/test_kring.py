"""Group ring operators: twisted action, Demazure, localization, bar, eta."""

import pytest

from affgroth.cartan import from_type
from affgroth.coefq import CoefQ, ONE, Q
from affgroth.errors import NonQInput
from affgroth.groth import GrothTable
from affgroth.kring import (demazure, demazure_word, eta_embed, from_json,
                            from_terms, in_window, j_map, k_one, k_scalar,
                            k_zero, monomial, orbit_sum, psi, reflect_act,
                            to_json, weyl_act)
from affgroth import weyl
from affgroth.weights import Weight

import oracles


def test_monomial_normalization():
    cd = from_type("A2~")
    # e^delta is the scalar q
    assert monomial(cd, cd.delta()) == k_scalar(cd, Q)
    f = monomial(cd, cd.Lam(1) - cd.alpha(0))
    ((mu, c),) = f.terms.items()
    assert mu.m[cd.node0] == 0
    assert c == CoefQ.q_power(-1)
    assert monomial(cd, cd.zero(), CoefQ.from_int(0)).is_zero()


def test_ring_basics():
    cd = from_type("A1~")
    rng = oracles.rng_for("kring-ring")
    for _ in range(20):
        f = oracles.random_element(cd, rng)
        g = oracles.random_element(cd, rng)
        h = oracles.random_element(cd, rng)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert (f - f).is_zero()
        assert f * k_one(cd) == f
        assert f * k_zero(cd) == k_zero(cd)
        assert 2 * f == f + f
    assert not any(c.is_zero() for c in (f * g + h).terms.values())


def test_pow_and_inverse_monomial():
    cd = from_type("A1~")
    t = monomial(cd, cd.Lam(1), Q)
    assert t ** 3 == monomial(cd, 3 * cd.Lam(1), CoefQ.q_power(3))
    assert t ** -2 == monomial(cd, -2 * cd.Lam(1), CoefQ.q_power(-2))
    assert (t * t ** -1) == k_one(cd)
    two = k_one(cd) + monomial(cd, cd.Lam(0))
    with pytest.raises(ValueError):
        two.inverse_monomial()


def test_weyl_act_twist():
    cd = from_type("A1~")
    # s_0 Lam_0 = Lam_0 - alpha_0 = Lam_0 + alpha_1 - delta
    f = weyl_act(weyl.canonicalize(cd, (0,)), monomial(cd, cd.Lam(0)))
    ((mu, c),) = f.terms.items()
    assert mu == Weight((1, 0), (0, 1))
    assert c == CoefQ.q_power(-1)


def test_weyl_act_compose():
    cd = from_type("A2~")
    rng = oracles.rng_for("kring-act")
    for _ in range(15):
        f = oracles.random_element(cd, rng)
        u = weyl.canonicalize(cd, oracles.random_word(cd, rng))
        v = weyl.canonicalize(cd, oracles.random_word(cd, rng))
        assert weyl_act(u, weyl_act(v, f)) == weyl_act(u * v, f)
        for i in cd.labels:
            si = weyl.canonicalize(cd, (i,))
            assert reflect_act(cd, i, f) == weyl_act(si, f)
            assert reflect_act(cd, i, reflect_act(cd, i, f)) == f
        assert weyl_act(u, f * f) == weyl_act(u, f) * weyl_act(u, f)


def test_demazure_closed_form_cases():
    cd = from_type("A1~")
    a1 = cd.alpha(1)
    # <h_1, mu> = 2: three terms down the alpha string
    f = demazure(1, monomial(cd, 2 * cd.Lam(1)))
    want = from_terms(cd, [(2 * cd.Lam(1) - k * a1, ONE) for k in range(3)])
    assert f == want
    # <h_1, mu> = -1: annihilated
    assert demazure(1, monomial(cd, -cd.Lam(1) + cd.Lam(0))).is_zero()
    # <h_1, mu> = -2: one negated term back up the string
    f = demazure(1, monomial(cd, -2 * cd.Lam(1)))
    assert f == from_terms(cd, [(-2 * cd.Lam(1) + a1, -ONE)])
    assert demazure(1, k_one(cd)) == k_one(cd)


def test_demazure_vs_division_oracle():
    for t in ("A1~", "A2~", "C2~"):
        cd = from_type(t)
        rng = oracles.rng_for("kring-demazure-" + t)
        for _ in range(12):
            f = oracles.random_element(cd, rng)
            for i in cd.labels:
                assert demazure(i, f) == oracles.demazure_by_division(cd, i, f)


def test_demazure_idempotent_invariant():
    cd = from_type("A2~")
    rng = oracles.rng_for("kring-dem-idem")
    for _ in range(15):
        f = oracles.random_element(cd, rng)
        for i in cd.labels:
            g = demazure(i, f)
            assert demazure(i, g) == g
            assert reflect_act(cd, i, g) == g


def test_demazure_braid():
    cd = from_type("A2~")
    rng = oracles.rng_for("kring-dem-braid")
    for _ in range(10):
        f = oracles.random_element(cd, rng, max_terms=4)
        assert demazure_word((0, 1, 0), f) == demazure_word((1, 0, 1), f)
    cd4 = from_type("C2~")
    rng = oracles.rng_for("kring-dem-braid4")
    for _ in range(6):
        f = oracles.random_element(cd4, rng, max_terms=3)
        assert demazure_word((0, 1, 0, 1), f) == demazure_word((1, 0, 1, 0), f)


def test_j_map_is_ring_map():
    cd = from_type("A2~")
    rng = oracles.rng_for("kring-jmap")
    for _ in range(12):
        f = oracles.random_element(cd, rng, max_terms=4)
        g = oracles.random_element(cd, rng, max_terms=4)
        w = weyl.canonicalize(cd, oracles.random_word(cd, rng))
        assert j_map(w, f * g) == j_map(w, f) * j_map(w, g)
        assert j_map(w, f + g) == j_map(w, f) + j_map(w, g)
        # image lands in exp(Q)
        assert all(not any(mu.l) for mu in j_map(w, f).terms)
    assert j_map(w, k_one(cd)) == k_one(cd)


def test_j_map_identity_on_lambda_terms():
    cd = from_type("A1~")
    e = weyl.identity(cd)
    # j_e kills the Lambda part only
    f = monomial(cd, cd.Lam(0) - cd.alpha(1), Q)
    assert j_map(e, f) == monomial(cd, -cd.alpha(1), Q)


def test_psi_involution_and_hom():
    cd = from_type("A2~")
    rng = oracles.rng_for("kring-psi")
    for _ in range(12):
        f = oracles.random_element(cd, rng, max_terms=4)
        g = oracles.random_element(cd, rng, max_terms=4)
        assert psi(psi(f)) == f
        assert psi(f + g) == psi(f) + psi(g)
        assert psi(f * g) == psi(f) * psi(g)
    assert psi(k_scalar(cd, Q)) == k_scalar(cd, CoefQ.q_power(-1))
    assert psi(k_one(cd)) == k_one(cd)


def test_psi_on_monomial():
    cd = from_type("A1~")
    # e^{L0 - a1} -> e^{L0 - eta(-a1)}; eta(-a1) = -a1 + 2L1 - 2L0
    f = psi(monomial(cd, cd.Lam(0) - cd.alpha(1)))
    assert f == monomial(cd, 3 * cd.Lam(0) - 2 * cd.Lam(1) + cd.alpha(1))


def test_eta_embed():
    cd = from_type("A2~")
    rng = oracles.rng_for("kring-eta")
    for _ in range(10):
        f = oracles.random_element(cd, rng, max_terms=4, l_span=0)
        g = eta_embed(f)
        # level-zero, s_i-invariant keys, and j_e recovers the input
        assert all(cd.level(mu) == 0 for mu in g.terms)
        for i in cd.labels:
            assert reflect_act(cd, i, g) == g
        assert j_map(weyl.identity(cd), g) == f
    with pytest.raises(NonQInput):
        eta_embed(monomial(cd, cd.Lam(0)))


def test_in_window():
    cd = from_type("A2~")
    f = k_one(cd) + monomial(cd, -2 * cd.Lam(0))
    assert in_window(f, -3, 0)
    assert not in_window(f, -1, 0)
    assert not in_window(f + monomial(cd, cd.Lam(1)), -3, 0)


def test_orbit_sum():
    cd = from_type("A2~")
    f = orbit_sum(cd, -cd.Lam(1) + cd.Lam(0))
    assert len(f.terms) == 3  # classical weight of the dual vector rep
    for i in cd.classical_nodes():
        assert reflect_act(cd, i, f) == f
    assert orbit_sum(cd, cd.zero()) == k_one(cd)


def test_json_round_trip():
    cd = from_type("C2~")
    rng = oracles.rng_for("kring-json")
    for _ in range(15):
        f = oracles.random_element(cd, rng)
        assert from_json(cd, to_json(f)) == f
    assert from_json(cd, to_json(k_zero(cd))).is_zero()


def _j_map_term_sum(x, f):
    """j_x(f) added term by term: the letters of x applied one reflection at
    a time, each image delta-normalized and added into a dict of CoefQ."""
    cd = f.cd
    zero_l = (0,) * cd.rank
    out = {}
    for mu, c in f.terms.items():
        img = mu
        for i in reversed(x.word):
            img = cd.reflect(i, img)
        n, nu = cd.normalize(Weight(zero_l, img.m))
        out[nu] = out.get(nu, CoefQ.from_int(0)) + c * CoefQ.q_power(n)
    return {nu: c for nu, c in out.items() if not c.is_zero()}


@pytest.mark.parametrize("t", ["A1~", "A2~", "C2~", "A3~", "D4~"])
def test_j_map_equals_term_sum(t):
    cd = from_type(t)
    rng = oracles.rng_for("kring-jmap-sum-" + t)
    cancelled = mixed = 0
    for _ in range(10):
        x = weyl.canonicalize(cd, oracles.random_word(cd, rng, max_len=5))
        f = oracles.random_element(cd, rng, max_terms=5)
        # mu + x^{-1}(Lam_k) has the same j_x image as mu; its coefficient
        # either cancels mu's or adds to it over a (1 - q^k) denominator
        pairs = []
        for mu, c in f.terms.items():
            k = rng.choice(cd.labels)
            twin = cd.Lam(k)
            for i in x.word:
                twin = cd.reflect(i, twin)
            den = CoefQ.one_minus_q_power(rng.randint(1, 3)).inv()
            pairs.append((mu + twin, -c if rng.random() < 0.5 else c * den))
        f = f + from_terms(cd, pairs)
        want = _j_map_term_sum(x, f)
        assert j_map(x, f).terms == want, (t, x.word)
        keys = {}
        for mu, c in f.terms.items():
            (nu,) = _j_map_term_sum(x, monomial(cd, mu, c))
            keys.setdefault(nu, []).append(c.den)
        cancelled += sum(1 for nu in keys if nu not in want)
        mixed += sum(1 for dens in keys.values() if len(set(dens)) > 1)
    assert cancelled and mixed, (cancelled, mixed)


def test_j_map_equals_term_sum_on_groth():
    # localizations of G_w: mixed (1 - q^k) denominators, and every key
    # cancels at the x not above w
    cd = from_type("C2~")
    table = GrothTable(cd)
    elems = [u for layer in weyl.enumerate_up_to(cd, 3) for u in layer]
    for w in elems[::3]:
        g = table.compute(w)
        for x in elems:
            got = j_map(x, g)
            assert got.terms == _j_map_term_sum(x, g), (w.word, x.word)
            if not weyl.bruhat_leq(w, x):
                assert got.is_zero()
