"""Group ring operators: twisted action, Demazure, localization, bar, eta."""

import json
from fractions import Fraction

import pytest

from affgroth.cartan import build_cartan, from_type
from affgroth.coefq import CoefQ, ONE, Q
from affgroth.errors import NonQInput
from affgroth.groth import GrothTable
from affgroth.kring import (KElement, demazure, eta_embed, from_json,
                            from_terms, in_window, j_map, k_one, k_scalar,
                            k_zero, monomial, orbit_sum, psi, reflect_act,
                            relabel, relabel_equals, to_json, weyl_act)
from affgroth.probes import nonvanishing_probes
from affgroth import keys as keys_mod, kring, probes, weyl
from affgroth.weights import Weight, parse_weight

import oracles


def test_monomial_normalization():
    cd = from_type("A2~")
    # e^delta is the scalar q
    assert monomial(cd, cd.delta()) == k_scalar(cd, Q)
    f = monomial(cd, cd.Lam(1) - cd.alpha(0))
    ((mu, c),) = f.terms.items()
    assert mu.m[cd.node0] == 0
    assert c == CoefQ.q_power(-1)
    assert monomial(cd, oracles.zero_weight(cd), CoefQ.from_int(0)).is_zero()


def test_constructor_normalizes_like_monomial():
    # the public constructor and monomial share from_terms: a weight with a
    # delta part becomes q-powers on its normalized key, and a zero
    # coefficient drops
    cd = from_type("A1~")
    a0 = cd.alpha(0)
    assert KElement(cd, {a0: ONE}) == monomial(cd, a0)
    assert KElement(cd, {a0: ONE}) == monomial(cd, -cd.alpha(1), Q)
    assert KElement(cd, {cd.delta(): ONE}) == k_scalar(cd, Q)
    assert KElement(cd, {a0: CoefQ.from_int(0)}).is_zero()


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
        uv = weyl.canonicalize(cd, u.word + v.word)
        assert weyl_act(u, weyl_act(v, f)) == weyl_act(uv, f)
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
        a = b = f
        for i, j in zip((0, 1, 0), (1, 0, 1)):
            a, b = demazure(i, a), demazure(j, b)
        assert a == b
    cd4 = from_type("C2~")
    rng = oracles.rng_for("kring-dem-braid4")
    for _ in range(6):
        f = oracles.random_element(cd4, rng, max_terms=3)
        a = b = f
        for i, j in zip((0, 1, 0, 1), (1, 0, 1, 0)):
            a, b = demazure(i, a), demazure(j, b)
        assert a == b


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
    assert orbit_sum(cd, oracles.zero_weight(cd)) == k_one(cd)


def test_json_round_trip():
    cd = from_type("C2~")
    rng = oracles.rng_for("kring-json")
    for _ in range(15):
        f = oracles.random_element(cd, rng)
        assert from_json(cd, to_json(f), {}, {}) == f
    assert from_json(cd, to_json(k_zero(cd)), {}, {}).is_zero()


@pytest.mark.parametrize("part,value", [
    ("num_coeffs", [[0, True]]), ("den_coeffs", [[0, True]]),
    ("den_coeffs", [[False, 1]]), ("num_coeffs", [[0, 1.0]]),
    ("l", True), ("m", True)])
def test_from_json_memos_refuse_bool_after_int(part, value):
    # memos shared by two calls, as one cache load shares them between its
    # entries: the second term equals the first as a key, (0, True) ==
    # (0, 1) with the same hash, and is still refused
    cd = from_type("A1~")
    f = monomial(cd, cd.Lam(1) + cd.alpha(1))  # both coordinates 1 at node 1
    good = to_json(f)
    assert good[0]["num_coeffs"] == good[0]["den_coeffs"] == [[0, 1]]
    weights, coefs = {}, {}
    assert from_json(cd, good, weights, coefs) == f
    bad = json.loads(json.dumps(good))
    if part in ("l", "m"):
        bad[0]["weight"][part][1] = value
    else:
        bad[0][part] = value
    with pytest.raises(ValueError):
        from_json(cd, bad, weights, coefs)
    # the good term decoded again is the one value each memo holds: the
    # weight memo holds its packed key and its bound
    g = from_json(cd, good, weights, coefs)
    (key, c), = g.keys.items()
    mu, = g.terms
    assert len(weights) == 1 and weights[mu.l, mu.m] == (key, g.bound)
    assert len(coefs) == 1 and c is coefs[((0, 1),), ((0, 1),)]


def _by_reflections(cd, x, mu):
    """x(mu) with the letters of x applied one reflection at a time."""
    for i in reversed(x.word):
        mu = cd.reflect(i, mu)
    return mu


def _j_map_images(x, f):
    """(image weight, coefficient) per term of f under j_x."""
    cd = f.cd
    zero_l = (0,) * cd.rank
    return [(Weight(zero_l, _by_reflections(cd, x, mu).m), c)
            for mu, c in f.terms.items()]


def _collisions(cd, images, want):
    """(keys whose images cancelled, keys whose images carry more than one
    denominator) for the term sum `want` of the (weight, CoefQ) images."""
    dens = {}
    for mu, c in images:
        dens.setdefault(cd.normalize(mu)[1], []).append(c.den)
    return (sum(1 for nu in dens if nu not in want),
            sum(1 for ds in dens.values() if len(set(ds)) > 1))


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
            den = (ONE - CoefQ.q_power(rng.randint(1, 3))).inv()
            pairs.append((mu + twin, -c if rng.random() < 0.5 else c * den))
        f = f + from_terms(cd, pairs)
        images = _j_map_images(x, f)
        want = oracles.term_sum(cd, images)
        assert j_map(x, f).terms == want, (t, x.word)
        c, m = _collisions(cd, images, want)
        cancelled += c
        mixed += m
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
            assert got.terms == oracles.term_sum(cd, _j_map_images(x, g)), \
                (w.word, x.word)
            if not weyl.bruhat_leq(w, x):
                assert got.is_zero()


@pytest.mark.parametrize("t,length", [("A1~", 4), ("A2~", 3), ("C2~", 3)])
def test_j_map_vanishes_agrees_on_groth(t, length):
    # every (w, x) pair: nonvanishing_probes answers as the canonical j_map
    # does, on both sides of the probe: every x >= w is nonzero
    cd = from_type(t)
    table = GrothTable(cd)
    elems = [u for layer in weyl.enumerate_up_to(cd, length) for u in layer]
    seen = {True: 0, False: 0}
    for w in elems:
        g = table.compute(w)
        got = nonvanishing_probes(g, elems)
        assert got == [x for x in elems if not j_map(x, g).is_zero()], \
            (t, w.word)
        assert all(x in got for x in elems if weyl.bruhat_leq(w, x)), \
            (t, w.word)
        seen[False] += len(got)
        seen[True] += len(elems) - len(got)
    assert seen[True] and seen[False], seen


def _cancelling_triples(cd, rng, x, span=2):
    """(f, bad): f sums one to four triples mu, mu + x^-1(Lam_k) and
    mu + x^-1(Lam_k + Lam_j), which share their j_x image, with
    coefficients a/(1 - q^i), b/(1 - q^k) and -(a + b), which cancel there
    over three denominators; bad is f with one coefficient of a triple
    changed.  Each mu has coordinates of size <= span."""
    xinv = weyl.inverse(x)
    pairs = []
    for _ in range(rng.randint(1, 4)):
        mu = oracles.random_weight(cd, rng, l_span=span, m_span=span)
        lam = cd.Lam(rng.choice(cd.labels))
        t1 = weyl.act(xinv, lam)
        t2 = weyl.act(xinv, lam + cd.Lam(rng.choice(cd.labels)))
        a = oracles.random_coefq(rng, shift_span=2) * \
            (ONE - CoefQ.q_power(rng.randint(1, 3))).inv()
        b = oracles.random_coefq(rng, shift_span=2) * \
            (ONE - CoefQ.q_power(rng.randint(1, 3))).inv()
        pairs += [(mu, a), (mu + t1, b), (mu + t2, -(a + b))]
    f = from_terms(cd, pairs)
    mu, c = pairs[rng.randrange(len(pairs))]
    return f, f + monomial(cd, mu, c * Q)


@pytest.mark.parametrize("t", ["A1~", "A2~", "C2~", "A3~"])
def test_j_map_vanishes_on_cancelling_triples(t):
    # the triples of _cancelling_triples vanish under j_x, and changing
    # one coefficient of them does not
    cd = from_type(t)
    rng = oracles.rng_for("kring-vanishes-" + t)
    for _ in range(10):
        x = weyl.canonicalize(cd, oracles.random_word(cd, rng, max_len=5))
        f, bad = _cancelling_triples(cd, rng, x)
        assert j_map(x, f).is_zero()
        assert nonvanishing_probes(f, [x]) == [], (t, x.word)
        assert not j_map(x, bad).is_zero()
        assert nonvanishing_probes(bad, [x]) == [x], (t, x.word)


@pytest.mark.parametrize("name", ["G2~", "A2^(2)"])
def test_nonvanishing_probes_large_coordinates_long_words(name):
    # the packed pairing keys at their widest: coordinates up to 1,000,
    # |a_ij| up to 3 (G2~) and 4 (A2^(2)) and probes to length 9, so each
    # letter can multiply the digits by 1 + |a_ij|.  The triples of
    # _cancelling_triples at an x of length >= 8 vanish there, one changed
    # coefficient does not, and at every probe the verdict is the
    # canonical j_map's
    cd = build_cartan(dict(oracles.CUSTOM_GCMS)[name])
    rng = oracles.rng_for("kring-long-probes-" + name)
    elems = [u for layer in weyl.enumerate_up_to(cd, 9) for u in layer]
    longest = [u for u in elems if u.length >= 8]
    seen = {True: 0, False: 0}
    for _ in range(4):
        x = rng.choice(longest)
        f, bad = _cancelling_triples(cd, rng, x, span=1000)
        for g in (f, bad):
            got = nonvanishing_probes(g, elems)
            assert got == [u for u in elems if not j_map(u, g).is_zero()], \
                (name, x.word)
            seen[True] += len(elems) - len(got)
            seen[False] += len(got)
            _assert_packed_images(g, elems)
        assert x not in nonvanishing_probes(f, elems)
        assert nonvanishing_probes(bad, [x]) == [x]
    assert seen[True] and seen[False], seen


def _assert_packed_images(f, xs):
    """Every packed image that nonvanishing_probes makes of f's terms on
    the way to xs holds the pairings <h_j, alpha> of the alpha-part of the
    delta-normalized x(mu), each digit within (0, 2^b) with no carry, and
    the q-power shift + delta part.  A wrong image can still leave a
    verdict right, as when every term on a key is moved alike, so the
    images are compared themselves."""
    cd = f.cd
    _, steps, keys = probes._pairing_keys(f, max(x.length for x in xs))
    b = steps[0][1].bit_length()
    half = 1 << (b - 1)
    memo = {(): (keys, [c.shift for c in f.keys.values()])}
    terms = [(f.layout.unpack(k), c) for k, c in f.keys.items()]
    for x in xs:
        ks, es = probes._probe_images(steps, memo, x.word)
        for (mu, c), k, e in zip(terms, ks, es):
            n, nu = cd.normalize(weyl.act(x, mu))
            want = [sum(a * m for a, m in zip(row, nu.m)) for row in cd.gcm]
            digits = [(k >> b * j) % (1 << b) for j in range(cd.rank)]
            assert [d - half for d in digits] == want, (x.word, mu)
            assert 0 not in digits
            assert k == sum(d << b * j for j, d in enumerate(digits))
            assert e == c.shift + n


@pytest.mark.parametrize("name,gcm", oracles.CUSTOM_GCMS,
                         ids=[n for n, _ in oracles.CUSTOM_GCMS])
def test_nonvanishing_probes_on_custom_gcms(name, gcm):
    # data given by a matrix, twisted included: for every w to length 2 the
    # verdict at every x to length 3 is the canonical j_map's, for G_w and
    # for G_w with the constant of its deepest-denominator numerator moved
    # by one, which j_e must see
    cd = build_cartan(gcm)
    table = GrothTable(cd)
    elems = [u for layer in weyl.enumerate_up_to(cd, 3) for u in layer]
    for w in elems:
        if w.length > 2:
            break
        g = table.compute(w)
        mu = max(g.terms, key=lambda nu: len(g.terms[nu].den))
        c = g.terms[mu]
        edited = from_terms(cd, [(nu, d) for nu, d in g.terms.items()
                                 if nu != mu] + [(mu, CoefQ.make(
                                     (c.num[0] + 1,) + c.num[1:], c.shift,
                                     c.den))])
        for f in (g, edited):
            assert nonvanishing_probes(f, elems) == [
                x for x in elems if not j_map(x, f).is_zero()], (name, w.word)
        if w.length:
            assert weyl.identity(cd) in nonvanishing_probes(edited, elems)


def test_verify_makes_only_element_layouts():
    # the probes size their pairing keys themselves: a verify leaves on the
    # datum only the layouts that elements use, those layout_for makes
    for t, length in (("A2~", 4), ("C2~", 3), ("A3~", 3)):
        cd = from_type(t)
        table = GrothTable(cd)
        for layer in weyl.enumerate_up_to(cd, length):
            for w in layer:
                assert table.verify(w) == []
        assert cd._key_layouts
        assert all(bits % keys_mod.KEY_BITS == 0
                   for bits in cd._key_layouts), (t, sorted(cd._key_layouts))


@pytest.mark.parametrize("t", ["A2~", "C2~", "A3~"])
def test_relabel_equals_near_misses(t):
    # relabel_equals(f, p, g) is relabel(f, p) == g without building the
    # relabelled element: true on the image, false on its near misses, one
    # coefficient q-shifted by one either way, a term dropped, a term
    # added, and one key moved by a simple root at the same size.  Every
    # non-identity automorphism of these types moves node0, so some images
    # carry a delta part n != 0 into their q-shift
    cd = from_type(t)
    table = GrothTable(cd)
    elems = [u for layer in weyl.enumerate_up_to(cd, 3) for u in layer]
    step = cd.alpha(next(i for i in cd.labels if i != cd.node0))
    moved = 0
    for p in cd.automorphisms()[1:]:
        for w in elems[1::3]:
            f = table.compute(w)
            h = relabel(f, p)
            assert relabel_equals(f, p, h)
            moved += sum(1 for _, n in kring._relabel_images(
                f.layout, f.keys, p) if n)
            for mu, c in list(h.terms.items())[:3]:
                rest = {nu: d for nu, d in h.terms.items() if nu != mu}
                nu = mu + step
                near = [{**h.terms, mu: c * Q}, rest,
                        {**h.terms, mu: c * CoefQ.q_power(-1)}]
                if nu not in h.terms:
                    near += [{**h.terms, nu: ONE}, {**rest, nu: c}]
                for terms in near:
                    assert relabel(f, p) != KElement(cd, terms)
                    assert not relabel_equals(f, p, KElement(cd, terms)), \
                        (t, p, w.word)
    assert moved


def _demazure_images(cd, i, f):
    """D_i(e^mu) expanded per term: m = <h_i, mu> >= 0 gives e^{mu - k alpha_i}
    for k = 0..m, m <= -2 gives -e^{mu + k alpha_i} for k = 1..-m-1."""
    a = cd.alpha(i)
    out = []
    for mu, c in f.terms.items():
        p = cd.pairing(i, mu)
        if p >= 0:
            out += [(mu - k * a, c) for k in range(p + 1)]
        else:
            out += [(mu + k * a, -c) for k in range(1, -p)]
    return out


# make's denominators for test_collect_one_lcm_sum_equals_add_fold, all in
# R: products of (1 - q^k), other products of Phi_n, led negative, and
# with a q-power
_SUM_DENS = [(1, -1), (1, 0, -1), (1, 1), (1, 1, 1), (-1, 0, 0, 1),
             (1, -1, 1), (1, 0, 1), (-1, -1), (1, 1, 1, 1, 1),
             (1, -1, 0, -1, 1), (0, 1, -1), (0, 0, -1, -1), (1,)]
# denominators outside R, refused by make: 1 + 3q + q^2, 1 + q^3 + q^4 (a
# factor outside R), -3 + q (an end coefficient not +-1) and three with an
# integer content
_SUM_DENS_OUTSIDE_R = [(1, 3, 1), (1, 0, 0, 1, 1), (-3, 1), (2, 0, 2),
                       (3, 3), (0, 0, 2, -2)]


def test_collect_one_lcm_sum_equals_add_fold():
    # _collect adds a key's terms over two or more denominators as integer
    # lists over one lcm and reduces once; the result must be the left fold
    # of CoefQ + over the same terms in the same order.  The terms carry
    # q-shifts in the numerator, the denominator and the key's delta part;
    # a key holds 2-6 distinct denominators; a third of the keys add each
    # term's negation split over another denominator, so the key's sum is
    # zero and the key is dropped.  oracles.term_sum adds with CoefQ +,
    # which runs the same q_shifted_sum as _collect, so every key's sum is
    # also checked by its value at q = 2, 3 and 5, with Fractions (q = 3 is
    # skipped where a term has a pole there)
    cd = from_type("A2~")
    rng = oracles.rng_for("kring-collect-lcm")
    delta = cd.delta()
    mu, nu = cd.Lam(1) - cd.alpha(2), cd.alpha(1)
    split = CoefQ.make((1,), den=(1, 1))  # -c = -c/(1+q) - c q/(1+q)
    seen = {"dens": set(), "cancelled": 0, "kept": 0}
    for den in _SUM_DENS_OUTSIDE_R:
        with pytest.raises(ValueError, match="outside R"):
            CoefQ.make((1,), 0, den)
    for _ in range(150):
        pairs = []
        for den in rng.sample(_SUM_DENS, rng.randint(2, 6)):
            for _ in range(rng.randint(1, 2)):
                content = rng.choice((1, 1, 2, -3))
                num = tuple(content * rng.randint(-3, 3)
                            for _ in range(rng.randint(1, 3)))
                c = CoefQ.make(num, rng.randint(-2, 2), den)
                if not c.is_zero():
                    pairs.append((mu + rng.randint(-2, 2) * delta, c))
        cancel = rng.random() < 1 / 3
        if cancel:
            pairs += [(key, -c * x) for key, c in list(pairs)
                      for x in (split, ONE - split)]
            rng.shuffle(pairs)
        pairs.append((nu, CoefQ.make((1, 2), 0, (1, 0, -1))))
        want = oracles.term_sum(cd, pairs)
        assert from_terms(cd, pairs).terms == want, pairs
        for x in (Fraction(2), Fraction(3), Fraction(5)):
            values = {}
            try:
                for weight, c in pairs:
                    n, key = cd.normalize(weight)
                    values[key] = values.get(key, 0) + \
                        oracles.evaluate(c, x) * x ** n
            except ZeroDivisionError:
                continue
            assert set(want) <= set(values)
            assert all(v == (oracles.evaluate(want[key], x) if key in want
                             else 0) for key, v in values.items()), (pairs, x)
        dens = {c.den for key, c in pairs if key != nu}
        if len(dens) > 1:
            seen["dens"].add(len(dens))
            if cancel:
                assert len(want) == 1
                seen["cancelled"] += 1
            else:
                seen["kept"] += len(want) == 2
    assert seen["dens"] >= {2, 3, 4, 5, 6}, seen
    assert seen["cancelled"] > 30 and seen["kept"] > 60, seen


@pytest.mark.parametrize("t", ["A1~", "A2~", "C2~", "A3~", "D4~"])
def test_operators_equal_term_sum(t):
    # every operator equals the term-by-term sum of its per-term images; the
    # inputs carry twins whose images cancel or meet over mixed (1 - q^k)
    # denominators
    cd = from_type(t)
    rng = oracles.rng_for("kring-op-sum-" + t)
    delta = cd.delta()
    seen = {}  # operator -> [cancelled keys, mixed-denominator keys]

    def check(name, got, images):
        want = oracles.term_sum(cd, images)
        assert got.terms == want, (t, name)
        counts = seen.setdefault(name, [0, 0])
        for k, n in enumerate(_collisions(cd, images, want)):
            counts[k] += n

    def twin(c):
        # cancels c, doubles it, or meets it over a (1 - q^k) denominator
        return rng.choice((c, -c, c * (ONE - CoefQ.q_power(
            rng.randint(1, 3))).inv()))

    for _ in range(10):
        f = oracles.random_element(cd, rng, max_terms=5)
        g = from_terms(cd, [(mu, twin(-c)) for mu, c in f.terms.items()])
        fi, gi = list(f.terms.items()), list(g.terms.items())
        check("+", f + g, fi + gi)
        check("-", f - g, fi + [(mu, -c) for mu, c in gi])
        check("*", f * g, [(m1 + m2, c1 * c2) for m1, c1 in fi
                           for m2, c2 in gi])
        # the same keys again, k deltas up, with the q^-k that cancels it
        pairs = fi + [(mu + k * delta, twin(-c) * CoefQ.q_power(-k))
                      for (mu, c), k in zip(fi, (rng.randint(-2, 2)
                                                 for _ in fi))]
        check("from_terms", from_terms(cd, pairs), pairs)
        h = f + g
        x = weyl.canonicalize(cd, oracles.random_word(cd, rng, max_len=5))
        check("weyl_act", weyl_act(x, h),
              [(_by_reflections(cd, x, mu), c) for mu, c in h.terms.items()])
        for i in cd.labels:
            check("reflect_act", reflect_act(cd, i, h),
                  [(cd.reflect(i, mu), c) for mu, c in h.terms.items()])
            # D_i e^{s_i(mu) - alpha_i} = -D_i e^mu
            fd = f + from_terms(cd, [(cd.reflect(i, mu) - cd.alpha(i), twin(c))
                                     for mu, c in fi])
            check("demazure", demazure(i, fd), _demazure_images(cd, i, fd))
        zero_l = (0,) * cd.rank
        check("psi", psi(h),
              [(Weight(mu.l, zero_l) - oracles.eta(cd, Weight(zero_l, mu.m)),
                c.subs_q_inverse()) for mu, c in h.terms.items()])
        e = oracles.random_element(cd, rng, max_terms=5, l_span=0)
        check("eta_embed", eta_embed(e),
              [(oracles.eta(cd, mu), c) for mu, c in e.terms.items()])
    for name in ("+", "-", "*", "from_terms", "demazure"):
        assert all(seen[name]), (name, seen[name])


# --- packed keys against the Weight-keyed reference --------------------------

_REFERENCE_DATA = [("A2~", 4), ("C2~", 4), ("A3~", 3), ("D4~", 3)] + [
    (name, 3) for name, _ in oracles.CUSTOM_GCMS]


@pytest.mark.parametrize("name,length", _REFERENCE_DATA,
                         ids=[n for n, _ in _REFERENCE_DATA])
def test_packed_operators_equal_reference(name, length):
    # every entry of the table, and the descent factors and sums around it:
    # each packed operator's terms are the reference operator's
    # (oracles.ref_*), ==, relabel_equals and the json round trip agree
    gcm = dict(oracles.CUSTOM_GCMS).get(name)
    cd = build_cartan(gcm) if gcm else from_type(name)
    table, elems = oracles.layer_table(cd, length)
    e = weyl.identity(cd)
    prev = k_one(cd)
    for w in elems:
        g = table.compute(w)
        t = g.terms
        assert g == KElement(cd, t) and from_json(cd, to_json(g), {}, {}) == g
        for i in cd.labels:
            assert demazure(i, g).terms == oracles.ref_demazure(cd, i, t)
            assert reflect_act(cd, i, g).terms == \
                oracles.ref_weyl_act(cd, (i,), t)
            factor = monomial(cd, cd.rho_J((i,))) * (
                k_one(cd) - monomial(cd, -cd.alpha(i)))
            assert (factor * g).terms == \
                oracles.ref_mul(cd, factor.terms, t)
        assert weyl_act(w, g).terms == oracles.ref_weyl_act(cd, w.word, t)
        for x in (e, w):
            assert j_map(x, g).terms == oracles.ref_j_map(cd, x.word, t)
        assert psi(g).terms == oracles.ref_psi(cd, t)
        loc = j_map(e, g)
        assert eta_embed(loc).terms == \
            oracles.ref_eta_embed(cd, loc.terms)
        assert (g + prev).terms == oracles.ref_add(cd, t, prev.terms)
        assert (g - prev).terms == oracles.ref_add(
            cd, t, {mu: -c for mu, c in prev.terms.items()})
        if len(g) * len(prev) <= 2000:
            assert (g * prev).terms == oracles.ref_mul(cd, t, prev.terms)
        assert (g == prev) == (t == prev.terms)
        for p in cd.automorphisms()[1:]:
            h = relabel(g, p)
            assert h.terms == oracles.ref_relabel(cd, t, p)
            assert relabel_equals(g, p, h)
            assert relabel_equals(g, p, g) == (h.terms == t)
        prev = g


def _huge(cd, k, bits):
    """k-th seeded monomial of coordinates of size about 2^bits, built from
    its text through parse_weight and monomial; m[node0] is 0, so its
    q-power stays within a cache's exponent ceiling."""
    rng = oracles.rng_for("huge-%d-%d" % (k, bits))
    parts = ["%d*%s%d" % (rng.randint(1 << (bits - 1), 1 << bits), sym, i)
             for sym in "La" for i in cd.labels
             if rng.random() < 0.7 and (sym, i) != ("a", cd.node0)]
    return monomial(cd, parse_weight(" - ".join(parts) or "L0", cd.rank),
                    oracles.random_coefq(rng))


@pytest.mark.parametrize("bits", [20, 62, 100])
@pytest.mark.parametrize("name", ["A1~", "A2~", "C2~", "G2~"])
def test_wide_coordinates_equal_reference(name, bits):
    # coordinates of 2^20 fit the narrowest layout; 2^62 and 2^100 need
    # wider ones, and products and Weyl words push past those too
    gcm = dict(oracles.CUSTOM_GCMS).get(name)
    cd = build_cartan(gcm) if gcm else from_type(name)
    rng = oracles.rng_for("wide-%s-%d" % (name, bits))
    f = _huge(cd, 0, bits) + _huge(cd, 1, bits) + k_one(cd)
    g = _huge(cd, 2, bits) - monomial(cd, cd.alpha(0))
    # the bound holds every digit; past the narrowest half it is exact
    exact = max(keys_mod.weight_size(cd, mu.l, mu.m) for mu in f.terms)
    assert f.layout.half > f.bound >= exact
    assert f.bound == exact or f.layout.bits == keys_mod.KEY_BITS
    assert (f.layout.bits > keys_mod.KEY_BITS) == (
        bits > keys_mod.KEY_BITS - 4)
    t, u = f.terms, g.terms
    assert from_json(cd, to_json(f), {}, {}) == f
    assert (f * g).terms == oracles.ref_mul(cd, t, u)
    assert (f + g).terms == oracles.ref_add(cd, t, u)
    assert (f * f * g).terms == oracles.ref_mul(
        cd, oracles.ref_mul(cd, t, t), u)
    for _ in range(3):
        w = weyl.canonicalize(cd, oracles.random_word(cd, rng, length=6))
        assert weyl_act(w, f).terms == oracles.ref_weyl_act(cd, w.word, t)
        assert j_map(w, f).terms == oracles.ref_j_map(cd, w.word, t)
    assert psi(f).terms == oracles.ref_psi(cd, t)
    loc = j_map(weyl.identity(cd), f)
    assert eta_embed(loc).terms == oracles.ref_eta_embed(cd, loc.terms)
    for p in cd.automorphisms()[1:]:
        assert relabel(f, p).terms == oracles.ref_relabel(cd, t, p)
        assert relabel_equals(f, p, relabel(f, p))


@pytest.mark.parametrize("name", ["A1~", "A2~", "C2~", "A3~"])
def test_operations_cross_the_layout_half(name):
    # bounds past the narrowest layout's half: repacked one size up when
    # the exact digits need it, kept in place when only the bound does;
    # every result equals the reference
    cd = from_type(name)
    narrow = keys_mod.key_layout(cd, keys_mod.KEY_BITS)
    big = monomial(cd, Weight(((narrow.half // 3),) + (0,) * (cd.rank - 1),
                              (0,) * cd.rank))
    small = oracles.random_element(cd, oracles.rng_for("cross-" + name))
    assert big.layout is small.layout is narrow
    # a product whose digits pass the half: one size up
    sq = big * big * big * small
    assert sq.layout.bits == 2 * keys_mod.KEY_BITS
    assert sq.terms == oracles.ref_mul(cd, oracles.ref_mul(
        cd, oracles.ref_mul(cd, big.terms, big.terms), big.terms),
        small.terms)
    # a long Weyl word, whose proven bound passes the half
    w = weyl.canonicalize(cd, tuple(cd.labels) * 8)
    assert weyl_act(w, small).terms == oracles.ref_weyl_act(
        cd, w.word, small.terms)
    # s_1 24 times: the bound passes the half while the digits do not, so
    # the bound is tightened and the layout kept
    acted = small
    for _ in range(24):
        acted = reflect_act(cd, 1, acted)
    assert acted == small and acted.layout is narrow
    assert acted.bound < small.bound * narrow.letter_growth ** 24
    # a Demazure chain from a key a third of the half wide (its pairings
    # at the chain's labels are small): the first step's bound passes the
    # half, and so does the exact one grown by that step
    f = big * monomial(cd, cd.Lam(1), 1) * monomial(cd, cd.Lam(1), 1)
    want = f.terms
    for i in (1, cd.rank - 1, 1):
        f = demazure(i, f)
        want = oracles.ref_demazure(cd, i, want)
        assert f.terms == want
    assert f.layout.bits > keys_mod.KEY_BITS
    # +, * and == across two layouts: the same value in both
    wide = sq * (big * big * big).inverse_monomial()
    assert wide.layout is not small.layout and wide == small
    assert small == wide and not (small == wide * 2)
    assert (wide + small).terms == oracles.ref_add(cd, small.terms,
                                                   small.terms)
    assert (small * wide).terms == oracles.ref_mul(cd, small.terms,
                                                   small.terms)
    assert (wide - small).is_zero()
