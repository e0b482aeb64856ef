"""Scalars in R = Z[q^{+-1}, (1 - q^n)^{-1}]: canonical form, arithmetic
against rational evaluation and against reduction by the reference gcd,
series expansion, the refusal of values outside R, and the exact zero test
of a sum of q-fractions that verify's vanishing probes run."""

import json
from fractions import Fraction
from math import gcd

import pytest

from affgroth import coefq, qpoly, weyl
from affgroth.cartan import from_type
from affgroth.coefq import CoefQ, ONE, Q, ZERO, q_shifted_sum
from affgroth.kring import from_terms
from affgroth.probes import nonvanishing_probes
from affgroth.qpoly import peval, pgcd, pmul, pneg
from affgroth.weights import Weight

import oracles


ev = oracles.evaluate

POINTS = [Fraction(7, 5), Fraction(-3, 2), Fraction(2), Fraction(-5, 7)]


def assert_same(c, model):
    for x in POINTS:
        try:
            want = model(x)
        except ZeroDivisionError:  # point hit a pole; canonical c has it too
            continue
        assert ev(c, x) == want


def test_constants():
    assert ZERO.is_zero()
    assert ONE == CoefQ.make((1,))
    assert Q == CoefQ.q_power(1)
    assert CoefQ.from_int(0) is ZERO
    assert CoefQ.from_int(5) == CoefQ(0, (5,), ())


def test_canonical_make():
    # q^2 pulled into shift, common factor cancelled, positive leading den
    c = CoefQ.make((0, 0, -1, -1), den=(-1,))
    assert (c.shift, c.num, c.den) == (2, (1, 1), (1,))
    c = CoefQ.make((1, -1), den=(-1, 0, 1))  # (1-q)/(q^2-1) = -1/(1+q)
    assert (c.shift, c.num, c.den) == (0, (-1,), (1, 1))
    assert c.cyc == ((2, 1),)
    c = CoefQ.make((1,), den=(0, 0, -1))
    assert (c.shift, c.num, c.den) == (-2, (-1,), (1,))
    with pytest.raises(ZeroDivisionError):
        CoefQ.make((1,), den=())
    # R is over Z: an integer denominator other than +-1 is refused, as is
    # one with a factor that is no cyclotomic polynomial
    for num, den in (((0, 0, 2, 2), (2,)), ((1,), (0, 0, 3)),
                     ((1,), (1, 1, 0, 1)), ((1, -1), (2, -2))):
        with pytest.raises(ValueError, match="outside R"):
            CoefQ.make(num, den=den)


def test_canonical_invariants_random():
    rng = oracles.rng_for("coefq-canon")
    for _ in range(100):
        a = oracles.random_coefq(rng, max_deg=4, shift_span=3, max_factors=3)
        b = oracles.random_coefq(rng, max_deg=4, shift_span=3, max_factors=3)
        for c in (a, b, a * b, a + b, a - b):
            if c.is_zero():
                assert (c.shift, c.num, c.den) == (0, (), (1,))
                continue
            assert c.num[0] != 0
            assert c.den[0] != 0 and c.den[-1] > 0
            assert len(pgcd(c.num, c.den)) == 1


def test_arithmetic_vs_evaluation():
    # b.inv() is taken on units of R only; a b that is no unit is refused
    rng = oracles.rng_for("coefq-arith")
    refused = 0
    for _ in range(60):
        a = oracles.random_coefq(rng, max_deg=3, shift_span=2, max_factors=2)
        b = oracles.random_coefq(rng, max_deg=3, shift_span=2, max_factors=2)
        assert_same(a + b, lambda x: ev(a, x) + ev(b, x))
        assert_same(a - b, lambda x: ev(a, x) - ev(b, x))
        assert_same(a * b, lambda x: ev(a, x) * ev(b, x))
        assert_same(-a, lambda x: -ev(a, x))
        if not oracles.divides_q_products_by_gcd(
                b.num if b.num[-1] > 0 else pneg(b.num)):
            with pytest.raises(ValueError, match="outside R"):
                b.inv()
            refused += 1
        b = oracles.random_unit(rng)
        if not b.is_zero():
            assert_same(a * b.inv(), lambda x: ev(a, x) / ev(b, x))
            assert b * b.inv() == ONE
    assert refused > 20, refused


def test_arithmetic_against_gcd_reduction():
    # products, sums, inverses of units and q -> q^-1 on random elements of
    # R give the form that the reference gcd (qpoly.pgcd) reduces the
    # uncancelled quotient to, and its values at q = 2, 3 and 5.  The
    # package cancels only the Phi_n its exponents name and runs no gcd
    rng = oracles.rng_for("coefq-against-gcd")
    red = oracles.reduce_by_gcd

    def form(c):
        return c.shift, c.num, c.den

    cancelled = 0
    for _ in range(150):
        a = oracles.random_coefq(rng, max_deg=4, shift_span=3, max_factors=4)
        b = oracles.random_coefq(rng, max_deg=4, shift_span=3, max_factors=4)
        if rng.random() < 0.3:  # a factor of b's denominator in a's num
            a = a * CoefQ.make(b.den)
        u = oracles.random_unit(rng, max_factors=4)
        low = min(a.shift, b.shift)
        want = {
            "mul": red(a.shift + b.shift, pmul(a.num, b.num),
                       pmul(a.den, b.den)),
            "add": red(low, _padd((0,) * (a.shift - low) + pmul(a.num, b.den),
                                  (0,) * (b.shift - low) + pmul(b.num, a.den)),
                       pmul(a.den, b.den)),
            "inv": red(-u.shift, u.den, u.num),
            "bar": red(-a.shift - len(a.num) + len(a.den), a.num[::-1],
                       a.den[::-1]),
        }
        got = {"mul": a * b, "add": a + b, "inv": u.inv(),
               "bar": a.subs_q_inverse()}
        for op, c in got.items():
            assert form(c) == want[op], (op, a, b, u)
        cancelled += len(want["mul"][2]) < len(a.den) + len(b.den) - 1
        for x in (Fraction(2), Fraction(3), Fraction(5)):
            assert ev(got["mul"], x) == ev(a, x) * ev(b, x)
            assert (ev(got["add"], x) if got["add"].num else 0) == \
                ev(a, x) + ev(b, x)
            assert ev(got["inv"], x) == 1 / ev(u, x)
            assert ev(got["bar"], x) == ev(a, 1 / x)
    assert cancelled > 30, cancelled


def _padd(a, b):
    out = [0] * max(len(a), len(b))
    for p in (a, b):
        for i, x in enumerate(p):
            out[i] += x
    return tuple(out)


# denominators for test_q_shifted_sum: products of (1 - q^k), other
# products of Phi_n, some led negative; none vanishes at q = 2 or 5
_SUM_DENS = [(1, -1), (1, 0, -1), (1, 1), (1, 1, 1), (1, -1, 1),
             (1, 0, 1), (-1, -1), (-1, 0, -1), (-1, 0, 0, 1), (1,)]
# denominators outside R, refused by make
_SUM_DENS_OUTSIDE_R = [(1, -2, 0, -1), (1, 3, 1), (-3, 1), (2, 0, 2)]


def test_q_shifted_sum_edge_cases(monkeypatch):
    # no terms and zero terms sum to ZERO; one nonzero term, among zeros
    # or not, comes back q-shifted by its n and runs no make
    c = CoefQ.make((1, 2), 1, (1, 0, -1))
    d = CoefQ.make((1,), 0, (1, 1))
    # the cancellation step of a sum, the one place it can cancel
    makes = oracles.count_calls(monkeypatch, coefq, "_canonical")
    assert q_shifted_sum([]) is ZERO
    assert q_shifted_sum([(ZERO, 3), (ZERO, -1)]) is ZERO
    assert q_shifted_sum([(c, 0)]) == c
    assert q_shifted_sum([(ZERO, 2), (c, -3), (ZERO, 0)]) == \
        c * CoefQ.q_power(-3)
    assert makes[0] == 0
    # equal denominators add their numerators in one cancellation;
    # q^2/(1+q) + q/(1+q) = q
    assert q_shifted_sum([(d, 2), (d, 1)]) == Q
    assert makes[0] == 1
    # exact cancellation over one and over two denominators
    assert q_shifted_sum([(c, 1), (-c, 0), (c * Q, -1), (-c, 1)]) is ZERO
    half = CoefQ.make((1,), den=(1, 1))  # c = c/(1+q) + c q/(1+q)
    assert q_shifted_sum([(c, 2), (-c * half, 2), (-c * half, 3)]) is ZERO


def test_q_shifted_sum_against_evaluation():
    # the sum of c q^n over 1-6 denominators, each with one to three
    # terms and their own n, equals the CoefQ + fold of c * q^n and, by a
    # model that shares no code with either, its value at q = 2, 3 and 5
    # (q = 3 is skipped where a term has a pole there).  A third of the
    # draws add each term's negation over another denominator, so the sum
    # is ZERO
    rng = oracles.rng_for("coefq-q-shifted-sum")
    half = CoefQ.make((1,), den=(1, 1))
    seen = {"dens": set(), "zero": 0}
    for den in _SUM_DENS_OUTSIDE_R:
        with pytest.raises(ValueError, match="outside R"):
            CoefQ.make((1,), 0, den)
    for _ in range(200):
        terms = []
        for den in rng.sample(_SUM_DENS, rng.randint(1, 6)):
            for _ in range(rng.randint(1, 3)):
                num = tuple(rng.choice((1, 2, -3)) * rng.randint(-3, 3)
                            for _ in range(rng.randint(1, 3)))
                terms.append((CoefQ.make(num, rng.randint(-2, 2), den),
                              rng.randint(-3, 3)))
        cancel = rng.random() < 1 / 3
        if cancel:
            terms += [(-c * x, n) for c, n in list(terms)
                      for x in (half, ONE - half)]
            rng.shuffle(terms)
        got = q_shifted_sum(terms)
        fold = ZERO
        for c, n in terms:
            fold = fold + c * CoefQ.q_power(n)
        assert got == fold, terms
        for x in (Fraction(2), Fraction(3), Fraction(5)):
            try:
                want = sum(ev(c, x) * x ** n for c, n in terms)
            except ZeroDivisionError:
                continue
            assert (ev(got, x) if got.num else 0) == want, (terms, x)
        seen["dens"].add(len({c.den for c, _ in terms if c.num}))
        if cancel:
            assert got is ZERO
            seen["zero"] += 1
    assert seen["dens"] >= {1, 2, 3, 4, 5, 6}, seen
    assert seen["zero"] > 40, seen


def test_equality_is_canonical():
    # same rational function through different routes compares equal
    a = (ONE - Q) * (ONE + Q)
    b = ONE - CoefQ.q_power(2)
    assert a == b and hash(a) == hash(b)
    assert CoefQ.make((1, 0, -1)) == b


def test_subs_q_inverse():
    rng = oracles.rng_for("coefq-bar")
    for _ in range(40):
        a = oracles.random_coefq(rng, max_deg=3, shift_span=2, max_factors=3)
        bar = a.subs_q_inverse()
        assert bar.subs_q_inverse() == a
        for x in POINTS:
            assert ev(bar, x) == ev(a, 1 / x)


def test_top_exponent_and_expand_down():
    c = CoefQ.q_power(3) * (ONE - CoefQ.q_power(2))  # q^3 - q^5
    assert c.top_exponent() == 5
    assert list(c.expand_down(0)) == [(5, -1), (3, 1)]
    # 1/(1-q) = -q^{-1} - q^{-2} - ... in the descending direction
    g = (ONE - CoefQ.q_power(1)).inv()
    assert g.top_exponent() == -1
    assert list(g.expand_down(-4)) == [(-1, -1), (-2, -1), (-3, -1), (-4, -1)]
    with pytest.raises(ValueError):
        ZERO.top_exponent()


def test_den_poly_and_degree_against_products(monkeypatch):
    # den, built as prod (q^m - 1)^a_m (q_product_exponents) with no
    # polynomial product, is the product of its Phi_n^e_n, on random
    # exponent tuples; top_exponent and q -> q^-1 read the degree off the
    # exponents and give what the polynomial gives without building it
    rng = oracles.rng_for("coefq-den")
    cases = []
    for _ in range(200):
        cyc = tuple(sorted((n, rng.randint(1, 3)) for n in
                           rng.sample(range(1, 31), rng.randint(0, 5))))
        want = (1,)
        for n, e in cyc:
            for _ in range(e):
                want = pmul(want, oracles.cyclotomic(n))
        up, down = (1,), (1,)  # prod (q^m - 1)^a_m over a_m > 0, a_m < 0
        for m, a in coefq.q_product_exponents(cyc).items():
            for _ in range(abs(a)):
                if a > 0:
                    up = pmul(up, (-1,) + (0,) * (m - 1) + (1,))
                else:
                    down = pmul(down, (-1,) + (0,) * (m - 1) + (1,))
        assert pmul(want, down) == up
        assert CoefQ(0, (1,), cyc).den == want
        c = CoefQ.make((1, rng.randint(-2, 2), 1), rng.randint(-3, 3), want)
        n, d = len(c.num) - 1, len(c.den) - 1
        cases.append((c, c.shift + n - d,
                      CoefQ.make(c.num[::-1], d - n - c.shift, c.den[::-1])))

    def built(cyc):
        raise AssertionError("denominator polynomial built")

    monkeypatch.setattr(coefq, "_den_poly", built)
    for c, top, bar in cases:
        assert c.top_exponent() == top and c.subs_q_inverse() == bar


def test_expand_down_matches_product():
    # partial sums of the expansion re-multiplied against the denominator
    rng = oracles.rng_for("coefq-expand")
    for _ in range(25):
        a = oracles.random_coefq(rng, max_deg=3, shift_span=2, max_factors=3)
        if a.is_zero():
            continue
        n_min = a.top_exponent() - 6
        total = ZERO
        for n, cn in a.expand_down(n_min):
            assert cn != 0
            total = total + CoefQ.from_int(cn) * CoefQ.q_power(n)
        # difference is O(q^{n_min - 1}) downward
        diff = a - total
        if not diff.is_zero():
            assert diff.top_exponent() < n_min
        # nothing at or above a floor over the top exponent
        for above in (1, 2, len(a.num) + 3):
            assert list(a.expand_down(a.top_exponent() + above)) == []


def test_pairs_round_trip():
    rng = oracles.rng_for("coefq-pairs")
    for _ in range(40):
        a = oracles.random_coefq(rng, max_deg=4, shift_span=3, max_factors=3)
        assert CoefQ.from_pairs(a.num_pairs(), a.den_pairs()) == a
    with pytest.raises(ValueError):
        CoefQ.from_pairs([[0, 1]], [[-1, 1]])
    with pytest.raises(ValueError, match="degree 1 .*outside R"):
        CoefQ.from_pairs([[0, 1]], [[0, 2], [1, 1]])


def _clear_gcd_caches():
    for cache in (coefq._reduced, coefq._den_lcm, coefq.cyclotomic_exponents,
                  coefq._den_poly):
        cache.cache_clear()


# inputs of make outside R, refused: a den with an integer content or with
# a factor that is no Phi_n
_FRACTIONS_OUTSIDE_R = [((1, 1), 2, (1, -2, 0, -1)), ((2, 4), 0, (-6, 0, -2)),
                        ((0, 3, -3), -1, (0, 0, 6, -6)),
                        ((1, -2, 0, -1), 5, (1, -2, 0, -1))]


def _fractions(rng, count):
    """count distinct (num, shift, den) inputs of make: random numerators
    over random products of Phi_1 .. Phi_12 (denominators of R), some led
    negative, some with q-powers on either side, and (1, -2, 0, -1) as a
    numerator."""
    fixed = [((1, -2, 0, -1), 0, (1, -1)), ((1, 1), 2, (1, 0, 0, -1)),
             ((2, 4), 0, (-1, 0, -1)), ((0, 3, -3), -1, (0, 0, 1, -1)),
             ((1, 0, -1), 5, (1, 0, -1)),
             ((0, 1, -2, 0, -1), 3, (1, -1))]  # inputs[0] times q^4
    out = set(fixed)
    while len(out) < count:
        num = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))
        den = (0,) * rng.randint(0, 1) + (rng.choice((1, -1)),)
        for _ in range(rng.randint(1, 3)):
            den = pmul(den, oracles.cyclotomic(rng.randint(1, 12)))
        if any(num):
            out.add((num, rng.randint(-2, 2), den))
    return fixed + sorted(out - set(fixed))


def test_make_cache_matches_fresh():
    # make's reduction and a sum's lcm and cofactors come from bounded
    # caches; a result from a cold cache, a warm one and one refilled after
    # eviction must be the same canonical form
    inputs = _fractions(oracles.rng_for("coefq-cache"), 2 * coefq._CACHE)

    def form(c):
        return c.shift, c.num, c.den

    fresh = []
    for num, shift, den in inputs:
        _clear_gcd_caches()
        fresh.append(form(CoefQ.make(num, shift, den)))
    assert fresh[0] == (0, (-1, 2, 0, 1), (-1, 1))  # den led negative
    assert fresh[2] == (0, (-2, -4), (1, 0, 1))  # den led negative
    assert fresh[5] == (4,) + fresh[0][1:]
    for num, shift, den in _FRACTIONS_OUTSIDE_R:
        with pytest.raises(ValueError, match="outside R"):
            CoefQ.make(num, shift, den)
    _clear_gcd_caches()
    warm = []
    for num, shift, den in inputs:
        CoefQ.make(num, shift, den)
        warm.append(form(CoefQ.make(num, shift, den)))
    info = coefq._reduced.cache_info()
    assert info.hits >= len(inputs) // 2
    assert info.currsize == coefq._CACHE  # the first inputs were evicted
    assert warm == fresh
    assert [form(CoefQ.make(*x)) for x in inputs] == fresh

    pairs = list(zip(inputs, inputs[1:]))
    sums = []
    for a, b in pairs:
        _clear_gcd_caches()
        sums.append(form(CoefQ.make(*a) + CoefQ.make(*b)))
    _clear_gcd_caches()
    for _ in range(2):
        assert [form(CoefQ.make(*a) + CoefQ.make(*b))
                for a, b in pairs] == sums
    info = coefq._den_lcm.cache_info()
    assert info.hits
    assert info.currsize == coefq._CACHE  # the first pairs were evicted


def test_from_pairs_refuses_bool_after_int():
    # (0, True) == (0, 1) with the same hash, so a cache keyed on raw pairs
    # would pass the bool; the caches sit after from_pairs' checks
    for den, value in (("[[0, 1]]", ONE),
                       ("[[0, 1], [1, -1]]", (ONE - CoefQ.q_power(1)).inv())):
        den = json.loads(den)
        assert CoefQ.from_pairs(json.loads("[[0, 1]]"), den) == value
        with pytest.raises(ValueError, match="not two ints"):
            CoefQ.from_pairs(json.loads("[[0, true]]"), den)
        with pytest.raises(ValueError, match="not two ints"):
            CoefQ.from_pairs([[0, 1]], json.loads("[[0, true], [1, -1]]"))


def test_from_pairs_exponent_ceiling():
    top = coefq.MAX_EXPONENT
    c = CoefQ.from_pairs([[-top, 1], [top, 1]], [[0, 1], [2000, -1]])
    assert c.shift == -top and len(c.num) == 2 * top + 1
    for num, den in (([[0, 1], [top + 1, 1]], [[0, 1]]),
                     ([[-top - 1, 1]], [[0, 1]]),
                     ([[0, 1]], [[0, 1], [top + 1, -1]])):
        with pytest.raises(ValueError, match="ceiling"):
            CoefQ.from_pairs(num, den)


def _in_r(den):
    """Whether make accepts 1 / den: whether den is +-q^k prod Phi_n, so
    that the value lies in R.  make refuses anything else with ValueError,
    and so does a cache load, through from_pairs."""
    try:
        CoefQ.make((1,), den=den)
    except ValueError as ex:
        assert "outside R" in str(ex)
        return False
    return True


def test_divides_q_products():
    # membership in R is decided where a denominator enters: make refuses
    # one outside R
    assert _in_r((1,))
    assert _in_r(((ONE - CoefQ.q_power(1)) * (ONE - CoefQ.q_power(2))).num)
    assert _in_r((1, 1))  # 1+q | q^2-1
    assert _in_r((1, 1, 1))
    assert not _in_r((1, 1, 0, 1))
    assert not _in_r((2, 1))


def test_divides_q_products_refuses_shape_without_gcd(monkeypatch):
    # a divisor of a product of q^k - 1 has end coefficients +-1 and is
    # its reversal up to sign; a den failing either is refused, and no gcd
    # runs
    zeros = (0,) * 15
    gcds = oracles.count_calls(monkeypatch, qpoly, "pgcd")
    assert not any(_in_r(den) for den in (
        (1,) + zeros + (2,),
        (2, 1, 2),  # palindromic, ends 2
        (1, 3, 0, 1)))
    assert gcds[0] == 0


def test_divides_q_products_palindromes_outside_r_run_no_gcd(monkeypatch):
    # 1 + 3q^8 + q^16 and 1 + 3q^16 + q^32 are monic and palindromic, the
    # shape of a product of Phi_n; the PRS loop over q^k - 1 took seconds
    # on the first and minutes on the second.  Peeling the factors
    # (1 - q^m)^a_m off the series decides both without a gcd, and the
    # package has no heuristic gcd
    gcds = oracles.count_calls(monkeypatch, qpoly, "pgcd")
    assert [_in_r((1,) + (0,) * (k - 1) + (3,) + (0,) * (k - 1) + (1,))
            for k in (8, 16)] == [False, False]
    assert gcds[0] == 0 and not hasattr(qpoly, "pgcd_cofactors")


def test_divides_q_products_work_is_bounded(monkeypatch):
    # 1 + 3q^k + q^2k is a monic palindrome outside R.  Trial division by
    # the Phi_n with phi(n) <= 2k, each screened by Phi_n(2) (505 of them
    # at k = 128), took 3.5 s at k = 5,000.  The peel takes (1 - q^k)^-3
    # off the prefix below 2k, takes it again off the prefix below 4k, and
    # there the coefficient -5 of q^2k breaks the bound 5 phi(2k) <= 2k:
    # two passes of the series helper each, three factors 1 - q^k in a
    # pass, and no division.  1 + 256q + 256q^255 + q^256 takes 256
    # factors 1 - q off the prefixes of length 2 and 4 only, not off the
    # whole series: there q^2 has -32,896, above the bound 256
    calls = []
    times = coefq._times_one_minus_power

    def counted(rev, m, a):
        calls.append((m, a, len(rev)))
        times(rev, m, a)

    monkeypatch.setattr(coefq, "_times_one_minus_power", counted)
    divisions = oracles.count_calls(monkeypatch, coefq, "pdivexact")
    for k, low in ((128, 128), (5000, 4096)):
        coefq.cyclotomic_exponents.cache_clear()
        del calls[:]
        assert _in_r((1,) + (0,) * (k - 1) + (3,) + (0,) * (k - 1) + (1,)) \
            is False
        assert calls == [(k, 3, 2 * low), (k, 3, 4 * low)]
    del calls[:]
    assert _in_r((1, 256) + (0,) * 253 + (256, 1)) is False
    assert calls == [(1, 256, 2), (1, 256, 4)]
    assert divisions[0] == 0


@pytest.mark.parametrize("limit", [0, 1, 2, 6, 12, 24])
def test_small_totients_and_cyclotomic_values(limit):
    # exactly the n with phi(n) <= limit, in increasing order, with phi(n);
    # Phi_n, built by _den_poly, is the Moebius product of the q^d - 1
    def phi(n):
        return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)

    got = coefq._small_totients(limit)
    assert got == [(n, phi(n)) for n in range(1, 2 * limit * limit + 3)
                   if phi(n) <= limit]
    for n, _ in got:
        assert coefq._cyclotomic(n) == oracles.cyclotomic(n)


def test_factorization_against_trial_division():
    # the peel gives the exponents, or the refusal, of the trial division
    # by Phi_n that it replaced: on products of up to six Phi_n, n <= 40,
    # some negated; on each of those times a factor outside R or a small
    # product of Phi_n; and on random short polynomials with ends +-1
    rng = oracles.rng_for("coefq-factor")
    cyclo = {n: oracles.cyclotomic(n) for n in range(1, 41)}
    others = ((1, 3, 1), (1, -3, 1), (1, 0, 3, 0, 1), (2, 1), (1, 2, 1),
              (1, -1, -1, 1))
    dens = set()
    for _ in range(60):
        d = (rng.choice((1, -1)),)
        for _ in range(rng.randint(0, 6)):
            d = pmul(d, cyclo[rng.randint(1, 40)])
        dens.add(d)
        dens.update(pmul(d, f) for f in others)
    while len(dens) < 800:
        dens.add(tuple([rng.choice((1, -1))]
                       + [rng.randint(-3, 3) for _ in range(rng.randint(0, 6))]
                       + [rng.choice((1, -1))]))
    verdicts = {True: 0, False: 0}
    for d in sorted(dens):
        want = oracles.cyclotomic_exponents_by_division(d)
        assert coefq.cyclotomic_exponents.__wrapped__(d) == want, d
        verdicts[want is not None] += 1
    assert verdicts[True] > 150 and verdicts[False] > 300, verdicts


def test_divides_q_products_on_high_degree_dens():
    # products of up to six factors 1 - q^k, k <= 40, lie in R, and not
    # once multiplied by a palindrome outside R; Phi_15^2 lies in R, and
    # not once multiplied by 1 + 3q + q^2
    rng = oracles.rng_for("coefq-ring-high")
    for _ in range(12):
        d = (1,)
        for _ in range(rng.randint(1, 6)):
            k = rng.randint(1, 40)
            d = pmul(d, (1,) + (0,) * (k - 1) + (-1,))
        assert _in_r(d), d
        bad = pmul(d, rng.choice(((1, 3, 1), (1, -3, 1), (1, 0, 3, 0, 1))))
        assert not _in_r(bad), d
    cyc = oracles.cyclotomic(15)
    assert _in_r(pmul(cyc, cyc))
    assert not _in_r(pmul(pmul(cyc, cyc), (1, 3, 1)))


def _membership_dens(rng, count):
    """count distinct polynomials, canonical denominators or not: products
    of Phi_1 .. Phi_14; products of Phi_1 .. Phi_6 times a factor outside
    R, a sign or a content; and random polynomials of degree <= 6,
    palindromic ones included.  Outside R the gcd loop runs all
    4 deg^2 + 4 rounds, so those stay of degree <= 6."""
    out = set()
    while len(out) < count:
        kind = rng.randint(0, 3)
        d = (1,)
        if kind == 0:
            for _ in range(rng.randint(1, 4)):
                d = pmul(d, oracles.cyclotomic(rng.randint(1, 14)))
        elif kind == 1:
            for _ in range(rng.randint(0, 2)):
                d = pmul(d, oracles.cyclotomic(rng.randint(1, 6)))
            d = pmul(d, rng.choice(((1, 3, 1), (1, -3, 1), (2,), (-1,),
                                    (1, 0, 1, 1), (2, 1))))
        elif kind == 2:
            half = [rng.randint(-2, 2) for _ in range(rng.randint(0, 2))]
            d = tuple([rng.choice((1, -1))] + half + half[::-1] + [1])
        else:
            d = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 7)))
        if len(d) <= 7 or kind == 0:
            if any(d) and d[-1] and d[0]:
                out.add(d)
    return sorted(out)


def test_divides_q_products_against_gcd_loop():
    # make's verdict is the one of the PRS loop that the cyclotomic
    # division replaced, on each denominator made to lead positive
    dens = _membership_dens(oracles.rng_for("coefq-ring"), 496)
    verdicts = {True: 0, False: 0}
    for d in dens:
        want = oracles.divides_q_products_by_gcd(d if d[-1] > 0 else pneg(d))
        assert _in_r(d) is want, d
        verdicts[want] += 1
    assert verdicts[True] > 150 and verdicts[False] > 150, verdicts


def _one_minus_q_products(rng, count):
    """A product of count factors (1 - q^k), k in 1..4, as a tuple."""
    d = (1,)
    for _ in range(count):
        k = rng.randint(1, 4)
        d = pmul(d, (1,) + (0,) * (k - 1) + (-1,))
    return d


def _canonical_sum(parts):
    total = ZERO
    for shift, num, den in parts:
        total = total + CoefQ.make(num, shift, den)
    return total


def sum_is_zero(parts):
    """Whether the sum of q^shift * num / den over the (shift, num, den)
    parts is zero, decided by probes.nonvanishing_probes at the identity.
    Part k becomes the term at k Lam_1 + alpha_1 of one A2~ element: the
    Lambda-parts differ, so the terms stay apart, and j_e sends all of them
    to the one key alpha_1, whose sum is then the sum of the parts."""
    cd = from_type("A2~")
    f = from_terms(cd, ((Weight((0, k, 0), (0, 1, 0)),
                         CoefQ.make(num, shift, den))
                        for k, (shift, num, den) in enumerate(parts)))
    return nonvanishing_probes(f, [weyl.identity(cd)]) == []


def test_sum_is_zero_against_canonical_sum():
    # random parts over (1 - q^k) products with integer contents and mixed
    # shifts; half the draws append the negated sum rewritten over other
    # denominators, so they cancel only as a polynomial identity
    rng = oracles.rng_for("coefq-sum-is-zero")
    outcomes = {True: 0, False: 0}
    evaluated = 0
    for _ in range(300):
        parts = []
        for _ in range(rng.randint(1, 4)):
            content = rng.choice((1, 1, 2, -3, 6))
            num = tuple(content * rng.randint(-3, 3)
                        for _ in range(rng.randint(1, 4)))
            parts.append((rng.randint(-3, 3), num,
                          _one_minus_q_products(rng, rng.randint(0, 3))))
        if rng.random() < 0.5:
            for shift, num, den in list(parts):
                # -q^s N/D = -q^(s-j) (q^j N E) / (D E) for a (1 - q^k) E
                e = _one_minus_q_products(rng, rng.randint(0, 2))
                j = rng.randint(0, 2)
                parts.append((shift - j, (0,) * j + pmul(num, tuple(
                    -x for x in e)), pmul(den, e)))
            rng.shuffle(parts)
        want = _canonical_sum(parts).is_zero()
        assert sum_is_zero(parts) is want, parts
        outcomes[want] += 1
        evaluated += len({CoefQ.make(num, shift, den).den
                          for shift, num, den in parts if any(num)}) > 1
    assert outcomes[True] > 50 and outcomes[False] > 50, outcomes
    assert evaluated > 150, evaluated


@pytest.mark.parametrize("parts", [
    # 1/(1-q) + 1/(1+q) - 2/(1-q^2): three denominators
    [(0, (1,), (1, -1)), (0, (1,), (1, 1)), (0, (-2,), (1, 0, -1))],
    # 1/(1-q) - (1+q)/(1-q^2), split over two same-den parts
    [(0, (1,), (1, -1)), (0, (-1,), (1, 0, -1)), (1, (-1,), (1, 0, -1))],
    # 6q^-2/((1-q)(1-q^2)) - 6q^-2/((1-q)^2 (1+q)), integer contents
    [(-2, (6,), pmul((1, -1), (1, 0, -1))),
     (-3, (0, -6), pmul((1, -1), pmul((1, -1), (1, 1))))],
    # an exact cancellation inside one group leaves no group
    [(1, (2, -1), (1, -1)), (0, (0, -2, 1), (1, -1))],
], ids=["three-dens", "split-group", "contents-shifts", "one-group"])
def test_sum_is_zero_polynomial_identities(parts):
    # contents live in the numerators: a denominator with one, as
    # 2 (1-q)^2 (1+q), lies outside R and is refused
    with pytest.raises(ValueError, match="outside R"):
        CoefQ.make((0, -6), -3, pmul((2, -2), pmul((1, -1), (1, 1))))
    assert _canonical_sum(parts).is_zero()
    assert sum_is_zero(parts)
    assert not sum_is_zero(parts[:-1])


def test_sum_is_zero_root_below_the_point():
    # 1 - 1/(q - 1) = (q - 2)/(q - 1) is nonzero.  Its cleared numerator
    # P = (q - 1) - 1 = q - 2 has the integer root 2, and the bound is
    # B = |1|_1 |q - 1|_1 + |-1|_1 |1|_1 = 3, so xi = 2 = B - 1 calls it
    # zero while xi = B + 2 = 5 does not.  (xi = B would still be safe: an
    # integer P with |P|_1 <= B has no root of modulus >= B.)
    parts = [(0, (1,), (1,)), (0, (-1,), (-1, 1))]
    assert peval((-2, 1), 2) == 0 and peval((-2, 1), 5) != 0
    assert not _canonical_sum(parts).is_zero()
    assert not sum_is_zero(parts)
    # the same with the root pushed to 3 = B - 1 by a larger content
    parts = [(0, (1,), (1,)), (0, (-2,), (-1, 1))]
    assert peval((-3, 1), 3) == 0
    assert not sum_is_zero(parts)


def test_sum_is_zero_edge_cases():
    assert sum_is_zero([])
    assert sum_is_zero([(3, (), (1, -1))])
    assert sum_is_zero([(0, (0, 0), (1,))])
    assert not sum_is_zero([(-4, (5,), (1, 0, -1))])
    # a zero part next to a nonzero one over another denominator
    assert not sum_is_zero([(0, (), (1, -1)), (2, (1,), (1,))])
