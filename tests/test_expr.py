"""Expression parser and the three printers."""

import json

import pytest

from affgroth.cartan import from_type
from affgroth.coefq import CoefQ, ONE, Q
from affgroth.errors import ParseError, UnknownNode
from affgroth.expr import (_factor_q_products, parse_expression,
                          print_element)
from affgroth.kring import (from_json, k_one, k_scalar, monomial, orbit_sum,
                            to_json)

from affgroth.qpoly import pmul, pneg

import oracles


def test_atoms():
    cd = from_type("A1~")
    assert parse_expression("1", cd) == k_one(cd)
    assert parse_expression("q", cd) == k_scalar(cd, Q)
    # a rational literal must be an integer: R is over Z
    assert parse_expression("4/2", cd) == k_scalar(cd, CoefQ.from_int(2))
    with pytest.raises(ParseError, match="position 0"):
        parse_expression("2/3", cd)
    assert parse_expression("e[L0]", cd) == monomial(cd, cd.Lam(0))
    assert parse_expression("E[-L1 + a1]", cd) == \
        orbit_sum(cd, -cd.Lam(1) + cd.alpha(1))
    assert parse_expression("0", cd).is_zero()


def test_sums_and_products():
    cd = from_type("A1~")
    one = k_one(cd)
    g = parse_expression("1 - e[-L1]", cd)
    assert g == one - monomial(cd, -cd.Lam(1))
    # adjacency is multiplication; '*' optional
    assert parse_expression("q e[L0]e[L1]", cd) == \
        parse_expression("q * e[L0 + L1]", cd)
    assert parse_expression("(1 - q)(1 + q)", cd) == \
        parse_expression("1 - q^2", cd)
    assert parse_expression("- 2 q", cd) == k_scalar(cd, Q) * (-2)


def test_powers():
    cd = from_type("A1~")
    assert parse_expression("q^3", cd) == k_scalar(cd, CoefQ.q_power(3))
    assert parse_expression("q^{-2}", cd) == k_scalar(cd, CoefQ.q_power(-2))
    assert parse_expression("e[L0]^2", cd) == monomial(cd, 2 * cd.Lam(0))
    assert parse_expression("(1 + q)^2", cd) == \
        parse_expression("1 + 2q + q^2", cd)
    # a pure-q sum is a single term of the ring, so it inverts
    assert parse_expression("((1 - q)(1 - q^2))^{-1}", cd) == k_scalar(
        cd, ((ONE - CoefQ.q_power(1)) * (ONE - CoefQ.q_power(2))).inv())
    assert parse_expression("{1 - q}^{-1}{1 - q}", cd) == k_one(cd)


def test_delta_is_q():
    cd = from_type("A1~")
    assert parse_expression("e[a0 + a1]", cd) == parse_expression("q", cd)
    assert parse_expression("e[L0 - a0]", cd) == \
        parse_expression("q^{-1} e[L0 + a1]", cd)


def test_parse_errors():
    cd = from_type("A1~")
    cases = ["1 +", "e[", "e[L5]", "e L0", "q^", "q^{2", "(1", "1)",
             "x", "e[L0]^{-1}^", "(1 + e[L0])^{-1}", "1 // 2"]
    for text in cases:
        with pytest.raises((ParseError, UnknownNode)):
            parse_expression(text, cd)


def test_parse_refuses_values_outside_r():
    # 1/2 is refused at its token, and a negative power whose inverse
    # leaves R at its caret; a unit of R inverts, and the multi-term
    # message stays for a sum of exponentials
    cd = from_type("A1~")
    for text, pos, msg in (("1/2", 0, "not an integer"),
                           ("q+1 / 2", 2, "not an integer"),
                           ("q + 1 / 2", 4, "not an integer"),
                           ("(2*q)^-1", 5, "outside R"),
                           ("e[L0] (2 - q)^{-1}", 13, "outside R"),
                           ("(1 + e[L0])^{-1}", 11, "multi-term")):
        with pytest.raises(ParseError, match=msg) as ei:
            parse_expression(text, cd)
        assert ei.value.pos == pos, text
        assert len(str(ei.value).splitlines()) == 1
    assert parse_expression("(-q^2 (1 - q^3))^-1", cd) == k_scalar(
        cd, (CoefQ.q_power(2) - CoefQ.q_power(5)).inv() * CoefQ.from_int(-1))


def test_parse_error_reports_position():
    cd = from_type("A1~")
    with pytest.raises(ParseError) as ei:
        parse_expression("1 + %", cd)
    assert "%" in str(ei.value) or "4" in str(ei.value)


def test_print_terms_examples():
    cd = from_type("A1~")
    g = k_one(cd) - monomial(cd, -cd.Lam(1))
    assert print_element(g) == "1 - e[-L1]"
    assert print_element(parse_expression("0", cd)) == "0"
    f = monomial(cd, -cd.Lam(0), CoefQ.q_power(-1) * CoefQ.from_int(-3))
    assert print_element(f) == "-3*q^{-1}*e[-L0]"


def test_round_trip_terms_and_orbit():
    rng = oracles.rng_for("expr-roundtrip")
    for t in ("A1~", "A2~", "C2~"):
        cd = from_type(t)
        for _ in range(25):
            f = oracles.random_element(cd, rng)
            for mode in ("terms", "orbit"):
                text = print_element(f, mode)
                assert parse_expression(text, cd) == f, (t, mode, text)


def test_round_trip_with_denominators():
    cd = from_type("A1~")
    rng = oracles.rng_for("expr-dens")
    dens = [(ONE - CoefQ.q_power(1)).inv(),
            ((ONE - CoefQ.q_power(1)) * (ONE - CoefQ.q_power(2))).inv(),
            CoefQ.make((1,), den=(1, 1, 1))]
    for _ in range(20):
        f = oracles.random_element(cd, rng, max_terms=4)
        f = f * dens[rng.randrange(len(dens))]
        for mode in ("terms", "orbit"):
            assert parse_expression(print_element(f, mode), cd) == f


def test_factor_q_products_against_division():
    # the exponents of q^k - 1 read off the cyclotomic ones give what trial
    # division by q^k - 1, k from deg down, gives on the canonical
    # denominator: on products of Phi_n and of (1 - q^k) with n, k <= 12,
    # and negated; the same times a factor outside R is refused by make,
    # and the division finds no product there either
    rng = oracles.rng_for("expr-factor")
    outside = [(2, 1), (1, 3, 1), (1, 1, 0, 1)]
    found = 0
    for _ in range(300):
        den = (1,)
        for _ in range(rng.randrange(1, 6)):
            k = rng.randrange(1, 13)
            if rng.random() < 0.5:
                den = pmul(den, oracles.cyclotomic(k))
            else:
                den = pmul(den, (1,) + (0,) * (k - 1) + (-1,))
        for d in (den, pmul(den, rng.choice(outside))):
            for e in (d, pneg(d)):
                try:
                    c = CoefQ.make((1,), den=e)
                except ValueError:
                    assert oracles.factor_q_products_by_division(e) is None
                    continue
                want = oracles.factor_q_products_by_division(c.den)
                assert _factor_q_products(c.cyc) == want, e
                found += want is not None
    assert 100 < found < 900  # both verdicts are exercised


def test_orbit_mode_groups_orbits():
    cd = from_type("A2~")
    f = orbit_sum(cd, -cd.Lam(1)) * CoefQ.q_power(2)
    text = print_element(f, "orbit")
    assert "E[" in text
    assert parse_expression(text, cd) == f


def test_json_mode():
    cd = from_type("A2~")
    rng = oracles.rng_for("expr-json")
    f = oracles.random_element(cd, rng)
    doc = json.loads(print_element(f, "json"))
    assert doc["cartan_type"] == "A2~"
    assert doc["terms"] == json.loads(json.dumps(to_json(f)))
    assert from_json(cd, doc["terms"], {}, {}) == f


def test_unknown_mode():
    cd = from_type("A1~")
    with pytest.raises(ValueError):
        print_element(k_one(cd), mode="fancy")
