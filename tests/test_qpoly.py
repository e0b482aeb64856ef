"""Integer polynomial kernels.

Polynomials are int tuples, constant term first, no trailing zeros; () is 0.
"""

import pytest

from affgroth import qpoly as py

import oracles


def rand_poly(rng, max_deg=5, max_c=6):
    n = rng.randint(0, max_deg)
    return py.pstrip([rng.randint(-max_c, max_c) for _ in range(n + 1)])


def test_pstrip():
    assert py.pstrip([]) == ()
    assert py.pstrip([0, 0]) == ()
    assert py.pstrip([1, 2, 0, 0]) == (1, 2)
    assert py.pstrip((0, 1)) == (0, 1)


def test_ring_axioms():
    rng = oracles.rng_for("qpoly-ring")
    for _ in range(60):
        a = rand_poly(rng)
        b = rand_poly(rng)
        c = rand_poly(rng)
        assert py.padd(a, b) == py.padd(b, a)
        assert py.pmul(a, b) == py.pmul(b, a)
        assert py.padd(py.padd(a, b), c) == py.padd(a, py.padd(b, c))
        assert py.pmul(py.pmul(a, b), c) == py.pmul(a, py.pmul(b, c))
        assert py.pmul(a, py.padd(b, c)) == py.padd(py.pmul(a, b), py.pmul(a, c))
        assert py.psub(a, b) == py.padd(a, py.pneg(b))
        assert py.padd(a, py.pneg(a)) == ()
        assert py.pmul(a, (1,)) == a
        assert py.pmul(a, ()) == ()


def test_pdivexact():
    rng = oracles.rng_for("qpoly-div")
    for _ in range(60):
        a = rand_poly(rng)
        b = rand_poly(rng)
        if not b:
            continue
        assert py.pdivexact(py.pmul(a, b), b) == a
    with pytest.raises(ValueError):
        py.pdivexact((1, 1, 1), (1, 1))  # 1+q+q^2 not divisible by 1+q
    with pytest.raises(ValueError):
        py.pdivexact((1,), (2,))  # content must divide too


def test_pcontent_pprimitive():
    assert py.pcontent((4, -6, 2)) == 2
    assert py.pcontent(()) == 0
    assert py.pprimitive((4, -6, 2)) == (2, -3, 1)
    assert py.pprimitive((0, -3)) == (0, 1)  # leading coefficient made positive
    assert py.pprimitive(()) == ()


def test_pgcd_known():
    # (1-q)(1+q) and (1-q)(1+q+q^2): gcd 1-q up to normalization
    a = py.pmul((1, -1), (1, 1))
    b = py.pmul((1, -1), (1, 1, 1))
    g = py.pgcd(a, b)
    assert g in ((1, -1), (-1, 1))
    assert py.pgcd((6,), (4,)) == (1,)  # contents are not part of the gcd here


def test_pgcd_properties():
    rng = oracles.rng_for("qpoly-gcd")
    for _ in range(40):
        g0 = rand_poly(rng, max_deg=3)
        a = py.pmul(g0, rand_poly(rng, max_deg=3))
        b = py.pmul(g0, rand_poly(rng, max_deg=3))
        g = py.pgcd(a, b)
        if not a and not b:
            assert g == ()
            continue
        assert g[-1] > 0
        assert py.pprimitive(g) == g
        for x in (a, b):
            if x:
                _, ok = _try_div(x, g)
                assert ok, (x, g)
        if g0 and a and b:
            _, ok = _try_div(g, py.pprimitive(g0))
            assert ok


def _try_div(a, b):
    """Rational-coefficient exact division check via Fraction arithmetic."""
    from fractions import Fraction
    ra = [Fraction(x) for x in a]
    rb = [Fraction(x) for x in b]
    if not rb:
        return None, not ra
    out = []
    while len(ra) >= len(rb) and any(ra):
        c = ra[-1] / rb[-1]
        out.append(c)
        for i in range(len(rb)):
            ra[len(ra) - len(rb) + i] -= c * rb[i]
        assert ra[-1] == 0
        ra.pop()
    return out, not any(ra)


def test_backend_reported():
    assert py.BACKEND == "pure"
