"""Dense integer polynomials in one variable q.

A polynomial is a tuple of int coefficients, constant term first, with no
trailing zero; () is the zero polynomial.  These functions are the inner loop
of every coefficient-field operation, so they stay free of object wrappers.

Two routines give the same gcd, primitive with positive leading coefficient.
`pgcd` runs the primitive pseudo-remainder sequence (PRS).  `pgcd_cofactors`,
which coefficient canonicalization calls, also returns both quotients and
first tries the heuristic gcd GCDHEU (Char, Geddes and Gonnet, J. Symbolic
Comput. 7, 1989):

- evaluate the primitive parts at an integer xi >= 2 min(|a|, |b|) + 2, with
  |.| the largest absolute coefficient;
- take one big-integer gcd of the two values and rebuild a polynomial from
  its symmetric xi-adic digits;
- its primitive part h is the gcd iff h divides both inputs, which one exact
  division each decides (a constant h means the gcd is 1).

A failed point grows xi; after HEU_POINTS failed points the PRS decides.
A point fails when a spurious integer factor enters the gcd of the values,
so every xi is a multiple of 2*3*5*7*11: a prime p dividing xi divides a(xi)
only when it divides a(0), and a canonical denominator of the ring R has
constant term +-1, so these small primes stay out.  On A1~ to length 12,
starting at the bare bound failed 1,944 of 5,732 first points; rounded up to
a multiple of 2310, none failed.
"""

from math import gcd
from operator import add, sub

BACKEND = "pure"  # the only implementation; reported by benchmark harnesses


def pstrip(c):
    if c and c[-1]:
        return tuple(c)
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def pneg(a):
    return tuple(-x for x in a)


def pmul(a, b):
    """The product a * b, row by row: the outer loop runs over the nonzero
    coefficients x of the shorter operand, and each adds x times the longer
    operand into its row of the result with no zero test, as one C-level
    map; x = +-1, most coefficients of R's denominators and their
    cofactors, adds or subtracts that operand without multiplying."""
    if not a or not b:
        return ()
    if len(a) > len(b):
        a, b = b, a
    n = len(b)
    out = [0] * (len(a) + n - 1)
    for i, x in enumerate(a):
        if x:
            row = out[i:i + n]
            if x == 1:
                out[i:i + n] = map(add, row, b)
            elif x == -1:
                out[i:i + n] = map(sub, row, b)
            else:
                out[i:i + n] = map(add, row, map(x.__mul__, b))
    return pstrip(out)


def pcontent(a):
    return gcd(*a)


def pprimitive(a):
    """Primitive part with positive leading coefficient; () for zero."""
    if not a:
        return a
    g = pcontent(a)
    if a[-1] < 0:
        g = -g
    return tuple([x // g for x in a])


def pdivexact(a, b):
    """Quotient a / b when it is exact over the integers; raises otherwise."""
    if not a:
        return ()
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        raise ValueError("inexact polynomial division")
    lb = b[-1]
    low = [(i, y) for i, y in enumerate(b) if y][:-1]  # top term left out
    r = list(a)
    q = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        c = r[db + k]  # never cleared; the remainder is r[:db]
        if c:
            if c % lb:
                raise ValueError("inexact polynomial division")
            t = c // lb
            q[k] = t
            for i, y in low:
                r[k + i] -= t * y
    if any(r[:db]):
        raise ValueError("inexact polynomial division")
    return pstrip(q)


def _prem(a, b):
    """Pseudo-remainder: lb^(da-db+1) * a modulo b, computed in integers."""
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    r = list(a)
    for k in range(da - db, -1, -1):
        c = r[db + k]
        for i in range(db + k):
            r[i] *= lb
        r[db + k] = 0
        if c:
            for i in range(db):
                r[k + i] -= c * b[i]
    del r[db:]
    return pstrip(r)


def pgcd(a, b):
    """Primitive gcd with positive leading coefficient (primitive PRS)."""
    a = pprimitive(a)
    b = pprimitive(b)
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _prem(a, b)
        a, b = b, pprimitive(r)
    return a


HEU_POINTS = 6  # evaluation points pgcd_cofactors tries before the PRS
_XI_UNIT = 2 * 3 * 5 * 7 * 11  # every xi is a multiple (module docstring)


def peval(a, x):
    """a(x) by Horner's rule."""
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def _from_digits(v, x):
    """The polynomial whose value at x is v, with symmetric digits in
    (-x/2, x/2]."""
    out = []
    half = x // 2
    while v:
        d = v % x
        if d > half:
            d -= x
        out.append(d)
        v = (v - d) // x
    return tuple(out)


def pgcd_cofactors(a, b):
    """(g, a / g, b / g) for g = pgcd(a, b), by the heuristic gcd with the
    primitive PRS as fallback (see the module docstring)."""
    if not a or not b:
        g = pgcd(a, b)
        return g, pdivexact(a, g), pdivexact(b, g)
    pa = pprimitive(a)
    pb = pprimitive(b)
    if len(pa) == 1 or len(pb) == 1:
        return (1,), a, b
    x = 2 * min(max(map(abs, pa)), max(map(abs, pb))) + 2
    x += -x % _XI_UNIT
    for _ in range(HEU_POINTS):
        h = pprimitive(_from_digits(gcd(peval(pa, x), peval(pb, x)), x))
        if len(h) == 1:
            return (1,), a, b
        try:
            return h, pdivexact(a, h), pdivexact(b, h)
        except ValueError:
            x = x * 73794 // 27011  # Char, Geddes and Gonnet's growth factor
            x += -x % _XI_UNIT
    g = pgcd(pa, pb)
    return g, pdivexact(a, g), pdivexact(b, g)
