"""Dense integer polynomials in one variable q.

A polynomial is a tuple of int coefficients, constant term first, with no
trailing zero; () is the zero polynomial.  These functions are the inner loop
of every coefficient-ring operation, so they stay free of object wrappers.

`pgcd`, the primitive pseudo-remainder sequence (PRS), is the reference gcd
that the tests compare canonical forms against; no module of the package
calls it, since a coefficient's denominator is held as its cyclotomic
exponents and cancelled by exact division (coefq).
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


def peval(a, x):
    """a(x) by Horner's rule."""
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v
