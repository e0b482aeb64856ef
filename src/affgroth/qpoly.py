"""Dense integer polynomials in one variable q.

A polynomial is a tuple of int coefficients, constant term first, with no
trailing zero; () is the zero polynomial.  These functions are the inner loop
of every coefficient-field operation, so they stay free of object wrappers.
"""

from math import gcd

BACKEND = "pure"  # the only implementation; reported by benchmark harnesses


def pstrip(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return pstrip(out)


def psub(a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i, x in enumerate(b):
        out[i] -= x
    return pstrip(out)


def pneg(a):
    return tuple(-x for x in a)


def pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return pstrip(out)


def pcontent(a):
    g = 0
    for x in a:
        g = gcd(g, x)
    return g


def pprimitive(a):
    """Primitive part with positive leading coefficient; () for zero."""
    if not a:
        return a
    g = pcontent(a)
    if a[-1] < 0:
        g = -g
    return tuple(x // g for x in a)


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
    r = list(a)
    q = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        c = r[db + k]
        if c:
            if c % lb:
                raise ValueError("inexact polynomial division")
            t = c // lb
            q[k] = t
            for i in range(db + 1):
                r[k + i] -= t * b[i]
    if any(r):
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
