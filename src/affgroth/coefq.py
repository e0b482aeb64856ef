"""Exact scalars: rational functions in q, kept in a canonical quotient form.

A CoefQ is q^shift * num(q) / den(q) with integer polynomials num, den such
that num has nonzero constant term (powers of q live in shift), den has
nonzero constant term and positive leading coefficient, num and den share no
polynomial factor and their integer contents are coprime.  Zero is
(shift=0, num=(), den=(1,)).  Equality is therefore syntactic.

The subring R of interest is generated by q^{+-1} and (1 - q^n)^{-1}; a
membership test (denominator divides a product of q^k - 1) is provided but
not enforced during arithmetic.
"""

from math import gcd

from .qpoly import padd, pdivexact, pgcd, pmul, pneg, pstrip


class CoefQ:
    __slots__ = ("shift", "num", "den")

    def __init__(self, shift, num, den):
        # trusted canonical data; use the constructors below
        self.shift = shift
        self.num = num
        self.den = den

    # --- construction --------------------------------------------------------

    @staticmethod
    def make(num, shift=0, den=(1,)):
        """Canonicalize an arbitrary integer-polynomial fraction."""
        num = pstrip(num)
        den = pstrip(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return ZERO
        z = 0
        while num[z] == 0:
            z += 1
        if z:
            num = num[z:]
            shift += z
        z = 0
        while den[z] == 0:
            z += 1
        if z:
            den = den[z:]
            shift -= z
        if len(den) > 1 or den[0] not in (1, -1):
            g = pgcd(num, den)
            if len(g) > 1:
                num = pdivexact(num, g)
                den = pdivexact(den, g)
            c = gcd(_content(num), _content(den))
            if den[-1] < 0:
                c = -c
            if c != 1:
                num = tuple(x // c for x in num)
                den = tuple(x // c for x in den)
        elif den[0] == -1:
            num = pneg(num)
            den = (1,)
        return CoefQ(shift, num, den)

    @staticmethod
    def from_int(n):
        if n == 0:
            return ZERO
        if n == 1:
            return ONE
        return CoefQ(0, (n,), (1,))

    @staticmethod
    def q_power(n):
        if n == 0:
            return ONE
        return CoefQ(n, (1,), (1,))

    @staticmethod
    def one_minus_q_power(n):
        """1 - q^n as a scalar (n >= 1)."""
        return CoefQ(0, (1,) + (0,) * (n - 1) + (-1,), (1,))

    # --- predicates ----------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.shift == 0 and self.num == (1,) and self.den == (1,)

    def is_monomial(self):
        return self.den == (1,) and len(self.num) == 1

    def is_polynomial(self):
        return self.den == (1,)

    # --- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, CoefQ):
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        s = min(self.shift, other.shift)
        a = _qshift(self.num, self.shift - s)
        b = _qshift(other.num, other.shift - s)
        if self.den == other.den:
            return CoefQ.make(padd(a, b), s, self.den)
        return CoefQ.make(padd(pmul(a, other.den), pmul(b, self.den)),
                          s, pmul(self.den, other.den))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        if not self.num:
            return self
        return CoefQ(self.shift, pneg(self.num), self.den)

    def __mul__(self, other):
        if not isinstance(other, CoefQ):
            return NotImplemented
        if not self.num or not other.num:
            return ZERO
        if other.den == (1,) and other.num in _UNITS:
            return self._times_unit(other)
        if self.den == (1,) and self.num in _UNITS:
            return other._times_unit(self)
        return CoefQ.make(pmul(self.num, other.num),
                          self.shift + other.shift,
                          pmul(self.den, other.den))

    def _times_unit(self, u):
        """self * (+-q^n): already canonical, no gcd needed."""
        num = self.num if u.num[0] == 1 else pneg(self.num)
        return CoefQ(self.shift + u.shift, num, self.den)

    def inv(self):
        if not self.num:
            raise ZeroDivisionError("inverting zero")
        return CoefQ.make(self.den, -self.shift, self.num)

    def __truediv__(self, other):
        if not isinstance(other, CoefQ):
            return NotImplemented
        return self * other.inv()

    def __pow__(self, k):
        if k == 0:
            return ONE
        base = self if k > 0 else self.inv()
        out = base
        for _ in range(abs(k) - 1):
            out = out * base
        return out

    def subs_q_inverse(self):
        """The scalar with q replaced by q^{-1}."""
        if not self.num:
            return self
        return CoefQ.make(tuple(reversed(self.num)),
                          -self.shift - len(self.num) + len(self.den),
                          tuple(reversed(self.den)))

    # --- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, CoefQ) and self.shift == other.shift
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.shift, self.num, self.den))

    # --- views ---------------------------------------------------------------

    def top_exponent(self):
        """q-degree of the leading term of the downward Laurent expansion."""
        if not self.num:
            raise ValueError("zero has no top exponent")
        return self.shift + len(self.num) - len(self.den)

    def expand_down(self, n_min):
        """Laurent expansion in descending powers of q (the e^{-delta} adic
        direction): yields (n, c_n) with c_n != 0, from the top exponent down
        to n_min.  Coefficients are exact integers when the denominator's
        leading coefficient is +-1 (true for everything in R); otherwise a
        ValueError is raised.
        """
        if not self.num:
            return
        nrev = tuple(reversed(self.num))
        drev = tuple(reversed(self.den))
        lead = drev[0]
        if lead not in (1, -1):
            raise ValueError("series expansion needs a unit leading coefficient")
        top = self.top_exponent()
        coeffs = []  # series of nrev/drev in t = q^{-1}
        k = 0
        while top - k >= n_min:
            s = nrev[k] if k < len(nrev) else 0
            for j in range(1, min(k, len(drev) - 1) + 1):
                s -= drev[j] * coeffs[k - j]
            s //= lead
            coeffs.append(s)
            if s:
                yield top - k, s
            k += 1

    def num_pairs(self):
        return [[self.shift + i, c] for i, c in enumerate(self.num) if c]

    def den_pairs(self):
        return [[i, c] for i, c in enumerate(self.den) if c]

    @staticmethod
    def from_pairs(num_pairs, den_pairs):
        num = {int(e): int(c) for e, c in num_pairs}
        den = {int(e): int(c) for e, c in den_pairs}
        if not num:
            return ZERO
        shift = min(num)
        npoly = [0] * (max(num) - shift + 1)
        for e, c in num.items():
            npoly[e - shift] = c
        if not den:
            den = {0: 1}
        if min(den) < 0:
            raise ValueError("denominator exponents must be >= 0")
        dpoly = [0] * (max(den) + 1)
        for e, c in den.items():
            dpoly[e] = c
        return CoefQ.make(npoly, shift, dpoly)

    def divides_q_products(self, k_max=None):
        """True iff den divides a product of polynomials q^k - 1 (possibly
        repeated), i.e. the scalar lies in the ring R."""
        den = self.den
        if den == (1,):
            return True
        deg = len(den) - 1
        if k_max is None:
            k_max = 4 * deg * deg + 4
        for k in range(1, k_max + 1):
            qk1 = (-1,) + (0,) * (k - 1) + (1,)  # q^k - 1
            while len(den) > 1:
                g = pgcd(den, qk1)
                if len(g) == 1:
                    break
                den = pdivexact(den, g)
            if len(den) == 1:
                break
        return den == (1,)

    def __repr__(self):
        if not self.num:
            return "CoefQ(0)"
        return "CoefQ(q^%d*%s/%s)" % (self.shift, list(self.num), list(self.den))


def _content(a):
    g = 0
    for x in a:
        g = gcd(g, x)
    return g


def _qshift(a, k):
    if k == 0 or not a:
        return a
    return (0,) * k + tuple(a)


_UNITS = ((1,), (-1,))
ZERO = CoefQ(0, (), (1,))
ONE = CoefQ(0, (1,), (1,))
MINUS_ONE = CoefQ(0, (-1,), (1,))
Q = CoefQ(1, (1,), (1,))
