"""Exact scalars: rational functions in q, kept in a canonical quotient form.

A CoefQ is q^shift * num(q) / den(q) with integer polynomials num, den such
that num has nonzero constant term (powers of q live in shift), den has
nonzero constant term and positive leading coefficient, num and den share no
polynomial factor and their integer contents are coprime.  Zero is
(shift=0, num=(), den=(1,)).  Equality is therefore syntactic.

The subring R of interest is generated by q^{+-1} and (1 - q^n)^{-1}, so
a denominator of R is a product of cyclotomic polynomials Phi_n.  One
factorization, cyclotomic_exponents, finds its exponents {n: e_n}, or
None outside R; two readers share it: the membership test
divides_q_products (provided, not enforced during arithmetic), and the
orbit printer, which groups the Phi_n into (1 - q^k) factors.  It divides
out cyclotomic polynomials Phi_n over exactly the n with phi(n) at most
the degree, each tried only when the integer Phi_n(2) divides den(2), and
each built once by exact division of q^n - 1 and kept in a bounded cache,
_cyclotomic.

Canonicalization cancels the polynomial gcd of num and den with
qpoly.pgcd_cofactors: the heuristic gcd (one big-integer gcd of the values at
a point xi >= 2 min(|num|, |den|) + 2, checked by exact division), with the
primitive PRS as fallback.  The gcd is unique, so either route gives the same
canonical form.  Every sum is q_shifted_sum, the sum of c * q^n over (c, n)
pairs: CoefQ + hands it two pairs, kring one key's terms, and cocycle's
check v_i(mu) + q^-n B(sigma) its two terms without multiplying.  It adds the
numerators over one denominator as integer lists, folds unequal
denominators d1, d2 into their lcm, d1 * (d2 / g) with g their gcd,
scaling each numerator by its cofactor, the lcm over its own denominator,
and reduces the sum once.

A table's coefficients lie in R, so it holds few distinct fractions and
fewer distinct denominators, and the same reductions come back again and
again.  Two process-wide caches, each
functools.lru_cache bounded at _GCD_CACHE = 256 entries, run each distinct
reduction once while it stays in use: _reduced, make's gcd, content and sign
step keyed by the q-power-free (num, den) tuples (the shift stays out of the
key), and _den_lcm, the lcm of two denominators of a sum together with both
cofactors, taken in sorted order so that a + b and b + a share one entry.
Sharing them across tables and callers is safe: both are pure
functions of tuples of ints, and what they return is tuples of ints, which
no caller can change.  The bound keeps their memory small (about 0.3 MB
of peak RSS on A1~ to length 12) while losing almost no hits: building A1~
to length 12 runs 842 gcds with 256 entries (548 reductions, 294
denominator pairs), each distinct one once, 908 with 64 and 1,148 with 32,
against 3,147 uncached.
"""

from functools import lru_cache
from itertools import combinations
from math import gcd, isqrt, prod

from .qpoly import (pcontent, pdivexact, peval, pgcd_cofactors, pmul, pneg,
                    pstrip)

# from_pairs refuses an exponent of size above this.  Tables stay far below
# it (A1~ to length 30 reaches degree 435), and it bounds the gcd work of a
# decoded coefficient: on a 2-CPU x86 host, exponent spans of 10,000 / 2,000
# (numerator / denominator) decode in 0.06 s, 50,000 / 10,000 in 1.1 s, and
# 1,000,000 / 200,000 runs past 60 s.
MAX_EXPONENT = 10000


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
        """Canonicalize an arbitrary integer-polynomial fraction: powers of
        q move into shift, the gcd of num and den is divided out by
        pgcd_cofactors (heuristic gcd at xi >= 2 min(|num|, |den|) + 2, the
        PRS after HEU_POINTS failed points), then the common integer content,
        signed so that den leads positive (_reduced, cached by its
        q-power-free num and den)."""
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
            num, den = _reduced(num, den)
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

    # --- predicates ----------------------------------------------------------

    def is_zero(self):
        return not self.num

    # --- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, CoefQ):
            return NotImplemented
        # most + of a coboundary solve have a zero operand: no grouping
        if not self.num:
            return other
        if not other.num:
            return self
        return q_shifted_sum(((self, 0), (other, 0)))

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
        """The scalar with numerator and denominator given as [exponent,
        coefficient] pairs (num_pairs / den_pairs).  ValueError unless every
        entry is an int (bools and floats are refused), an exponent repeats
        in neither list, no exponent has size above MAX_EXPONENT, and the
        denominator is nonzero."""
        num = _pair_dict(num_pairs)
        den = _pair_dict(den_pairs)
        if den and not any(den.values()):
            raise ValueError("zero denominator")
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

    def divides_q_products(self):
        """True iff den divides a product of polynomials q^k - 1 (possibly
        repeated), i.e. the scalar lies in the ring R: iff den has a
        cyclotomic factorization (cyclotomic_exponents)."""
        return cyclotomic_exponents(self.den) is not None

    def __repr__(self):
        if not self.num:
            return "CoefQ(0)"
        return "CoefQ(q^%d*%s/%s)" % (self.shift, list(self.num), list(self.den))


def cyclotomic_exponents(den):
    """{n: e_n} with den = +-prod Phi_n^e_n, or None when den is no such
    product, i.e. when it divides no product of polynomials q^k - 1.  Such
    a divisor is +-prod Phi_n (Gauss's lemma), with Phi_1 = q - 1
    anti-palindromic and every other Phi_n palindromic, so a den whose end
    coefficients are not +-1, or which is neither its reversal nor minus
    it, is refused at once.  Otherwise every Phi_n that fits in what is
    left of den, phi(n) <= its degree, is divided out exactly as often as
    it divides, in increasing n over exactly the n with phi(n) <= deg
    (_small_totients), and e_n counts the divisions; den is such a product
    iff nothing but +-1 is left.  A division is tried only while the
    integer Phi_n(2) divides den(2), which is divided along as factors come
    out, so most n cost one integer remainder; Phi_1(2) = 1 always passes,
    and q - 1 is divided out until it no longer divides.  den(2) != 0 once
    the ends are +-1: a root 2 would divide the constant term.  No gcd
    runs."""
    rev = den[::-1]
    if (den[0] not in (1, -1) or den[-1] not in (1, -1)
            or rev != den and rev != pneg(den)):
        return None
    exponents = {}
    value = peval(den, 2)
    for n, phi, primes in _small_totients(len(den) - 1):
        if len(den) == 1:
            break
        if phi < len(den):
            at2 = _cyclotomic_at_2(n, primes)
            while value % at2 == 0:
                try:
                    den = pdivexact(den, _cyclotomic(n))
                except ValueError:
                    break
                value //= at2
                exponents[n] = exponents.get(n, 0) + 1
    return exponents if len(den) == 1 else None


def q_shifted_sum(terms):
    """The canonical sum of c * q^n over the (CoefQ c, int n) terms, by at
    most one make.  Nonzero terms are grouped by denominator, and each
    group's q-shifted numerators are added into one integer list
    (_shifted_add).  Over two or more denominators the lcm is folded
    through _den_lcm: the running numerator and each new group's are scaled
    by their cofactors and added as integer lists, so no reduction runs
    before the last.  A lone nonzero term is already canonical and runs no
    make."""
    groups = {}  # den -> (shift, numerator)
    for c, n in terms:
        num = c.num
        if num:
            den = c.den
            if den in groups:
                groups[den] = _shifted_add(*groups[den], c.shift + n, num)
            else:
                groups[den] = c.shift + n, num
    if not groups:
        return ZERO
    (den, (shift, acc)), *rest = groups.items()
    for d, (s, num) in rest:
        if den < d:
            den, ca, cb = _den_lcm(den, d)
        else:
            den, cb, ca = _den_lcm(d, den)
        shift, acc = _shifted_add(shift, pmul(acc, ca), s, pmul(num, cb))
    if type(acc) is tuple:  # one term: already canonical
        return CoefQ(shift, acc, den)
    return CoefQ.make(acc, shift, den)


def _shifted_add(s, acc, sh, num):
    """(s', acc') with q^s' * acc' = q^s * acc + q^sh * num, added exactly as
    integer lists; acc' is a list, acc itself when acc is one, and may carry
    zeros at either end."""
    if type(acc) is not list:
        acc = list(acc)
    k = sh - s
    if k < 0:
        acc[:0] = [0] * -k
        s, k = sh, 0
    extra = k + len(num) - len(acc)
    if extra > 0:
        acc += [0] * extra
    for i, x in enumerate(num, k):
        acc[i] += x
    return s, acc


_GCD_CACHE = 256  # entries per gcd cache; see the module docstring


@lru_cache(maxsize=_GCD_CACHE)
def _reduced(num, den):
    """(num, den) over their gcd and common integer content, signed so that
    den leads positive: make's canonical num and den for q-power-free
    tuples num, den."""
    _, num, den = pgcd_cofactors(num, den)
    c = gcd(pcontent(num), pcontent(den))
    if den[-1] < 0:
        c = -c
    if c != 1:
        num = tuple(x // c for x in num)
        den = tuple(x // c for x in den)
    return num, den


@lru_cache(maxsize=_GCD_CACHE)
def _den_lcm(d1, d2):
    """(lcm, lcm / d1, lcm / d2) for denominators d1 < d2: the lcm is
    d1 * (d2 / g) with g = pgcd(d1, d2) (primitive, so up to an integer
    factor), and the cofactors are d2 / g and d1 / g, all from one
    pgcd_cofactors call."""
    _, c1, c2 = pgcd_cofactors(d1, d2)
    return pmul(d1, c2), c2, c1


def _small_totients(limit):
    """(n, phi(n), the primes dividing n) for every n with phi(n) <= limit,
    in increasing n.  phi is multiplicative with phi(p^k) = p^(k-1) (p - 1),
    so each n is built from prime powers in increasing prime order, over the
    primes p with p - 1 <= limit, and a branch stops once its phi passes
    the limit."""
    sieve = bytearray([1]) * (limit + 2)
    for p in range(2, isqrt(limit + 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit + 2, p)))
    primes = [p for p in range(2, limit + 2) if sieve[p]]
    out = []
    stack = [(0, 1, 1, ())] if limit >= 1 else []
    while stack:
        start, n, phi, ps = stack.pop()
        out.append((n, phi, ps))
        for j in range(start, len(primes)):
            p = primes[j]
            m, f = n * p, phi * (p - 1)
            if f > limit:
                break
            while f <= limit:
                stack.append((j + 1, m, f, ps + (p,)))
                m, f = m * p, f * p
    out.sort()
    return out


def _cyclotomic_at_2(n, primes):
    """Phi_n(2) = prod_{d | n} (2^d - 1)^mu(n/d), primes the primes
    dividing n: only squarefree n/d, the products of subsets of primes,
    have mu(n/d) != 0."""
    num = den = 1
    for k in range(len(primes) + 1):
        for sub in combinations(primes, k):
            v = (1 << n // prod(sub)) - 1
            if k % 2:
                den *= v
            else:
                num *= v
    return num // den


@lru_cache(maxsize=_GCD_CACHE)
def _cyclotomic(n):
    """Phi_n: q^n - 1 divided exactly by Phi_d for each proper divisor d
    of n."""
    cyc = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n // 2 + 1):
        if n % d == 0:
            cyc = pdivexact(cyc, _cyclotomic(d))
    return cyc


def _pair_dict(pairs):
    out = {}
    for e, c in pairs:
        if type(e) is not int or type(c) is not int:
            raise ValueError("pair [%r, %r] is not two ints" % (e, c))
        if abs(e) > MAX_EXPONENT:
            raise ValueError("exponent %d above the ceiling %d"
                             % (e, MAX_EXPONENT))
        if e in out:
            raise ValueError("exponent %d appears twice" % e)
        out[e] = c
    return out


_UNITS = ((1,), (-1,))
ZERO = CoefQ(0, (), (1,))
ONE = CoefQ(0, (1,), (1,))
Q = CoefQ(1, (1,), (1,))
