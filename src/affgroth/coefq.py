"""Exact scalars: elements of R = Z[q^{+-1}, (1 - q^n)^{-1}], kept in a
canonical quotient form.

Every coefficient of a G_w lies in R (Kashiwara and Shimozono), and a
denominator of R is +-prod Phi_n^e_n, a product of cyclotomic polynomials.
A CoefQ is q^shift * num(q) / prod Phi_n(q)^e_n, held as (shift, num, cyc):
num an integer polynomial with nonzero constant term (powers of q live in
shift), cyc the sorted tuple of the (n, e_n) with e_n > 0, and no Phi_n
that cyc names divides num.  Zero is (shift=0, num=(), cyc=()).  The
product of the Phi_n is monic, so this is the quotient form with coprime
num and den whose den leads positive, and equality is syntactic.  The
polynomial den is built only where something reads it (save, the
printers and the vanishing probes), by _den_poly.  Its degree, which
top_exponent and q -> q^-1 read, is the sum of the e_n phi(n) and builds
no polynomial.

One series kernel, _times_one_minus_power, serves each place where a
denominator meets a polynomial, through the unique a_m with
prod Phi_n^e_n = prod (q^m - 1)^a_m.  Reversed (t = 1/q), q^m - 1 is
1 - t^m: _den_poly builds the reversed den as prod (1 - t^m)^a_m, and
expand_down is the reversed numerator times prod (1 - t^m)^-a_m.

A value outside R cannot be represented.  A denominator given as a
polynomial enters at make, at from_pairs (through make) and at inv, whose
numerator becomes the denominator; there one factorization,
cyclotomic_exponents, writes it as its exponents, or refuses it with
ValueError.  An integer denominator other than +-1 is refused too: R is
over Z.  cyclotomic_exponents takes the factors (1 - q^m)^a_m off
den / den(0) one by one, as a power series, and divides by no
polynomial.

Arithmetic factors nothing and runs no gcd.  A product first cancels from
each numerator the Phi_n of the other factor's denominator, then adds the
exponents; the factors were canonical, so nothing else can cancel.  Every
sum is q_shifted_sum, the sum of c * q^n over (c, n) pairs: CoefQ + hands
it two pairs, kring one key's terms, and cocycle's check v_i(mu) + q^-n
B(sigma) its two terms without multiplying.  It adds the numerators over
one denominator as integer lists, folds unequal denominators into their
lcm, the exponent-wise max, scaling each numerator by its cofactor (a
product of Phi_n), and cancels once.  A cancellation (_reduced) tries only
the Phi_n that the exponents name, each screened by Phi_n(2) | num(2), and
Phi_1 and Phi_2 by their roots, num(1) = 0 and num(-1) = 0, before one
exact division.  Negation, q -> q^-1 and a product with +-q^k keep the
exponents: Phi_n is palindromic for n >= 2, and Phi_1(1/q) = -q^-1
Phi_1(q).

A table holds few distinct denominators, and the same cancellations come
back again and again.  Bounded process-wide caches of _CACHE = 256 entries
each (functools.lru_cache) run each distinct one once while it stays in
use: _reduced, keyed by the q-power-free numerator and the exponents;
_den_lcm, the lcm of two exponent tuples with both cofactors, taken in
sorted order so that a + b and b + a share one entry;
cyclotomic_exponents, the factorization of make and inv, keyed by the
polynomial; and _den_poly.  Sharing them across
tables and callers is safe: each is a pure function of tuples of ints and
returns tuples of ints, which no caller can change.  Building
A1~ to length 12 runs 702 distinct cancellations, 294 distinct lcms and
12 factorizations.
"""

from functools import lru_cache
from itertools import accumulate
from math import isqrt
from operator import sub

from .qpoly import pdivexact, peval, pmul, pneg, pstrip

# from_pairs refuses an exponent of size above this.  Tables stay far below
# it (A1~ to length 30 reaches degree 435), and it bounds the work of a
# decoded coefficient, most of it the factorization of its denominator: on
# a 2-CPU x86 host, (1 - q^997)(1 - q^1009)(1 - q^1013) factors in 0.01 s,
# and the palindromes 1 + 3q^k + q^2k outside R are refused in 0.01 s at
# degree 5,000 and 0.02 s at degree 10,000.
MAX_EXPONENT = 10000
_CACHE = 256  # entries per cache; see the module docstring


class CoefQ:
    __slots__ = ("shift", "num", "cyc")

    def __init__(self, shift, num, cyc):
        # trusted canonical data; use the constructors below
        self.shift = shift
        self.num = num
        self.cyc = cyc

    # --- construction --------------------------------------------------------

    @staticmethod
    def make(num, shift=0, den=(1,)):
        """Canonicalize an integer-polynomial fraction q^shift num / den:
        powers of q move into shift, den is factored into its cyclotomic
        exponents (cyclotomic_exponents), and the Phi_n they name are
        cancelled from num.  ValueError when den is no +-q^k prod Phi_n,
        i.e. the value lies outside R."""
        num = pstrip(num)
        den = pstrip(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return ZERO
        while den[0] == 0:
            den = den[1:]
            shift -= 1
        cyc = cyclotomic_exponents(den)
        if cyc is None:
            raise ValueError("denominator of degree %d is no product of "
                             "cyclotomic polynomials: outside R"
                             % (len(den) - 1))
        if den[-1] < 0:
            num = pneg(num)
        return _canonical(num, shift, cyc)

    @staticmethod
    def from_int(n):
        if n == 0:
            return ZERO
        if n == 1:
            return ONE
        return CoefQ(0, (n,), ())

    @staticmethod
    def q_power(n):
        if n == 0:
            return ONE
        return CoefQ(n, (1,), ())

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
        return CoefQ(self.shift, pneg(self.num), self.cyc)

    def __mul__(self, other):
        if not isinstance(other, CoefQ):
            return NotImplemented
        if not self.num or not other.num:
            return ZERO
        if not other.cyc and other.num in _UNITS:
            return self._times_unit(other)
        if not self.cyc and self.num in _UNITS:
            return other._times_unit(self)
        a, ca, b, cb = self.num, self.cyc, other.num, other.cyc
        if cb:
            a, cb = _reduced(a, cb)
        if ca:
            b, ca = _reduced(b, ca)
        if ca and cb:  # add the exponents
            exps = dict(ca)
            for n, e in cb:
                exps[n] = exps.get(n, 0) + e
            cb = tuple(sorted(exps.items()))
        return CoefQ(self.shift + other.shift, pmul(a, b), cb or ca)

    def _times_unit(self, u):
        """self * (+-q^n): already canonical, nothing to cancel."""
        num = self.num if u.num[0] == 1 else pneg(self.num)
        return CoefQ(self.shift + u.shift, num, self.cyc)

    def inv(self):
        """1 / self; ValueError unless num is +-prod Phi_n, i.e. self is a
        unit of R."""
        if not self.num:
            raise ZeroDivisionError("inverting zero")
        cyc = cyclotomic_exponents(self.num)
        if cyc is None:
            raise ValueError("numerator of degree %d is no product of "
                             "cyclotomic polynomials: its inverse lies "
                             "outside R" % (len(self.num) - 1))
        den = self.den
        return CoefQ(-self.shift, den if self.num[-1] > 0 else pneg(den),
                     cyc)

    def subs_q_inverse(self):
        """The scalar with q replaced by q^{-1}: the numerator reversed,
        negated when Phi_1 has an odd exponent, over the same exponents."""
        if not self.num:
            return self
        num = self.num[::-1]
        if self.cyc and self.cyc[0][0] == 1 and self.cyc[0][1] % 2:
            num = pneg(num)
        return CoefQ(-self.shift - len(self.num) + 1 + _degree(self.cyc),
                     num, self.cyc)

    # --- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, CoefQ) and self.shift == other.shift
                and self.num == other.num and self.cyc == other.cyc)

    def __hash__(self):
        return hash((self.shift, self.num, self.cyc))

    # --- views ---------------------------------------------------------------

    @property
    def den(self):
        """The denominator prod Phi_n^e_n as a polynomial (monic)."""
        return _den_poly(self.cyc)

    def top_exponent(self):
        """q-degree of the leading term of the downward Laurent expansion."""
        if not self.num:
            raise ValueError("zero has no top exponent")
        return self.shift + len(self.num) - 1 - _degree(self.cyc)

    def expand_down(self, n_min):
        """Laurent expansion in descending powers of q (the e^{-delta} adic
        direction): yields (n, c_n) with c_n != 0, from the top exponent down
        to n_min, and nothing when n_min is above the top exponent.  In
        t = q^-1 the value is q^top times the reversed numerator over the
        reversed den, prod (1 - t^m)^a_m: an integer power series, cut
        after t^(top - n_min)."""
        if not self.num:
            return
        top = self.top_exponent()
        k = max(top - n_min + 1, 0)  # coefficients wanted
        rev = list(self.num[::-1][:k]) + [0] * (k - len(self.num))
        for m, a in q_product_exponents(self.cyc).items():
            _times_one_minus_power(rev, m, -a)
        for i, c in enumerate(rev):
            if c:
                yield top - i, c

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
        denominator is nonzero and lies in R (make)."""
        num = _pair_dict(num_pairs)
        den = _pair_dict(den_pairs) or {0: 1}
        if not any(den.values()):
            raise ValueError("zero denominator")
        if not num:
            return ZERO
        if min(den) < 0:
            raise ValueError("denominator exponents must be >= 0")
        shift = min(num)
        return CoefQ.make(_dense(num, shift), shift, _dense(den, 0))

    def __repr__(self):
        if not self.num:
            return "CoefQ(0)"
        return "CoefQ(q^%d*%s/%s)" % (self.shift, list(self.num), list(self.den))


@lru_cache(maxsize=_CACHE)
def cyclotomic_exponents(den):
    """The sorted (n, e_n) with den = +-prod Phi_n^e_n and e_n > 0, or None
    when den is no such product, i.e. when it divides no product of
    polynomials q^k - 1; kept in a bounded cache keyed by den.  An integer
    power series 1 + O(q) is prod (1 - q^m)^a_m for exactly one integer
    sequence a_m, and den / den(0) is peeled into it: where the series
    left holds 1 + c q^m + ..., a_m = -c, and _times_one_minus_power takes
    the factor off.  q^m - 1 is the product of the Phi_d over the divisors
    d of m, so e_n is the sum of the a_m over the multiples m of n.  Every
    Phi_n of den has phi(n) <= deg, so the series runs to the largest such
    n (_small_totients), and |a_m| phi(m) <= sum of the e_mk phi(mk) <=
    deg, since a_m = sum of mu(k) e_mk: an a_m that breaks this bound
    refuses den at once.  The coefficients below q^k decide every a_m with
    m < k, so the peel runs on the prefix of length k = 2, 4, 8, ..., from
    the start each time, and a huge a_m is caught on a short prefix.  den
    is accepted iff den(0) = +-1, sum m a_m = deg and every e_n >= 0: the
    product of the factors is then a polynomial of degree deg that agrees
    with den / den(0) beyond it."""
    if den[0] not in (1, -1):
        return None
    deg = len(den) - 1
    phis = dict(_small_totients(deg))
    series = [den[0] * c for c in den] + [0] * (max(phis, default=0) - deg)
    size, exps = 1, {}
    while size < len(series):
        size *= 2
        head, exps = series[:size], {}  # m -> a_m
        for m in range(1, len(head)):
            c = head[m]
            if c:
                if abs(c) * phis.get(m, deg + 1) > deg:  # phi(m) > deg too
                    return None
                exps[m] = -c
                _times_one_minus_power(head, m, c)
    if sum(m * a for m, a in exps.items()) != deg:
        return None
    out = {}
    for m, a in exps.items():
        for d in range(1, m + 1):
            if m % d == 0:
                out[d] = out.get(d, 0) + a
    if any(e < 0 for e in out.values()):
        return None
    return tuple((n, e) for n, e in sorted(out.items()) if e)


def q_shifted_sum(terms):
    """The canonical sum of c * q^n over the (CoefQ c, int n) terms, with at
    most one cancellation.  Nonzero terms are grouped by denominator, and
    each group's q-shifted numerators are added into one integer list
    (_shifted_add).  Over two or more denominators the lcm is folded
    through _den_lcm: the running numerator and each new group's are scaled
    by their cofactors and added as integer lists, so nothing is cancelled
    before the last step.  A lone nonzero term is already canonical and
    cancels nothing."""
    groups = {}  # cyc -> (shift, numerator)
    for c, n in terms:
        num = c.num
        if num:
            cyc = c.cyc
            if cyc in groups:
                groups[cyc] = _shifted_add(*groups[cyc], c.shift + n, num)
            else:
                groups[cyc] = c.shift + n, num
    if not groups:
        return ZERO
    (cyc, (shift, acc)), *rest = groups.items()
    for other, (s, num) in rest:
        if cyc < other:
            cyc, ca, cb = _den_lcm(cyc, other)
        else:
            cyc, cb, ca = _den_lcm(other, cyc)
        shift, acc = _shifted_add(shift, pmul(acc, ca), s, pmul(num, cb))
    if type(acc) is tuple:  # one term: already canonical
        return CoefQ(shift, acc, cyc)
    return _canonical(acc, shift, cyc)


def _canonical(num, shift, cyc):
    """The CoefQ q^shift num / prod Phi_n^e_n, (n, e_n) in cyc, for an
    integer list or tuple num that may carry zeros at either end."""
    num = pstrip(num)
    if not num:
        return ZERO
    z = 0
    while num[z] == 0:
        z += 1
    if z:
        num = num[z:]
        shift += z
    if cyc:
        num, cyc = _reduced(num, cyc)
    return CoefQ(shift, num, cyc)


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


@lru_cache(maxsize=_CACHE)
def _reduced(num, cyc):
    """(num', cyc') with num' / prod Phi_n^e'_n = num / prod Phi_n^e_n for a
    q-power-free tuple num and exponents cyc, and no Phi_n of cyc' dividing
    num': each Phi_n of cyc is divided out of num while it divides, at most
    e_n times, each division screened by its root for n <= 2 (num(1) = 0
    for Phi_1, num(-1) = 0 for Phi_2: exact tests) and by Phi_n(2) | num(2)
    otherwise."""
    out = []
    at2 = peval(num, 2)  # divided along as factors come out
    for i, (n, e) in enumerate(cyc):
        cyclo = _cyclotomic(n)
        phi2 = peval(cyclo, 2)
        root = 3 - 2 * n  # of Phi_1 and of Phi_2
        while e and (at2 % phi2 == 0 if n > 2 else not peval(num, root)):
            try:
                num = pdivexact(num, cyclo)
            except ValueError:
                break
            at2 //= phi2
            e -= 1
        if e:  # an untouched pair is kept as the same object (_den_lcm)
            out.append(cyc[i] if e == cyc[i][1] else (n, e))
    return num, tuple(out)


@lru_cache(maxsize=_CACHE)
def _den_lcm(c1, c2):
    """(lcm, lcm / d1, lcm / d2) for the exponent tuples c1 < c2 of two
    denominators d1, d2: the lcm's exponents are the larger of each pair,
    and each cofactor is the product of the Phi_n the other one lacks.
    In sorted(c1 + c2) the last pair of each n has the larger exponent,
    and the lcm holds that pair object itself, as _reduced keeps those it
    leaves alone: a table's exponent tuples share their pairs, and take no
    more memory than its polynomial denominators would."""
    e1, e2 = dict(c1), dict(c2)
    lcm = tuple({pair[0]: pair for pair in sorted(c1 + c2)}.values())
    return lcm, *(_den_poly(tuple((n, e - d.get(n, 0)) for n, e in lcm
                                  if e > d.get(n, 0))) for d in (e1, e2))


@lru_cache(maxsize=_CACHE)
def _den_poly(cyc):
    """prod Phi_n^e_n over the (n, e_n) in cyc, as a polynomial, built as
    prod (q^m - 1)^a_m (q_product_exponents) with no polynomial product.
    Reversed, q^m - 1 is 1 - t^m, and the reversed den of degree D is the
    power series prod (1 - t^m)^a_m cut after t^D."""
    exps = q_product_exponents(cyc)
    rev = [1] + [0] * sum(m * a for m, a in exps.items())
    for m, a in exps.items():
        _times_one_minus_power(rev, m, a)
    return tuple(rev[::-1])


def _times_one_minus_power(rev, m, a):
    """Multiply the power series rev in t, cut after its length, by
    (1 - t^m)^a, in place: each factor 1 - t^m subtracts the series
    shifted by m, and each inverse one runs a sum along every residue class
    mod m that holds two terms or more."""
    for _ in range(a):
        rev[m:] = map(sub, rev[m:], rev[:-m])
    for _ in range(-a):
        for r in range(min(m, len(rev) - m)):
            rev[r::m] = accumulate(rev[r::m])


def q_product_exponents(cyc):
    """The {m: a_m} with prod Phi_n^e_n = prod (q^m - 1)^a_m, (n, e_n) in
    cyc, a_m != 0: q^n - 1 is the product of the Phi_d over the divisors d
    of n, so from the largest n down, a_n is what is left of e_n, and a_n
    is taken away from e_d for every divisor d of n.  The a_m are unique,
    and some is negative when the Phi_n make no product of polynomials
    q^m - 1: 1 + q = (q^2 - 1) / (q - 1)."""
    exps = dict(cyc)
    out = {}
    for n in range(max(exps, default=0), 0, -1):
        a = exps.get(n)
        if a:
            out[n] = a
            for d in range(1, n + 1):
                if n % d == 0:
                    exps[d] = exps.get(d, 0) - a
    return out


def _degree(cyc):
    """The degree of prod Phi_n^e_n, the sum of the e_n phi(n)."""
    return sum(e * (len(_cyclotomic(n)) - 1) for n, e in cyc)


def _small_totients(limit):
    """(n, phi(n)) for every n with phi(n) <= limit, in increasing n.  phi
    is multiplicative with phi(p^k) = p^(k-1) (p - 1), so each n is built
    from prime powers in increasing prime order, over the primes p with
    p - 1 <= limit, and a branch stops once its phi passes the limit."""
    sieve = bytearray([1]) * (limit + 2)
    for p in range(2, isqrt(limit + 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit + 2, p)))
    primes = [p for p in range(2, limit + 2) if sieve[p]]
    out = []
    stack = [(0, 1, 1)] if limit >= 1 else []
    while stack:
        start, n, phi = stack.pop()
        out.append((n, phi))
        for j in range(start, len(primes)):
            p = primes[j]
            m, f = n * p, phi * (p - 1)
            if f > limit:
                break
            while f <= limit:
                stack.append((j + 1, m, f))
                m, f = m * p, f * p
    out.sort()
    return out


@lru_cache(maxsize=_CACHE)
def _cyclotomic(n):
    """Phi_n = prod_{d | n} (q^d - 1)^mu(n/d), built by _den_poly and kept
    in a cache of its own, keyed by n, which _reduced and _degree read
    once per exponent pair."""
    return _den_poly(((n, 1),))


def _dense(coeffs, low):
    """The coefficient list of the {exponent: coefficient} dict coeffs,
    from exponent low up."""
    poly = [0] * (max(coeffs) - low + 1)
    for e, c in coeffs.items():
        poly[e - low] = c
    return poly


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
ZERO = CoefQ(0, (), ())
ONE = CoefQ(0, (1,), ())
Q = CoefQ(1, (1,), ())
