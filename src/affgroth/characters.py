"""Truncated formal character series.

All series here live in a completion along -Q_+: a series has a base weight
and finitely many keys kappa with base - kappa a non-negative integer
combination of simple roots; depth(kappa) = sum of those coordinates, bounded
by the cutoff.  Provides Weyl-Kac characters of integrable highest-weight
modules, relative local-cohomology characters of Schubert cells against G_w,
and Euler characteristics of twisted structure sheaves.  Only the sheaf-level
Euler characteristic is computed; individual cohomology groups are not.

Every series is built the same way: an alternating numerator times the
inverse of the Weyl-Kac denominator prod_{alpha > 0} (1 - e^{-alpha})^{mult
alpha}, cut by height: only keys of height sum(key.m) >= sum(base.m) -
cutoff are kept.  The Weyl-Kac character of a dominant mu is the Euler
series of G_e = 1, the class of the structure sheaf of the whole flag
manifold, twisted by mu, so weyl_kac_character and euler_character share
one core.  Reflections and delta shifts keep the Lambda-part, so a
numerator has one, its base's; _numerator packs it and _series divides and
decodes it, for the Euler and the local-cohomology series alike.

The base is fixed by the numerator alone.  The inverse denominator is 1
plus terms in -Q_+ minus 0, so every key of the numerator that no other
numerator key lies above keeps its coefficient in the series, and every
key of the series lies below some numerator key: the coordinatewise top of
the series is that of the numerator.  No numerator key lies above the
base, so the inverse denominator is never built deeper than the cutoff.

The product runs on packed integer keys; packed.py gives the key layout,
the bound on the base and the inverse denominator.  Both series read
their element's packed keys, never its decoded terms, and hand one list
of heads to _numerator: an Euler head is the dominant vd walked from a
key of G_w, kept as the (l, m) coordinates of its key, which also key
packed.Packing's orbit memo; a local head is one key of j_x(G_w), read
through keys.Layout.coordinates.  TruncatedSeries measures depth on
coordinates.  So Weight objects appear only at the boundary: rho and
the weights derived from the twist (mu + rho, and for a local series
b0 = x(mu + rho) - rho), the base of each series and one Weight per key
of it (Packing.weights), and the fresh dict of denominator_inverse.

The denominator is never formed from roots: by the denominator identity it
is the alternating orbit sum_w (-1)^len(w) e^{w rho - rho}, built like any
numerator orbit, and packed.py inverts it one depth at a time.  No root
multiplicity enters, so every affine datum the code accepts, twisted or
not, has its characters.
"""

from operator import add

from . import weyl as weyl_mod
from .errors import NotDominant, NotNonNegativeLevel, WindowViolation
from .keys import _in_layout, layout_for, weight_size
from .kring import j_map, k_one
from .packed import over_denominator, packing
from .weights import Weight, weight_to_json


class TruncatedSeries:
    """Finite stand-in for an element of the -Q_+ completion."""

    __slots__ = ("cd", "base", "cutoff", "coeffs")

    def __init__(self, cd, base, cutoff, coeffs):
        self.cd = cd
        self.base = base
        self.cutoff = cutoff
        self.coeffs = dict(coeffs)
        for kappa in self.coeffs:
            d = self._cone_depth(kappa)
            if d is None:
                raise ValueError("key %s outside base - Q_+" % (kappa,))
            if d > cutoff:
                raise ValueError("key %s deeper than the cutoff %d"
                                 % (kappa, cutoff))

    def _cone_depth(self, kappa):
        """Depth of a key in base - Q_+, or None outside it: read off the
        coordinates, with no Weight built."""
        if kappa.l != self.base.l:
            return None
        diff = [b - k for b, k in zip(self.base.m, kappa.m)]
        return sum(diff) if min(diff) >= 0 else None

    def depth(self, kappa):
        """Depth of a key below base, or None if outside the cone or deeper
        than the cutoff."""
        d = self._cone_depth(kappa)
        return d if d is not None and d <= self.cutoff else None

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.cd == other.cd and self.base == other.base
                and self.cutoff == other.cutoff and self.coeffs == other.coeffs)

    def __len__(self):
        return len(self.coeffs)

    def items_by_depth(self):
        top = sum(self.base.m)
        return sorted(self.coeffs.items(),
                      key=lambda t: (top - sum(t[0].m), t[0].m, t[0].l))

    def __repr__(self):
        head = ", ".join("%s*e[%s]" % (c, k)
                         for k, c in self.items_by_depth()[:4])
        more = "" if len(self.coeffs) <= 4 else ", ..(%d)" % len(self.coeffs)
        return "Series<%s%s | depth<=%d>" % (head, more, self.cutoff)

    def to_json(self):
        return {"base": weight_to_json(self.base),
                "cutoff": self.cutoff,
                "coeffs": [{"weight": weight_to_json(k), "coeff": c}
                           for k, c in self.items_by_depth()]}


def denominator_inverse(cd, N):
    """prod_{alpha > 0} (1 - e^{-alpha})^{-mult(alpha)} to depth N, as a dict
    on -Q_+ with integer coefficients; empty for N < 0.

    The series is the inverse of the alternating orbit of rho, which the
    denominator identity makes equal to the product, solved one depth at a
    time on packed keys.  One series per Cartan datum is kept, at the
    deepest cutoff asked for so far; a shallower cutoff is a prefix of it,
    which is exact because depth adds under products.  It is read as the
    numerator 1 over the denominator, the one division every series makes,
    so every call returns a fresh dict.
    """
    pk = packing(cd, N)
    return pk.weights((0,) * cd.rank, over_denominator(pk, {0: 1}, -N))


def weyl_kac_character(cd, mu, N):
    """Character of the integrable highest-weight module with highest weight
    mu, truncated at depth N below mu: the Euler series of G_e = 1 twisted
    by the dominant mu."""
    if not cd.is_dominant(mu):
        raise NotDominant("highest weight %s is not dominant" % (mu,))
    return _euler_series(cd, k_one(cd), mu, N)


def euler_character(cd, w, mu, N, table):
    """Euler characteristic character sum_k (-1)^k ch H^k of the twisting of
    the w-th Schubert structure sheaf by mu, truncated at depth N."""
    if cd.level(mu) < 0:
        raise NotNonNegativeLevel("twist %s has level %d < 0"
                                  % (mu, cd.level(mu)))
    return _euler_series(cd, table.compute(w), mu, N)


def _euler_series(cd, g, mu, N):
    """The Euler series of the element g twisted by mu of level >= 0, to
    depth N.

    Expands g term by term: a term c * e^{lambda + alpha} contributes
    c-expanded-in-q times e^{-lambda} chi_{mu+lambda+alpha}.  The Weyl-Kac
    character is linear in its alternating numerator, so each term adds its
    shifted numerator to one sum, and the sum is divided by the denominator
    once; shifts by delta factor through the numerator.  Singular shifted
    weights contribute nothing.  A twist that is not dominant can raise keys
    above mu; the series is based at the coordinatewise top of mu and the
    numerator's keys (module docstring).

    Each term's mu + lambda + alpha + rho is read off g's key, with no
    decoding, and walked to the dominant vd on keys (weyl.to_dominant);
    regularity is read off the same pairing digits, and vd is kept as the
    (l, m) coordinates of its key.  The part of shift n places the orbit
    of vd with its top key at vd + n delta, and every key of the part lies
    below that top, so the base is at most top, the coordinatewise top of
    mu and the parts' tops.  The orbits are built down to height(top) - N,
    the floor of a series based at top.  When cancellation leaves the
    numerator's top lower, its base lowers the floor and the orbits are
    extended once: the keys above the old floor are the same, so the base
    read after the extension can only rise, and its floor is then above
    the one built.
    """
    heads = []  # (vd's (l, m), vd's m, sign, c)
    # the key of mu + kappa + rho is kappa's plus that of mu + rho, whose
    # digits add: a layout whose half exceeds the sum of the bounds holds it
    shift = mu + cd.rho()
    bound = g.bound + weight_size(cd, shift.l, shift.m)
    start = g.layout if bound < g.layout.half else layout_for(cd, bound)
    s = start.pack(shift.l, shift.m) - start.offset
    for key, c in _in_layout(g, start).items():
        word, layout, key = weyl_mod.to_dominant(start, key + s, bound,
                                                 cd.labels)
        if not all(layout.pairings(key)):
            continue  # a nontrivial stabilizer
        l, m = map(tuple, layout.coordinates(key))
        heads.append(((l, m), m, -1 if len(word) % 2 else 1, c))
    floor, top = None, _top(cd, heads, mu.m)
    while floor is None or sum(top) - N < floor:
        floor = sum(top) - N
        pk, num = _numerator(cd, heads, floor)
        top = [max(c) for c in zip(mu.m, *map(pk.unpack, num))]
    if cd.is_dominant(mu) and tuple(top) != mu.m:
        raise WindowViolation("support escaped the cone below a dominant "
                              "twist")
    return _series(cd, pk, Weight(mu.l, top), N, num)


def _top(cd, heads, *lows):
    """The coordinatewise top of the coordinate lists lows and of the top
    keys at + top_exponent(c) delta of the heads (vd, at, sign, c)."""
    return [max(col) for col in zip(*lows, *(
        [x + c.top_exponent() * k for x, k in zip(at, cd.marks)]
        for _, at, _, c in heads))]


def _numerator(cd, heads, floor):
    """(packing, packed numerator {key: coeff}) of the heads (vd, at, sign,
    c) down to height floor: for each shift n of c's expansion, sign * c_n
    times the alternating orbit of vd, given by its (l, m) coordinates,
    placed with its top key at the alpha-coordinates at + n delta, or for
    vd None the single key there.  The packing holds every key and every
    product that reaches height floor.  Parts are taken deepest first, so
    each orbit is built once, at the largest margin it is asked for."""
    marks = cd.marks
    h = sum(marks)
    parts = []  # (margin, vd, top key, scale); a single key's margin is 0
    for vd, at, sign, c in heads:
        height = sum(at)
        # the shifts n whose top key at + n delta reaches the floor
        for n, cn in c.expand_down(-((height - floor) // h)):
            parts.append((0 if vd is None else height + n * h - floor, vd,
                          tuple([x + n * k for x, k in zip(at, marks)]),
                          sign * cn))
    parts.sort(key=lambda part: -part[0])
    pk = packing(cd, max((max(margin + max(map(abs, at)), sum(at) - floor)
                          for margin, _, at, _ in parts), default=0))
    num = {}
    get = num.get
    for margin, vd, at, scale in parts:
        keys, signs = ((0,), (1,)) if vd is None else pk.orbit(vd, margin)
        at_key = pk.pack(at)
        for key, s in zip(keys, signs):
            key += at_key
            num[key] = get(key, 0) + scale * s
    return pk, {k: c for k, c in num.items() if c}


def _series(cd, pk, base, N, num):
    """The series num / prod_{alpha > 0} (1 - e^{-alpha})^{mult alpha} to
    depth N below base, for a packed numerator in base's Lambda-part with
    no key above base."""
    coeffs = over_denominator(pk, num, sum(base.m) - N)
    return TruncatedSeries(cd, base, N, pk.weights(base.l, coeffs))


def local_cohomology_character(cd, w, x, mu, N, table):
    """Character of the relative local cohomology of the x-cell against the
    w-th Schubert class, twisted by mu:
    (-1)^len(w) e^{x(mu+rho)-rho} j_x(G_w) / prod(1-e^{-alpha})^mult,
    truncated at depth N (zero series when x is not above w).  j_x drops
    the Lambda-part, so every key lies in that of b0 = x(mu+rho)-rho.

    Each key kappa of j_x(G_w) is read as its coordinates, with no
    decoding, and is a head of the numerator: the single key b0 + kappa
    with its coefficient expanded in q, as _euler_series's heads are
    orbits.  The base is the coordinatewise top of the heads' top keys."""
    rho = cd.rho()
    b0 = weyl_mod.act(x, mu + rho) - rho
    if not weyl_mod.bruhat_leq(w, x):
        return TruncatedSeries(cd, b0, N, {})
    loc = j_map(x, table.compute(w))
    if loc.is_zero():
        return TruncatedSeries(cd, b0, N, {})
    sign = -1 if w.length % 2 else 1
    coordinates = loc.layout.coordinates
    heads = [(None, tuple(map(add, b0.m, coordinates(k)[1])), sign, c)
             for k, c in loc.keys.items()]
    top = _top(cd, heads)
    pk, num = _numerator(cd, heads, sum(top) - N)
    return _series(cd, pk, Weight(b0.l, top), N, num)
