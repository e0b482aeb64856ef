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
alpha}, cut by height: only keys of height sum(key.m) >= sum(top.m) - cutoff
are kept.  The Weyl-Kac character of a dominant mu is the Euler series of
G_e = 1, the class of the structure sheaf of the whole flag manifold,
twisted by mu, so weyl_kac_character and euler_character share one core.

The product runs on packed integer keys; packed.py gives the key layout,
the grouping of a numerator by Lambda-part and the bound on the base.
Weight objects appear only at the boundary: the G_w terms and twists that
come in, the TruncatedSeries that weyl_kac_character, euler_character and
local_cohomology_character return, and the fresh dict of
denominator_inverse.

The denominator is never formed from roots: by the denominator identity it
is the alternating orbit sum_w (-1)^len(w) e^{w rho - rho}, built like any
numerator orbit, and packed.py inverts it one depth at a time.  No root
multiplicity enters, so every affine datum the code accepts, twisted or
not, has its characters.
"""

from bisect import bisect_right

from . import weyl as weyl_mod
from .errors import NotDominant, NotNonNegativeLevel, WindowViolation
from .kring import j_map, k_one
from .packed import divide, over_denominator, packing
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
            if self.depth(kappa) is None:
                raise ValueError("key %s outside base - Q_+" % (kappa,))

    def depth(self, kappa):
        """Depth of a key below base, or None if outside the cone."""
        diff = self.base - kappa
        if any(diff.l) or any(c < 0 for c in diff.m):
            return None
        d = sum(diff.m)
        return d if d <= self.cutoff else None

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.cd == other.cd and self.base == other.base
                and self.cutoff == other.cutoff and self.coeffs == other.coeffs)

    def __len__(self):
        return len(self.coeffs)

    def items_by_depth(self):
        return sorted(self.coeffs.items(),
                      key=lambda t: (sum((self.base - t[0]).m), t[0].m, t[0].l))

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
    which is exact because depth adds under products.  Every call returns a
    fresh dict.
    """
    if N < 0:
        return {}
    pk = packing(cd, N)
    keys, coeffs, depths = pk.denominator_inverse(N)
    n = bisect_right(depths, N)
    return pk.weights({(0,) * cd.rank: dict(zip(keys[:n], coeffs[:n]))})


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
    above mu; the series is based at the coordinatewise top of its keys.
    """
    rho = cd.rho()
    h = sum(cd.marks)
    delta = cd.delta()
    zeros = (0,) * cd.rank
    floor = sum(mu.m) - N
    # (vd, margin, at, scale): scale * the orbit of vd to depth margin,
    # placed with its top key at the weight `at`
    parts = []
    margins = {}  # vd -> largest margin any part needs
    size = 0  # bounds every coordinate of num and the reach of the product
    for kappa, c in g.terms.items():
        lam = Weight(kappa.l, zeros)
        word, vd = weyl_mod.to_dominant(cd, mu + kappa + rho, cd.labels)
        if not all(cd.pairing(i, vd) for i in cd.labels):
            continue  # a nontrivial stabilizer
        sign = -1 if len(word) % 2 else 1
        s0 = sum((mu + lam - (vd - rho)).m)  # reflections change only m
        for n, cn in c.expand_down(-((N - s0) // h)):
            margin = N - s0 + n * h  # never negative
            at = vd - rho + n * delta - lam
            parts.append((vd, margin, at, sign * cn))
            margins[vd] = max(margin, margins.get(vd, margin))
            size = max(size, margin + max(map(abs, at.m)), sum(at.m) - floor)
    pk = packing(cd, size)
    for vd, margin in margins.items():
        pk.orbit(vd, margin)  # each orbit at the largest margin first
    num = {}
    for vd, margin, at, scale in parts:
        keys, signs = pk.orbit(vd, margin)
        at_key = pk.pack(at.m)
        group = num.setdefault(at.l, {})
        get = group.get
        for key, s in zip(keys, signs):
            key += at_key
            group[key] = get(key, 0) + scale * s
    num = {l: {k: c for k, c in group.items() if c}
           for l, group in num.items()}

    coeffs = pk.weights(over_denominator(pk, num, floor))
    top = [max(c) for c in zip(mu.m, *(k.m for k in coeffs))]
    base = Weight(mu.l, top)
    if cd.is_dominant(mu) and base != mu:
        raise WindowViolation("support escaped the cone below a dominant "
                              "twist")
    floor = sum(top) - N
    return TruncatedSeries(cd, base, N, {k: c for k, c in coeffs.items()
                                         if sum(k.m) >= floor})


def local_cohomology_character(cd, w, x, mu, N, table):
    """Character of the relative local cohomology of the x-cell against the
    w-th Schubert class, twisted by mu:
    (-1)^len(w) e^{x(mu+rho)-rho} j_x(G_w) / prod(1-e^{-alpha})^mult,
    truncated at depth N (zero series when x is not above w)."""
    rho = cd.rho()
    b0 = weyl_mod.act(x, mu + rho) - rho
    if not weyl_mod.bruhat_leq(w, x):
        return TruncatedSeries(cd, b0, N, {})
    loc = j_map(x, table.compute(w))
    if loc.is_zero():
        return TruncatedSeries(cd, b0, N, {})
    h = sum(cd.marks)
    delta = cd.delta()
    heads = [kappa + c.top_exponent() * delta for kappa, c in loc.terms.items()]
    top = [max(hd.m[j] for hd in heads) for j in range(cd.rank)]
    base = b0 + Weight((0,) * cd.rank, top)
    tsum = sum(top)
    sign = -1 if w.length % 2 else 1
    num = {}
    for kappa, c in loc.terms.items():
        s_k = tsum - sum(kappa.m)
        for n, cn in c.expand_down(-((N - s_k) // h)):
            num[b0 + kappa + n * delta] = sign * cn
    return TruncatedSeries(cd, base, N, divide(cd, num, sum(base.m) - N))
