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
are kept.

The product runs on packed integer keys (Kronecker substitution; the kernels
are in packed.py).  A key's alpha-coordinates m become one int,
m_0 + m_1 S + ... + m_{r-2} S^{r-2} + h S^{r-1}, with h = sum(m) its height
as the top digit (m_{r-1} is h minus the others).  Adding keys is adding
ints, ordering them orders their heights, and a height cut of a list sorted
by depth is a prefix.  Lambda-parts are not packed: a numerator is a dict
{Lambda-part: {key: coeff}}, each group is multiplied on its own, and the
inverse denominator lies in Q.  Keys decode with balanced digits in
(-S/2, S/2], a negative coordinate borrowing one from the digit above; the
top digit is unbounded.  This is exact while every lower coordinate of every
key, product keys included, has size at most S/2 - 1: factors whose
coordinates have size <= M give products within 2M, so the base is
S = 4M + 8.  One packed.Packing per Cartan datum holds, at one base, the
inverse denominator (1 divided by (1 - e^{-beta}) once per unit of the
multiplicity of each positive root beta, to the deepest depth asked for) and
the alternating orbit of every regular dominant weight (to the deepest margin
asked for), each sorted by depth so that a shallower one is a prefix; a call
that needs a larger base starts a fresh Packing.  Weight objects appear only
at the boundary: the G_w terms and twists that come in, the TruncatedSeries
that weyl_kac_character, euler_character and local_cohomology_character
return, and the fresh dict of denominator_inverse.

Root multiplicities are hardwired for untwisted data (real 1, imaginary
rank-1); twisted data is refused rather than guessed.
"""

from bisect import bisect_right

from . import weyl as weyl_mod
from .errors import (NonQInput, NotDominant, NotNonNegativeLevel,
                     WindowViolation)
from .kring import j_map
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

    def coeff(self, kappa):
        return self.coeffs.get(kappa, 0)

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

    The series is 1 divided by (1 - e^{-beta}) mult(beta) times per positive
    root beta, on packed keys.  One series per Cartan datum is kept, at the
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
    mu, truncated at depth N below mu."""
    if not cd.is_dominant(mu):
        raise NotDominant("highest weight %s is not dominant" % (mu,))
    lamr = mu + cd.rho()
    if cd.level(lamr) <= 0:
        raise NotNonNegativeLevel("mu + rho has level %d <= 0"
                                  % cd.level(lamr))
    pk, num, floor = _weyl_kac_numerator(cd, mu, N)
    return TruncatedSeries(cd, mu, N, pk.weights(
        over_denominator(pk, num, floor)))


def _weyl_kac_numerator(cd, mu, N):
    """(packing, packed alternating numerator, floor) of the character of
    the dominant mu to depth N: the orbit of mu + rho placed at mu."""
    pk = packing(cd, max(map(abs, mu.m)) + N)
    keys, signs = pk.orbit(mu + cd.rho(), N)
    top = pk.pack(mu.m)
    return (pk, {mu.l: {top + k: s for k, s in zip(keys, signs)}},
            sum(mu.m) - N)


def euler_character(cd, w, mu, N, table):
    """Euler characteristic character sum_k (-1)^k ch H^k of the twisting of
    the w-th Schubert structure sheaf by mu, truncated at depth N.

    Expands G_w term by term: a term c * e^{lambda + alpha} contributes
    c-expanded-in-q times e^{-lambda} chi_{mu+lambda+alpha}.  The Weyl-Kac
    character is linear in its alternating numerator, so each term adds its
    shifted numerator to one sum, and the sum is divided by the denominator
    once; shifts by delta factor through the numerator.  Singular shifted
    weights contribute nothing.  A twist that is not dominant can raise keys
    above mu; the series is based at the coordinatewise top of its keys.
    """
    if cd.level(mu) < 0:
        raise NotNonNegativeLevel("twist %s has level %d < 0"
                                  % (mu, cd.level(mu)))
    g = table.compute(w)
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
        word, vd = weyl_mod.to_dominant(cd, mu + kappa + rho)
        if not all(cd.pairing(i, vd) for i in cd.labels):
            continue  # a nontrivial stabilizer
        sign = -1 if len(word) % 2 else 1
        offset0 = mu + lam - (vd - rho)
        if any(offset0.l):
            raise NonQInput("offset %s to the dominant twist is not in the "
                            "root lattice" % (offset0,))
        s0 = sum(offset0.m)
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
    top = list(mu.m)
    for key in coeffs:
        top = [max(t, x) for t, x in zip(top, key.m)]
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
