"""Truncated formal character series.

All series here live in a completion along -Q_+: a series has a base weight
and finitely many keys kappa with base - kappa a non-negative integer
combination of simple roots; depth(kappa) = sum of those coordinates, bounded
by the cutoff.  Provides Weyl-Kac characters of integrable highest-weight
modules, relative local-cohomology characters of Schubert cells against G_w,
and Euler characteristics of twisted structure sheaves.  Only the sheaf-level
Euler characteristic is computed; individual cohomology groups are not.

Every character divides by the Weyl-Kac denominator
prod_{alpha > 0} (1 - e^{-alpha})^{mult alpha}.  Its inverse is the product of
one binomial series per positive root; one copy per Cartan datum is kept at
the deepest cutoff asked for, and shallower cutoffs are cut from it.

Root multiplicities are hardwired for untwisted data (real 1, imaginary
rank-1); twisted data is refused rather than guessed.
"""

from . import weyl as weyl_mod
from .errors import (NonQInput, NotDominant, NotNonNegativeLevel,
                     NotUntwisted, WindowViolation)
from .kring import j_map
from .weights import Weight, weight_from_json, weight_to_json


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

    @classmethod
    def from_json(cls, cd, obj):
        return cls(cd, weight_from_json(obj["base"]), obj["cutoff"],
                   {weight_from_json(t["weight"]): t["coeff"]
                    for t in obj["coeffs"]})


def positive_roots_with_mult(cd, N):
    """Positive roots of depth <= N as (Weight in Q, multiplicity) pairs.

    Real roots by reflection closure upward from the simple roots (any
    positive real root descends to a simple one through positives of smaller
    height, so the closure finds everything under the cutoff); imaginary
    roots are the multiples of delta with multiplicity rank - 1.
    """
    if not cd.untwisted:
        raise NotUntwisted("root multiplicities implemented for untwisted "
                           "types only, got %r" % (cd.type_string,))
    seen = set()
    frontier = []
    for i in cd.labels:
        a = cd.alpha(i)
        if sum(a.m) <= N:
            seen.add(a)
            frontier.append(a)
    while frontier:
        new = []
        for b in frontier:
            for i in cd.labels:
                c = cd.reflect(i, b)
                if (c not in seen and all(x >= 0 for x in c.m)
                        and sum(c.m) <= N):
                    seen.add(c)
                    new.append(c)
        frontier = new
    out = [(b, 1) for b in seen]
    h = sum(cd.marks)  # depth of delta
    n = 1
    while n * h <= N:
        out.append((n * cd.delta(), cd.rank - 1))
        n += 1
    out.sort(key=lambda t: (sum(t[0].m), t[0].m))
    return out


# --- truncated series arithmetic on plain dicts ------------------------------
# Keys are absolute Weights; the depth of a product term is the sum of the
# factor depths, so truncation composes.  depth callables return None to mean
# "already beyond cutoff".

def _mul_trunc(A, B, N, da, db):
    out = {}
    items_b = [(b, cb, db(b)) for b, cb in B.items()]
    for a, ca in A.items():
        d = da(a)
        if d is None or d > N:
            continue
        for b, cb, dbv in items_b:
            if dbv is None or d + dbv > N:
                continue
            key = a + b
            c = out.get(key, 0) + ca * cb
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


def _qplus_depth(kappa):
    """Depth of a key at or below 0 in -Q_+, else None."""
    if any(kappa.l) or any(c > 0 for c in kappa.m):
        return None
    return -sum(kappa.m)


_DINV = {}  # cd -> (cutoff, inverse denominator to that depth)


def denominator_inverse(cd, N):
    """prod_{alpha > 0} (1 - e^{-alpha})^{-mult(alpha)} to depth N, as a dict
    on -Q_+ with integer coefficients; empty for N < 0.

    The product runs over one binomial series per positive root,
    (1 - e^{-beta})^{-m} = sum_k C(m+k-1, k) e^{-k beta}.  One series per
    Cartan datum is kept, at the deepest cutoff asked for so far; a shallower
    cutoff is that series cut by depth, which is exact because depth adds
    under products.  Every call returns a fresh dict.
    """
    if N < 0:
        return {}
    got = _DINV.get(cd)
    if got is None or got[0] < N:
        got = (N, _build_denominator_inverse(cd, N))
        _DINV[cd] = got
    depth, series = got
    if depth == N:
        return dict(series)
    return {k: c for k, c in series.items() if -sum(k.m) <= N}


def _build_denominator_inverse(cd, N):
    zero = cd.zero()
    X = {zero: 1}
    for beta, mult in positive_roots_with_mult(cd, N):
        step = sum(beta.m)
        # (1 - e^{-beta})^{-mult}, cut at depth N
        factor = {zero: 1}
        coeff = 1
        key = zero
        for k in range(1, N // step + 1):
            coeff = coeff * (mult + k - 1) // k
            key = key - beta
            factor[key] = coeff
        X = _mul_trunc(X, factor, N, _qplus_depth, _qplus_depth)
    return X


def _numerator(cd, lamr, margin):
    """Alternating sum over the orbit of the regular dominant lamr: keys
    x(lamr) - rho with sign (-1)^len(x), pruned at the given depth margin.
    Descent steps only; for regular dominant lamr each image is reached at a
    single length, so layers by image are layers by length."""
    rho = cd.rho()
    out = {lamr - rho: 1}
    frontier = {lamr}
    seen = {lamr}
    sign = 1
    while frontier:
        sign = -sign
        new = set()
        for v in frontier:
            for i in cd.labels:
                p = cd.pairing(i, v)
                if p <= 0:
                    continue
                v2 = cd.reflect(i, v)
                if v2 in seen or sum((lamr - v2).m) > margin:
                    continue
                seen.add(v2)
                new.add(v2)
        for v2 in new:
            out[v2 - rho] = sign
        frontier = new
    return out


def weyl_kac_character(cd, mu, N):
    """Character of the integrable highest-weight module with highest weight
    mu, truncated at depth N below mu."""
    if not cd.is_dominant(mu):
        raise NotDominant("highest weight %s is not dominant" % (mu,))
    rho = cd.rho()
    lamr = mu + rho
    if cd.level(lamr) <= 0:
        raise NotNonNegativeLevel("mu + rho has level %d <= 0"
                                  % cd.level(lamr))
    num = _numerator(cd, lamr, N + cd.rank)
    dinv = denominator_inverse(cd, N)
    dmu = lambda k: _qplus_depth(k - mu)
    coeffs = _mul_trunc(num, dinv, N, dmu, _qplus_depth)
    coeffs = {k: c for k, c in coeffs.items() if dmu(k) is not None
              and dmu(k) <= N}
    return TruncatedSeries(cd, mu, N, coeffs)


def _to_dominant_or_none(cd, v):
    """(sign, dominant image) of a positive-level weight under the Weyl
    group, or None when the stabilizer is nontrivial (some pairing zero)."""
    sign = 1
    while True:
        i = next((i for i in cd.labels if cd.pairing(i, v) < 0), None)
        if i is None:
            if any(cd.pairing(i, v) == 0 for i in cd.labels):
                return None
            return sign, v
        v = cd.reflect(i, v)
        sign = -sign


def euler_character(cd, w, mu, N, table):
    """Euler characteristic character sum_k (-1)^k ch H^k of the twisting of
    the w-th Schubert structure sheaf by mu, truncated at depth N.

    Expands G_w term by term: a term c * e^{lambda + alpha} contributes
    c-expanded-in-q times e^{-lambda} chi_{mu+lambda+alpha}; shifts by delta
    factor out of chi, so one character per distinct dominantization serves a
    whole q-expansion.  Singular shifted weights contribute nothing.
    """
    if cd.level(mu) < 0:
        raise NotNonNegativeLevel("twist %s has level %d < 0"
                                  % (mu, cd.level(mu)))
    g = table.compute(w)
    rho = cd.rho()
    h = sum(cd.marks)
    delta = cd.delta()
    zeros = (0,) * cd.rank
    chi_cache = {}  # tau -> (depth computed, coeff dict)

    def chi(tau, depth):
        got = chi_cache.get(tau)
        if got is None or got[0] < depth:
            got = (depth, weyl_kac_character(cd, tau, depth).coeffs)
            chi_cache[tau] = got
        return got[1]

    acc = {}
    for kappa, c in g.terms.items():
        lam = Weight(kappa.l, zeros)
        res = _to_dominant_or_none(cd, mu + kappa + rho)
        if res is None:
            continue
        sign, vd = res
        tau = vd - rho
        offset0 = mu + lam - tau
        if any(offset0.l):
            raise NonQInput("offset %s to the dominant twist is not in the "
                            "root lattice" % (offset0,))
        s0 = sum(offset0.m)
        n_min = -((N - s0) // h)
        for n, cn in c.expand_down(n_min):
            budget = N - s0 + n * h
            if budget < 0:
                continue
            shift = n * delta - lam
            scale = sign * cn
            for key_c, coeff in chi(tau, budget).items():
                if sum((tau - key_c).m) > budget:
                    continue
                key = key_c + shift
                tot = acc.get(key, 0) + scale * coeff
                if tot:
                    acc[key] = tot
                else:
                    acc.pop(key, None)

    top = list(mu.m)
    for key in acc:
        top = [max(t, x) for t, x in zip(top, key.m)]
    base = Weight(mu.l, top)
    if cd.is_dominant(mu) and base != mu:
        raise WindowViolation("support escaped the cone below a dominant "
                              "twist")
    dbase = lambda k: _qplus_depth(k - base)
    coeffs = {k: c for k, c in acc.items()
              if dbase(k) is not None and dbase(k) <= N}
    return TruncatedSeries(cd, base, N, coeffs)


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
    A = {}
    for kappa, c in loc.terms.items():
        s_k = tsum - sum(kappa.m)
        for n, cn in c.expand_down(-((N - s_k) // h)):
            if s_k - n * h > N:
                continue
            A[b0 + kappa + n * delta] = cn
    if w.length % 2:
        A = {k: -c for k, c in A.items()}
    dinv = denominator_inverse(cd, N)
    dbase = lambda k: _qplus_depth(k - base)
    coeffs = _mul_trunc(A, dinv, N, dbase, _qplus_depth)
    coeffs = {k: c for k, c in coeffs.items()
              if dbase(k) is not None and dbase(k) <= N}
    return TruncatedSeries(cd, base, N, coeffs)
