"""The twisted group ring: finite R-linear combinations of e^mu with mu in the
weight lattice taken modulo delta, where e^delta is identified with the scalar
q.  Keys are delta-normalized weights (m[node0] == 0); the q-powers absorbed
by normalization live in the CoefQ coefficients.

Operators: the q-twisted Weyl action, Demazure operators in closed form, the
localization maps j_w, the bar involution psi, the level-zero embedding of
exp(Q) along eta, and classical orbit sums.
"""

from .coefq import CoefQ, MINUS_ONE, ONE, ZERO
from .errors import NonQInput
from .weights import Weight
from . import weyl as weyl_mod


class KElement:
    """Immutable-by-convention sparse element: dict Weight -> CoefQ, no zero
    coefficients, all keys delta-normalized."""

    __slots__ = ("cd", "terms")

    def __init__(self, cd, terms):
        self.cd = cd
        self.terms = terms

    def __eq__(self, other):
        return (isinstance(other, KElement) and self.cd == other.cd
                and self.terms == other.terms)

    def is_zero(self):
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for mu, c in other.terms.items():
            _acc(out, mu, c)
        return KElement(self.cd, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for mu, c in other.terms.items():
            _acc(out, mu, -c)
        return KElement(self.cd, out)

    def __neg__(self):
        return KElement(self.cd, {mu: -c for mu, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, KElement):
            # products of normalized keys stay normalized: m[node0] = 0 + 0
            out = {}
            for mu1, c1 in self.terms.items():
                for mu2, c2 in other.terms.items():
                    _acc(out, mu1 + mu2, c1 * c2)
            return KElement(self.cd, out)
        if isinstance(other, CoefQ):
            if other.is_zero():
                return k_zero(self.cd)
            return KElement(self.cd, {mu: c * other for mu, c in self.terms.items()})
        if isinstance(other, int):
            return self * CoefQ.from_int(other)
        return NotImplemented

    __rmul__ = __mul__

    def coeff(self, mu):
        return self.terms.get(mu, ZERO)

    def support(self):
        return sorted(self.terms, key=self.cd_term_key)

    def cd_term_key(self, mu):
        # highest level first: constant term leads, deeper keys follow
        return (-self.cd.level(mu), mu.l, mu.m)

    def inverse_monomial(self):
        """Inverse of a single-term element; raises for anything else."""
        if len(self.terms) != 1:
            raise ValueError("only single-term elements are invertible")
        ((mu, c),) = self.terms.items()
        return monomial(self.cd, -mu, c.inv())

    def __pow__(self, k):
        if k < 0:
            return self.inverse_monomial() ** (-k)
        out = k_one(self.cd)
        for _ in range(k):
            out = out * self
        return out

    def __repr__(self):
        if not self.terms:
            return "K<0>"
        bits = ["(%r)e[%s]" % (c, mu) for mu, c in
                sorted(self.terms.items(), key=lambda t: self.cd_term_key(t[0]))]
        return "K<" + " + ".join(bits) + ">"


def _acc(out, mu, c):
    prev = out.get(mu)
    if prev is None:
        if not c.is_zero():
            out[mu] = c
    else:
        s = prev + c
        if s.is_zero():
            del out[mu]
        else:
            out[mu] = s


def k_zero(cd):
    return KElement(cd, {})


def k_one(cd):
    return KElement(cd, {cd.zero(): ONE})


def k_scalar(cd, c):
    if isinstance(c, int):
        c = CoefQ.from_int(c)
    if c.is_zero():
        return k_zero(cd)
    return KElement(cd, {cd.zero(): c})


def monomial(cd, mu, coef=ONE):
    """c * e^mu with mu an arbitrary Weight; delta powers move into q."""
    if isinstance(coef, int):
        coef = CoefQ.from_int(coef)
    if coef.is_zero():
        return k_zero(cd)
    n, nu = cd.normalize(mu)
    if n:
        coef = coef * CoefQ.q_power(n)
    return KElement(cd, {nu: coef})


def from_terms(cd, pairs):
    out = {}
    for mu, c in pairs:
        n, nu = cd.normalize(mu)
        _acc(out, nu, c * CoefQ.q_power(n) if n else c)
    return KElement(cd, out)


def in_window(f, lo, hi):
    """True iff every key has level in (lo, hi]."""
    cd = f.cd
    return all(lo < cd.level(mu) <= hi for mu in f.terms)


# --- operators ---------------------------------------------------------------

def weyl_act(w, f):
    """Term-wise q-twisted action: e^mu -> q^n e^nu, (n, nu) = normalize(w(mu))."""
    cd = f.cd
    out = {}
    for mu, c in f.terms.items():
        n, nu = cd.normalize(weyl_mod.act(w, mu))
        _acc(out, nu, c * CoefQ.q_power(n) if n else c)
    return KElement(cd, out)


def reflect_act(cd, i, f):
    """weyl_act by the single generator s_i."""
    out = {}
    for mu, c in f.terms.items():
        n, nu = cd.normalize(cd.reflect(i, mu))
        _acc(out, nu, c * CoefQ.q_power(n) if n else c)
    return KElement(cd, out)


def demazure(i, f):
    """Demazure operator D_i in closed form.  With m = <h_i, mu>:
    m >= 0 gives sum_{k=0}^{m} e^{mu - k alpha_i}; m = -1 gives 0;
    m <= -2 gives -sum_{k=1}^{-m-1} e^{mu + k alpha_i}.
    """
    cd = f.cd
    cd.check_node(i)
    alpha_i = cd.alpha(i)
    out = {}
    for mu, c in f.terms.items():
        m = cd.pairing(i, mu)
        if m >= 0:
            w = mu
            for _ in range(m + 1):
                n, nu = cd.normalize(w)
                _acc(out, nu, c * CoefQ.q_power(n) if n else c)
                w = w - alpha_i
        elif m <= -2:
            w = mu + alpha_i
            for _ in range(-m - 1):
                n, nu = cd.normalize(w)
                _acc(out, nu, -(c * CoefQ.q_power(n)) if n else -c)
                w = w + alpha_i
    return KElement(cd, out)


def demazure_word(word, f):
    for i in word:
        f = demazure(i, f)
    return f


def j_map(w, f):
    """Localization at w: e^{lambda + alpha} -> e^{w(lambda + alpha) - lambda}
    (lambda the Lambda-part); lands in exp(Q) with q-powers from delta.

    Unlike the other operators, j_map sends many terms to one key, and most
    keys sum to zero.  The terms are therefore grouped by output key and
    then by denominator; within a group the q-shifted numerators are added
    as integer lists and canonicalized by one CoefQ.make.  The groups of a
    key are then added as CoefQ, and keys whose sum is zero are dropped.
    """
    cd = f.cd
    node0, marks = cd.node0, cd.marks
    groups = {}  # (m-coordinates, den) -> [(shift, num), ...]
    for mu, c in f.terms.items():
        m = weyl_mod.act(w, mu).m
        n = m[node0]
        if n:
            m = tuple(mj - n * aj for mj, aj in zip(m, marks))
        groups.setdefault((m, c.den), []).append((c.shift + n, c.num))
    sums = {}
    for (m, den), parts in groups.items():
        if len(parts) == 1:
            ((shift, num),) = parts
            c = CoefQ(shift, num, den)  # a shifted canonical term stays canonical
        else:
            shift = min(sh for sh, _ in parts)
            acc = [0] * max(sh - shift + len(num) for sh, num in parts)
            for sh, num in parts:
                for k, x in enumerate(num, sh - shift):
                    acc[k] += x
            c = CoefQ.make(acc, shift, den)
        prev = sums.get(m)
        sums[m] = c if prev is None else prev + c
    zero_l = (0,) * cd.rank
    return KElement(cd, {Weight(zero_l, m): c for m, c in sums.items()
                         if not c.is_zero()})


def psi(f):
    """Bar involution: e^{lambda + alpha} -> e^{lambda - eta(alpha)}, q -> q^{-1}."""
    cd = f.cd
    out = {}
    for mu, c in f.terms.items():
        alpha = Weight((0,) * cd.rank, mu.m)
        lam = Weight(mu.l, (0,) * cd.rank)
        _acc(out, lam - cd.eta(alpha), c.subs_q_inverse())
    return KElement(cd, out)


def eta_embed(g):
    """e^alpha -> e^{eta(alpha)} on elements supported in exp(Q)."""
    cd = g.cd
    out = {}
    for mu, c in g.terms.items():
        if any(mu.l):
            raise NonQInput("eta_embed needs exp(Q) support, found %s" % mu)
        _acc(out, cd.eta(mu), c)
    return KElement(cd, out)


def orbit_sum(cd, lam):
    """E^lam: the sum of e^mu over the classical Weyl orbit of lam."""
    nodes = cd.classical_nodes()
    seen = {lam}
    frontier = [lam]
    while frontier:
        new = []
        for mu in frontier:
            for i in nodes:
                nu = cd.reflect(i, mu)
                if nu not in seen:
                    seen.add(nu)
                    new.append(nu)
        frontier = new
    return from_terms(cd, ((mu, ONE) for mu in seen))


def classical_antidominant(cd, mu):
    """The unique classical-antidominant representative of the classical orbit."""
    nodes = cd.classical_nodes()
    while True:
        i = next((i for i in nodes if cd.pairing(i, mu) > 0), None)
        if i is None:
            return mu
        mu = cd.reflect(i, mu)


def to_json(f):
    cd = f.cd
    return [{"weight": {"l": list(mu.l), "m": list(mu.m)},
             "num_coeffs": c.num_pairs(), "den_coeffs": c.den_pairs()}
            for mu, c in sorted(f.terms.items(), key=lambda t: f.cd_term_key(t[0]))]


def from_json(cd, data):
    out = {}
    for t in data:
        mu = Weight(t["weight"]["l"], t["weight"]["m"])
        _acc(out, mu, CoefQ.from_pairs(t["num_coeffs"], t["den_coeffs"]))
    return KElement(cd, out)
