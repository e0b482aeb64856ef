"""The twisted group ring: finite R-linear combinations of e^mu with mu in the
weight lattice taken modulo delta, where e^delta is identified with the scalar
q.  Keys are delta-normalized weights (m[node0] == 0); the q-powers absorbed
by normalization live in the CoefQ coefficients.

Operators: the q-twisted Weyl action, Demazure operators in closed form, the
localization maps j_w, the bar involution psi, the level-zero embedding of
exp(Q) along eta, and classical orbit sums.

Every operator, sums and products included, is a sum of term images, and
_collect is the one path that adds them: it delta-normalizes each image and
hands the coefficients that land on one key, with their q-powers, to
coefq.q_shifted_sum (probes.nonvanishing_probes decides whether j_map(x, f)
is zero without building it).  relabel, the transport along a diagram
automorphism, maps keys one to one, so it sums nothing, and relabel_equals
compares its image with an element without building it.
"""

import operator
from itertools import chain

from .coefq import CoefQ, ONE, q_shifted_sum
from .errors import NonQInput
from .weights import _INT, Weight, weight_coords_from_json, weight_to_json
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
        return _collect(self.cd, [(mu.l, mu.m, c) for f in (self, other)
                                  for mu, c in f.terms.items()])

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return KElement(self.cd, {mu: -c for mu, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, KElement):
            add = operator.add
            return _collect(self.cd, [
                (tuple(map(add, mu1.l, mu2.l)), tuple(map(add, mu1.m, mu2.m)),
                 c1 * c2)
                for mu1, c1 in self.terms.items()
                for mu2, c2 in other.terms.items()])
        if isinstance(other, CoefQ):
            if other.is_zero():
                return k_zero(self.cd)
            return KElement(self.cd, {mu: c * other for mu, c in self.terms.items()})
        if isinstance(other, int):
            return self * CoefQ.from_int(other)
        return NotImplemented

    __rmul__ = __mul__

    def sorted_terms(self):
        """The (key, coefficient) pairs in print and save order: highest
        level first, so the constant term leads, then by key."""
        level = self.cd.level
        return sorted(self.terms.items(),
                      key=lambda t: (-level(t[0]), t[0].l, t[0].m))

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
        bits = ["(%r)e[%s]" % (c, mu) for mu, c in self.sorted_terms()]
        return "K<" + " + ".join(bits) + ">"


def _collect(cd, terms):
    """The element sum c * e^{l, m} over the (l, m, c) coordinate triples in
    terms; m may have a delta part.  Each term is delta-normalized (its
    q-power n moves into the shift of c) and grouped by key.  A one-term
    key is already canonical; any other key's (c, n) pairs are summed by
    q_shifted_sum.  Keys whose sum is zero are dropped, and one Weight is
    built per surviving key."""
    node0, marks = cd.node0, cd.marks
    keys = {}  # (l, m) -> (c, n) for one term, else [(c, n), ...]
    for l, m, c in terms:
        n = m[node0]
        if n:
            m = tuple(mj - n * aj for mj, aj in zip(m, marks))
        one = (c, n)
        g = keys.setdefault((l, m), one)
        if g is not one:
            if type(g) is tuple:
                g = keys[l, m] = [g]
            g.append(one)
    out = {}
    for (l, m), g in keys.items():
        if type(g) is tuple:
            c, n = g
            if n:
                c = CoefQ(c.shift + n, c.num, c.cyc)
        else:
            c = q_shifted_sum(g)
        if c.num:
            out[Weight(l, m)] = c
    return KElement(cd, out)


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
    return _collect(cd, ((mu.l, mu.m, coef),))


def from_terms(cd, pairs):
    """The sum of c * e^mu over the (Weight mu, CoefQ c) pairs."""
    return _collect(cd, ((mu.l, mu.m, c) for mu, c in pairs))


def in_window(f, lo, hi):
    """True iff every key has level in (lo, hi]."""
    cd = f.cd
    return all(lo < cd.level(mu) <= hi for mu in f.terms)


# --- operators ---------------------------------------------------------------

def relabel(f, p):
    """The pull-back of f along the diagram automorphism sigma: node i -> p[i]
    of its datum, that is sigma^-1(f), e^mu -> e^{sigma^-1(mu)} with
    sigma(Lambda_i) = Lambda_{p[i]} and sigma(alpha_i) = alpha_{p[i]}: node i
    of an image takes the coordinate of node p[i].  sigma fixes delta, hence
    q, but may move node0, so every image is delta-normalized again
    (_relabel_images); no two images share a key, so none is summed."""
    return KElement(f.cd, {
        Weight(l, m): CoefQ(c.shift + n, c.num, c.cyc) if n else c
        for l, m, n, c in _relabel_images(f, p)})


def relabel_equals(f, p, g):
    """relabel(f, p) == g, decided without building relabel(f, p).  relabel
    maps keys one to one, so it equals g exactly when g has as many terms as
    f and the image key of each term c e^mu of f is a key of g whose
    coefficient is c times q^n, n the delta part normalized away."""
    if f.cd != g.cd or len(f.terms) != len(g.terms):
        return False
    get = {(nu.l, nu.m): d for nu, d in g.terms.items()}.get
    for l, m, n, c in _relabel_images(f, p):
        d = get((l, m))
        if (d is None or d.shift != c.shift + n or d.num != c.num
                or d.cyc != c.cyc):
            return False
    return True


def _relabel_images(f, p):
    """(l, m, n, c) per term c e^mu of f: relabel sends it to c q^n e^nu,
    nu = (l, m) the coordinates of the delta-normalized sigma^-1(mu) and n
    its delta part."""
    gather = operator.itemgetter(*p)  # a tuple: the rank is >= 2
    node0, marks = f.cd.node0, f.cd.marks
    for mu, c in f.terms.items():
        m = gather(mu.m)
        n = m[node0]
        if n:
            m = tuple([mj - n * aj for mj, aj in zip(m, marks)])
        yield gather(mu.l), m, n, c


def weyl_act(w, f):
    """Term-wise q-twisted action: e^mu -> q^n e^nu, (n, nu) = normalize(w(mu))."""
    act = weyl_mod.act
    return _collect(f.cd, ((mu.l, act(w, mu).m, c)
                           for mu, c in f.terms.items()))


def reflect_act(cd, i, f):
    """weyl_act by the single generator s_i."""
    reflect = cd.reflect
    return _collect(cd, ((mu.l, reflect(i, mu).m, c)
                         for mu, c in f.terms.items()))


def demazure(i, f):
    """Demazure operator D_i in closed form.  With m = <h_i, mu>:
    m >= 0 gives sum_{k=0}^{m} e^{mu - k alpha_i}; m = -1 gives 0;
    m <= -2 gives -sum_{k=1}^{-m-1} e^{mu + k alpha_i}.
    """
    cd = f.cd
    cd.check_node(i)
    return _collect(cd, _demazure_terms(cd, i, f))


def _demazure_terms(cd, i, f):
    for mu, c in f.terms.items():
        p = cd.pairing(i, mu)
        if p == -1:
            continue
        l, m = mu.l, mu.m
        head, mi, tail = m[:i], m[i], m[i + 1:]
        if p >= 0:
            for k in range(p + 1):
                yield l, head + (mi - k,) + tail, c
        else:
            c = -c
            for k in range(1, -p):
                yield l, head + (mi + k,) + tail, c


def j_map(w, f):
    """Localization at w: e^{lambda + alpha} -> e^{w(lambda + alpha) - lambda}
    (lambda the Lambda-part); lands in exp(Q) with q-powers from delta."""
    act = weyl_mod.act
    zero_l = (0,) * f.cd.rank
    return _collect(f.cd, ((zero_l, act(w, mu).m, c)
                           for mu, c in f.terms.items()))


def psi(f):
    """Bar involution: e^{lambda + alpha} -> e^{lambda - eta(alpha)},
    q -> q^{-1}, where lambda - eta(alpha) is
    sum_j <h_j, lambda + alpha> Lambda_j - alpha."""
    cd = f.cd
    labels = cd.labels
    return _collect(cd, ((tuple(cd.pairing(j, mu) for j in labels),
                          tuple(-x for x in mu.m), c.subs_q_inverse())
                         for mu, c in f.terms.items()))


def eta_embed(g):
    """e^alpha -> e^{eta(alpha)} on elements supported in exp(Q)."""
    cd = g.cd
    for mu in g.terms:
        if any(mu.l):
            raise NonQInput("eta_embed needs exp(Q) support, found %s" % mu)
    eta = cd.eta
    return _collect(cd, ((eta(mu).l, mu.m, c) for mu, c in g.terms.items()))


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
    """The unique classical-antidominant representative of the classical
    orbit: minus the classical-dominant representative of -mu."""
    return -weyl_mod.to_dominant(cd, -mu, cd.classical_nodes())[1]


def to_json(f):
    return [{"weight": weight_to_json(mu),
             "num_coeffs": c.num_pairs(), "den_coeffs": c.den_pairs()}
            for mu, c in f.sorted_terms()]


def from_json(cd, data, weights, coefs):
    """Element from the form written by to_json.  ValueError unless every
    weight has the JSON form of weight_coords_from_json at cd.rank with
    m[node0] = 0, as delta-normalized keys have, and no weight repeats.

    weights and coefs are memos that the entries of one load share, so each
    distinct value is decoded once and equal terms share one Weight and one
    CoefQ: weights maps checked coordinate tuples (l, m) to Weight, coefs
    maps (num_pairs, den_pairs) as tuples of tuples to the CoefQ from_pairs
    made of them.  A coefs hit counts only when every item of the key is
    exactly an int: (0, True) == (0, 1) with the same hash, so a bool or a
    float could match a key an int made, and from_pairs refuses it instead.
    """
    rank, node0 = cd.rank, cd.node0
    out = {}
    for t in data:
        coords = weight_coords_from_json(t["weight"], rank)
        mu = weights.get(coords)
        if mu is None:
            if coords[1][node0]:
                raise ValueError("weight has a delta part: m[%d] = %d"
                                 % (node0, coords[1][node0]))
            mu = weights[coords] = Weight(*coords)
        num_pairs, den_pairs = t["num_coeffs"], t["den_coeffs"]
        try:
            key = tuple(map(tuple, num_pairs)), tuple(map(tuple, den_pairs))
            c = coefs.get(key)
        except TypeError:  # not lists of pairs: from_pairs gives the error
            key = c = None
        if c is None or not _INT.issuperset(
                map(type, chain(*key[0], *key[1]))):
            c = CoefQ.from_pairs(num_pairs, den_pairs)
            if key is not None:
                coefs[key] = c
        out[mu] = c
    if len(out) != len(data):
        raise ValueError("a weight repeats within one entry")
    return KElement(cd, {mu: c for mu, c in out.items() if not c.is_zero()})
