"""The twisted group ring: finite R-linear combinations of e^mu with mu in the
weight lattice taken modulo delta, where e^delta is identified with the scalar
q.  Keys are delta-normalized weights (m[node0] == 0); the q-powers absorbed
by normalization live in the CoefQ coefficients.

Operators: the q-twisted Weyl action, Demazure operators in closed form, the
localization maps j_w, the bar involution psi, the level-zero embedding of
exp(Q) along eta, and classical orbit sums.

Every key is one int of a keys.Layout: a product of keys is a sum of ints,
a Weyl letter followed by delta-normalization is one digit read and one
integer multiply-subtract, and the level, which in_window and the print
order read, is the top digit.  Every element holds its layout and a bound
on the size of every digit of its keys; each operator grows that bound as
the Layout docstring proves, and when the bound would reach the layout's
half, the operands' bounds are tightened to the exact ones and, if those
still do not fit, the operands are repacked into the layout one size up
(keys.common_layout).  The same happens when an operation meets two
layouts.  Weights are made only at the boundary: the terms view, the
KElement constructor, printing and to_json.

Every operator, sums and products included, is a sum of term images, and
_collect is the one path that adds them: it hands the coefficients that land
on one key, with their q-powers, to coefq.q_shifted_sum
(probes.nonvanishing_probes decides whether j_map(x, f) is zero without
building it).  relabel, psi and eta_embed map keys one to one, so they sum
nothing, and relabel_equals compares relabel's image with an element
without building it.
"""

import operator
from itertools import chain

from .coefq import CoefQ, ONE, q_shifted_sum
from .errors import NonQInput
from .keys import common_layout, layout_for, pack_all
from .weights import _INT, weight_coords_from_json, weight_to_json
from . import weyl as weyl_mod


class KElement:
    """Immutable-by-convention sparse element: dict packed key -> CoefQ, no
    zero coefficients, all keys delta-normalized.  layout is the keys'
    Layout and bound a bound on the size of every digit of them.

    KElement(cd, {Weight: CoefQ}) is the public constructor; its Weights
    must be delta-normalized and its coefficients nonzero."""

    __slots__ = ("cd", "layout", "bound", "keys")

    def __init__(self, cd, terms):
        layout, bound, keys = pack_all(cd, [(mu.l, mu.m) for mu in terms])
        self.cd, self.layout, self.bound = cd, layout, bound
        self.keys = dict(zip(keys, terms.values()))

    @property
    def terms(self):
        """{Weight: CoefQ}: the terms decoded, a fresh dict."""
        unpack = self.layout.unpack
        return {unpack(k): c for k, c in self.keys.items()}

    def __eq__(self, other):
        if not isinstance(other, KElement):
            return False
        if self.cd != other.cd or len(self.keys) != len(other.keys):
            return False
        if self.layout is other.layout:
            return self.keys == other.keys
        _, (a, b), _ = common_layout((self, other), max)
        return a == b

    def is_zero(self):
        return not self.keys

    def __len__(self):
        return len(self.keys)

    def __add__(self, other):
        layout, a, b = self.layout, self.keys, other.keys
        if other.layout is not layout:
            layout, (a, b), bound = common_layout((self, other), max)
        else:
            bound = max(self.bound, other.bound)
        return _collect(self.cd, layout, bound,
                        [(k, c, 0) for f in (a, b) for k, c in f.items()])

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _element(self.cd, self.layout, self.bound,
                        {k: -c for k, c in self.keys.items()})

    def __mul__(self, other):
        if isinstance(other, KElement):
            layout, a, b = self.layout, self.keys, other.keys
            bound = self.bound + other.bound
            if other.layout is not layout or bound >= layout.half:
                layout, (a, b), bound = common_layout((self, other), sum)
            off = layout.offset
            return _collect(self.cd, layout, bound, [
                (k1 + k2 - off, c1 * c2, 0)
                for k1, c1 in a.items() for k2, c2 in b.items()])
        if isinstance(other, CoefQ):
            if other.is_zero():
                return k_zero(self.cd)
            return _element(self.cd, self.layout, self.bound,
                            {k: c * other for k, c in self.keys.items()})
        if isinstance(other, int):
            return self * CoefQ.from_int(other)
        return NotImplemented

    __rmul__ = __mul__

    def sorted_terms(self):
        """The (Weight, coefficient) pairs in print and save order: highest
        level first, so the constant term leads, then by key."""
        layout, keys = self.layout, self.keys
        unpack = layout.unpack
        return [(unpack(k), keys[k])
                for k in sorted(keys, key=layout.flip.__xor__)]

    def inverse_monomial(self):
        """Inverse of a single-term element; raises for anything else."""
        if len(self.keys) != 1:
            raise ValueError("only single-term elements are invertible")
        ((k, c),) = self.keys.items()
        layout = self.layout
        return _element(self.cd, layout, self.bound,
                        {2 * layout.offset - k: c.inv()})

    def __pow__(self, k):
        if k < 0:
            return self.inverse_monomial() ** (-k)
        out = k_one(self.cd)
        for _ in range(k):
            out = out * self
        return out

    def __repr__(self):
        if not self.keys:
            return "K<0>"
        bits = ["(%r)e[%s]" % (c, mu) for mu, c in self.sorted_terms()]
        return "K<" + " + ".join(bits) + ">"


_new = object.__new__


def _element(cd, layout, bound, keys):
    f = _new(KElement)
    f.cd, f.layout, f.bound, f.keys = cd, layout, bound, keys
    return f


def _collect(cd, layout, bound, terms):
    """The element sum c q^n e^K over the (key, c, n) triples in terms,
    every key normalized.  A one-term key is already canonical; any other
    key's (c, n) pairs are summed by q_shifted_sum.  Keys whose sum is zero
    are dropped."""
    keys = {}  # key -> (c, n) for one term, else [(c, n), ...]
    for k, c, n in terms:
        one = (c, n)
        g = keys.setdefault(k, one)
        if g is not one:
            if type(g) is tuple:
                g = keys[k] = [g]
            g.append(one)
    out = {}
    for k, g in keys.items():
        if type(g) is tuple:
            c, n = g
            if n:
                c = CoefQ(c.shift + n, c.num, c.cyc)
        else:
            c = q_shifted_sum(g)
        if c.num:
            out[k] = c
    return _element(cd, layout, bound, out)


def k_zero(cd):
    return _element(cd, layout_for(cd, 0), 0, {})


def k_one(cd):
    return k_scalar(cd, ONE)


def k_scalar(cd, c):
    if isinstance(c, int):
        c = CoefQ.from_int(c)
    if c.is_zero():
        return k_zero(cd)
    layout = layout_for(cd, 0)
    return _element(cd, layout, 0, {layout.offset: c})


def monomial(cd, mu, coef=ONE):
    """c * e^mu with mu an arbitrary Weight; delta powers move into q."""
    if isinstance(coef, int):
        coef = CoefQ.from_int(coef)
    return from_terms(cd, ((mu, coef),))


def from_terms(cd, pairs):
    """The sum of c * e^mu over the (Weight mu, CoefQ c) pairs."""
    node0, marks = cd.node0, cd.marks
    coords, twists = [], []
    for mu, c in pairs:
        l, m = mu.l, mu.m
        n = m[node0]
        if n:
            m = tuple([mj - n * aj for mj, aj in zip(m, marks)])
        coords.append((l, m))
        twists.append((c, n))
    layout, bound, keys = pack_all(cd, coords)
    return _collect(cd, layout, bound,
                    [(k, c, n) for k, (c, n) in zip(keys, twists)])


def in_window(f, lo, hi):
    """True iff every key has level in (lo, hi]: the lowest key has the
    lowest level and the highest key the highest."""
    keys = f.keys
    if not keys:
        return True
    level = f.layout.level
    return lo < level(min(keys)) and level(max(keys)) <= hi


# --- operators ---------------------------------------------------------------

def relabel(f, p):
    """The pull-back of f along the diagram automorphism sigma: node i -> p[i]
    of its datum, that is sigma^-1(f), e^mu -> e^{sigma^-1(mu)} with
    sigma(Lambda_i) = Lambda_{p[i]} and sigma(alpha_i) = alpha_{p[i]}: node i
    of an image takes the coordinate of node p[i].  sigma fixes delta, hence
    q, but may move node0, so every image is delta-normalized again
    (_relabel_images); no two images share a key, so none is summed."""
    layout, (keys,), bound = common_layout((f,), max, f.layout.norm_growth)
    return _element(f.cd, layout, bound, {
        k: CoefQ(c.shift + n, c.num, c.cyc) if n else c
        for (k, n), c in zip(_relabel_images(layout, keys, p),
                             keys.values())})


def relabel_equals(f, p, g):
    """relabel(f, p) == g, decided without building relabel(f, p).  relabel
    maps keys one to one, so it equals g exactly when g has as many terms as
    f and the image key of each term c e^mu of f is a key of g whose
    coefficient is c times q^n, n the delta part normalized away."""
    if f.cd != g.cd or len(f.keys) != len(g.keys):
        return False
    layout, (keys, other), _ = common_layout((f, g), max,
                                             f.layout.norm_growth)
    get = other.get
    for (k, n), c in zip(_relabel_images(layout, keys, p), keys.values()):
        d = get(k)
        if (d is None or d.shift != c.shift + n or d.num != c.num
                or d.cyc != c.cyc):
            return False
    return True


def _relabel_images(layout, keys, p):
    """(image key, n) per key: relabel sends e^mu to q^n e^nu, nu the
    delta-normalized sigma^-1(mu) and n = m[p[node0]] its delta part.  Each
    is computed once per layout and automorphism and kept in
    layout.relabels, with the data of the map: nu's key is
    offset + sum_j l_j L_{p^-1 j} + sum_j m_j A_{p^-1 j} - n D, one product
    per coordinate digit of mu."""
    got = layout.relabels.get(p)
    if got is None:
        inv = sorted(range(len(p)), key=p.__getitem__)  # p^-1
        node = p[layout.cd.node0]
        mults = [layout.lams[i] for i in inv] + [
            layout.alphas[i] - (layout.delta if j == node else 0)
            for j, i in enumerate(inv)]
        got = layout.relabels[p] = (
            {}, layout.offset - layout.half * sum(mults),
            list(zip(layout.coords, mults)), layout.coords[len(p) + node])
    memo, const, pairs, n_shift = got
    half, mask = layout.half, layout.mask
    get = memo.get
    out = []
    for k in keys:
        image = get(k)
        if image is None:
            image = memo[k] = (
                const + sum([(k >> s & mask) * x for s, x in pairs]),
                (k >> n_shift & mask) - half)
        out.append(image)
    return out


def _letters(layout, keys, word):
    """(image key, n) per key: the delta-normalized w(mu) and its delta
    part n, for w with the given word, its letters applied right to left
    (keys.Layout)."""
    letters = [layout.letters[i] for i in reversed(word)]
    half, mask = layout.half, layout.mask
    out = []
    for k in keys:
        n = 0
        for shift, d, node0 in letters:
            p = (k >> shift & mask) - half
            if p:
                k -= p * d
                if node0:
                    n -= p
        out.append((k, n))
    return out


def _word_act(cd, word, f):
    """The q-twisted action of the element with the given word."""
    layout, (keys,), bound = common_layout(
        (f,), max, f.layout.letter_growth ** len(word))
    return _collect(cd, layout, bound, [
        (k, c, n) for (k, n), c in zip(_letters(layout, keys, word),
                                       keys.values())])


def weyl_act(w, f):
    """Term-wise q-twisted action: e^mu -> q^n e^nu, (n, nu) = normalize(w(mu))."""
    return _word_act(f.cd, w.word, f)


def reflect_act(cd, i, f):
    """weyl_act by the single generator s_i."""
    return _word_act(cd, (i,), f)


def demazure(i, f):
    """Demazure operator D_i in closed form.  With m = <h_i, mu>:
    m >= 0 gives sum_{k=0}^{m} e^{mu - k alpha_i}; m = -1 gives 0;
    m <= -2 gives -sum_{k=1}^{-m-1} e^{mu + k alpha_i}.  On keys,
    mu - k alpha_i normalized is K - k D_i with the twist -k at node0
    (keys.Layout)."""
    cd = f.cd
    cd.check_node(i)
    layout, (keys,), bound = common_layout((f,), max, f.layout.letter_growth)
    shift, d, node0 = layout.letters[i]
    half, mask = layout.half, layout.mask
    terms = []
    for k, c in keys.items():
        p = (k >> shift & mask) - half
        if p >= 0:
            for j in range(p + 1):
                terms.append((k, c, -j if node0 else 0))
                k -= d
        elif p < -1:
            c = -c
            for j in range(1, -p):
                k += d
                terms.append((k, c, j if node0 else 0))
    return _collect(cd, layout, bound, terms)


def _lambda_parts(layout, keys):
    """sum_j l_j L_j per key: the packed Lambda-part, without the offset."""
    half, mask, lams = layout.half, layout.mask, layout.lams
    shifts = layout.coords[:len(lams)]
    mul = operator.mul
    return [sum(map(mul, [(k >> s & mask) - half for s in shifts], lams))
            for k in keys]


def j_map(w, f):
    """Localization at w: e^{lambda + alpha} -> e^{w(lambda + alpha) - lambda}
    (lambda the Lambda-part); lands in exp(Q) with q-powers from delta.
    Letters keep lambda, so it is dropped after them."""
    cd = f.cd
    growth = f.layout.letter_growth ** len(w.word) + 1
    layout, (keys,), bound = common_layout((f,), max, growth)
    return _collect(cd, layout, bound, [
        (k - lam, c, n) for (k, n), lam, c in zip(
            _letters(layout, keys, w.word), _lambda_parts(layout, keys),
            keys.values())])


def psi(f):
    """Bar involution: e^{lambda + alpha} -> e^{lambda - eta(alpha)},
    q -> q^{-1}, where lambda - eta(alpha) is
    sum_j <h_j, lambda + alpha> Lambda_j - alpha.  Its pairings are
    <h_j, lambda>, so the key is 2 offset - K + sum_j (l_j + <h_j, mu>) L_j:
    l and the pairings trade places, and m and the level (sum_j c_j <h_j,
    mu> = level) are as they were negated and restored.  psi maps keys one
    to one, so nothing is summed."""
    layout, keys = f.layout, f.keys
    half, mask, lams = layout.half, layout.mask, layout.lams
    r = len(lams)
    mul = operator.mul
    l_shifts = layout.coords[:r]
    q_shifts = [shift for shift, _, _ in layout.letters]
    # the stored digits are l_j + half and <h_j, mu> + half
    base = 2 * layout.offset - 2 * half * sum(lams)
    add = operator.add
    out = {}
    for k, c in keys.items():
        ls = [k >> s & mask for s in l_shifts]
        qs = [k >> s & mask for s in q_shifts]
        out[base - k + sum(map(mul, map(add, ls, qs), lams))] = \
            c.subs_q_inverse()
    return _element(f.cd, layout, f.bound, out)


def eta_embed(g):
    """e^alpha -> e^{eta(alpha)} on elements supported in exp(Q).  eta(alpha)
    = alpha - sum_j <h_j, alpha> Lambda_j, so the key is K - sum_j
    <h_j, alpha> L_j; eta maps keys one to one, so nothing is summed."""
    layout, keys = g.layout, g.keys
    half, mask, lams = layout.half, layout.mask, layout.lams
    top = layout.coords[len(lams) - 1]  # l_{r-1}: above it the level and l
    lam_free = layout.offset >> top
    q_shifts = [shift for shift, _, _ in layout.letters]
    mul = operator.mul
    out = {}
    for k, c in keys.items():
        if k >> top != lam_free:
            raise NonQInput("eta_embed needs exp(Q) support, found %s"
                            % layout.unpack(k))
        out[k - sum(map(mul, [(k >> s & mask) - half for s in q_shifts],
                        lams))] = c
    return _element(g.cd, layout, g.bound, out)


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
    distinct value is decoded once and equal terms share one key and one
    CoefQ: weights maps checked coordinate tuples (l, m) to (key, size),
    size the bound keys.pack_all gives the weight and key its key in
    layout_for(cd, 0), or its coordinates when size reaches that half;
    coefs maps (num_pairs, den_pairs) as tuples of tuples to the CoefQ
    from_pairs made of them.  A coefs hit counts only when every item of
    the key is exactly an int: (0, True) == (0, 1) with the same hash, so
    a bool or a float could match a key an int made, and from_pairs
    refuses it instead.  The element's bound is the largest size of its
    weights, as keys.pack_all gives it, which packs an entry that passes
    the narrowest half.
    """
    rank, node0 = cd.rank, cd.node0
    layout = layout_for(cd, 0)
    half, spread, pack = layout.half, layout.spread, layout.pack
    out = {}
    bound = 0
    for t in data:
        coords = weight_coords_from_json(t["weight"], rank)
        got = weights.get(coords)
        if got is None:
            l, m = coords
            if m[node0]:
                raise ValueError("weight has a delta part: m[%d] = %d"
                                 % (node0, m[node0]))
            # the bound of keys.pack_all; past the half the key is left
            # to pack_all below, and the coordinates stand in for it
            size = spread * max(map(abs, l + m))
            got = weights[coords] = (
                pack(l, m) if size < half else coords, size)
        key, size = got
        if size > bound:
            bound = size
        num_pairs, den_pairs = t["num_coeffs"], t["den_coeffs"]
        try:
            pairs = tuple(map(tuple, num_pairs)), tuple(map(tuple, den_pairs))
            c = coefs.get(pairs)
        except TypeError:  # not lists of pairs: from_pairs gives the error
            pairs = c = None
        if c is None or not _INT.issuperset(
                map(type, chain(*pairs[0], *pairs[1]))):
            c = CoefQ.from_pairs(num_pairs, den_pairs)
            if pairs is not None:
                coefs[pairs] = c
        out[key] = c
    if len(out) != len(data):
        raise ValueError("a weight repeats within one entry")
    if bound >= half:  # out is in the order of data: no weight repeats
        layout, bound, keys = pack_all(cd, [
            weight_coords_from_json(t["weight"], rank) for t in data])
        out = dict(zip(keys, out.values()))
    if not all(c.num for c in out.values()):
        out = {k: c for k, c in out.items() if c.num}
    return _element(cd, layout, bound, out)
