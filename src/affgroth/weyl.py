"""The affine Weyl group: canonical reduced words, actions, inversion sets,
Bruhat order and length-bounded enumeration.

Elements are identified by their image of rho (regular dominant), which is a
faithful encoding; the stored word is the canonical reduced word obtained by
repeatedly extracting the smallest-label left descent.

Right multiplication by a generator, inversion and the length layers are
memoized per Cartan datum, on the AffineCartanData object itself, so every
element handed out carries the caller's datum.
"""

import operator

from .errors import BadWord
from .weights import Weight


class WeylElement:
    __slots__ = ("cd", "word", "rho_image", "_hash")

    def __init__(self, cd, word, rho_image):
        self.cd = cd
        self.word = word
        self.rho_image = rho_image
        self._hash = hash(rho_image)

    @property
    def length(self):
        return len(self.word)

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return (self.rho_image == other.rho_image
                and (self.cd is other.cd or self.cd == other.cd))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "W[%s]" % ("e" if not self.word else "".join(map(str, self.word)))


def identity(cd):
    return WeylElement(cd, (), cd.rho())


def canonicalize(cd, word):
    """Build the element of an arbitrary word; stores the canonical reduced word."""
    v = cd.rho()
    for i in reversed(word):
        cd.check_node(i)
        v = cd.reflect(i, v)
    return _from_rho_image(cd, v)


def _from_rho_image(cd, v):
    word, u = to_dominant(cd, v, cd.labels)
    if u != cd.rho():
        raise BadWord("invalid rho image")
    return WeylElement(cd, word, v)


def to_dominant(cd, v, nodes):
    """(word, u) with u the weight of v's orbit under the reflections s_i,
    i in nodes, that is dominant at those nodes, reached by reflecting at
    the first i of nodes with <h_i, v> < 0 at each step, and word =
    (i_1, .., i_k) those labels in order, so v = s_{i_1} .. s_{i_k} u.
    nodes is cd.labels for the affine Weyl group and cd.classical_nodes()
    for the classical one.  BadWord when no dominant weight comes within
    10^6 steps (v of level <= 0 under the affine group)."""
    word = []
    while True:
        i = next((i for i in nodes if cd.pairing(i, v) < 0), None)
        if i is None:
            return tuple(word), v
        word.append(i)
        v = cd.reflect(i, v)
        if len(word) > 10 ** 6:
            raise BadWord("word does not reduce (non-dominant rho image?)")


def act(w, x):
    """w(x) for a Weight x; the rightmost letter acts first.  Each letter
    s_i does m[i] -= <h_i, x> = l[i] + sum_j a_ij m[j] on one coordinate
    list; the Lambda coordinates never change."""
    gcm = w.cd.gcm
    l = x.l
    m = list(x.m)
    for i in reversed(w.word):
        m[i] -= l[i] + sum(map(operator.mul, gcm[i], m))
    return Weight(l, m)


def mul_gen(w, i):
    """w * s_i, memoized per Cartan datum by (rho image, i)."""
    memo = w.cd._weyl_mul
    key = (w.rho_image, i)
    x = memo.get(key)
    if x is None:
        x = memo[key] = canonicalize(w.cd, w.word + (i,))
    return x


def relabel(w, p):
    """sigma(w) for the diagram automorphism sigma: node i -> p[i], the
    element s_{p[i_1]} ... s_{p[i_k]}.  Its rho image is sigma(w(rho)),
    since sigma fixes rho; its word is the relabelled word of w, which is
    reduced but not always the canonical one, so the element serves as a
    lookup key (equality and hashing read only the rho image)."""
    rho_image = w.rho_image
    m = [0] * len(p)
    for i, mi in zip(p, rho_image.m):
        m[i] = mi
    return WeylElement(w.cd, tuple(p[i] for i in w.word),
                       Weight(rho_image.l, m))


def inverse(w):
    """w^-1, memoized per Cartan datum by rho image."""
    memo = w.cd._weyl_inv
    x = memo.get(w.rho_image)
    if x is None:
        x = memo[w.rho_image] = canonicalize(w.cd, tuple(reversed(w.word)))
    return x


def right_descents(w):
    """{i : length(w s_i) < length(w)}, i.e. w(alpha_i) is a negative root."""
    cd = w.cd
    out = []
    for i in cd.labels:
        img = act(w, cd.alpha(i))
        if all(c <= 0 for c in img.m):
            out.append(i)
    return out


def inversion_set(w):
    """[beta_1..beta_k] with beta_t = s_{i_1}...s_{i_{t-1}}(alpha_{i_t}) for the
    canonical word; these are the positive roots sent negative by w^{-1}."""
    cd = w.cd
    out = []
    for t, i in enumerate(w.word):
        beta = cd.alpha(i)
        for j in reversed(w.word[:t]):
            beta = cd.reflect(j, beta)
        out.append(beta)
    return out


def bruhat_leq(x, w):
    """x <= w in Bruhat order, by the descent recursion: with s = s_i for
    the last letter i of a reduced word of w, a right descent of w, x <= w
    iff min(x, xs) <= ws.  A prefix of a reduced word is reduced, so w's
    canonical word is walked from the right and only x is multiplied."""
    word = w.word
    for k in range(len(word), 0, -1):
        if len(x.word) > k:
            return False
        xsi = mul_gen(x, word[k - 1])
        if len(xsi.word) < len(x.word):
            x = xsi
    return not x.word


def enumerate_up_to(cd, max_length):
    """Layers [L_0, L_1, ..] of all elements with length <= max_length, each
    layer sorted by canonical word; [[e]] when max_length < 0.  The layers
    are kept per Cartan datum and extended on demand; every call returns
    fresh lists."""
    layers = cd._weyl_layers
    if not layers:
        layers.append([identity(cd)])
    while len(layers) <= max_length:
        seen = set()
        new = []
        for w in layers[-1]:
            for i in cd.labels:
                x = mul_gen(w, i)
                if x.length > w.length and x.rho_image not in seen:
                    seen.add(x.rho_image)
                    new.append(x)
        new.sort(key=lambda w: w.word)
        layers.append(new)
    return [list(layer) for layer in layers[:max(max_length, 0) + 1]]
