"""The affine Weyl group: canonical reduced words, actions, inversion sets,
Bruhat order and length-bounded enumeration.

Elements are identified by their image of rho (regular dominant), which is a
faithful encoding; the stored word is the canonical reduced word obtained by
repeatedly extracting the smallest-label left descent.

Right multiplication by a generator and the length layers are memoized per
Cartan datum, on the AffineCartanData object itself, so every element handed
out carries the caller's datum.
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

    def __len__(self):
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

    def __mul__(self, other):
        return canonicalize(self.cd, self.word + other.word)


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
    out = []
    u = v
    while True:
        i = next((i for i in cd.labels if cd.pairing(i, u) < 0), None)
        if i is None:
            break
        out.append(i)
        u = cd.reflect(i, u)
        if len(out) > 10 ** 6:
            raise BadWord("word does not reduce (non-dominant rho image?)")
    if u != cd.rho():
        raise BadWord("invalid rho image")
    return WeylElement(cd, tuple(out), v)


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


def inverse(w):
    return canonicalize(w.cd, tuple(reversed(w.word)))


def right_descents(w):
    """{i : length(w s_i) < length(w)}, i.e. w(alpha_i) is a negative root."""
    cd = w.cd
    out = []
    for i in cd.labels:
        img = act(w, cd.alpha(i))
        if all(c <= 0 for c in img.m):
            out.append(i)
    return out


def left_descents(w):
    cd = w.cd
    return [i for i in cd.labels if cd.pairing(i, w.rho_image) < 0]


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
    """x <= w in Bruhat order (descent recursion)."""
    if len(w.word) == 0:
        return len(x.word) == 0
    if len(x.word) > len(w.word):
        return False
    i = w.word[-1]  # a right descent of w
    wsi = mul_gen(w, i)
    xsi = mul_gen(x, i)
    if len(xsi.word) < len(x.word):
        return bruhat_leq(xsi, wsi)
    return bruhat_leq(x, wsi)


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


def reduced_words(w):
    """All reduced words of w (recursion over right descents)."""
    if len(w.word) == 0:
        return [()]
    out = []
    for i in right_descents(w):
        for prefix in reduced_words(mul_gen(w, i)):
            out.append(prefix + (i,))
    return out
