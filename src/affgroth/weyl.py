"""The affine Weyl group: canonical reduced words, actions, inversion sets,
Bruhat order and length-bounded enumeration.

Encoding.  An element w is identified by its image w(rho) of the regular
dominant rho, a faithful encoding, held as one int: the key of w(rho) in a
keys.Layout of its datum, always the narrowest layout whose digits hold
it, so equal elements have equal keys.  Keys of two layouts never meet:
the level digit of every rho image holds the dual Coxeter number plus the
half, so a key of a wider layout exceeds every key of a narrower one.
Hash and equality read the key and the Cartan data.  The stored word is
the canonical reduced word, the lexicographically smallest one: walking
w(rho) to rho strips the smallest-label left descent first.

A letter is one digit read and one multiply-subtract: with p = <h_i, mu>,
pairing digit i of the key K of mu, s_i mu = mu - p alpha_i has the key
K - p A_i, A_i the packed alpha_i (Layout.alphas).  There is no
delta-normalization: a rho image keeps its m[node0].

Digit bound.  Let every digit of K have size at most N, and a = max |a_ij|
(Layout.letter_step, at least 2: the diagonal).  A_i has the digit 1
at m_i, a_ki at pairing k and 0 at the level and every l_j, so K - p A_i
moves m_i by -p, pairing k by -p a_ki and no other digit: every digit of
the image has size at most N + a |p|, and |p| <= N as p is a digit.  By
induction, after letters with pairings p_1 .. p_k every digit is at most
N + a (|p_1| + .. + |p_k|).  Each walk on keys (_apply, to_dominant)
carries this running bound and, before a letter would take it to the half
of its layout, repacks the key into keys.layout_for of the new bound, so
no digit reaches the half, no digit carries and every digit reads back
(keys.Layout).  An element's key is moved back to the narrowest layout
holding its exact digits (_narrowest).  rho itself fits the narrowest
layout: its digits are 1, 0 and the dual Coxeter number.

Right multiplication by a generator, inversion and the length layers are
memoized per Cartan datum, keyed by the elements' ints, on the
AffineCartanData object itself, so every element handed out carries the
caller's datum.
"""

from .errors import BadWord
from .keys import KEY_BITS, layout_for, pack_all


class WeylElement:
    __slots__ = ("cd", "word", "layout", "key", "_hash")

    def __init__(self, cd, word, layout, key):
        self.cd = cd
        self.word = word
        self.layout = layout
        self.key = key
        self._hash = hash(key)

    @property
    def length(self):
        return len(self.word)

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return (self.key == other.key
                and (self.cd is other.cd or self.cd == other.cd))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "W[%s]" % ("e" if not self.word else "".join(map(str, self.word)))


def identity(cd):
    layout = layout_for(cd, 0)
    return WeylElement(cd, (), layout, layout.rho)


def canonicalize(cd, word):
    """Build the element of an arbitrary word; stores the canonical reduced
    word."""
    for i in word:
        cd.check_node(i)
    layout = layout_for(cd, 0)
    layout, key, bound = _narrowest(*_apply(
        layout, layout.rho, cd.dual_coxeter, reversed(word)))
    canon, top_layout, top = to_dominant(layout, key, bound, cd.labels)
    if top != top_layout.rho:
        raise BadWord("invalid rho image")
    return WeylElement(cd, canon, layout, key)


def to_dominant(layout, key, bound, nodes):
    """(word, layout, key) for the weight mu of the given key, whose digits
    have size at most bound: key is that of u, the weight of mu's orbit
    under the reflections s_i, i in nodes, that is dominant at those nodes,
    in the narrowest layout that holds it.  Each step reflects at the
    smallest i of nodes with <h_i, mu> < 0, and word = (i_1, .., i_k) lists
    those labels in order, so mu = s_{i_1} .. s_{i_k} u.  nodes is
    cd.labels for the affine Weyl group and cd.classical_nodes() for the
    classical one.  A negative pairing is a pairing digit below the half,
    whose top bit is 0, so the smallest such i is the lowest set bit of
    ~key masked to those top bits.  BadWord when no dominant weight comes
    within 10^6 steps (mu of level <= 0 under the affine group)."""
    word = []
    b, half, high = layout.bits + 1, layout.half, _tops(layout, nodes)
    while True:
        neg = ~key & high
        if not neg:
            layout, key, _ = _narrowest(layout, key, bound)
            return tuple(word), layout, key
        i = (neg & -neg).bit_length() // b - 1
        p = (key >> b * i & layout.mask) - half
        bound -= layout.letter_step * p
        if bound >= half:
            layout, key = _repacked(layout, key, bound)
            b, half, high = layout.bits + 1, layout.half, _tops(layout, nodes)
        key -= p * layout.alphas[i]
        word.append(i)
        if len(word) > 10 ** 6:
            raise BadWord("word does not reduce (non-dominant rho image?)")


def _tops(layout, nodes):
    """The top bit of each pairing digit i in nodes, kept on the layout."""
    high = layout.tops.get(nodes)
    if high is None:
        b = layout.bits + 1
        high = layout.tops[nodes] = sum(1 << b * i + layout.bits
                                        for i in nodes)
    return high


def _apply(layout, key, bound, letters):
    """(layout, key, bound) of the image of the key under the letters, the
    first one applied first (module docstring: digit bound)."""
    b, half = layout.bits + 1, layout.half
    for i in letters:
        p = (key >> b * i & layout.mask) - half
        if p:
            bound += layout.letter_step * abs(p)
            if bound >= half:
                layout, key = _repacked(layout, key, bound)
                b, half = layout.bits + 1, layout.half
            key -= p * layout.alphas[i]
    return layout, key, bound


def _repacked(layout, key, bound):
    """(layout_for(bound), the key repacked there)."""
    to = layout_for(layout.cd, bound)
    return to, to.pack(*layout.coordinates(key))


def _narrowest(layout, key, bound):
    """(layout, key, bound) with the key in the narrowest layout that holds
    its exact digits, and the bound no larger than before."""
    if layout.bits == KEY_BITS:
        return layout, key, bound
    half, mask = layout.half, layout.mask
    exact = max(abs((key >> s & mask) - half) for s in layout.shifts)
    return _repacked(layout, key, exact) + (exact,)


def act(w, x):
    """w(x) for a Weight x; the rightmost letter acts first."""
    layout, bound, (key,) = pack_all(w.cd, [(x.l, x.m)])
    layout, key, _ = _apply(layout, key, bound, reversed(w.word))
    return layout.unpack(key)


def mul_gen(w, i):
    """w * s_i, memoized per Cartan datum by (key, i)."""
    memo = w.cd._weyl_mul
    key = (w.key, i)
    x = memo.get(key)
    if x is None:
        x = memo[key] = canonicalize(w.cd, w.word + (i,))
    return x


def relabel(w, p):
    """sigma(w) for the diagram automorphism sigma: node i -> p[i], the
    element s_{p[i_1]} ... s_{p[i_k]}.  Its rho image is sigma(w(rho)),
    since sigma fixes rho: with w(rho) = rho + sum_j m_j alpha_j, it is
    rho + sum_j m_j alpha_{p[j]}, whose digits are w(rho)'s permuted
    (sigma keeps the GCM), so its key lies in w's layout.  Its word is the
    relabelled word of w, which is reduced but not always the canonical
    one, so the element serves as a lookup key (equality and hashing read
    only the key)."""
    layout, key = w.layout, w.key
    b, mask, half, alphas = layout.bits + 1, layout.mask, layout.half, \
        layout.alphas
    m0 = b * (2 * len(p) - 1)  # the bit offset of digit m_0
    out = layout.rho
    for j, pj in enumerate(p):
        out += ((key >> m0 - b * j & mask) - half) * alphas[pj]
    return WeylElement(w.cd, tuple(p[i] for i in w.word), layout, out)


def inverse(w):
    """w^-1, memoized per Cartan datum by key."""
    memo = w.cd._weyl_inv
    x = memo.get(w.key)
    if x is None:
        x = memo[w.key] = canonicalize(w.cd, tuple(reversed(w.word)))
    return x


def right_descents(w):
    """{i : length(w s_i) < length(w)}, i.e. w(alpha_i) is a negative root,
    i.e. <h_i, w^-1(rho)> = <w(h_i), rho> < 0.  w^-1(rho) is rho under
    w's word applied left to right."""
    layout = layout_for(w.cd, 0)
    layout, key, _ = _apply(layout, layout.rho, w.cd.dual_coxeter, w.word)
    return [i for i, p in enumerate(layout.pairings(key)) if p < 0]


def inversion_set(w):
    """[beta_1..beta_k] with beta_t = s_{i_1}...s_{i_{t-1}}(alpha_{i_t}) for the
    canonical word; these are the positive roots sent negative by w^{-1}.
    The digits of alpha_i are 1 and the a_ki, at most letter_step."""
    word = w.word
    base = layout_for(w.cd, 0)
    out = []
    for t, i in enumerate(word):
        layout, key, _ = _apply(base, base.offset + base.alphas[i],
                                base.letter_step, reversed(word[:t]))
        out.append(layout.unpack(key))
    return out


def bruhat_leq(x, w):
    """x <= w in Bruhat order, by the descent recursion: with s = s_i for
    the last letter i of a reduced word of w, a right descent of w, x <= w
    iff min(x, xs) <= ws.  A prefix of a reduced word is reduced, so w's
    canonical word is walked from the right and only x is multiplied."""
    word, memo = w.word, x.cd._weyl_mul
    for k in range(len(word), 0, -1):
        if len(x.word) > k:
            return False
        i = word[k - 1]
        xsi = memo.get((x.key, i)) or mul_gen(x, i)
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
                if x.length > w.length and x.key not in seen:
                    seen.add(x.key)
                    new.append(x)
        new.sort(key=lambda w: w.word)
        layers.append(new)
    return [list(layer) for layer in layers[:max(max_length, 0) + 1]]
