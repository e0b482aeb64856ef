"""Packed weight keys: every key of a KElement, and of the solver's walk,
is one int of a Layout, after the packed monomials of Monagan and Pearce
(Sparse polynomial division using a heap, JSC 46, 2011).  A product of keys
is a sum of ints, a Weyl letter followed by delta-normalization is one
digit read and one integer multiply-subtract, and the level is the top
digit.  The Layout docstring proves how far each operation of kring can
grow a digit; layout_for picks the layout whose digits hold a given bound.
"""

import operator
from itertools import chain

from .weights import Weight

# the digits of the narrowest layout have size below 2^KEY_BITS, and each
# size up adds KEY_BITS more (layout_for)
KEY_BITS = 32


class Layout:
    """Packed keys of one datum at digit width b = bits + 1.

    A weight mu is one int K with 3r + 1 digits in base 2^b, each stored
    plus half = 2^bits.  From the top they are the level, l_0 .. l_{r-1},
    m_0 .. m_{r-1} and the pairings <h_j, mu> (digit j from the bottom):
    K = offset + sum l_j L_j + sum m_j A_j, with L_j and A_j the packed
    Lambda_j and alpha_j.  While every digit has size below half, no digit
    carries, the digits read back, and int order is (level, l, m) order.
    So K1 + K2 - offset is the key of the sum of two weights, and the
    lowest and highest keys of a set hold its lowest and highest level.

    s_i mu = mu - p alpha_i with p = <h_i, mu>, so for i != node0 the key
    is K - p A_i with no twist.  At node0, s_i makes m[node0] = -p, and
    normalizing adds back p delta and twists by n = -p: the key is
    K - p (A_node0 - D), D the packed delta, whose pairings are 0.  In
    general delta-normalization reads n = m[node0] and takes K - n D.

    Digit growth.  Let every digit of the keys have size at most N, a =
    max |a_ij| (>= 2: the diagonal), m* the largest mark and F = 1 +
    max(a, m*) (letter_growth).
      - A letter (s_i, then normalize) keeps the level and l.  With
        |p| <= N it moves pairing j by -p a_ji, m_i by -p and, at node0,
        m_j by p marks_j: every digit of the image is at most F N, and
        after k letters at most F^k N.
      - A Demazure image mu - k alpha_i, normalized, has |k| <= |p| <= N,
        so it is bounded like a letter: F N.
      - delta-normalization moves m_j by -n marks_j with |n| <= N and
        keeps the level, l and the pairings (<h_j, delta> = 0): at most
        (1 + m*) N (norm_growth).  A diagram automorphism permutes l, m
        and the pairings (it keeps the GCM) and keeps the level, so its
        image, normalized again, is within (1 + m*) N too.
      - psi sends l to the pairings, the pairings to l and m to -m (the
        pairings of lambda - eta(alpha) are <h_j, lambda>), and keeps the
        level: N.  eta sends l (zero) to minus the pairings, which become
        0, and keeps the level (0) and m: N.  Dropping the Lambda-part,
        as j_x does after its letters, zeroes the level and l and moves
        pairing j by -l_j: N more.
      - A product adds the digits of its factors: N1 + N2.  A sum keeps
        the larger bound.
      - A weight with every |l_j|, |m_j| <= M has level sum_j c_j l_j
        and pairings l_j + sum_k a_jk m_k, so every digit is at most
        spread M, spread = max(sum_j c_j, 1 + max_j sum_k |a_jk|).
    """

    __slots__ = ("cd", "bits", "half", "mask", "offset", "lams", "alphas",
                 "delta", "letters", "shifts", "coords", "top", "flip",
                 "spread", "letter_growth", "norm_growth", "relabels")

    def __init__(self, cd, bits):
        gcm, r, mul = cd.gcm, cd.rank, operator.mul
        b = bits + 1
        self.cd, self.bits = cd, bits
        self.half, self.mask = 1 << bits, (1 << b) - 1
        unit = [1 << b * t for t in range(3 * r + 1)]  # digit t from the bottom
        self.offset = self.half * sum(unit)
        self.lams = [c * unit[3 * r] + unit[3 * r - 1 - j] + unit[j]
                     for j, c in enumerate(cd.comarks)]
        # column j of the GCM holds the pairings <h_k, alpha_j> = a_kj
        self.alphas = [unit[2 * r - 1 - j] + sum(map(mul, col, unit))
                       for j, col in enumerate(zip(*gcm))]
        self.delta = delta = sum(map(mul, cd.marks, self.alphas))
        # per label i: (bit offset of pairing digit i, D_i, i == node0)
        self.letters = [(b * i, d - delta if i == cd.node0 else d,
                         i == cd.node0) for i, d in enumerate(self.alphas)]
        # bit offsets of every digit, from the top, and of l_0 .. m_{r-1}
        self.shifts = range(b * 3 * r, -1, -b)
        self.coords = range(b * (3 * r - 1), b * (r - 1), -b)
        self.top = b * 3 * r
        self.flip = self.mask << self.top  # K ^ flip reverses level order
        self.spread = max(sum(cd.comarks),
                          1 + max(sum(map(abs, row)) for row in gcm))
        a = max(max(map(abs, row)) for row in gcm)
        self.letter_growth = 1 + max(a, max(cd.marks))
        self.norm_growth = 1 + max(cd.marks)
        self.relabels = {}  # p -> memo and data, see kring._relabel_images

    def pack(self, l, m):
        """The key of the weight with coordinates l, m."""
        mul = operator.mul
        return (self.offset + sum(map(mul, l, self.lams))
                + sum(map(mul, m, self.alphas)))

    def unpack(self, key):
        return Weight(*self.coordinates(key))

    def coordinates(self, key):
        """The coordinate lists l, m of a key."""
        half, mask = self.half, self.mask
        c = [(key >> s & mask) - half for s in self.coords]
        r = len(c) // 2
        return c[:r], c[r:]

    def level(self, key):
        return (key >> self.top) - self.half

    def reflections(self, key):
        """(n, normalize(s_i mu)) packed, for each label i."""
        half, mask = self.half, self.mask
        out = []
        for shift, d, node0 in self.letters:
            p = (key >> shift & mask) - half
            out.append((-p if node0 else 0, key - p * d))
        return out


def key_layout(cd, bits):
    """cd's Layout with digits of size below 2^bits, made once per datum
    and kept on it.  GrothTable makes the narrowest one, layout_for(cd, 0),
    with the table, so no operation on a table's first entries builds
    one."""
    got = cd._key_layouts.get(bits)
    if got is None:
        got = cd._key_layouts[bits] = Layout(cd, bits)
    return got


def layout_for(cd, bound):
    """The narrowest layout one size up, in steps of KEY_BITS, whose half
    exceeds bound."""
    steps = max(1, -(-bound.bit_length() // KEY_BITS))
    return key_layout(cd, steps * KEY_BITS)


def pack_all(cd, coords):
    """(layout, bound, keys) for the weights (l, m) in coords: their keys in
    the narrowest layout that holds them and a bound on their digits.  No
    digit exceeds spread times the largest |l_j|, |m_j| (Layout.spread),
    and that is the bound while it is below the narrowest half; past it
    the bound is the exact one, the largest weight_size."""
    layout = layout_for(cd, 0)
    bound = layout.spread * max(
        (max(map(abs, l + m)) for l, m in coords), default=0)
    if bound >= layout.half:
        bound = max(weight_size(cd, l, m) for l, m in coords)
        layout = layout_for(cd, bound)
    pack = layout.pack
    return layout, bound, [pack(l, m) for l, m in coords]


def weight_size(cd, l, m):
    """The largest size of a digit of the weight l, m: its level, l, m and
    pairings.  The exact bound of a key built from it."""
    mul = operator.mul
    level = sum(map(mul, cd.comarks, l))
    pairings = [li + sum(map(mul, row, m)) for li, row in zip(l, cd.gcm)]
    return max(map(abs, chain(l, m, pairings, (level,))))


def _exact_bound(f):
    """The largest size of a digit of f's keys."""
    layout, keys = f.layout, f.keys
    if not keys:
        return 0
    half, mask = layout.half, layout.mask
    out = 0
    for s in layout.shifts:
        ds = [k >> s & mask for k in keys]
        out = max(out, max(ds) - half, half - min(ds))
    return out


def _in_layout(f, layout):
    """f's keys in layout, which is at least as wide as f's."""
    if f.layout is layout:
        return f.keys
    coordinates, pack = f.layout.coordinates, layout.pack
    return {pack(*coordinates(k)): c for k, c in f.keys.items()}


def common_layout(fs, combine, factor=1):
    """(layout, keys of each f in fs, bound) for an operation on the
    elements fs (kring.KElement) whose images have digits of size at most
    the bound factor * combine(bounds of fs), combine being max or sum
    (Layout: digit growth).  That is the widest layout of fs when the
    bound is below its half.  Otherwise each f's bound is tightened to the
    exact one (which only lowers a bound, so it is kept on f), and if the
    bound grown from those still reaches the half, the operands are
    repacked into layout_for it."""
    layout = fs[0].layout
    if len(fs) > 1:
        layout = max((f.layout for f in fs), key=operator.attrgetter("bits"))
    bound = factor * combine([f.bound for f in fs])
    if bound >= layout.half:
        for f in fs:
            f.bound = _exact_bound(f)
        bound = factor * combine([f.bound for f in fs])
        if bound >= layout.half:
            layout = layout_for(fs[0].cd, bound)
    return layout, [_in_layout(f, layout) for f in fs], bound
