"""Series on packed integer keys: the arithmetic under characters.py,
whose module docstring says which series are built and how.

The product runs on packed integer keys (Kronecker substitution).  A key's
alpha-coordinates m become one int,
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
S = 4M + 8.

One Packing per Cartan datum holds, at one base, the inverse denominator
(to the deepest depth asked for) and the alternating orbit of every regular
dominant weight (to the deepest margin asked for), each sorted by depth so
that a shallower one is a prefix.  The denominator is itself an orbit: by
the denominator identity, which holds for every symmetrizable Kac-Moody
algebra (Kac, Infinite-dimensional Lie algebras, 10.4),
prod_{alpha > 0} (1 - e^{-alpha})^{mult alpha} = sum_w (-1)^len(w)
e^{w rho - rho}, so its inverse is solved from the orbit of rho one depth
at a time and needs neither the positive roots nor their multiplicities,
on twisted and untwisted data alike.  packing(cd, M) hands out one whose
base fits keys with coordinates of size <= M, and a call that needs a
larger base starts a fresh Packing.
"""

from bisect import bisect_right
from itertools import islice

from .weights import Weight


def mul_trunc(A, B, floor, T):
    """A * B on the keys of height >= floor, where T = S^(rank-1).  A is a
    packed {key: coeff}; B is parallel lists (keys, coeffs, depths) sorted by
    depth, its keys of height -depth <= 0.  A key a of A meets the prefix of
    B of depth <= height(a) - floor."""
    keys, coeffs, depths = B
    half = T // 2
    out = {}
    get = out.get
    for ka, ca in A.items():
        n = bisect_right(depths, (ka + half) // T - floor)
        for kb, cb in islice(zip(keys, coeffs), n):
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    for k in [k for k, c in out.items() if not c]:
        del out[k]
    return out


class Packing:
    """The packed series of one Cartan datum at base S: the inverse
    denominator as parallel lists (keys, coeffs, depths) sorted by depth, to
    the deepest depth asked for, and per regular dominant weight lamr its
    alternating orbit relative to lamr, as parallel lists (keys of
    x(lamr) - lamr, signs (-1)^len(x), depths) sorted by depth, to the
    deepest margin asked for.  A shallower one is a prefix."""

    __slots__ = ("cd", "S", "T", "depth", "dinv", "orbits")

    def __init__(self, cd, S):
        self.cd = cd
        self.S = S
        self.T = S ** (cd.rank - 1)
        self.depth = -1
        self.dinv = None
        self.orbits = {}  # lamr -> (margin, keys, signs, depths)

    def pack(self, m):
        S = self.S
        key = sum(m)
        for x in reversed(m[:-1]):
            key = key * S + x
        return key

    def unpack(self, key):
        """The coordinates m of a key: each lower digit balanced, a negative
        one borrowing from the digit above; the height is what is left."""
        S = self.S
        half = S // 2
        m = []
        for _ in range(self.cd.rank - 1):
            d = key % S
            if d > half:
                d -= S
            m.append(d)
            key = (key - d) // S
        m.append(key - sum(m))
        return tuple(m)

    def height(self, key):
        return (key + self.T // 2) // self.T

    def weights(self, series):
        """{Weight: coeff} of a packed {Lambda-part: {key: coeff}}."""
        unpack = self.unpack
        return {Weight(l, unpack(k)): c
                for l, group in series.items() for k, c in group.items()}

    def denominator_inverse(self, N):
        """(keys, coeffs, depths) of the inverse denominator to depth at
        least N: the stored lists themselves, not a copy."""
        if self.depth < N:
            self.dinv = self._build_denominator_inverse(N)
            self.depth = N
        return self.dinv

    def _build_denominator_inverse(self, N):
        """Solve D * Y = 1 to depth N, where D = sum_w (-1)^len(w)
        e^{w rho - rho} is the alternating orbit of rho: by the denominator
        identity it is prod_{alpha > 0} (1 - e^{-alpha})^{mult alpha}, so no
        root or multiplicity is needed.  D has constant term 1, so Y is
        found one depth at a time: once every shallower key has pushed
        -(D - 1) * Y[key] into the deeper layers, the keys of a depth are
        final."""
        orbit = zip(*self.orbit(self.cd.rho(), N))
        next(orbit)  # the constant term 1
        steps = [(k, s, -self.height(k)) for k, s in orbit]
        layers = [{} for _ in range(N + 1)]
        layers[0][0] = 1
        keys, coeffs, depths = [], [], []
        for d, layer in enumerate(layers):
            for key in sorted(layer, reverse=True):
                c = layer[key]  # a partition count: never 0 on -Q_+
                keys.append(key)
                coeffs.append(c)
                depths.append(d)
                for k, s, dk in steps:  # sorted by depth
                    if d + dk > N:
                        break
                    deeper = layers[d + dk]
                    deeper[key + k] = deeper.get(key + k, 0) - s * c
        return keys, coeffs, depths

    def orbit(self, lamr, margin):
        """(keys, signs) of the orbit of lamr to depth margin."""
        got = self.orbits.get(lamr)
        if got is None or got[0] < margin:
            got = self.orbits[lamr] = (margin,) + self._orbit(lamr, margin)
        _, keys, signs, depths = got
        n = bisect_right(depths, margin)
        return keys[:n], signs[:n]

    def _orbit(self, lamr, margin):
        """Descent steps only; for regular dominant lamr each image is reached
        at a single length, so layers by image are layers by length."""
        l, gcm, labels = lamr.l, self.cd.gcm, self.cd.labels
        top, key0 = sum(lamr.m), self.pack(lamr.m)
        found = [(0, 0, 1)]  # (depth, key, sign)
        frontier = {lamr.m}
        seen = {lamr.m}
        sign = 1
        while frontier:
            sign = -sign
            new = set()
            for m in frontier:
                for i in labels:
                    p = l[i] + sum(a * x for a, x in zip(gcm[i], m) if x)
                    if p <= 0:
                        continue
                    m2 = m[:i] + (m[i] - p,) + m[i + 1:]
                    if m2 in seen or top - sum(m2) > margin:
                        continue
                    seen.add(m2)
                    new.add(m2)
            found.extend((top - sum(m2), self.pack(m2) - key0, sign)
                         for m2 in new)
            frontier = new
        found.sort(key=lambda t: t[0])
        return ([k for _, k, _ in found], [s for _, _, s in found],
                [d for d, _, _ in found])


_PACKINGS = {}  # cd -> Packing


def packing(cd, M):
    """The packing of cd, at a base S >= 4M + 8: exact for products of
    factors whose keys have coordinates of size <= M, and for an inverse
    denominator or orbit of depth <= M.  A smaller stored base is replaced by
    a fresh packing at max(4M + 8, twice it), which rebuilds on demand."""
    need = 4 * max(M, 0) + 8  # a negative cutoff can make M negative
    pk = _PACKINGS.get(cd)
    if pk is None or pk.S < need:
        pk = _PACKINGS[cd] = Packing(cd, max(need, 2 * pk.S) if pk else need)
    return pk


def over_denominator(pk, num, floor):
    """num / prod_{alpha > 0} (1 - e^{-alpha})^{mult alpha} on the keys of
    height >= floor, for a packed num {Lambda-part: {key: coeff}}.  The
    inverse denominator must reach that floor from the highest numerator
    key, and is built that deep if it is not yet; the caller sizes pk for
    both."""
    reach = max((pk.height(max(g)) for g in num.values() if g),
                default=floor) - floor
    if reach < 0:
        return {}
    dinv = pk.denominator_inverse(reach)
    return {l: mul_trunc(g, dinv, floor, pk.T) for l, g in num.items()}


def divide(cd, num, floor):
    """over_denominator for a numerator {Weight: coeff}, as {Weight: coeff}."""
    size = max([abs(x) for k in num for x in k.m]
               + [sum(k.m) - floor for k in num] + [0])
    pk = packing(cd, size)
    packed = {}
    for k, c in num.items():
        packed.setdefault(k.l, {})[pk.pack(k.m)] = c
    return pk.weights(over_denominator(pk, packed, floor))
