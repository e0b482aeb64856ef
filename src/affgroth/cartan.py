"""Validated affine generalized Cartan matrices and everything derived from
them: marks, comarks, symmetrizer, basepoint node, dihedral orders, the
bilinear form, simple reflections and delta-normal forms of weights.

Conventions.  Nodes are labelled 0..n in matrix order.  marks a_i are the
primitive positive right null vector (delta = sum a_i alpha_i), comarks the
left one (c = sum a_i^vee h_i).  The symmetrizer is d_i = comark_i / mark_i,
so (alpha_i, x) = d_i <h_i, x> and (delta, x) = <c, x>.  The basepoint node0
is the smallest-label node with mark 1 such that delta - alpha_{node0} is a
(possibly doubled) positive root of the classical subsystem; for the built-in
untwisted families this is the standard affine node 0.
"""

from fractions import Fraction
from math import gcd
import re

from .errors import BadLabel, BadShape, NonQInput, NotAffine, NotSymmetrizable
from .weights import Weight

_ORDER_FROM_PRODUCT = {0: 2, 1: 3, 2: 4, 3: 6}


def _nullspace(rows):
    """Basis of the right null space of an integer matrix (Fraction vectors)."""
    n = len(rows)
    m = len(rows[0])
    a = [[Fraction(x) for x in row] for row in rows]
    piv_cols = []
    r = 0
    for c in range(m):
        p = next((i for i in range(r, n) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(n):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
    basis = []
    for fc in (c for c in range(m) if c not in piv_cols):
        v = [Fraction(0)] * m
        v[fc] = Fraction(1)
        for ri, c in enumerate(piv_cols):
            v[c] = -a[ri][fc]
        basis.append(v)
    return basis


def _primitive_positive(vec, what):
    mult = 1
    for x in vec:
        mult = mult * x.denominator // gcd(mult, x.denominator)
    ints = [int(x * mult) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    ints = [x // g for x in ints]
    if all(x < 0 for x in ints):
        ints = [-x for x in ints]
    if not all(x > 0 for x in ints):
        raise NotAffine("%s null vector is not strictly positive" % what)
    return tuple(ints)


def _is_positive_root_of_subsystem(gcm, nodes, coords):
    """True iff coords (vector over all indices, supported on `nodes`) is a
    positive root of the finite sub-root-system on `nodes`.  Height descent:
    a positive root can be reflected down to a simple root without ever
    leaving the positive cone."""
    beta = list(coords)
    while True:
        ht = sum(beta[j] for j in nodes)
        if ht <= 0 or any(beta[j] < 0 for j in nodes):
            return False
        if ht == 1:
            return True
        j_up = None
        for j in nodes:
            if sum(gcm[j][k] * beta[k] for k in nodes) > 0:
                j_up = j
                break
        if j_up is None:
            return False
        beta[j_up] -= sum(gcm[j_up][k] * beta[k] for k in nodes)


class AffineCartanData:
    """Immutable bundle of an affine GCM and its derived data.

    Construct through build_cartan() or from_type(); the constructor performs
    no validation.
    """

    __slots__ = ("gcm", "labels", "marks", "comarks", "d", "node0", "orders",
                 "dual_coxeter", "type_string", "untwisted", "_clpos",
                 "_weyl_mul", "_weyl_layers")

    def __init__(self, gcm, marks, comarks, d, node0, orders, type_string, untwisted):
        self.gcm = gcm
        self.labels = tuple(range(len(gcm)))
        self.marks = marks
        self.comarks = comarks
        self.d = d
        self.node0 = node0
        self.orders = orders
        self.dual_coxeter = sum(comarks)
        self.type_string = type_string
        self.untwisted = untwisted
        self._clpos = None
        self._weyl_mul = {}  # (rho image, i) -> w s_i, filled by weyl.mul_gen
        self._weyl_layers = []  # length layers, extended by weyl.enumerate_up_to

    @property
    def rank(self):
        """Number of nodes (n + 1 for X_n^(1))."""
        return len(self.labels)

    def __repr__(self):
        return "AffineCartanData(%s)" % (self.type_string or list(map(list, self.gcm)))

    def __eq__(self, other):
        return isinstance(other, AffineCartanData) and self.gcm == other.gcm

    def __hash__(self):
        return hash(self.gcm)

    # --- weight constructors -------------------------------------------------

    def check_node(self, i):
        if not (0 <= i < self.rank):
            raise BadLabel("node %r out of range 0..%d" % (i, self.rank - 1))

    def Lam(self, i):
        self.check_node(i)
        return Weight(tuple(1 if j == i else 0 for j in self.labels), (0,) * self.rank)

    def alpha(self, i):
        self.check_node(i)
        return Weight((0,) * self.rank, tuple(1 if j == i else 0 for j in self.labels))

    def delta(self):
        return Weight((0,) * self.rank, self.marks)

    def rho(self):
        return Weight((1,) * self.rank, (0,) * self.rank)

    def rho_J(self, J):
        J = set(J)
        for i in J:
            self.check_node(i)
        return Weight(tuple(1 if j in J else 0 for j in self.labels), (0,) * self.rank)

    def zero(self):
        return Weight.zero(self.rank)

    # --- basic forms ---------------------------------------------------------

    def pairing(self, i, w):
        """<h_i, w> = l_i + sum_j a_ij m_j."""
        row = self.gcm[i]
        return w.l[i] + sum(row[j] * mj for j, mj in enumerate(w.m) if mj)

    def level(self, w):
        """<c, w> = sum_i comark_i l_i; alpha coordinates contribute nothing."""
        return sum(c * li for c, li in zip(self.comarks, w.l))

    def is_dominant(self, w):
        return all(self.pairing(i, w) >= 0 for i in self.labels)

    def bilinear(self, x, y):
        """Invariant form with (L, L) = 0 and (alpha_i, y) = d_i <h_i, y>."""
        total = Fraction(0)
        for i, di in enumerate(self.d):
            if x.l[i] and y.m[i]:
                total += di * x.l[i] * y.m[i]
            if x.m[i]:
                total += di * x.m[i] * self.pairing(i, y)
        return total

    # --- reflections and normal forms ---------------------------------------

    def reflect(self, i, w):
        """s_i(w) = w - <h_i, w> alpha_i; Lambda coordinates are untouched."""
        k = self.pairing(i, w)
        if k == 0:
            return w
        m = w.m
        return Weight(w.l, m[:i] + (m[i] - k,) + m[i + 1:])

    def eta(self, b):
        """Q -> P^W level-0 embedding: eta(b) = b - sum_i <h_i, b> Lambda_i."""
        if any(b.l):
            raise NonQInput("eta needs a root-lattice weight, got %s" % b)
        return Weight(tuple(-self.pairing(i, b) for i in self.labels), b.m)

    def normalize(self, w):
        """Split w = q_exp * delta + nw with nw.m[node0] == 0; returns (q_exp, nw).

        Well-defined because marks[node0] == 1.
        """
        q_exp = w.m[self.node0]
        if q_exp == 0:
            return 0, w
        m = tuple(mj - q_exp * aj for mj, aj in zip(w.m, self.marks))
        return q_exp, Weight(w.l, m)

    # --- classical subsystem -------------------------------------------------

    def classical_nodes(self):
        return tuple(j for j in self.labels if j != self.node0)

    def classical_positive_roots(self):
        """Positive roots of the finite subsystem on I minus node0, as m-vectors
        (tuples over all nodes, 0 at node0), sorted."""
        if self._clpos is None:
            nodes = self.classical_nodes()
            seen = set()
            frontier = []
            for j in nodes:
                e = [0] * self.rank
                e[j] = 1
                t = tuple(e)
                seen.add(t)
                frontier.append(t)
            while frontier:
                new = []
                for beta in frontier:
                    for j in nodes:
                        p = sum(self.gcm[j][k] * beta[k] for k in nodes if beta[k])
                        if p == 0:
                            continue
                        b2 = list(beta)
                        b2[j] -= p
                        b2 = tuple(b2)
                        if b2 not in seen:
                            seen.add(b2)
                            new.append(b2)
                frontier = new
                if len(seen) > 200000:
                    raise NotAffine("classical subsystem closure does not terminate")
            self._clpos = tuple(sorted(b for b in seen if all(c >= 0 for c in b)))
        return self._clpos

    def theta(self):
        """delta - alpha_{node0} as a Weight."""
        return self.delta() - self.alpha(self.node0)


def build_cartan(gcm, type_string=None):
    """Validate an integer matrix as an affine GCM and derive all data.

    Raises BadShape / NotSymmetrizable / NotAffine.  Non-untwisted (twisted)
    affine data is accepted but flagged: cd.untwisted is False and the
    character machinery refuses it.
    """
    try:
        gcm = tuple(tuple(int(x) for x in row) for row in gcm)
    except (TypeError, ValueError):
        raise BadShape("matrix entries must be integers")
    n = len(gcm)
    if n < 2 or any(len(row) != n for row in gcm):
        raise BadShape("need a square matrix of size >= 2")
    for i in range(n):
        if gcm[i][i] != 2:
            raise BadShape("diagonal entry a_%d%d != 2" % (i, i))
        for j in range(n):
            if i != j:
                if gcm[i][j] > 0:
                    raise BadShape("off-diagonal entry a_%d%d > 0" % (i, j))
                if (gcm[i][j] == 0) != (gcm[j][i] == 0):
                    raise BadShape("zero pattern not symmetric at (%d, %d)" % (i, j))

    null = _nullspace(gcm)
    if len(null) != 1:
        raise NotAffine("corank is %d, need exactly 1" % len(null))
    marks = _primitive_positive(null[0], "right (marks)")
    null_t = _nullspace([tuple(gcm[j][i] for j in range(n)) for i in range(n)])
    if len(null_t) != 1:
        raise NotAffine("transpose corank is %d, need exactly 1" % len(null_t))
    comarks = _primitive_positive(null_t[0], "left (comarks)")

    d = tuple(Fraction(cm, mk) for cm, mk in zip(comarks, marks))
    for i in range(n):
        for j in range(n):
            if d[i] * gcm[i][j] != d[j] * gcm[j][i]:
                raise NotSymmetrizable("d_i a_ij != d_j a_ji at (%d, %d)" % (i, j))

    node0 = None
    for i in range(n):
        if marks[i] != 1:
            continue
        nodes = [j for j in range(n) if j != i]
        coords = [marks[j] if j != i else 0 for j in range(n)]
        ok = _is_positive_root_of_subsystem(gcm, nodes, coords)
        if not ok and all(c % 2 == 0 for c in coords):
            ok = _is_positive_root_of_subsystem(gcm, nodes, [c // 2 for c in coords])
        if ok:
            node0 = i
            break
    if node0 is None:
        raise NotAffine("no node with mark 1 and delta - alpha_i a root multiple")

    orders = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                orders[(i, j)] = _ORDER_FROM_PRODUCT.get(gcm[i][j] * gcm[j][i])

    cd = AffineCartanData(gcm, marks, comarks, d, node0, orders, type_string,
                          untwisted=False)
    theta_cl = tuple(marks[j] if j != node0 else 0 for j in range(n))
    pos = cd.classical_positive_roots()
    max_ht = max(sum(b) for b in pos)
    untwisted = theta_cl in pos and sum(theta_cl) == max_ht
    return AffineCartanData(gcm, marks, comarks, d, node0, orders, type_string,
                            untwisted=untwisted)


# --- built-in families -------------------------------------------------------

def _gcm_a(n):
    if n == 1:
        return ((2, -2), (-2, 2))
    size = n + 1
    rows = []
    for i in range(size):
        row = [0] * size
        row[i] = 2
        row[(i + 1) % size] = -1
        row[(i - 1) % size] = -1
        rows.append(tuple(row))
    return tuple(rows)


def _gcm_c(n):
    # 0 => 1 - 2 - ... - (n-1) <= n
    size = n + 1
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = 2
    rows[0][1] = -1
    rows[1][0] = -2
    for i in range(1, n - 1):
        rows[i][i + 1] = -1
        rows[i + 1][i] = -1
    rows[n - 1][n] = -2
    rows[n][n - 1] = -1
    return tuple(tuple(r) for r in rows)


def _gcm_d(n):
    # leaves 0,1 on node 2; chain 2..n-2; leaves n-1,n on node n-2
    size = n + 1
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = 2
    edges = [(0, 2), (1, 2), (n - 1, n - 2), (n, n - 2)]
    edges += [(i, i + 1) for i in range(2, n - 2)]
    for i, j in edges:
        rows[i][j] = -1
        rows[j][i] = -1
    return tuple(tuple(r) for r in rows)


_TYPE_RE = re.compile(r"^([ACD])([0-9]+)~$")


def from_type(type_string):
    """Built-in affine families: A<n>~ (n>=1), C<n>~ (n>=2), D<n>~ (n>=4)."""
    mo = _TYPE_RE.match(type_string.strip())
    if mo is None:
        raise BadShape("cannot parse type %r (expected like 'A2~', 'C3~', 'D4~')"
                       % type_string)
    fam, n = mo.group(1), int(mo.group(2))
    if fam == "A" and n >= 1:
        gcm = _gcm_a(n)
    elif fam == "C" and n >= 2:
        gcm = _gcm_c(n)
    elif fam == "D" and n >= 4:
        gcm = _gcm_d(n)
    else:
        raise BadShape("no built-in matrix for type %r" % type_string)
    return build_cartan(gcm, type_string="%s%d~" % (fam, n))


def cartan_to_json(cd):
    return {"type": cd.type_string, "gcm": [list(r) for r in cd.gcm]}


def cartan_from_json(obj):
    return build_cartan(obj["gcm"], type_string=obj.get("type"))


def cartan_key(cd):
    """Canonical string identifying the data (cache keys, file names)."""
    if cd.type_string:
        return cd.type_string
    return "gcm_" + "_".join("".join(str(x) for x in row) for row in cd.gcm)
