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
import operator
import re

from .errors import BadLabel, BadShape, NotAffine, NotSymmetrizable
from .weights import Weight

_ORDER_FROM_PRODUCT = {0: 2, 1: 3, 2: 4, 3: 6}

# the largest n of a built-in type, and n + 1 the largest matrix size
# build_cartan accepts: its exact null-space elimination grows as n^3 and
# already takes seconds at n = 100
MAX_TYPE_N = 100


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
                 "dual_coxeter", "type_string", "untwisted", "_weyl_mul",
                 "_weyl_inv", "_weyl_layers", "_automorphisms",
                 "_key_layouts")

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
        self._weyl_mul = {}  # (rho image, i) -> w s_i, filled by weyl.mul_gen
        self._weyl_inv = {}  # rho image -> w^-1, filled by weyl.inverse
        self._weyl_layers = []  # length layers, extended by weyl.enumerate_up_to
        self._automorphisms = None  # found by automorphisms() on first call
        self._key_layouts = {}  # bits -> keys.Layout, made by keys.key_layout

    @property
    def rank(self):
        """Number of nodes (n + 1 for X_n^(1))."""
        return len(self.labels)

    def automorphisms(self):
        """The diagram automorphisms: every permutation p of the nodes with
        gcm[p[i]][p[j]] == gcm[i][j], as tuples with p[i] the image of node
        i, sorted, so the identity comes first.  Found on the first call and
        kept."""
        auts = self._automorphisms
        if auts is None:
            auts = self._automorphisms = _automorphisms(self.gcm)
        return auts

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

    # --- basic forms ---------------------------------------------------------

    def pairing(self, i, w):
        """<h_i, w> = l_i + sum_j a_ij m_j."""
        return w.l[i] + sum(map(operator.mul, self.gcm[i], w.m))

    def level(self, w):
        """<c, w> = sum_i comark_i l_i; alpha coordinates contribute nothing."""
        return sum(map(operator.mul, self.comarks, w.l))

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


def _automorphisms(gcm):
    """Sorted tuple of the permutations p with gcm[p[i]][p[j]] == gcm[i][j].

    Backtracking over the nodes in breadth-first order, so every node but a
    root has an earlier neighbour, its parent, and can only go to a
    neighbour of the parent's image; the search never walks through the n!
    permutations.  A candidate image is kept iff both its entries with the
    image of each earlier neighbour equal the node's.  A complete map then
    sends every edge of the diagram onto an edge with the same two entries;
    being a bijection of a finite diagram onto itself, it also sends
    non-edges onto non-edges, so it preserves the whole matrix."""
    n = len(gcm)
    nbrs = [[j for j in range(n) if j != i and gcm[i][j]] for i in range(n)]
    order, parent = [], {}
    for root in range(n):
        if root in parent:
            continue
        parent[root] = None
        head = len(order)
        order.append(root)
        while head < len(order):
            i = order[head]
            head += 1
            for j in nbrs[i]:
                if j not in parent:
                    parent[j] = i
                    order.append(j)
    pos = {k: t for t, k in enumerate(order)}
    earlier = {k: [j for j in nbrs[k] if pos[j] < pos[k]] for k in order}
    img, used, out = [None] * n, set(), []

    def extend(t):
        if t == n:
            out.append(tuple(img))
            return
        k = order[t]
        par = parent[k]
        row, back = gcm[k], earlier[k]
        for p in (range(n) if par is None else nbrs[img[par]]):
            if (p in used or gcm[p][p] != row[k]
                    or any(gcm[p][img[j]] != row[j]
                           or gcm[img[j]][p] != gcm[j][k] for j in back)):
                continue
            img[k] = p
            used.add(p)
            extend(t + 1)
            used.discard(p)

    extend(0)
    return tuple(sorted(out))


def build_cartan(gcm, type_string=None):
    """Validate an integer matrix as an affine GCM and derive all data.

    Raises BadShape / NotSymmetrizable / NotAffine; BadShape for a matrix
    of size above MAX_TYPE_N + 1, before any elimination.  Twisted affine
    data is accepted and flagged: cd.untwisted is False.
    """
    try:
        gcm = tuple(tuple(row) for row in gcm)
    except TypeError:
        raise BadShape("matrix rows must be sequences")
    if len(gcm) > MAX_TYPE_N + 1:
        raise BadShape("matrix of size %d is above the largest size, %d"
                       % (len(gcm), MAX_TYPE_N + 1))
    if not all(type(x) is int for row in gcm for x in row):
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
    # the transpose has the same rank, so its null space is a line too
    null_t = _nullspace([tuple(gcm[j][i] for j in range(n)) for i in range(n)])
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
        theta_is_root = _is_positive_root_of_subsystem(gcm, nodes, coords)
        if theta_is_root or (
                all(c % 2 == 0 for c in coords)
                and _is_positive_root_of_subsystem(gcm, nodes,
                                                   [c // 2 for c in coords])):
            node0 = i
            break
    if node0 is None:
        raise NotAffine("no node with mark 1 and delta - alpha_i a root multiple")

    orders = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                orders[(i, j)] = _ORDER_FROM_PRODUCT.get(gcm[i][j] * gcm[j][i])

    # untwisted iff theta = delta - alpha_node0 is the highest root of the
    # classical subsystem.  A root theta has full support there, so that
    # subsystem is irreducible, and theta is dominant for it: the highest
    # root or the highest short root.  (theta, theta) = (alpha_node0,
    # alpha_node0) = 2 d_node0, so theta is the highest root iff it is long.
    untwisted = theta_is_root and d[node0] == max(d)
    return AffineCartanData(gcm, marks, comarks, d, node0, orders, type_string,
                            untwisted)


# --- built-in families -------------------------------------------------------

def _gcm(size, bonds):
    """The size x size GCM with 2 on the diagonal, a_ij at each (i, j, a_ij)
    of bonds and 0 elsewhere."""
    rows = [[2 if i == j else 0 for j in range(size)] for i in range(size)]
    for i, j, a in bonds:
        rows[i][j] = a
    return tuple(map(tuple, rows))


def _edges(pairs):
    """The bonds a_ij = a_ji = -1 of the simple edges {i, j} in pairs."""
    return [b for i, j in pairs for b in ((i, j, -1), (j, i, -1))]


def _gcm_a(n):
    # a cycle 0 - 1 - ... - n - 0; A1~ is 0 <=> 1
    if n == 1:
        return _gcm(2, [(0, 1, -2), (1, 0, -2)])
    return _gcm(n + 1, _edges((i, (i + 1) % (n + 1)) for i in range(n + 1)))


def _gcm_c(n):
    # 0 => 1 - 2 - ... - (n-1) <= n
    return _gcm(n + 1, [(0, 1, -1), (1, 0, -2), (n - 1, n, -2), (n, n - 1, -1)]
                + _edges((i, i + 1) for i in range(1, n - 1)))


def _gcm_d(n):
    # leaves 0,1 on node 2; chain 2..n-2; leaves n-1,n on node n-2
    return _gcm(n + 1, _edges([(0, 2), (1, 2), (n - 1, n - 2), (n, n - 2)]
                              + [(i, i + 1) for i in range(2, n - 2)]))


_TYPE_RE = re.compile(r"^([ACD])([0-9]+)~$")


def _type_gcm(type_string):
    """(canonical name, matrix) of a built-in type string: A<n>~ (n >= 1),
    C<n>~ (n >= 2) or D<n>~ (n >= 4), with n <= MAX_TYPE_N; BadShape
    otherwise."""
    mo = _TYPE_RE.match(type_string.strip())
    if mo is None:
        raise BadShape("cannot parse type %r (expected like 'A2~', 'C3~', 'D4~')"
                       % type_string)
    fam, n = mo.group(1), int(mo.group(2))
    if n > MAX_TYPE_N:
        raise BadShape("type %r is above the largest built-in n, %d"
                       % (type_string, MAX_TYPE_N))
    if fam == "A" and n >= 1:
        gcm = _gcm_a(n)
    elif fam == "C" and n >= 2:
        gcm = _gcm_c(n)
    elif fam == "D" and n >= 4:
        gcm = _gcm_d(n)
    else:
        raise BadShape("no built-in matrix for type %r" % type_string)
    return "%s%d~" % (fam, n), gcm


def from_type(type_string):
    """Built-in affine families: A<n>~ (n>=1), C<n>~ (n>=2), D<n>~ (n>=4),
    all with n <= MAX_TYPE_N."""
    name, gcm = _type_gcm(type_string)
    return build_cartan(gcm, type_string=name)


def cartan_to_json(cd):
    return {"type": cd.type_string, "gcm": [list(r) for r in cd.gcm]}


def cartan_from_json(obj):
    """Data from the form written by cartan_to_json; TypeError when obj is
    not a dict, ValueError when "type" is neither null nor a built-in type
    string whose matrix is the stored one."""
    gcm = obj["gcm"]
    type_string = obj.get("type")
    if type_string is not None and type(type_string) is not str:
        raise ValueError("Cartan type must be a string or null, not %r"
                         % (type_string,))
    cd = build_cartan(gcm, type_string=type_string)
    if type_string is not None:
        try:
            named = _type_gcm(type_string)[1]
        except BadShape as ex:
            raise ValueError("Cartan type %r: %s" % (type_string, ex)) from ex
        if named != cd.gcm:
            raise ValueError("Cartan type %r does not name the stored matrix"
                             % (type_string,))
    return cd
