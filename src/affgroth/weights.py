"""Elements of the weight lattice P = L + Q of an affine Kac-Moody algebra.

A weight is a pair of integer coordinate vectors (l, m) representing
sum_i l[i]*Lambda_i + sum_i m[i]*alpha_i.  The fundamental weights Lambda_i
and the simple roots alpha_i are jointly independent in P, so the coordinates
are unique and equality is coordinate-wise.

Text form: "2*L0 - L1 + a1 - 3*a2" (the '*' is optional on input), "0" for the
zero weight.  JSON form: {"l": [...], "m": [...]}.
"""

import operator
import re

from .errors import ParseError, UnknownNode


class Weight:
    """Immutable lattice vector; supports +, -, unary -, and integer scaling."""

    __slots__ = ("l", "m", "_hash")

    def __init__(self, l, m):
        self.l = tuple(l)
        self.m = tuple(m)
        self._hash = hash((self.l, self.m))

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        return self.l == other.l and self.m == other.m

    def __hash__(self):
        return self._hash

    def __add__(self, other):
        return Weight(tuple(map(operator.add, self.l, other.l)),
                      tuple(map(operator.add, self.m, other.m)))

    def __sub__(self, other):
        return Weight(tuple(map(operator.sub, self.l, other.l)),
                      tuple(map(operator.sub, self.m, other.m)))

    def __neg__(self):
        return Weight(tuple(-a for a in self.l), tuple(-a for a in self.m))

    def __rmul__(self, k):
        return Weight(tuple(k * a for a in self.l), tuple(k * a for a in self.m))

    __mul__ = __rmul__

    def is_zero(self):
        return not any(self.l) and not any(self.m)

    def __repr__(self):
        return "Weight(%r, %r)" % (self.l, self.m)

    def __str__(self):
        return format_weight(self)


def format_weight(w):
    """Canonical text form: Lambda terms first, then alpha terms, by index."""
    parts = []
    for sym, coords in (("L", w.l), ("a", w.m)):
        for i, c in enumerate(coords):
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            body = "%s%d" % (sym, i) if mag == 1 else "%d*%s%d" % (mag, sym, i)
            parts.append((sign, body))
    return join_signed(parts)


def join_signed(bits):
    """The text of a sum of (sign, body) bits: "-a + b - c", "0" when empty."""
    if not bits:
        return "0"
    sign, body = bits[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in bits[1:]:
        out += " %s %s" % (sign, body)
    return out


_WTOKEN = re.compile(r"(?P<num>\d+)|(?P<sym>[La])(?P<idx>\d+)|(?P<op>[+\-*])")
_SPACE = re.compile(r"\s*")  # skipped before each token, which starts after it


def parse_weight(text, rank):
    """Parse the text form.  rank = number of nodes; indices must be < rank."""
    pos = 0
    tokens = []  # (kind, value, position of its first character)
    while (pos := _SPACE.match(text, pos).end()) < len(text):
        mo = _WTOKEN.match(text, pos)
        if mo is None:
            raise ParseError("bad weight token", text, pos)
        if mo.group("num") is not None:
            tokens.append(("num", int(mo.group("num")), pos))
        elif mo.group("sym") is not None:
            tokens.append(("sym", (mo.group("sym"), int(mo.group("idx"))), pos))
        else:
            tokens.append(("op", mo.group("op"), pos))
        pos = mo.end()

    def fail(msg, at):
        raise ParseError(msg, text, at)

    l = [0] * rank
    m = [0] * rank
    i = 0
    saw_term = False
    while i < len(tokens):
        kind, val, at = tokens[i]
        sign = 1
        if kind == "op" and val in "+-":
            sign = -1 if val == "-" else 1
            i += 1
        elif saw_term:
            fail("expected '+' or '-' between terms", at)
        if i >= len(tokens):
            fail("dangling sign", at)
        kind, val, at = tokens[i]
        coeff = None
        if kind == "num":
            coeff = val
            i += 1
            if i < len(tokens) and tokens[i][:2] == ("op", "*"):
                i += 1
                if i >= len(tokens) or tokens[i][0] != "sym":
                    fail("expected L<i> or a<i> after '*'", at)
        if i < len(tokens) and tokens[i][0] == "sym":
            (sym, idx), at = tokens[i][1], tokens[i][2]
            if idx >= rank:
                raise UnknownNode("node index %d out of range (rank %d)" % (idx, rank))
            (l if sym == "L" else m)[idx] += sign * (1 if coeff is None else coeff)
            i += 1
        elif coeff is not None:
            if coeff != 0:
                fail("bare integer in weight", at)
        else:
            fail("expected term", at)
        saw_term = True
    if not saw_term:
        fail("empty weight", 0)
    return Weight(l, m)


def weight_to_json(w):
    return {"l": list(w.l), "m": list(w.m)}


_INT = {int}  # the one type a JSON coordinate may have; bool is refused


def weight_coords_from_json(obj, rank):
    """The coordinate tuples (l, m) of the JSON form {"l": [...], "m":
    [...]}.  ValueError unless obj is a dict whose l and m are lists of rank
    ints (bools and floats are refused), so the pair is safe to use as a key:
    no bool or float in it can equal an int."""
    l = m = None
    if type(obj) is dict:
        l, m = obj.get("l"), obj.get("m")
    if not (type(l) is type(m) is list and len(l) == len(m) == rank
            and _INT.issuperset(map(type, l + m))):
        raise ValueError("weight coordinates must be lists of %d ints" % rank)
    return tuple(l), tuple(m)
