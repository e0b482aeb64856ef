"""Text expressions for group-ring elements.

Grammar (whitespace-insensitive):

    expr    := ['-'] product (('+'|'-') product)*
    product := power (['*'] power)*          adjacency multiplies
    power   := atom ['^' exponent]
    exponent:= ['-'] integer | '{' ['-'] integer '}'
    atom    := rational | 'q' | 'e' '[' weight ']' | 'E' '[' weight ']'
             | '(' expr ')' | '{' expr '}'
    rational:= integer ['/' integer]         its value must be an integer

e[w] is a single exponential, E[w] the sum over the classical Weyl orbit of w.
Coefficients lie in R = Z[q^{+-1}, (1 - q^n)^{-1}]: a rational that is not
an integer (1/2) is refused, and so is a negative power of an element whose
inverse leaves R ((2*q)^-1, (2 - q)^-1).  Negative powers invert
single-term elements only.  print_element emits terms mode (flat canonical
list), orbit mode (denominators factored into (1-q^k) products, orbits
grouped into E-terms), or a JSON document; terms and orbit output re-parse
to an equal element.
"""

import json
import re
from fractions import Fraction

from .coefq import CoefQ, Q, q_product_exponents
from .errors import ParseError
from .kring import (classical_antidominant, k_scalar, monomial, orbit_sum,
                    to_json)
from .weights import format_weight, join_signed, parse_weight

_TOKEN = re.compile(r"""
    (?P<rat>\d+(?:\s*/\s*\d+)?)
  | (?P<sym>[qeE])
  | (?P<lb>\[)
  | (?P<op>[-+*^(){}])
""", re.VERBOSE)
_SPACE = re.compile(r"\s*")  # skipped before each token, which starts after it


def _tokenize(text, rank):
    """(kind, value, position) per token, each at its first character."""
    pos = 0
    out = []
    n = len(text)
    while (pos := _SPACE.match(text, pos).end()) < n:
        mo = _TOKEN.match(text, pos)
        if mo is None:
            raise ParseError("unrecognized token", text, pos)
        if mo.group("rat") is not None:
            out.append(("rat", Fraction(mo.group("rat").replace(" ", "")), pos))
        elif mo.group("sym") is not None:
            sym = mo.group("sym")
            if sym in "eE":
                # the weight bracket is lexed as one unit so weight syntax
                # never collides with expression syntax
                after = mo.end()
                if after >= n or text[after] != "[":
                    raise ParseError("expected '[' after %r" % sym, text, pos)
                close = text.find("]", after)
                if close < 0:
                    raise ParseError("unclosed weight bracket", text, after)
                w = parse_weight(text[after + 1:close], rank)
                out.append(("weight", (sym, w), pos))
                pos = close + 1
                continue
            out.append(("q", None, pos))
        else:
            out.append((mo.group("op"), None, pos))
        pos = mo.end()
    out.append(("end", None, n))
    return out


_ATOM_STARTS = {"rat", "q", "weight", "(", "{"}


class _Parser:
    def __init__(self, cd, text):
        self.cd = cd
        self.text = text
        self.toks = _tokenize(text, cd.rank)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, msg, tok=None):
        raise ParseError(msg, self.text, (tok or self.peek())[2])

    def parse(self):
        f = self.expr()
        if self.peek()[0] != "end":
            self.fail("trailing input")
        return f

    def expr(self):
        neg = False
        if self.peek()[0] == "-":
            self.take()
            neg = True
        f = self.product()
        if neg:
            f = -f
        while self.peek()[0] in ("+", "-"):
            op = self.take()
            g = self.product()
            f = f - g if op[0] == "-" else f + g
        return f

    def product(self):
        f = self.power()
        while True:
            kind = self.peek()[0]
            if kind == "*":
                self.take()
                f = f * self.power()
            elif kind in _ATOM_STARTS:
                f = f * self.power()
            else:
                return f

    def power(self):
        f = self.atom()
        if self.peek()[0] != "^":
            return f
        caret = self.take()
        k = self.exponent(caret)
        try:
            return f ** k
        except ValueError as ex:  # several terms, or an inverse outside R
            self.fail("negative power of a multi-term element"
                      if len(f) != 1 else str(ex), caret)

    def exponent(self, caret):
        braced = self.peek()[0] == "{"
        if braced:
            self.take()
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        tok = self.take()
        if tok[0] != "rat" or tok[1].denominator != 1:
            self.fail("exponent must be an integer", caret)
        if braced and self.take()[0] != "}":
            self.fail("unclosed exponent brace", caret)
        return sign * int(tok[1])

    def atom(self):
        tok = self.take()
        kind = tok[0]
        if kind == "rat":
            if tok[1].denominator != 1:
                self.fail("%s is not an integer; coefficients lie in R"
                          % tok[1], tok)
            return k_scalar(self.cd, tok[1].numerator)
        if kind == "q":
            return k_scalar(self.cd, Q)
        if kind == "weight":
            sym, w = tok[1]
            return monomial(self.cd, w) if sym == "e" else orbit_sum(self.cd, w)
        if kind in ("(", "{"):
            f = self.expr()
            closer = ")" if kind == "(" else "}"
            if self.take()[0] != closer:
                self.fail("unbalanced %r" % kind, tok)
            return f
        self.fail("expected a value", tok)


def parse_expression(text, cd):
    return _Parser(cd, text).parse()


# --- printing ----------------------------------------------------------------

def _poly_bits(poly, shift):
    """[(sign, body)] for sum_i poly[i] q^(shift+i), skipping zeros."""
    bits = []
    for i, c in enumerate(poly):
        if not c:
            continue
        n = shift + i
        mag = abs(c)
        if n == 0:
            body = str(mag)
        else:
            qp = "q" if n == 1 else "q^%d" % n if n >= 0 else "q^{%d}" % n
            body = qp if mag == 1 else "%d*%s" % (mag, qp)
        bits.append(("-" if c < 0 else "+", body))
    return bits


def _factor_q_products(cyc):
    """The denominator prod Phi_d^e_d, (d, e_d) in cyc (CoefQ.cyc), as a
    multiset {k: power} of (1 - q^k) factors times a sign, or None when it
    is not such a product: when some exponent of its unique form
    prod (q^k - 1)^a_k (q_product_exponents) is negative.  Each
    (1 - q^k) = -(q^k - 1) contributes one sign flip.  A denominator of R
    need not be one: 1 + q = (q^2 - 1) / (q - 1) is not, so
    (1 + q)^-1 * e[L1] on A1~ prints through the caller's fallback."""
    factors = q_product_exponents(cyc)
    if min(factors.values(), default=0) < 0:
        return None
    return factors, -1 if sum(factors.values()) % 2 else 1


def _den_prefix(factors):
    inner = "".join("(1 - q^%d)" % k if k > 1 else "(1 - q)"
                    for k in sorted(factors) for _ in range(factors[k]))
    return "(%s)^{-1}" % inner


def _scalar_bits(c, sym_body=None):
    """[(sign, body)] for a q-polynomial scalar times an optional symbol."""
    bits = _poly_bits(c.num, c.shift)
    if sym_body is None:
        return bits
    if len(bits) == 1:
        sign, body = bits[0]
        if body == "1":
            return [(sign, sym_body)]
        return [(sign, "%s*%s" % (body, sym_body))]
    return [("+", "(%s)*%s" % (join_signed(bits), sym_body))]


def print_element(f, mode="terms"):
    cd = f.cd
    if mode == "json":
        return json.dumps({"cartan_type": cd.type_string, "terms": to_json(f)},
                          sort_keys=True)
    if f.is_zero():
        return "0"
    if mode == "terms":
        bits = []
        for mu, c in f.sorted_terms():
            sym = None if mu.is_zero() else "e[%s]" % format_weight(mu)
            if not c.cyc:
                bits.extend(_scalar_bits(c, sym))
            else:
                den_bits = "(%s)^{-1}" % join_signed(_poly_bits(c.den, 0))
                num = join_signed(_scalar_bits(c, None))
                body = "%s(%s)" % (den_bits, num)
                if sym is not None:
                    body += "*%s" % sym
                bits.append(("+", body))
        return join_signed(bits)
    if mode == "orbit":
        return _print_orbit(f)
    raise ValueError("unknown mode %r" % mode)


def _print_orbit(f):
    """Group by denominator, then coalesce full classical orbits with a
    shared coefficient into E-terms."""
    cd = f.cd
    buckets = {}  # CoefQ.cyc -> list of (mu, CoefQ)
    for mu, c in f.sorted_terms():
        buckets.setdefault(c.cyc, []).append((mu, c))
    pieces = []
    for terms in sorted(buckets.values(),
                        key=lambda ts: (len(ts[0][1].den), ts[0][1].den)):
        den = terms[0][1].den
        factors_sign = _factor_q_products(terms[0][1].cyc)
        grouped = _orbit_group(cd, terms)
        bits = []
        for sym, c in grouped:
            num = c.num if factors_sign is None or factors_sign[1] > 0 \
                else tuple(-x for x in c.num)
            bits.extend(_scalar_bits(CoefQ(c.shift, num, ()), sym))
        if den == (1,):
            pieces.extend(bits)
        elif factors_sign is None:
            den_txt = "(%s)^{-1}" % join_signed(_poly_bits(den, 0))
            pieces.append(("+", "%s{%s}" % (den_txt, join_signed(bits))))
        else:
            pieces.append(("+", "%s{%s}" % (_den_prefix(factors_sign[0]),
                                            join_signed(bits))))
    return join_signed(pieces)


def _orbit_group(cd, terms):
    """[(symbol text or None, coefficient)] with full equal-coefficient
    classical orbits replaced by E-terms."""
    coefmap = dict(terms)
    out = []
    done = set()
    for mu, c in terms:
        if mu in done:
            continue
        rep = classical_antidominant(cd, mu)
        orbit = orbit_sum(cd, rep).terms.keys()
        if all(coefmap.get(nu) == c for nu in orbit) and not (
                len(orbit) == 1 and next(iter(orbit)).is_zero()):
            done.update(orbit)
            out.append(("E[%s]" % format_weight(rep), c))
        else:
            done.add(mu)
            sym = None if mu.is_zero() else "e[%s]" % format_weight(mu)
            out.append((sym, c))
    return out
