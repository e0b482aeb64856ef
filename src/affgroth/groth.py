"""Affine Grothendieck elements G_w and the descent recursion computing them.

Each G_w lives in the completed K-group: a finite combination of e^mu with
coefficients in R = Z[q^{+-1}, (1 - q^n)^{-1}], all key levels in
(-kappa, 0] for kappa the dual Coxeter number.  The recursion over a reduced
word builds, from the G_{w s_i} at the right descents i of w, a twisted
cocycle family; its coboundary B, corrected by the identity-localization
image pushed through eta, yields G_w:

    v_i = e^{rho_J} (1 - e^{-alpha_i}) G_{w s_i}   for i in J = descents(w)
    v_i = 0                                        otherwise
    (1 - s_i) B = v_i,  B supported in (level(rho_J) - kappa, level(rho_J)]
    G_w = e^{-rho_J} (B - eta(j_e(B)))

B itself is only unique up to invariants; the correction removes exactly the
ambiguity, so G_w is well defined.

A diagram automorphism sigma (a node permutation with a_{sigma i, sigma j}
= a_ij, see AffineCartanData.automorphisms) transports entries:

    G_{sigma(u)} = sigma(G_u),   sigma(e^mu) = e^{sigma(mu)}

with sigma(Lambda_i) = Lambda_{sigma i} and sigma(alpha_i) = alpha_{sigma i}.
This is exact.  sigma is a lattice automorphism with sigma s_i sigma^-1 =
s_{sigma i}; it fixes delta (so q), rho and every level, and commutes with
eta and with j_e.  So sigma maps the descent family of u, and each of its
coboundaries B, to the descent family of sigma(u) and a coboundary of it.
The invariant correction makes G_w independent of which coboundary is used,
so sigma(G_u) is exactly what the solve for sigma(u) returns; the
acceptance battery's reversed-order solve tests that independence.
GrothTable.compute therefore solves only when no orbit-mate of w has an
entry yet; otherwise it relabels the orbit-mate's keys and delta-normalizes
them again, since sigma may move node0.

verify used afterwards cross-checks each entry against the Demazure
recursion, localization supports and the bar involution; its "ring" check
always passes (see verify).  The localization check compares j_w(G_w)
with prod(1 - e^beta) as canonical forms; each vanishing probe
j_x(G_w) = 0 (w not below x) only needs a yes or no.
probes.nonvanishing_probes answers all of an entry's probes in one call
without building any j_x(G_w): it evaluates the entry's terms once at one
point per entry, past the root bound of every key's cleared numerator, and
reaches each probe by one Weyl letter from the probe below it, each term
image one int that packs the pairings <h_j, alpha> of its alpha-part, which
name its j_x key.

Every check is sigma-equivariant as well: sigma keeps length and Bruhat
order (so it maps w's probe list onto sigma(w)'s), D_{sigma i}(sigma f) =
sigma(D_i f), j_{sigma x}(sigma f) = sigma(j_x f), psi commutes with sigma,
and relabelling keeps every denominator and level.  Besides w and
probe_length the checks read only G_w, G_{w s_i} at the right descents i,
and G_{w^-1}.  So when u = sigma(w) passed the full check set earlier on
the same table at the same probe_length, and

    G_w = sigma^-1(G_u),  G_{w s_i} = sigma^-1(G_{u s_{sigma i}}),
    G_{w^-1} = sigma^-1(G_{u^-1})

hold exactly for the entries u's pass read, w passes too, and verify
records it without running the checks; kring.relabel_equals decides each
equality without building sigma^-1(G_u).  When any equality fails the full
checks run, so every failure line is the one they give.  A loaded
"verified" flag never counts as a pass, and a check subset always runs in
full, so timing verify one check at a time shows none of this saving.
"""

import json
import os

from . import weyl as weyl_mod
from .cartan import cartan_from_json, cartan_to_json
from .cocycle import solve_coboundary
from .errors import CacheMismatch, WindowViolation
from .keys import layout_for
from .kring import (demazure, eta_embed, from_json, in_window, j_map,
                    k_one, monomial, psi, relabel, relabel_equals)
from .probes import nonvanishing_probes


class GrothTable:
    """Memoized G_w per Weyl element, with JSON persistence."""

    def __init__(self, cd):
        self.cd = cd
        layout_for(cd, 0)  # the packed keys of the first entries
        self.entries = {}  # WeylElement -> KElement
        self.verified = set()  # elements that passed verify()
        # w -> (probe_length, G_w, {i: G_{w s_i}}, G_{w^-1}) read by the
        # latest pass of the full check set on this table, run or
        # transported; never filled from a cache
        self._passed = {}

    def compute(self, w):
        """G_w, computing and caching every element below it on the way:
        transported from an orbit-mate under a diagram automorphism when one
        has an entry, else by a coboundary solve."""
        got = self.entries.get(w)
        if got is not None:
            return got
        cd = self.cd
        if w.length == 0:
            g = k_one(cd)
            self.entries[w] = g
            return g
        J = weyl_mod.right_descents(w)
        # the entries below come first either way, so a table ends up with
        # the same elements whether w is transported or solved
        downs = {i: self.compute(weyl_mod.mul_gen(w, i)) for i in J}
        g = self._transported(w)
        if g is None:
            rho_J = cd.rho_J(J)
            one = k_one(cd)
            v = {}
            for i, g_down in downs.items():
                factor = monomial(cd, rho_J) * (one - monomial(cd, -cd.alpha(i)))
                v[i] = factor * g_down
            lev = cd.level(rho_J)
            B = solve_coboundary(cd, v, (lev - cd.dual_coxeter, lev))
            C = j_map(weyl_mod.identity(cd), B)
            g = monomial(cd, -rho_J) * (B - eta_embed(C))
        if not in_window(g, -cd.dual_coxeter, 0):
            raise WindowViolation("G_w escaped the level window for word %s"
                                  % (w.word,))
        self.entries[w] = g
        return g

    def _transported(self, w):
        """G_w = sigma^-1(G_u) for the first diagram automorphism sigma, in
        the order of cd.automorphisms(), whose u = sigma(w) has an entry;
        None when no orbit-mate of w has one.  See the module docstring for
        why the transported element is the one the solve would give."""
        for p, g in self._orbit_mates(w, self.entries):
            return relabel(g, p)
        return None

    def _orbit_mates(self, w, found):
        """(p, found[u]) for each diagram automorphism sigma: node i -> p[i]
        other than the identity, in the order of cd.automorphisms(), whose
        u = sigma(w) is a key of found."""
        for p in self.cd.automorphisms()[1:]:
            got = found.get(weyl_mod.relabel(w, p))
            if got is not None:
                yield p, got

    ALL_CHECKS = ("window", "demazure", "localization", "psi", "ring")

    @classmethod
    def check_names(cls, checks):
        """checks as a tuple of names from ALL_CHECKS, all of them for None;
        ValueError for an unknown name or a bare string."""
        if checks is None:
            return cls.ALL_CHECKS
        if isinstance(checks, str):
            raise ValueError("checks must be a collection of check names, "
                             "not the string %r" % checks)
        checks = tuple(checks)
        for c in checks:
            if c not in cls.ALL_CHECKS:
                raise ValueError("unknown check %r (choose from %s)"
                                 % (c, ",".join(cls.ALL_CHECKS)))
        return checks

    def verify(self, w, checks=None, probe_length=None):
        """Cross-check the entry for w; returns a list of failure descriptions
        (empty means all selected checks passed).  probe_length bounds the
        length of the x probed for localization vanishing (default len(w)+1).
        Success with the full check set is recorded in self.verified, and
        any failure removes w from it, a flag loaded from a cache included.
        checks is a collection of names from ALL_CHECKS (see check_names).
        With the full set, an orbit-mate's earlier pass on this table can
        stand in for running the checks (_passes_by_transport); a subset
        always runs in full.  The name "ring" is accepted and its check
        always passes: a CoefQ holds its denominator as cyclotomic
        exponents, so every coefficient lies in R by construction, and a
        cache denominator outside R is refused at load."""
        cd = self.cd
        checks = self.check_names(checks)
        if probe_length is None:
            probe_length = w.length + 1
        g = self.compute(w)
        downs = {i: self.compute(weyl_mod.mul_gen(w, i))
                 for i in weyl_mod.right_descents(w)}
        g_inv = (self.compute(weyl_mod.inverse(w)) if "psi" in checks
                 else None)
        full = set(self.ALL_CHECKS) <= set(checks)
        if full:
            read = (probe_length, g, downs, g_inv)
            if self._passes_by_transport(w, read):
                self._passed[w] = read
                self.verified.add(w)
                return []
        fails = []

        if "window" in checks and not in_window(g, -cd.dual_coxeter, 0):
            fails.append("window: support leaves (-%d, 0]" % cd.dual_coxeter)

        if "demazure" in checks:
            for i in cd.labels:
                if demazure(i, g) != downs.get(i, g):
                    fails.append("demazure: D_%d disagrees" % i)

        if "localization" in checks:
            inv_prod = k_one(cd)
            for beta in weyl_mod.inversion_set(w):
                inv_prod = inv_prod * (k_one(cd) - monomial(cd, beta))
            if j_map(w, g) != inv_prod:
                fails.append("localization: j_w(G_w) != prod(1 - e^beta)")
            probes = [x for layer in weyl_mod.enumerate_up_to(cd, probe_length)
                      for x in layer if not weyl_mod.bruhat_leq(w, x)]
            for x in nonvanishing_probes(g, probes):
                fails.append("localization: j_x nonzero at word %s"
                             % (x.word,))

        if "psi" in checks and psi(g) != g_inv:
            fails.append("bar involution: psi(G_w) != G_{w^-1}")

        if fails:
            self.verified.discard(w)
            self._passed.pop(w, None)
        elif full:
            self._passed[w] = read
            self.verified.add(w)
        return fails

    def _passes_by_transport(self, w, read):
        """True when, for a diagram automorphism sigma other than the
        identity, u = sigma(w) passed the full check set on this table at
        the same probe_length and each entry in read is sigma^-1 of the one
        u's pass read; w then passes every check (module docstring)."""
        probe_length, g, downs, g_inv = read
        for p, (length_u, g_u, downs_u, inv_u) in self._orbit_mates(
                w, self._passed):
            if (length_u == probe_length and relabel_equals(g_u, p, g)
                    and relabel_equals(inv_u, p, g_inv)
                    and all(relabel_equals(downs_u[p[i]], p, d)
                            for i, d in downs.items())):
                return True
        return False

    # --- persistence ---------------------------------------------------------

    def save(self, path):
        """Write the table as JSON, the bytes of
        json.dumps(obj, sort_keys=True, indent=1) + "\n" for
        obj = {"format": 1, "cartan": cartan_to_json(cd), "entries": [...]},
        one entry {"word", "terms", "verified"} per element in (length, word)
        order.  Each entry has the one shape _ENTRY and _TERM lay out, with
        the term values of kring.to_json laid out straight from each
        (packed key, CoefQ) term by _terms; entries are laid out and written
        one at a time, and no object tree is built for them.  Each distinct
        key is decoded, and its text and the text of each distinct
        denominator laid out, once per save and reused by every term that
        has it.  The cartan
        head is json.dumps'd and moved one level in: JSON escapes newlines
        inside strings, so every newline there belongs to the layout.  The
        bytes go to a temporary file in the same directory that then
        replaces `path`, so an interrupted save never leaves a truncated
        cache behind.  CacheMismatch when the file cannot be written."""
        entries = sorted(self.entries.items(),
                         key=lambda kv: (kv[0].length, kv[0].word))
        head = json.dumps(cartan_to_json(self.cd), sort_keys=True, indent=1)
        tmp = "%s.%d.tmp" % (path, os.getpid())
        try:
            with open(tmp, "w") as fh:
                fh.write('{\n "cartan": ' + head.replace("\n", "\n ")
                         + ',\n "entries": [')
                sep = "\n  "
                weights, dens = {}, {}  # shared by every entry: see _terms
                for w, g in entries:
                    fh.write(sep + _ENTRY % (
                        _terms(g, weights, dens),
                        "true" if w in self.verified else "false",
                        _list(w.word, 3)))
                    sep = ",\n  "
                fh.write(("\n ]" if entries else "]") + ',\n "format": 1\n}\n')
            os.replace(tmp, path)
        except BaseException as ex:
            if os.path.exists(tmp):
                os.remove(tmp)
            if isinstance(ex, OSError):
                raise CacheMismatch("cannot write cache %s: %s"
                                    % (path, ex)) from ex
            raise

    @classmethod
    def from_json_obj(cls, obj, cd=None):
        """Table from the JSON form written by save; CacheMismatch when the
        object does not have that form ("format" is the int 1, word letters
        are ints and each entry's "verified" is a JSON bool; JSON true is
        not an int) or was built for other data.  The entries share one
        weight memo and one coefficient memo (kring.from_json), so each
        distinct weight and coefficient of the file is checked and decoded
        once, and equal terms share one packed key and one CoefQ."""
        try:
            if (not isinstance(obj, dict) or type(obj.get("format")) is not int
                    or obj["format"] != 1):
                raise CacheMismatch("not a format-1 cache object")
            file_cd = cartan_from_json(obj["cartan"])
            if cd is not None and cd != file_cd:
                raise CacheMismatch("cache was built for different Cartan "
                                    "data")
            table = cls(cd if cd is not None else file_cd)
            weights, coefs = {}, {}  # shared by every entry: see from_json
            for ent in obj["entries"]:
                word = tuple(ent["word"])
                if any(type(i) is not int for i in word):
                    raise ValueError("word letters must be ints: %r"
                                     % (ent["word"],))
                w = weyl_mod.canonicalize(table.cd, word)
                if w in table.entries:
                    raise ValueError("two entries for the element %s"
                                     % list(w.word))
                table.entries[w] = from_json(table.cd, ent["terms"],
                                             weights, coefs)
                verified = ent["verified"]
                if type(verified) is not bool:
                    raise ValueError("verified must be true or false, not %r"
                                     % (verified,))
                if verified:
                    table.verified.add(w)
        except (KeyError, TypeError, ValueError) as ex:
            raise CacheMismatch("malformed cache: %s %s"
                                % (type(ex).__name__, ex)) from ex
        return table

    @classmethod
    def load(cls, path, cd=None):
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except (OSError, ValueError, RecursionError) as ex:
            # RecursionError: json gives up on lists or objects nested too
            # deep, which no cache has
            raise CacheMismatch("cannot read cache %s: %s" % (path, ex)) from ex
        return cls.from_json_obj(obj, cd=cd)


def _list(items, depth):
    """json.dumps(items, indent=1) for a list nested at the given depth whose
    items are ints or already laid out one level deeper."""
    if not items:
        return "[]"
    inner = "\n" + " " * (depth + 1)
    return ("[" + inner + ("," + inner).join(map(str, items))
            + "\n" + " " * depth + "]")


# json.dumps' layout of one to_json term at depth 4, of its weight at depth
# 5 and of one entry at depth 2, keys in sorted order.  A weight's
# coordinates are joined by _COORD_SEP into its two lists, which are never
# empty: the rank is >= 2
_TERM = ('{\n     "den_coeffs": %s,\n     "num_coeffs": %s,'
         '\n     "weight": %s\n    }')
_WEIGHT = ('{\n      "l": [\n       %s\n      ],'
           '\n      "m": [\n       %s\n      ]\n     }')
_COORD_SEP = ",\n       "
_ENTRY = '{\n   "terms": %s,\n   "verified": %s,\n   "word": %s\n  }'
# a nonempty list of [exponent, coefficient] pairs at depth 5 is the pairs
# "%d,\n       %d" joined by _PAIR_SEP between _PAIRS_OPEN and _PAIRS_CLOSE
_PAIRS_OPEN = "[\n      [\n       "
_PAIR_SEP = "\n      ],\n      [\n       "
_PAIRS_CLOSE = "\n      ]\n     ]"


def _pairs(pairs):
    """json.dumps' layout of a list of (exponent, coefficient) pairs nested
    at depth 5."""
    if not pairs:
        return "[]"
    return (_PAIRS_OPEN + _PAIR_SEP.join(["%d,\n       %d" % p for p in pairs])
            + _PAIRS_CLOSE)


def _terms(g, weights, dens):
    """The "terms" list of g's entry laid out at depth 3: to_json(g) in
    json.dumps' layout, one _TERM per term of g in g.sorted_terms() order.
    weights (layout -> {key: text}) and dens (CoefQ.cyc, the denominator's
    exponent tuple -> text) are memos that the entries of one save share,
    so each distinct key is decoded and laid out once, and each distinct
    denominator laid out once.  Numerators are laid out per term: about
    half of a deep table's coefficients are distinct, and a memo of them
    would hold more text than it saves."""
    layout, keys = g.layout, g.keys
    memo = weights.get(layout)
    if memo is None:
        memo = weights[layout] = {}
    out = []
    for k in sorted(keys, key=layout.flip.__xor__):
        c = keys[k]
        w = memo.get(k)
        if w is None:
            l, m = layout.coordinates(k)
            w = memo[k] = _WEIGHT % (_COORD_SEP.join(map(str, l)),
                                     _COORD_SEP.join(map(str, m)))
        d = dens.get(c.cyc)
        if d is None:
            d = dens[c.cyc] = _pairs([(i, x) for i, x in enumerate(c.den)
                                      if x])
        out.append(_TERM % (
            d, _pairs([(c.shift + i, x) for i, x in enumerate(c.num) if x]), w))
    return _list(out, 3)


def grothendieck(cd, word):
    """G_w for the element given by a word, with a throwaway table."""
    return GrothTable(cd).compute(weyl_mod.canonicalize(cd, word))
