"""Affine Grothendieck elements G_w and the descent recursion computing them.

Each G_w lives in the completed K-group: a finite combination of e^mu with
coefficients in Q(q), all key levels in (-kappa, 0] for kappa the dual Coxeter
number.  The recursion over a reduced word builds, from the G_{w s_i} at the
right descents i of w, a twisted cocycle family; its coboundary B, corrected
by the identity-localization image pushed through eta, yields G_w:

    v_i = e^{rho_J} (1 - e^{-alpha_i}) G_{w s_i}   for i in J = descents(w)
    v_i = 0                                        otherwise
    (1 - s_i) B = v_i,  B supported in (level(rho_J) - kappa, level(rho_J)]
    G_w = e^{-rho_J} (B - eta(j_e(B)))

B itself is only unique up to invariants; the correction removes exactly the
ambiguity, so G_w is well defined.  verify used afterwards cross-checks each
entry against the Demazure recursion, localization supports, the bar
involution, and the coefficient-denominator constraint.
"""

import json
import os

from . import weyl as weyl_mod
from .cartan import cartan_from_json, cartan_to_json
from .cocycle import solve_coboundary
from .errors import CacheMismatch, WindowViolation
from .kring import (demazure, eta_embed, from_json, in_window, j_map, k_one,
                    monomial, psi, to_json)


class GrothTable:
    """Memoized G_w per Weyl element, with JSON persistence."""

    def __init__(self, cd):
        self.cd = cd
        self.entries = {}  # WeylElement -> KElement
        self.verified = set()  # elements that passed verify()

    def compute(self, w, precheck=True):
        """G_w, computing and caching every element below it on the way."""
        got = self.entries.get(w)
        if got is not None:
            return got
        cd = self.cd
        if w.length == 0:
            g = k_one(cd)
            self.entries[w] = g
            return g
        J = weyl_mod.right_descents(w)
        rho_J = cd.rho_J(J)
        one = k_one(cd)
        v = {}
        for i in J:
            g_down = self.compute(weyl_mod.mul_gen(w, i), precheck=precheck)
            factor = monomial(cd, rho_J) * (one - monomial(cd, -cd.alpha(i)))
            v[i] = factor * g_down
        lev = cd.level(rho_J)
        B = solve_coboundary(cd, v, (lev - cd.dual_coxeter, lev),
                             precheck=precheck)
        C = j_map(weyl_mod.identity(cd), B)
        g = monomial(cd, -rho_J) * (B - eta_embed(C))
        if not in_window(g, -cd.dual_coxeter, 0):
            raise WindowViolation("G_w escaped the level window for word %s"
                                  % (w.word,))
        self.entries[w] = g
        return g

    ALL_CHECKS = ("window", "demazure", "localization", "psi", "ring")

    def verify(self, w, checks=None, probe_length=None):
        """Cross-check the entry for w; returns a list of failure descriptions
        (empty means all selected checks passed).  probe_length bounds the
        length of the x probed for localization vanishing (default len(w)+1).
        Success with the full check set is recorded in self.verified."""
        cd = self.cd
        if checks is None:
            checks = self.ALL_CHECKS
        if probe_length is None:
            probe_length = w.length + 1
        g = self.compute(w)
        fails = []

        if "window" in checks and not in_window(g, -cd.dual_coxeter, 0):
            fails.append("window: support leaves (-%d, 0]" % cd.dual_coxeter)

        if "demazure" in checks:
            descents = set(weyl_mod.right_descents(w))
            for i in cd.labels:
                expect = (self.compute(weyl_mod.mul_gen(w, i))
                          if i in descents else g)
                if demazure(i, g) != expect:
                    fails.append("demazure: D_%d disagrees" % i)

        if "localization" in checks:
            inv_prod = k_one(cd)
            for beta in weyl_mod.inversion_set(w):
                inv_prod = inv_prod * (k_one(cd) - monomial(cd, beta))
            if j_map(w, g) != inv_prod:
                fails.append("localization: j_w(G_w) != prod(1 - e^beta)")
            for layer in weyl_mod.enumerate_up_to(cd, probe_length):
                for x in layer:
                    if (not weyl_mod.bruhat_leq(w, x)
                            and not j_map(x, g).is_zero()):
                        fails.append("localization: j_x nonzero at word %s"
                                     % (x.word,))

        if "psi" in checks and psi(g) != self.compute(weyl_mod.inverse(w)):
            fails.append("bar involution: psi(G_w) != G_{w^-1}")

        if "ring" in checks:
            for mu, c in g.terms.items():
                if not c.divides_q_products():
                    fails.append("coefficient ring: denominator at %s has a "
                                 "factor outside the (q^k - 1) products" % mu)
                    break

        if not fails and set(self.ALL_CHECKS) <= set(checks):
            self.verified.add(w)
        return fails

    # --- persistence ---------------------------------------------------------

    def to_json(self):
        entries = sorted(self.entries.items(),
                         key=lambda kv: (kv[0].length, kv[0].word))
        return {
            "format": 1,
            "cartan": cartan_to_json(self.cd),
            "entries": [{"word": list(w.word),
                         "terms": to_json(g),
                         "verified": w in self.verified}
                        for w, g in entries],
        }

    def save(self, path):
        """Write the table as JSON.  The bytes go to a temporary file in the
        same directory that then replaces `path`, so an interrupted save
        never leaves a truncated cache behind."""
        tmp = "%s.%d.tmp" % (path, os.getpid())
        try:
            with open(tmp, "w") as fh:
                json.dump(self.to_json(), fh, sort_keys=True, indent=1)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise

    @classmethod
    def from_json_obj(cls, obj, cd=None):
        """Table from the JSON form written by to_json; CacheMismatch when
        the object does not have that form or was built for other data."""
        try:
            if not isinstance(obj, dict) or obj.get("format") != 1:
                raise CacheMismatch("not a format-1 cache object")
            file_cd = cartan_from_json(obj["cartan"])
            if cd is not None and cd != file_cd:
                raise CacheMismatch("cache was built for different Cartan "
                                    "data")
            table = cls(cd if cd is not None else file_cd)
            for ent in obj["entries"]:
                w = weyl_mod.canonicalize(table.cd, tuple(ent["word"]))
                table.entries[w] = from_json(table.cd, ent["terms"])
                if ent.get("verified"):
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
        except (OSError, ValueError) as ex:
            raise CacheMismatch("cannot read cache %s: %s" % (path, ex)) from ex
        return cls.from_json_obj(obj, cd=cd)


def grothendieck(cd, word, precheck=True):
    """G_w for the element given by a word, with a throwaway table."""
    return GrothTable(cd).compute(weyl_mod.canonicalize(cd, word),
                                  precheck=precheck)
