"""Twisted 1-cocycle conditions and exact coboundary solving.

A family v = (v_i)_{i in I} of ring elements is a coboundary if there is a
single B with (1 - s_i)B = v_i for all i.  Necessary conditions checked by
check_cocycle: (1 + s_i)v_i = 0, and for each finite dihedral pair the two
alternating partial sums over the subgroup agree.  solve_coboundary finds B
supported in a level window; existence inside the window is what the
vanishing theory guarantees.

Every equation of the system reads x_mu - q^{-n} x_{s_i mu} = v_i(mu), with
one or two unknowns, so the system is a gain graph: unknowns are vertices,
two-unknown equations are edges whose gains are signed powers of q.  It is
solved exactly by propagation along a spanning forest.  Each component's
root carries one unknown t; a cycle of the graph fixes t through an equation
(1 - q^k) t = c, which is where the (1 - q^k) denominators of G_w come from.
A component nothing fixes gets t = 0.  The result is re-verified by
substitution, so a solver fault cannot return a wrong B.
"""

from .coefq import CoefQ, ONE, ZERO
from .errors import (CocycleViolation, Inconsistent, SupportGrowthExceeded,
                     WindowViolation)
from .kring import KElement, k_zero, reflect_act, weyl_act
from . import weyl as weyl_mod

MAX_GROW = 8


def _family(cd, v):
    """Fill missing labels with zero; sanity-check the index set."""
    full = {}
    for i in cd.labels:
        vi = v.get(i)
        full[i] = vi if vi is not None else k_zero(cd)
    return full


def check_cocycle(cd, v):
    """Returns a list of violations, empty iff the conditions hold.

    Each violation is (kind, where, residual): kind "self" with where = i for
    v_i + s_i v_i != 0, kind "dihedral" with where = (i, j) for a failed
    alternating-sum identity (infinite-order pairs are skipped).
    """
    v = _family(cd, v)
    violations = []
    for i in cd.labels:
        r = v[i] + reflect_act(cd, i, v[i])
        if not r.is_zero():
            violations.append(("self", i, r))
    for i in cd.labels:
        for j in cd.labels:
            if j <= i:
                continue
            m = cd.orders[(i, j)]
            if m is None:
                continue
            lhs = _alternating_sum(cd, i, j, m, v[i])
            rhs = _alternating_sum(cd, j, i, m, v[j])
            r = lhs - rhs
            if not r.is_zero():
                violations.append(("dihedral", (i, j), r))
    return violations


def _alternating_sum(cd, i, j, m, vi):
    """sum over x in W_{ij} with x s_i > x of (-1)^len(x) * x(v_i): the m
    such x are e and the alternating words ending in j of length < m."""
    total = vi  # x = e
    for k in range(1, m):
        word = tuple(j if (k - 1 - t) % 2 == 0 else i for t in range(k))
        x = weyl_mod.canonicalize(cd, word)
        term = weyl_act(x, vi)
        total = total - term if k % 2 else total + term
    return total


def _sigma(cd, i, mu, memo):
    """normalize(s_i mu) = (twist, key), memoized for one solve."""
    got = memo.get((i, mu))
    if got is None:
        got = memo[(i, mu)] = cd.normalize(cd.reflect(i, mu))
    return got


def solve_coboundary(cd, v, window, order_reversed=False, precheck=True,
                     max_grow=MAX_GROW):
    """Find B with (1 - s_i)B = v_i for all i, supported in the level window
    (lo, hi].  The window width must not exceed the dual Coxeter number.

    Unknowns are coefficients on an adaptively grown support: the union of the
    v_i supports closed k times under all normalized reflections, k = 1, 2, ..
    until the linear system is consistent (Inconsistent if no round is,
    SupportGrowthExceeded if no consistent round verifies, after max_grow
    rounds).  Solutions are not unique: the system is solved along a spanning
    forest of its gain graph, and the root of every component that no
    equation pins down is set to zero.  Roots are taken in term order, or in
    reversed term order with order_reversed.  The returned B is re-verified
    by substitution.  precheck runs check_cocycle first and raises
    CocycleViolation on failure.
    """
    v = _family(cd, v)
    lo, hi = window
    if hi - lo > cd.dual_coxeter:
        raise WindowViolation("window width %d exceeds dual Coxeter number %d"
                              % (hi - lo, cd.dual_coxeter))
    for i, vi in v.items():
        for mu in vi.terms:
            if not lo < cd.level(mu) <= hi:
                raise WindowViolation("v_%d has a term at level %d outside (%d, %d]"
                                      % (i, cd.level(mu), lo, hi))
    if precheck:
        violations = check_cocycle(cd, v)
        if violations:
            raise CocycleViolation(violations)

    base = set()
    for vi in v.values():
        base.update(vi.terms)
    if not base:
        return k_zero(cd)

    support = set(base)
    memo = {}
    solvable = False
    for rounds in range(1, max_grow + 1):
        grown = set(support)
        for mu in support:
            for i in cd.labels:
                grown.add(_sigma(cd, i, mu, memo)[1])
        support = grown
        sol = _solve_on_support(cd, v, support, order_reversed, memo)
        if sol is not None:
            solvable = True
            B = KElement(cd, sol)
            if all((B - reflect_act(cd, i, B) - v[i]).is_zero()
                   for i in cd.labels):
                return B
    if not solvable:
        raise Inconsistent(
            "coboundary system insolvable after %d support-growth rounds"
            % max_grow)
    raise SupportGrowthExceeded(
        "no verified coboundary within %d support-growth rounds" % max_grow)


def _solve_on_support(cd, v, support, order_reversed, memo):
    """Assemble the equations for B supported on `support`, one per label i
    and key mu, and solve them.  Returns dict weight -> CoefQ, or None if
    inconsistent."""
    key = lambda mu: (cd.level(mu), mu.l, mu.m)
    variables = sorted(support, key=key, reverse=order_reversed)
    var_pos = {mu: p for p, mu in enumerate(variables)}

    rows = []  # (coeffs: dict var_pos -> CoefQ, rhs: CoefQ)
    for i in cd.labels:
        vi = v[i]
        seen_keys = set()
        for mu in variables:
            for key_mu in (mu, _sigma(cd, i, mu, memo)[1]):
                if key_mu in seen_keys:
                    continue
                seen_keys.add(key_mu)
                coeffs = {}
                if key_mu in var_pos:
                    coeffs[var_pos[key_mu]] = ONE
                n, sig = _sigma(cd, i, key_mu, memo)
                if sig in var_pos:
                    c = -CoefQ.q_power(-n)
                    p = var_pos[sig]
                    prev = coeffs.get(p)
                    c = c if prev is None else prev + c
                    if c.is_zero():
                        coeffs.pop(p, None)
                    else:
                        coeffs[p] = c
                rhs = vi.terms.get(key_mu, ZERO)
                if coeffs:
                    rows.append((coeffs, rhs))
                elif not rhs.is_zero():
                    return None
    return _propagate(rows, variables)


def _propagate(rows, variables):
    """Solve rows of one or two entries along a spanning forest of their
    gain graph.  Each component is walked breadth-first from its first
    variable, the root, whose value is an unknown t; a tree edge writes its
    far variable as A + C*t.  A one-entry row or a non-tree edge then reads
    k*t = c: the first one with k != 0 fixes t (a cycle gives k = q^a - q^b,
    the source of the (1 - q^k) denominators), every other one must agree.
    A component nothing fixes gets t = 0.  Returns dict weight -> CoefQ, or
    None if inconsistent."""
    incident = [[] for _ in variables]
    for r, (coeffs, _) in enumerate(rows):
        for p in coeffs:
            incident[p].append(r)
    value = [None] * len(variables)  # p -> (A, C) with x_p = A + C*t
    used = [False] * len(rows)
    solution = {}
    for root in range(len(variables)):
        if value[root] is not None:
            continue
        value[root] = (ZERO, ONE)
        component = [root]
        checks = []  # (k, c) with k*t = c
        for p in component:  # grows while walked: breadth-first
            a_p, c_p = value[p]
            for r in incident[p]:
                if used[r]:
                    continue
                used[r] = True
                coeffs, rhs = rows[r]
                a = coeffs[p]
                k = a * c_p
                c = rhs - a * a_p
                w = next((w for w in coeffs if w != p), None)
                if w is not None:
                    b = coeffs[w]
                    if value[w] is None:  # tree edge: x_w = (c - k*t)/b
                        inv = b.inv()
                        value[w] = (c * inv, -k * inv)
                        component.append(w)
                        continue
                    a_w, c_w = value[w]
                    k = k + b * c_w
                    c = c - b * a_w
                checks.append((k, c))
        t = next((c * k.inv() for k, c in checks if not k.is_zero()), ZERO)
        if any(k * t != c for k, c in checks):
            return None
        for p in component:
            a_p, c_p = value[p]
            x = a_p + c_p * t
            if not x.is_zero():
                solution[variables[p]] = x
    return solution
