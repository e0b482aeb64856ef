"""Twisted 1-cocycle conditions and exact coboundary solving.

A family v = (v_i)_{i in I} of ring elements is a coboundary if there is a
single B with (1 - s_i)B = v_i for all i.  Necessary conditions checked by
check_cocycle: (1 + s_i)v_i = 0, and for each finite dihedral pair the two
alternating partial sums over the subgroup agree.  solve_coboundary finds B
supported in a level window; existence inside the window is what the
vanishing theory guarantees.

Every equation of the system reads x_mu - q^{-n} x_sigma = v_i(mu), with
(n, sigma) = normalize(s_i mu), so the system is a gain graph (Zaslavsky,
Biased graphs I, JCTB 1989): unknowns are vertices, two-unknown equations are
edges whose gains are powers of q, and the neighbours of mu are its
normalized reflections.  The graph is never built: _solve_on_support walks
it breadth-first straight from the support and v.  Each component's
root carries one unknown t.  Every gain is a power of q, so a tree edge
writes the key it reaches as A + q^e t and the walk keeps the pair (A, e):
the exponent e is the sum of the gains along the tree path.  Every other
equation becomes a check k*t = c, where k is q^e at the support's boundary
and a difference q^a - q^b of two q-powers on a cycle.  A cycle fixes t
through (q^a - q^b) t = c, which is where the (1 - q^k) denominators of
G_w come from.  A component nothing fixes gets t = 0.

Only one equation per label i and s_i-orbit {mu, sigma} is used, read at
whichever key of the orbit the walk reaches first.  That assumes the cocycle
conditions: (1 + s_i)v_i = 0 makes the equation at sigma equal to -q^n times
the one at mu, and a key fixed by s_i has n = 0 (s_i mu - mu is a multiple
of alpha_i, never a nonzero multiple of delta), so its equation reads
0 = v_i(mu), which (1 + s_i)v_i = 0 already forces.
The assumption is made safe by the substitution re-check, which tests every
equation of the full system, both keys of each orbit included: a B that
passes it is a coboundary, and a coboundary is always a cocycle.  So
check_cocycle never runs on a solve that succeeds; it runs only when no
growth round verifies, to name the failure (CocycleViolation) before the
solver's own error.

A solve moves the v_i's own packed keys (keys.Layout): s_i followed by
delta-normalization is one digit read and one integer multiply-subtract,
and B is returned on the same keys, with no key decoded.
"""

from .coefq import CoefQ, ONE, ZERO, q_shifted_sum
from .errors import (CocycleViolation, Inconsistent, SupportGrowthExceeded,
                     WindowViolation)
from .keys import common_layout
from .kring import _element, k_zero, reflect_act, weyl_act
from . import weyl as weyl_mod

MAX_GROW = 8


def _family(cd, v):
    """v with every missing label filled with zero; BadLabel for a key of v
    that is not a label of cd."""
    for i in v:
        cd.check_node(i)
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


def solve_coboundary(cd, v, window, order_reversed=False):
    """Find B with (1 - s_i)B = v_i for all i, supported in the level window
    (lo, hi].  The window width must not exceed the dual Coxeter number.

    Unknowns are coefficients on an adaptively grown support: the union of the
    v_i supports closed k times under all normalized reflections, k = 1, 2, ..
    until the linear system is consistent (Inconsistent if no round is,
    SupportGrowthExceeded if no consistent round verifies, after MAX_GROW
    rounds).  Each round solves the system by walking its gain graph
    straight from the support (_solve_on_support).  Solutions are not
    unique: the root of every component that no equation pins down is set
    to zero, and roots are taken in term order, or in reversed term order
    with order_reversed.  The returned B is re-verified by substitution (see
    _verified), so a solver fault cannot return a wrong B.

    The walk uses one equation per s_i-orbit of keys, which stands for
    the whole orbit only when the cocycle conditions hold; the re-check
    makes that assumption safe.  check_cocycle runs only when no round
    verifies: a family that is not a cocycle raises CocycleViolation, after
    the growth rounds rather than before them.
    """
    v = _family(cd, v)
    lo, hi = window
    if hi - lo > cd.dual_coxeter:
        raise WindowViolation("window width %d exceeds dual Coxeter number %d"
                              % (hi - lo, cd.dual_coxeter))
    for i, vi in v.items():
        if vi.keys:
            level = vi.layout.level
            for lev in (level(min(vi.keys)), level(max(vi.keys))):
                if not lo < lev <= hi:
                    raise WindowViolation(
                        "v_%d has a term at level %d outside (%d, %d]"
                        % (i, lev, lo, hi))
    family = [v[i] for i in cd.labels]
    if not any(vi.keys for vi in family):
        return k_zero(cd)
    # every key of the walk and the re-check is within MAX_GROW + 1 letters
    # of a key of the v_i (keys.Layout: digit growth)
    growth = family[0].layout.letter_growth
    layout, pv, _ = common_layout(family, max, growth ** (MAX_GROW + 1))
    bound = max(vi.bound for vi in family)  # as common_layout left them
    reflections = layout.reflections
    frontier = support = set().union(*pv)
    solvable = False
    for _ in range(MAX_GROW):
        # the reflections of older keys are in the support already
        frontier = {key for mu in frontier for _, key in reflections(mu)
                    if key not in support}
        support = support | frontier
        bound *= growth  # the support is one letter further out
        sol = _solve_on_support(layout, pv, support, order_reversed)
        if sol is not None:
            solvable = True
            if _verified(layout, pv, sol):
                return _element(cd, layout, bound, sol)
    violations = check_cocycle(cd, v)
    if violations:
        raise CocycleViolation(violations)
    if not solvable:
        raise Inconsistent(
            "coboundary system insolvable after %d support-growth rounds"
            % MAX_GROW)
    raise SupportGrowthExceeded(
        "no verified coboundary within %d support-growth rounds" % MAX_GROW)


def _verified(layout, v, sol):
    """True iff B = sol satisfies (1 - s_i)B = v_i for every i; keys are
    packed, v[i] is {key: CoefQ}.  With (n, sigma) = normalize(s_i mu), the
    equation at mu reads B(mu) = v_i(mu) + q^{-n} B(sigma), compared as
    canonical CoefQ at every key of supp B and the supp v_i.  Off those, the
    support of B - s_i B - v_i lies on s_i(supp B), where the equation at
    sigma = s_i mu reads 0 = q^{-n} B(mu) and fails."""
    reflections = layout.reflections
    keys = set(sol)
    for vi in v:
        keys.update(vi)
    for mu in keys:
        b_mu = sol.get(mu)
        x_mu = ZERO if b_mu is None else b_mu
        for (n, sig), vi in zip(reflections(mu), v):
            rhs = vi.get(mu, ZERO)
            b = sol.get(sig)
            if b is not None:
                rhs = q_shifted_sum(((rhs, 0), (b, -n)))
            elif b_mu is not None and sig not in vi:
                return False
            if x_mu != rhs:
                return False
    return True


def _solve_on_support(layout, v, support, order_reversed):
    """Solve for B supported on `support` by walking the gain graph (see the
    module docstring); keys are packed, v[i] is {key: CoefQ}.  Roots are
    taken in term order (int order, see keys.Layout), reversed under
    order_reversed.  A walked key mu holds (A, e), meaning
    x_mu = A + q^e t.  At mu and label i, with r = v_i(mu):
      - sigma already walked (mu itself when s_i fixes mu): the orbit's
        equation is used, skip;
      - sigma outside the support: check q^e t = r - A;
      - sigma not yet reached: tree edge, x_sigma = q^n (x_mu - r), so
        sigma holds (q^n (A - r), e + n);
      - sigma reached but not walked, holding (A_sigma, e_sigma): check
        (q^(e+n) - q^(e_sigma)) t = A_sigma - q^n (A - r), whose factor is
        zero exactly when the two exponents are equal.
    The first check with k != 0 fixes t, every other one must agree.
    Returns {key: CoefQ}, or None if inconsistent."""
    reflections = layout.reflections
    value = {}  # mu -> (A, e) with x_mu = A + q^e t
    walked = set()
    solution = {}
    for root in sorted(support, reverse=order_reversed):
        if root in value:
            continue
        value[root] = (ZERO, 0)
        component = [root]
        checks = []  # (k, c) with k*t = c
        for mu in component:  # grows while walked: breadth-first
            walked.add(mu)
            a_mu, e_mu = value[mu]
            for (n, sig), vi in zip(reflections(mu), v):
                if sig in walked:
                    continue
                r = vi.get(mu, ZERO)
                if sig not in support:
                    checks.append((CoefQ.q_power(e_mu), r - a_mu))
                    continue
                a, e = q_shifted_sum(((a_mu, n), (-r, n))), e_mu + n
                got = value.get(sig)
                if got is None:
                    value[sig] = (a, e)
                    component.append(sig)
                else:
                    k = q_shifted_sum(((ONE, e), (-ONE, got[1])))
                    checks.append((k, got[0] - a))
        t = next((c * k.inv() for k, c in checks if not k.is_zero()), ZERO)
        if any(k * t != c for k, c in checks):
            return None
        for mu in component:
            a_mu, e_mu = value[mu]
            x = q_shifted_sum(((a_mu, 0), (t, e_mu)))
            if not x.is_zero():
                solution[mu] = x
    return solution
