"""Cocycle conditions and the coboundary solver."""

import subprocess
import sys

import pytest

from affgroth.cartan import AffineCartanData, build_cartan, from_type
from affgroth.coefq import CoefQ, ONE
from affgroth.cocycle import check_cocycle, solve_coboundary
from affgroth.errors import (BadLabel, CocycleViolation,
                             SupportGrowthExceeded, WindowViolation)
from affgroth.groth import GrothTable
from affgroth.kring import in_window, k_one, k_zero, monomial, reflect_act
from affgroth.weights import Weight
from affgroth import cocycle, groth, kring, weyl
from affgroth import keys as keys_mod

import oracles


def coboundary_family(cd, b0):
    return {i: b0 - reflect_act(cd, i, b0) for i in cd.labels}


def test_check_cocycle_self_violation():
    cd = from_type("A1~")
    bad = {1: monomial(cd, cd.Lam(1))}
    violations = check_cocycle(cd, bad)
    assert violations
    kind, where, residual = violations[0]
    assert (kind, where) == ("self", 1)
    assert not residual.is_zero()


def test_check_cocycle_dihedral_violation():
    cd = from_type("C2~")
    # v_0 passes the self condition; with v_1 = 0 the order-4 pair (0,1)
    # cannot glue unless the alternating orbit sum of the base weight dies,
    # so pick a base weight regular for that pair
    mu = cd.Lam(0) + cd.Lam(1)
    v0 = monomial(cd, mu) - reflect_act(cd, 0, monomial(cd, mu))
    violations = check_cocycle(cd, {0: v0})
    kinds = {(k, w) for k, w, _ in violations}
    assert ("self", 0) not in kinds
    assert ("dihedral", (0, 1)) in kinds


def test_check_cocycle_accepts_coboundary():
    for t in ("A1~", "A2~", "C2~"):
        cd = from_type(t)
        rng = oracles.rng_for("cocycle-accept-" + t)
        for _ in range(8):
            b0 = oracles.random_element(cd, rng, max_terms=5)
            assert check_cocycle(cd, coboundary_family(cd, b0)) == []


def test_solve_round_trip():
    for t in ("A1~", "A2~", "C2~"):
        cd = from_type(t)
        k = cd.dual_coxeter
        rng = oracles.rng_for("cocycle-solve-" + t)
        for _ in range(6):
            b0 = oracles.random_element(cd, rng, max_terms=4,
                                        level_range=(-k, 0))
            v = coboundary_family(cd, b0)
            B = solve_coboundary(cd, v, (-k, 0))
            for i in cd.labels:
                assert B - reflect_act(cd, i, B) == v[i]
            assert in_window(B, -k, 0)


@pytest.mark.parametrize("name,gcm", oracles.CUSTOM_GCMS,
                         ids=[n for n, _ in oracles.CUSTOM_GCMS])
def test_solve_round_trip_custom(name, gcm):
    cd = build_cartan(gcm)
    k = cd.dual_coxeter
    rng = oracles.rng_for("cocycle-solve-" + name)
    for _ in range(6):
        b0 = oracles.random_element(cd, rng, max_terms=4, level_range=(-k, 0))
        v = coboundary_family(cd, b0)
        B = solve_coboundary(cd, v, (-k, 0))
        for i in cd.labels:
            assert B - reflect_act(cd, i, B) == v[i]
        assert in_window(B, -k, 0)


@pytest.mark.parametrize("name", ["A1~", "A2~", "A3~", "C2~", "C3~", "D4~"]
                         + [n for n, _ in oracles.CUSTOM_GCMS])
def test_fixed_keys_have_no_delta_shift(name):
    # the solver assembles no equation at a key fixed by s_i; that is exact
    # only because such a key has delta shift 0, so its equation reads
    # 0 = v_i(mu), which (1 + s_i)v_i = 0 forces
    gcm = dict(oracles.CUSTOM_GCMS).get(name)
    cd = build_cartan(gcm) if gcm else from_type(name)
    rng = oracles.rng_for("fixed-keys-" + name)
    keys = {cd.normalize(oracles.random_weight(cd, rng, l_span=1, m_span=2))[1]
            for _ in range(200)}
    table = GrothTable(cd)
    for layer in weyl.enumerate_up_to(cd, 2):
        for w in layer:
            keys.update(table.compute(w).terms)
    fixed = 0
    for mu in keys:
        for i in cd.labels:
            n, key = cd.normalize(cd.reflect(i, mu))
            if key == mu:
                fixed += 1
                assert n == 0, (name, i, mu)
    assert fixed


def test_solve_zero_family():
    cd = from_type("A2~")
    B = solve_coboundary(cd, {}, (-3, 0))
    assert B.is_zero()


def test_solve_deterministic():
    cd = from_type("A2~")
    rng = oracles.rng_for("cocycle-det")
    b0 = oracles.random_element(cd, rng, max_terms=4, level_range=(-3, 0))
    v = coboundary_family(cd, b0)
    assert solve_coboundary(cd, v, (-3, 0)) == solve_coboundary(cd, v, (-3, 0))


def test_solve_order_reversed_still_solves():
    cd = from_type("A2~")
    rng = oracles.rng_for("cocycle-rev")
    for _ in range(4):
        b0 = oracles.random_element(cd, rng, max_terms=4, level_range=(-3, 0))
        v = coboundary_family(cd, b0)
        B = solve_coboundary(cd, v, (-3, 0), order_reversed=True)
        for i in cd.labels:
            assert B - reflect_act(cd, i, B) == v[i]


def test_window_checks():
    cd = from_type("A1~")
    with pytest.raises(WindowViolation):
        solve_coboundary(cd, {}, (-5, 0))  # width 5 > dual Coxeter 2
    v = {0: monomial(cd, cd.Lam(0))}  # level 1 term, window (-2, 0]
    with pytest.raises(WindowViolation):
        solve_coboundary(cd, v, (-2, 0))


def test_family_label_outside_datum_is_refused():
    # a v_i at a label the datum lacks is an error, not dropped: dropping
    # it solved the empty family and found no violation
    cd = from_type("A1~")
    v = {7: k_one(cd)}
    with pytest.raises(BadLabel):
        solve_coboundary(cd, v, (-2, 0))
    with pytest.raises(BadLabel):
        check_cocycle(cd, v)


def test_precheck_raises():
    cd = from_type("A1~")
    bad = {1: monomial(cd, cd.Lam(1) - cd.Lam(0))}
    with pytest.raises(CocycleViolation):
        solve_coboundary(cd, bad, (-1, 1))


def test_precheck_survives_optimize(subprocess_env):
    # the precheck always runs, also when asserts are compiled out
    code = ("from affgroth.cartan import from_type\n"
            "from affgroth.cocycle import solve_coboundary\n"
            "from affgroth.errors import CocycleViolation\n"
            "from affgroth.kring import monomial\n"
            "cd = from_type('A1~')\n"
            "bad = {1: monomial(cd, cd.Lam(1) - cd.Lam(0))}\n"
            "try:\n"
            "    solve_coboundary(cd, bad, (-1, 1))\n"
            "except CocycleViolation:\n"
            "    print('CocycleViolation')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=subprocess_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "CocycleViolation"


def test_cycle_fixes_root():
    # at level 0, s_1 and s_0 both swap e^{a1} and e^{-a1}, the latter with a
    # delta shift of 2: the cycle pins the root to 1/(1 - q^2) times a unit
    cd = from_type("A1~")
    a = monomial(cd, cd.alpha(1))
    v = {1: a - reflect_act(cd, 1, a)}
    B = solve_coboundary(cd, v, (-2, 0))
    for i in cd.labels:
        assert B - reflect_act(cd, i, B) == v.get(i, k_zero(cd))
    assert set(B.terms) == {cd.alpha(1), -cd.alpha(1)}
    assert all(c.den == (-1, 0, 1) for c in B.terms.values())  # q^2 - 1


def test_solver_fills_missing_labels():
    cd = from_type("A1~")
    # a family given on one label only; the other defaults to zero, which is
    # consistent here because Lam_1 is fixed by s_0
    lam = cd.Lam(1)
    v = {1: monomial(cd, lam) - monomial(cd, lam - cd.alpha(1))}
    assert check_cocycle(cd, v) == []
    B = solve_coboundary(cd, v, (-1, 1))
    assert B == monomial(cd, lam)


def test_solve_work_pinned(monkeypatch):
    # a solver that loses equations can still verify by growing the support
    # and re-solving, so only the amount of work shows it: solving every
    # element of C2~ to length 5 (the recursion without transport) takes 42
    # support rounds
    rounds = oracles.count_calls(monkeypatch, cocycle, "_solve_on_support")
    cd = from_type("C2~")
    memo = {}
    for layer in weyl.enumerate_up_to(cd, 5):
        for w in layer:
            oracles.solved_entry(cd, w, memo)
    assert rounds[0] == 42


def test_table_solve_work_pinned(monkeypatch):
    # GrothTable solves one element per orbit of the diagram flip of C2~
    # and transports its mate: 23 solves in 24 rounds for the 40 elements
    # of length 1 to 5 (the recursion without transport: 40 solves in 42)
    solves = oracles.count_calls(monkeypatch, groth, "solve_coboundary")
    rounds = oracles.count_calls(monkeypatch, cocycle, "_solve_on_support")
    cd = from_type("C2~")
    table = GrothTable(cd)
    for layer in weyl.enumerate_up_to(cd, 5):
        for w in layer:
            table.compute(w)
    assert (solves[0], rounds[0]) == (23, 24)


@pytest.mark.parametrize("name,max_length,pinned",
                         [("A3~", 4, (1860, 499)), ("A1~", 12, (2318, 12))])
def test_walk_coefficient_work_pinned(monkeypatch, name, max_length, pinned):
    # the walk keeps x_mu = A + q^e t as (A, e): no tree edge and no
    # assembly multiplies by q^n, and q_power runs only where a boundary
    # check reads q^e.  A build that multiplied by CoefQ.q_power(n) on
    # every tree edge ran 4,625 products and 943 q_power calls on A3~ <= 4,
    # and 4,118 and 596 on A1~ <= 12
    products = oracles.count_calls(monkeypatch, CoefQ, "__mul__")
    powers = oracles.count_calls(monkeypatch, CoefQ, "q_power")
    oracles.layer_table(from_type(name), max_length)
    assert (products[0], powers[0]) == pinned


LAYOUT_DATA = ["A1~", "A2~", "C2~", "A3~", "D4~"] + [n for n, _ in
                                                     oracles.CUSTOM_GCMS]


def _datum(name):
    gcm = dict(oracles.CUSTOM_GCMS).get(name)
    return build_cartan(gcm) if gcm else from_type(name)


def _edge_weight(cd, rng, bits):
    """A normalized weight whose coordinates other than m[node0] all have
    size 2^bits - 1."""
    top = (1 << bits) - 1
    l = [rng.choice((-top, top)) for _ in cd.labels]
    m = [rng.choice((-top, top)) for _ in cd.labels]
    m[cd.node0] = 0
    return Weight(l, m)


@pytest.mark.parametrize("bits", [2, 5])
@pytest.mark.parametrize("name", LAYOUT_DATA)
def test_packed_letter_is_reflect_then_normalize(name, bits):
    # along seeded words of MAX_GROW + 1 letters from keys with coordinates
    # of size 2^bits - 1, in the layout a solve of them runs on, every
    # packed letter lands on the packed normalize(s_i mu) with its q-power,
    # no digit carries (each key unpacks to its weight), and every digit
    # stays within the bound the Layout docstring proves, F^t times the
    # start's after t letters
    cd = _datum(name)
    rng = oracles.rng_for("layout-%s-%d" % (name, bits))
    for _ in range(6):
        mu = _edge_weight(cd, rng, bits)
        size = keys_mod.weight_size(cd, mu.l, mu.m)
        layout = keys_mod.key_layout(cd, keys_mod.KEY_BITS)
        growth = layout.letter_growth
        layout = keys_mod.layout_for(
            cd, size * growth ** (cocycle.MAX_GROW + 1))
        key = layout.pack(mu.l, mu.m)
        for t in range(cocycle.MAX_GROW + 1):
            assert layout.unpack(key) == mu
            assert keys_mod.weight_size(cd, mu.l, mu.m) <= size * growth ** t
            images = layout.reflections(key)
            for i in cd.labels:
                n, nu = cd.normalize(cd.reflect(i, mu))
                assert images[i] == (n, layout.pack(nu.l, nu.m)), \
                    (name, i, mu)
            i = rng.choice(cd.labels)
            key, mu = images[i][1], cd.normalize(cd.reflect(i, mu))[1]
        assert layout.unpack(key) == mu


@pytest.mark.parametrize("name", LAYOUT_DATA)
def test_packed_order_is_term_order(name):
    # the walk takes its roots in int order, which must be (level, l, m);
    # the random weights have coordinates of size at most 2^4 - 1, so
    # every digit is below 2^4 (1 + 2 + 4) < 2^8
    cd = _datum(name)
    layout = keys_mod.key_layout(cd, 8)
    rng = oracles.rng_for("layout-order-" + name)
    weights = {_edge_weight(cd, rng, 4) for _ in range(40)}
    weights.update(cd.normalize(oracles.random_weight(cd, rng, l_span=2,
                                                      m_span=3))[1]
                   for _ in range(80))
    by_int = sorted(weights, key=lambda mu: layout.pack(mu.l, mu.m))
    assert by_int == sorted(weights, key=lambda mu: (cd.level(mu), mu.l, mu.m))


def test_table_build_reflects_no_weight_in_cocycle(monkeypatch):
    # the solver moves packed keys only: no cartan.reflect or normalize call
    # comes from cocycle during a table build (the Weight walk made one of
    # each per new (label, key) pair of its memo)
    calls = []
    for name in ("reflect", "normalize"):
        fn = getattr(AffineCartanData, name)

        def counted(self, *args, fn=fn, name=name):
            if sys._getframe(1).f_globals["__name__"] == cocycle.__name__:
                calls.append(name)
            return fn(self, *args)

        monkeypatch.setattr(AffineCartanData, name, counted)
    oracles.layer_table(from_type("A3~"), 4)
    oracles.layer_table(from_type("C2~"), 3)
    assert calls == []


def test_table_build_makes_no_weight_in_kring_or_cocycle(monkeypatch):
    # every key of kring and the solver is a packed int: an A3~ <= 4 build
    # makes no Weight from inside kring, keys or cocycle (Weights come only
    # from the Weyl group's own words and the descent factors' weights)
    made = []
    init = Weight.__init__

    def counted(self, *args):
        module = sys._getframe(1).f_globals["__name__"]
        if module in (kring.__name__, keys_mod.__name__, cocycle.__name__):
            made.append(module)
        init(self, *args)

    monkeypatch.setattr(Weight, "__init__", counted)
    table, _ = oracles.layer_table(from_type("A3~"), 4)
    assert len(table.entries) == 69 and made == []


def _orbit(cd, mu):
    """The keys normalize(x mu), x in W: a support closed under every s_i."""
    support, frontier = set(), [mu]
    while frontier:
        mu = frontier.pop()
        if mu not in support:
            support.add(mu)
            frontier.extend(cd.normalize(cd.reflect(i, mu))[1]
                            for i in cd.labels)
    return support


def _packed(cd, v):
    """(layout, packed family) for the family v: every v_i as {key: CoefQ}
    on the narrowest layout."""
    layout = keys_mod.key_layout(cd, keys_mod.KEY_BITS)
    v = cocycle._family(cd, v)
    return layout, [{layout.pack(mu.l, mu.m): c
                     for mu, c in v[i].terms.items()} for i in cd.labels]


def test_walk_refuses_open_gain_one_cycle():
    # the gain graph on the four C2~ keys of the orbit of a1 has cycles of
    # gain q^{+-1}, which fix t, and one of gain 1 (k = 0), which for
    # v_2 = (1 - s_2)e^{a1} alone reads 0 = c with c != 0
    cd = from_type("C2~")
    support = _orbit(cd, cd.alpha(1))
    assert len(support) == 4
    b = monomial(cd, cd.alpha(1))
    layout, v = _packed(cd, {2: b - reflect_act(cd, 2, b)})
    support = {layout.pack(mu.l, mu.m) for mu in support}
    assert cocycle._solve_on_support(layout, v, support, False) is None


def test_walk_sets_unpinned_root_to_zero():
    # the zero weight is fixed by every s_i, so its component has no check
    cd = from_type("A1~")
    layout, v = _packed(cd, {})
    support = {layout.offset}  # the zero weight
    assert cocycle._solve_on_support(layout, v, support, False) == {}


def test_cocycle_check_only_names_failures(monkeypatch):
    # a successful solve never runs check_cocycle: a coboundary is a cocycle
    def refused(cd, v):
        raise AssertionError("check_cocycle ran on a successful solve")

    monkeypatch.setattr(cocycle, "check_cocycle", refused)
    cd = from_type("C2~")
    table = GrothTable(cd)
    for layer in weyl.enumerate_up_to(cd, 3):
        for w in layer:
            table.compute(w)


def test_non_cocycle_with_consistent_system_raises_violation(monkeypatch):
    # v_1 = e^{L1} breaks (1 + s_1)v_1 = 0, yet the one-equation-per-orbit
    # system is consistent in every growth round; the re-check rejects each
    # solution, and the error names the cocycle violation, not the solver
    consistent = []
    solve = cocycle._solve_on_support

    def recorded(*args):
        sol = solve(*args)
        consistent.append(sol is not None)
        return sol

    monkeypatch.setattr(cocycle, "_solve_on_support", recorded)
    cd = from_type("A1~")
    v = {1: monomial(cd, cd.Lam(1))}
    with pytest.raises(CocycleViolation):
        solve_coboundary(cd, v, (-1, 1))
    assert consistent and all(consistent)


def test_recheck_sees_keys_only_s_i_B_reaches(monkeypatch):
    # B = e^{L1} against v_1 = e^{L1}: the equations at L1 hold for both
    # labels (s_0 fixes L1), and the residual -e^{L1 - a1} lies only on
    # s_1(supp B), outside supp B and supp v_1
    cd = from_type("A1~")
    lam = cd.Lam(1)
    monkeypatch.setattr(cocycle, "_solve_on_support",
                        lambda layout, *args: {layout.pack(lam.l, lam.m): ONE})
    with pytest.raises(CocycleViolation):
        solve_coboundary(cd, {1: monomial(cd, lam)}, (-1, 1))


def _corrupt_changed(cd, layout, v, sol, support):
    mu = next(iter(sol))
    sol[mu] = sol[mu] + ONE


def _corrupt_dropped(cd, layout, v, sol, support):
    # a key of no v_i whose s_i-partner carries a term: once dropped, the key
    # lies only in s_i(supp B)
    for mu in sol:
        if any(mu in vi for vi in v):
            continue
        for _, sig in layout.reflections(mu):
            if sig != mu and sig in sol:
                del sol[mu]
                return
    raise AssertionError("no key to drop")


def _corrupt_extra(cd, layout, v, sol, support):
    far = cd.normalize(7 * cd.Lam(1) - 7 * cd.Lam(0))[1]
    far = layout.pack(far.l, far.m)
    assert far not in support
    sol[far] = ONE


@pytest.mark.parametrize("corrupt", [_corrupt_changed, _corrupt_dropped,
                                     _corrupt_extra],
                         ids=["changed", "dropped", "extra"])
def test_recheck_rejects_wrong_solution(monkeypatch, corrupt):
    # the descent family of G_{s_0 s_1} in A2~ is a coboundary whose B has a
    # term at a key of no v_i; every round's system is consistent, so a
    # solve whose solutions are all wrong can only run out of rounds
    cd = from_type("A2~")
    table = GrothTable(cd)
    w = weyl.canonicalize(cd, (0, 1))
    J = weyl.right_descents(w)
    rho_J = cd.rho_J(J)
    v = {i: (monomial(cd, rho_J) * (k_one(cd) - monomial(cd, -cd.alpha(i)))
             * table.compute(weyl.mul_gen(w, i))) for i in J}
    lev = cd.level(rho_J)
    window = (lev - cd.dual_coxeter, lev)
    solve = cocycle._solve_on_support
    corrupted = []

    def wrong(layout, v, support, order_reversed):
        sol = solve(layout, v, support, order_reversed)
        corrupt(cd, layout, v, sol, support)
        corrupted.append(sol)
        return sol

    monkeypatch.setattr(cocycle, "_solve_on_support", wrong)
    with pytest.raises(SupportGrowthExceeded):
        solve_coboundary(cd, v, window)
    assert len(corrupted) == cocycle.MAX_GROW


def test_recheck_survives_optimize(subprocess_env):
    # the re-check is plain control flow, not an assert
    code = ("from affgroth import cocycle\n"
            "from affgroth.cartan import from_type\n"
            "from affgroth.coefq import ONE\n"
            "from affgroth.errors import SupportGrowthExceeded\n"
            "from affgroth.kring import monomial, reflect_act\n"
            "cd = from_type('A1~')\n"
            "b = monomial(cd, cd.alpha(1))\n"
            "v = {i: b - reflect_act(cd, i, b) for i in cd.labels}\n"
            "solve = cocycle._solve_on_support\n"
            "def wrong(*args):\n"
            "    sol = solve(*args)\n"
            "    mu = next(iter(sol))\n"
            "    sol[mu] = sol[mu] + ONE\n"
            "    return sol\n"
            "cocycle._solve_on_support = wrong\n"
            "try:\n"
            "    print(cocycle.solve_coboundary(cd, v, (-2, 0)))\n"
            "except SupportGrowthExceeded:\n"
            "    print('SupportGrowthExceeded')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=subprocess_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "SupportGrowthExceeded"
