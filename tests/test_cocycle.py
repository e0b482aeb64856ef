"""Cocycle conditions and the coboundary solver."""

import subprocess
import sys

import pytest

from affgroth.cartan import from_type
from affgroth.cocycle import check_cocycle, solve_coboundary
from affgroth.errors import CocycleViolation, Inconsistent, WindowViolation
from affgroth.kring import in_window, k_zero, monomial, reflect_act

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


def test_precheck_raises():
    cd = from_type("A1~")
    bad = {1: monomial(cd, cd.Lam(1) - cd.Lam(0))}
    with pytest.raises(CocycleViolation):
        solve_coboundary(cd, bad, (-1, 1), precheck=True)


def test_precheck_survives_optimize(subprocess_env):
    # the precheck is on by default, also when asserts are compiled out
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


def test_inconsistent_without_precheck():
    cd = from_type("A1~")
    bad = {1: monomial(cd, cd.Lam(1) - cd.Lam(0))}
    with pytest.raises(Inconsistent):
        solve_coboundary(cd, bad, (-1, 1), precheck=False)


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
