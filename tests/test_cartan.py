"""Cartan data: built-in families, GCM validation, derived quantities."""

import itertools
import time

import pytest

from affgroth import cartan
from affgroth.cartan import (MAX_TYPE_N, _automorphisms, _gcm_a,
                             _is_positive_root_of_subsystem, build_cartan,
                             cartan_from_json, cartan_to_json, from_type)
from affgroth.errors import BadLabel, BadShape, NonQInput, NotAffine
from affgroth.coefq import ONE
from affgroth.groth import GrothTable
from affgroth.kring import eta_embed, monomial
from affgroth import weyl
from affgroth.weights import Weight

import oracles


def test_a1_tilde():
    cd = from_type("A1~")
    assert cd.gcm == ((2, -2), (-2, 2))
    assert cd.marks == (1, 1)
    assert cd.comarks == (1, 1)
    assert cd.dual_coxeter == 2
    assert cd.node0 == 0
    assert cd.untwisted
    assert cd.orders[(0, 1)] is None  # infinite dihedral


def test_a_family_cycle():
    for n in (2, 3, 4):
        cd = from_type("A%d~" % n)
        assert cd.rank == n + 1
        assert cd.marks == (1,) * (n + 1)
        assert cd.comarks == (1,) * (n + 1)
        assert cd.dual_coxeter == n + 1
        assert all(di == 1 for di in cd.d)
        # cycle adjacency
        for i in range(n + 1):
            assert cd.gcm[i][(i + 1) % (n + 1)] == -1
        assert cd.untwisted


def test_c_family():
    cd = from_type("C2~")
    assert cd.gcm == ((2, -1, 0), (-2, 2, -2), (0, -1, 2))
    assert cd.marks == (1, 2, 1)
    assert cd.comarks == (1, 1, 1)
    assert cd.dual_coxeter == 3
    assert cd.untwisted
    cd3 = from_type("C3~")
    assert cd3.marks == (1, 2, 2, 1)
    assert cd3.comarks == (1, 1, 1, 1)
    assert cd3.dual_coxeter == 4
    assert cd3.orders[(0, 1)] == 4
    assert cd3.orders[(1, 2)] == 3
    assert cd3.orders[(0, 2)] == 2


def test_built_in_matrices_pinned():
    assert from_type("C3~").gcm == ((2, -1, 0, 0),
                                    (-2, 2, -1, 0),
                                    (0, -1, 2, -2),
                                    (0, 0, -1, 2))
    assert from_type("C4~").gcm == ((2, -1, 0, 0, 0),
                                    (-2, 2, -1, 0, 0),
                                    (0, -1, 2, -1, 0),
                                    (0, 0, -1, 2, -2),
                                    (0, 0, 0, -1, 2))
    assert from_type("D5~").gcm == ((2, 0, -1, 0, 0, 0),
                                    (0, 2, -1, 0, 0, 0),
                                    (-1, -1, 2, -1, 0, 0),
                                    (0, 0, -1, 2, -1, -1),
                                    (0, 0, 0, -1, 2, 0),
                                    (0, 0, 0, -1, 0, 2))
    assert from_type("D6~").gcm == ((2, 0, -1, 0, 0, 0, 0),
                                    (0, 2, -1, 0, 0, 0, 0),
                                    (-1, -1, 2, -1, 0, 0, 0),
                                    (0, 0, -1, 2, -1, 0, 0),
                                    (0, 0, 0, -1, 2, -1, -1),
                                    (0, 0, 0, 0, -1, 2, 0),
                                    (0, 0, 0, 0, -1, 0, 2))


def test_d4_tilde():
    cd = from_type("D4~")
    assert cd.rank == 5
    assert cd.marks == (1, 1, 2, 1, 1)
    assert cd.comarks == (1, 1, 2, 1, 1)
    assert cd.dual_coxeter == 6
    # node 2 is the hub
    for leaf in (0, 1, 3, 4):
        assert cd.gcm[leaf][2] == -1
        assert cd.gcm[2][leaf] == -1
    assert cd.gcm[0][1] == 0


def test_from_type_rejects():
    for bad in ("B2~", "A0~", "C1~", "D3~", "A2", "garbage"):
        with pytest.raises(BadShape):
            from_type(bad)


def test_build_rejects_finite():
    with pytest.raises(NotAffine):
        build_cartan([[2, -1], [-1, 2]])


def test_build_rejects_indefinite():
    with pytest.raises(NotAffine):
        build_cartan([[2, -3], [-3, 2]])


def test_build_size_ceiling(monkeypatch):
    # A130~ given as a matrix ran 16 s in the null-space elimination while
    # --type A130~ was refused at once; a size above MAX_TYPE_N + 1 is now
    # refused before any elimination, and MAX_TYPE_N + 1 still reaches it
    class Reached(Exception):
        pass

    def reached(rows):
        raise Reached

    monkeypatch.setattr(cartan, "_nullspace", reached)
    with pytest.raises(Reached):
        build_cartan(_gcm_a(MAX_TYPE_N))
    for n in (MAX_TYPE_N + 1, 130):
        with pytest.raises(BadShape) as ei:
            build_cartan(_gcm_a(n))
        assert str(ei.value) == ("matrix of size %d is above the largest "
                                 "size, %d" % (n + 1, MAX_TYPE_N + 1))


def test_build_rejects_shape():
    with pytest.raises(BadShape):
        build_cartan([[2, -1], [-1, 2], [0, 0]])
    with pytest.raises(BadShape):
        build_cartan([[1, -1], [-1, 2]])
    with pytest.raises(BadShape):
        build_cartan([[2, 1], [-1, 2]])
    with pytest.raises(BadShape):
        build_cartan([[2, 0], [-1, 2]])
    # entries must be plain ints: no floats, strings or bools coerced
    for gcm in ([[2, -2.7], [-2, 2]], [[2.9, -2], [-2, 2]],
                [[2.0, -2], [-2, 2]], [["2", -2], [-2, "2"]],
                [[2, False], [False, 2]],
                [2, 2], None):
        with pytest.raises(BadShape):
            build_cartan(gcm)


def test_twisted_flagged():
    cd = build_cartan([[2, -4], [-1, 2]])
    assert not cd.untwisted
    assert cd.marks == (2, 1)
    assert cd.comarks == (1, 2)
    assert cd.node0 == 1


def test_pairing_and_level():
    cd = from_type("A2~")
    for i in cd.labels:
        for j in cd.labels:
            assert cd.pairing(i, cd.alpha(j)) == cd.gcm[i][j]
            assert cd.pairing(i, cd.Lam(j)) == (1 if i == j else 0)
    assert cd.level(cd.rho()) == cd.dual_coxeter
    assert cd.level(cd.delta()) == 0
    assert cd.level(cd.Lam(0)) == cd.comarks[0]


def test_delta_pairs_to_zero():
    for t in ("A1~", "A3~", "C2~", "C3~", "D4~"):
        cd = from_type(t)
        d = cd.delta()
        assert all(cd.pairing(i, d) == 0 for i in cd.labels)
        assert cd.reflect(0, d) == d


def test_reflect_involution():
    cd = from_type("C2~")
    rng = oracles.rng_for("cartan-reflect")
    for _ in range(30):
        w = oracles.random_weight(cd, rng)
        for i in cd.labels:
            assert cd.reflect(i, cd.reflect(i, w)) == w


def test_bilinear_invariance():
    # (s_i x, s_i y) = (x, y); checked on random pairs
    for t in ("A2~", "C2~", "D4~"):
        cd = from_type(t)
        rng = oracles.rng_for("cartan-bilinear-" + t)
        for _ in range(15):
            x = oracles.random_weight(cd, rng)
            y = oracles.random_weight(cd, rng)
            assert cd.bilinear(x, y) == cd.bilinear(y, x)
            for i in cd.labels:
                assert cd.bilinear(cd.reflect(i, x), cd.reflect(i, y)) \
                    == cd.bilinear(x, y)


def test_bilinear_on_roots():
    cd = from_type("C2~")
    for i in cd.labels:
        ai = cd.alpha(i)
        assert cd.bilinear(ai, ai) == 2 * cd.d[i]
    assert cd.bilinear(cd.delta(), cd.delta()) == 0


def test_normalize():
    cd = from_type("A2~")
    mu = cd.Lam(1) - cd.alpha(0) + 2 * cd.alpha(2)
    n, nu = cd.normalize(mu)
    assert nu.m[cd.node0] == 0
    assert nu + n * cd.delta() == mu
    assert cd.normalize(cd.delta()) == (1, oracles.zero_weight(cd))


def test_eta():
    # eta lives on packed keys now (kring.eta_embed): eta(b) has zero
    # pairings and b's alpha-coordinates, and a Lambda-part is refused
    cd = from_type("A2~")
    b = cd.alpha(1) - cd.alpha(2)
    (eb, c), = eta_embed(monomial(cd, b)).terms.items()
    assert all(cd.pairing(i, eb) == 0 for i in cd.labels)
    assert eb.m == b.m and c == ONE
    with pytest.raises(NonQInput):
        eta_embed(monomial(cd, cd.Lam(0)))


def test_check_node():
    cd = from_type("A1~")
    with pytest.raises(BadLabel):
        cd.check_node(2)
    with pytest.raises(BadLabel):
        cd.alpha(-1)


def test_classical_positive_roots():
    # the root test that picks node0 and the untwisted flag: for untwisted
    # data every classical positive root lies below theta coordinatewise
    for t, count in (("A2~", 3), ("A3~", 6), ("C2~", 4), ("C3~", 9),
                     ("D4~", 12)):
        cd = from_type(t)
        nodes = cd.classical_nodes()
        box = [range(mk + 1) if j in nodes else (0,)
               for j, mk in enumerate(cd.marks)]
        roots = [b for b in itertools.product(*box)
                 if _is_positive_root_of_subsystem(cd.gcm, nodes, b)]
        assert len(roots) == count, t
        assert (cd.delta() - cd.alpha(cd.node0)).m in roots


def _transpose(gcm):
    return [list(r) for r in zip(*gcm)]


def test_untwisted_flag():
    # untwisted iff theta is the highest root of the classical subsystem
    for t in ("A1~", "A2~", "A3~", "A5~", "C2~", "C3~", "C5~", "D4~", "D5~",
              "D7~"):
        assert from_type(t).untwisted, t
    flags = {name: build_cartan(gcm).untwisted
             for name, gcm in oracles.CUSTOM_GCMS}
    assert flags == {"D4^(3)": False, "G2~": True, "A2^(2)": False,
                     "A4^(2)": False}
    # the transpose of C2~ is the twisted D3^(2)
    c2 = from_type("C2~").gcm
    assert not build_cartan(_transpose(c2)).untwisted


def test_untwisted_against_root_oracle():
    # the flag is read off root lengths; the oracle asks the roots whether
    # theta is one and no theta + alpha_j is
    data = [from_type("%s%d~" % (fam, n))
            for fam, lo in (("A", 1), ("C", 2), ("D", 4))
            for n in range(lo, 13)]
    data += [build_cartan(g) for _, gcm in oracles.CUSTOM_GCMS
             for g in (gcm, _transpose(gcm))]
    data += [build_cartan(_transpose(from_type("C%d~" % n).gcm))
             for n in range(2, 13)]
    flags = [cd.untwisted for cd in data]
    assert flags == [oracles.untwisted_by_roots(cd) for cd in data]
    assert flags.count(False) == 6 + 11


def test_one_root_search_per_built_in_build(monkeypatch):
    # theta = delta - alpha_0 is a root of every built-in type, so the
    # search that picks node0 also decides the untwisted flag
    searches = oracles.count_calls(monkeypatch, cartan,
                                   "_is_positive_root_of_subsystem")
    for fam, lo in (("A", 1), ("C", 2), ("D", 4)):
        for n in (lo, lo + 1, 7, 12, 30):
            before = searches[0]
            from_type("%s%d~" % (fam, n))
            assert searches[0] - before == 1, (fam, n)


def test_typed_header_builds_once(tmp_path, monkeypatch):
    # the type string is checked against the built-in matrix, not against
    # a second build; a load given its data builds the file's once too
    cd = from_type("D5~")
    obj = cartan_to_json(cd)
    path = str(tmp_path / "d5.json")
    GrothTable(cd).save(path)
    builds = oracles.count_calls(monkeypatch, cartan, "build_cartan")
    assert cartan_from_json(obj).type_string == "D5~"
    assert builds[0] == 1
    assert GrothTable.load(path).cd == cd
    assert GrothTable.load(path, cd=cd).cd is cd
    assert builds[0] == 3


def test_theta():
    cd = from_type("C2~")
    th = cd.delta() - cd.alpha(cd.node0)
    # highest root of the classical subsystem, at node0 coordinate 0
    assert th.m == (0, 2, 1)
    assert cd.level(th) == 0


def test_json_round_trip():
    for t in ("A1~", "A2~", "C3~", "D4~"):
        cd = from_type(t)
        cd2 = cartan_from_json(cartan_to_json(cd))
        assert cd2 == cd
        assert cd2.type_string == cd.type_string
    anon = build_cartan([[2, -2], [-2, 2]])
    assert cartan_from_json(cartan_to_json(anon)) == anon


@pytest.mark.parametrize("label", ["C7~", "A2~", "C1~", "A99999999~", "A1",
                                   ""])
def test_json_type_must_name_the_matrix(label):
    # the A1~ matrix under another label loaded as AffineCartanData(C7~),
    # equal to from_type("A1~") because equality compares only the matrix
    obj = cartan_to_json(from_type("A1~"))
    obj["type"] = label
    with pytest.raises(ValueError):
        cartan_from_json(obj)
    assert cartan_from_json(cartan_to_json(from_type("A1~"))).type_string == "A1~"


def test_rho_j():
    cd = from_type("A2~")
    assert cd.rho_J(()) == oracles.zero_weight(cd)
    assert cd.rho_J((0, 2)) == cd.Lam(0) + cd.Lam(2)
    assert cd.rho_J(cd.labels) == cd.rho()
    with pytest.raises(BadLabel):
        cd.rho_J((5,))


# --- diagram automorphisms ----------------------------------------------------

@pytest.mark.parametrize("type_string,order", [
    ("A1~", 2), ("A2~", 6), ("A3~", 8), ("A4~", 10), ("A7~", 16),
    ("C2~", 2), ("C3~", 2), ("C5~", 2), ("D4~", 24), ("D5~", 8), ("D6~", 8),
    ("D9~", 8)])
def test_automorphism_group_orders(type_string, order):
    cd = from_type(type_string)
    auts = cd.automorphisms()
    assert len(auts) == len(set(auts)) == order
    assert auts[0] == cd.labels
    for p in auts:
        assert sorted(p) == list(cd.labels)
        assert all(cd.gcm[p[i]][p[j]] == cd.gcm[i][j]
                   for i in cd.labels for j in cd.labels)


def _random_pattern(rng, n):
    """A matrix with diagonal 2 and a symmetric zero pattern whose two
    entries at an edge are drawn independently from -1, -2: affine or not,
    it has every symmetry the search must find or refuse."""
    gcm = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < 0.6:
            gcm[i][j], gcm[j][i] = rng.choice((-1, -2)), rng.choice((-1, -2))
    return gcm


def test_automorphisms_against_all_permutations():
    rng = oracles.rng_for("cartan-automorphisms")
    patterns = [_random_pattern(rng, n) for n in (3, 4, 5) for _ in range(40)]
    for gcm in [from_type(t).gcm for t in ("A4~", "C3~", "D5~")] + [
            g for _, g in oracles.CUSTOM_GCMS] + patterns:
        n = len(gcm)
        want = tuple(sorted(
            p for p in itertools.permutations(range(n))
            if all(gcm[p[i]][p[j]] == gcm[i][j]
                   for i in range(n) for j in range(n))))
        assert _automorphisms(gcm) == want


@pytest.mark.parametrize("name,gcm", oracles.CUSTOM_GCMS,
                         ids=[n for n, _ in oracles.CUSTOM_GCMS])
def test_custom_gcms_have_no_automorphism(name, gcm):
    cd = build_cartan(gcm)
    assert cd.automorphisms() == (cd.labels,)


def test_automorphism_search_is_not_factorial():
    # 61 nodes: a search through the permutations would never finish
    gcm = _gcm_a(60)
    t0 = time.perf_counter()
    auts = _automorphisms(gcm)
    assert time.perf_counter() - t0 < 0.5
    assert len(auts) == 122


def test_automorphisms_found_on_first_use(tmp_path):
    # neither building the data nor loading a table pays for the search
    cd = from_type("A3~")
    assert cd._automorphisms is None
    table = GrothTable(cd)
    table.compute(weyl.canonicalize(cd, (1, 0)))
    assert cd._automorphisms is not None
    assert cd.automorphisms() is cd.automorphisms()
    path = str(tmp_path / "a3.json")
    table.save(path)
    assert GrothTable.load(path).cd._automorphisms is None
    assert GrothTable.load(path, cd=from_type("A3~")).cd._automorphisms is None


@pytest.mark.parametrize("label", ["A101~", "C101~", "D101~",
                                   "A99999999999~"])
def test_type_above_ceiling_is_bad_shape(label):
    with pytest.raises(BadShape, match="largest built-in n"):
        from_type(label)
