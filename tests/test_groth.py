"""The descent recursion, its verification battery, and table persistence."""

import hashlib
import json

import pytest

from affgroth.cartan import build_cartan, cartan_to_json, from_type
from affgroth.coefq import CoefQ
from affgroth.errors import CacheMismatch
from affgroth.groth import GrothTable, grothendieck
from affgroth.kring import (in_window, j_map, k_one, k_zero, monomial, psi,
                            to_json)
from affgroth.weights import Weight, weight_to_json
from affgroth import (coefq, groth as groth_mod, keys as keys_mod,
                      probes as probes_mod, qpoly, weyl)

import oracles


def simple_expected(cd, i):
    return k_one(cd) - monomial(cd, -cd.Lam(i))


def test_identity_entry():
    cd = from_type("A2~")
    assert grothendieck(cd, ()) == k_one(cd)
    assert grothendieck(cd, (1, 1)) == k_one(cd)  # non-reduced word


def test_simple_reflections():
    for t in ("A1~", "A2~", "C2~", "D4~"):
        cd = from_type(t)
        for i in cd.labels:
            assert grothendieck(cd, (i,)) == simple_expected(cd, i)


def test_commuting_products():
    cd = from_type("A3~")
    expect = simple_expected(cd, 0) * simple_expected(cd, 2)
    assert grothendieck(cd, (0, 2)) == expect
    assert grothendieck(cd, (2, 0)) == expect
    cd = from_type("C3~")
    assert grothendieck(cd, (0, 2)) == \
        simple_expected(cd, 0) * simple_expected(cd, 2)


def test_word_order_independent():
    cd = from_type("A2~")
    assert grothendieck(cd, (0, 1, 0)) == grothendieck(cd, (1, 0, 1))


def test_window():
    cd = from_type("A1~")
    table = GrothTable(cd)
    for word in ((), (0,), (1, 0), (0, 1, 0)):
        g = table.compute(weyl.canonicalize(cd, word))
        assert in_window(g, -cd.dual_coxeter, 0)


def test_identity_localization_vanishes():
    cd = from_type("A2~")
    table = GrothTable(cd)
    e = weyl.identity(cd)
    for word in ((0,), (1, 0), (0, 1, 0)):
        g = table.compute(weyl.canonicalize(cd, word))
        assert j_map(e, g).is_zero()


def test_psi_inverse_relation():
    cd = from_type("A2~")
    table = GrothTable(cd)
    w = weyl.canonicalize(cd, (0, 1))
    assert psi(table.compute(w)) == table.compute(weyl.inverse(w))


def test_verify_battery():
    cd = from_type("A1~")
    table = GrothTable(cd)
    for word in ((), (1,), (0, 1), (1, 0, 1)):
        w = weyl.canonicalize(cd, word)
        assert table.verify(w) == []
        assert w in table.verified


def test_verify_partial_checks_not_recorded():
    cd = from_type("A1~")
    table = GrothTable(cd)
    w = weyl.canonicalize(cd, (0,))
    assert table.verify(w, checks=("window", "ring")) == []
    assert w not in table.verified


def test_verify_subset_reads_no_further_entries():
    # G_{w^-1} is read only for the psi check: a window check of
    # w = s_1 s_0 leaves the entries compute(w) made, s_0 s_1 not among them
    cd = from_type("A2~")
    w = weyl.canonicalize(cd, (1, 0))
    made = GrothTable(cd)
    made.compute(w)
    table = GrothTable(cd)
    assert table.verify(w, checks=("window",)) == []
    assert set(table.entries) == set(made.entries)
    assert weyl.inverse(w) not in table.entries


@pytest.mark.parametrize("checks", [("localisation",), ("window", "Ring"),
                                    "window", "demazure,ring"],
                         ids=["unknown", "miscased", "bare-name", "comma-str"])
def test_verify_rejects_bad_checks(checks):
    cd = from_type("A1~")
    table = GrothTable(cd)
    w = weyl.canonicalize(cd, (1,))
    with pytest.raises(ValueError) as ei:
        table.verify(w, checks=checks)
    if isinstance(checks, str):
        assert "string" in str(ei.value)
    else:
        assert repr(checks[-1]) in str(ei.value)
    assert w not in table.verified


@pytest.mark.parametrize("name,gcm", oracles.CUSTOM_GCMS,
                         ids=[n for n, _ in oracles.CUSTOM_GCMS])
def test_custom_gcm_battery(name, gcm):
    # all five checks on every element to length 3 of data given by a matrix
    cd = build_cartan(gcm)
    table = GrothTable(cd)
    for layer in weyl.enumerate_up_to(cd, 3):
        for w in layer:
            assert table.verify(w) == [], (name, w.word)
            assert w in table.verified


_BILLEY_DATA = [("A1~", 6), ("A2~", 4), ("C2~", 4)] + [
    (name, 4) for name, _ in oracles.CUSTOM_GCMS]


@pytest.mark.parametrize("name,max_length", _BILLEY_DATA,
                         ids=["%s-%d" % d for d in _BILLEY_DATA])
def test_localization_rows_match_billey_formula(name, max_length):
    # every localization value j_x(G_w), zeros included, against the
    # closed form: whole rows x over every w of the table
    gcms = dict(oracles.CUSTOM_GCMS)
    cd = build_cartan(gcms[name]) if name in gcms else from_type(name)
    table, elems = oracles.layer_table(cd, max_length)
    zero = k_zero(cd)
    for x in elems:
        row = oracles.billey_row(cd, x)
        assert set(row) <= set(elems)
        for w in elems:
            assert j_map(x, table.entries[w]) == row.get(w, zero), (
                name, x.word, w.word)


def test_verify_catches_corruption():
    cd = from_type("A1~")
    table = GrothTable(cd)
    w = weyl.canonicalize(cd, (1, 0))
    table.compute(w)
    table.entries[w] = table.entries[w] + k_one(cd)
    fails = table.verify(w, probe_length=2)
    assert fails
    assert any("demazure" in f for f in fails)
    assert any("localization" in f for f in fails)
    assert w not in table.verified


def test_verify_catches_edited_coefficient_in_loaded_table(tmp_path):
    # one numerator coefficient of one saved G_w changed by one: the
    # vanishing probes (the exact zero test) must still see it
    cd = from_type("A2~")
    table = GrothTable(cd)
    w = weyl.canonicalize(cd, (1, 0))
    for layer in weyl.enumerate_up_to(cd, 3):
        for u in layer:
            table.compute(u)
    assert table.verify(w, checks=("localization",)) == []
    path = tmp_path / "a2.json"
    table.save(str(path))
    obj = json.loads(path.read_text())
    entry = next(e for e in obj["entries"] if e["word"] == list(w.word))
    term = max(entry["terms"], key=lambda t: len(t["den_coeffs"]))
    assert len(term["den_coeffs"]) > 1  # a term with a (1 - q^k) denominator
    term["num_coeffs"][0][1] += 1
    loaded = GrothTable.from_json_obj(obj, cd=cd)
    fails = loaded.verify(w, checks=("localization",))
    assert "localization: j_x nonzero at word ()" in fails, fails
    probes = [f for f in fails if "j_x nonzero" in f]
    assert len(probes) == sum(1 for layer in weyl.enumerate_up_to(cd, 3)
                              for x in layer if not weyl.bruhat_leq(w, x))
    assert w not in loaded.verified


def test_ring_check_once_per_denominator(tmp_path, monkeypatch):
    # the ring membership test is make's factorization at load, run once
    # per distinct denominator of the file (the misses of its cache);
    # verify's ring check passes on every entry, whose coefficients lie in
    # R by construction.  A denominator outside R stops the load at its
    # first term, once, when two keys share it, after one factorization of
    # each denominator before it
    factor = coefq.cyclotomic_exponents
    calls = []

    def counted(den):
        calls.append(den)
        return factor(den)

    monkeypatch.setattr(coefq, "cyclotomic_exponents", counted)
    cd = from_type("A2~")
    table = GrothTable(cd)
    for layer in weyl.enumerate_up_to(cd, 3):
        for w in layer:
            table.compute(w)
            assert table.verify(w, checks=("ring",)) == []
    path = tmp_path / "a2.json"
    table.save(str(path))
    factor.cache_clear()
    del calls[:]
    assert GrothTable.load(str(path), cd=cd).entries == table.entries
    dens = {c.den for g in table.entries.values() for c in g.terms.values()}
    assert set(calls) == dens and factor.cache_info().misses == len(dens)
    w = weyl.canonicalize(cd, (1,))
    good = CoefQ.make((1,), den=(1, 0, -1))
    bad = [[0, 1], [1, 1], [3, 1]]  # 1 + q + q^3, outside R
    keys = [cd.Lam(i) - cd.Lam(0) for i in (0, 1, 2)] + [cd.alpha(1)]
    terms = [{"weight": weight_to_json(mu), "num_coeffs": num,
              "den_coeffs": den}
             for mu, num, den in zip(keys, ([[0, 1]], [[0, 1]], [[0, 1]],
                                            [[1, 1]]),
                                     (good.den_pairs(), bad,
                                      good.den_pairs(), bad))]
    obj = json.loads(path.read_text())
    obj["entries"] = [e for e in obj["entries"] if len(e["word"]) < 2]
    next(e for e in obj["entries"] if e["word"] == [1])["terms"] = terms
    factor.cache_clear()
    del calls[:]
    with pytest.raises(CacheMismatch, match="malformed cache: ValueError "
                       "denominator of degree 3 .*outside R"):
        GrothTable.from_json_obj(obj, cd=cd)
    assert list(dict.fromkeys(calls)) == [(1,), good.den, (1, 1, 0, 1)]
    assert calls[-1] == (1, 1, 0, 1) and factor.cache_info().misses == 3


def test_probe_work_pinned(monkeypatch):
    # verify's vanishing probes reach each probe by one Weyl letter per term
    # from the probe one letter shorter; the identity, a probe of every
    # w != e, takes its images from the terms as they stand.  A change that
    # re-walks whole words moves more images and fails here
    moved = 0
    reflect = probes_mod._reflect_images

    def counted(step, ks, es):
        nonlocal moved
        moved += len(ks)
        return reflect(step, ks, es)

    monkeypatch.setattr(probes_mod, "_reflect_images", counted)
    cd = from_type("A2~")
    e = weyl.identity(cd)
    table = GrothTable(cd)
    images = 0
    for layer in weyl.enumerate_up_to(cd, 4):
        for w in layer:
            terms = len(table.compute(w))
            before = moved
            assert table.verify(w, checks=("localization",)) == []
            probes = [x for u in weyl.enumerate_up_to(cd, w.length + 1)
                      for x in u if not weyl.bruhat_leq(w, x)]
            assert (e in probes) == bool(w.length)
            built = moved - before + (terms if probes else 0)
            assert built == len(probes) * terms, w.word
            images += built
    assert images == 25266


def _count_full_runs(monkeypatch):
    """A one-item list counting verify's runs of the localization check:
    each decides its vanishing probes in one nonvanishing_probes call."""
    runs = [0]
    probes = groth_mod.nonvanishing_probes

    def counted(*args):
        runs[0] += 1
        return probes(*args)

    monkeypatch.setattr(groth_mod, "nonvanishing_probes", counted)
    return runs


def test_verify_work_pinned(monkeypatch):
    # the full check set runs once per diagram-automorphism orbit of the
    # elements verified (each run decides its vanishing probes in one
    # nonvanishing_probes call); the other entries pass by transport.  A
    # check subset runs in full on every entry
    runs = _count_full_runs(monkeypatch)
    for t, max_length, orbits in (("A2~", 4, 8), ("C2~", 4, 17),
                                  ("A3~", 3, 8)):
        table, elems = oracles.layer_table(from_type(t), max_length + 1)
        todo = [w for w in elems if w.length <= max_length]
        runs[0] = 0
        for w in todo:
            assert table.verify(w, checks=("localization",)) == []
        assert runs[0] == len(todo), t
        runs[0] = 0
        for w in todo:
            assert table.verify(w) == []
            assert w in table.verified
        assert runs[0] == orbits, t


def test_gcd_work_pinned(monkeypatch):
    # CoefQ runs each distinct cancellation and lcm once, and no gcd:
    # building A1~ to length 12 runs 702 distinct Phi_n cancellations and
    # 294 distinct unordered denominator pairs in sums, and factors 12
    # polynomials (the solver's inverses of q^a - q^b); A3~ to length 4
    # runs 32, 12 and 6.  A change that cancels or factors more often, or
    # that runs a gcd, fails here
    caches = (coefq._reduced, coefq._den_lcm, coefq.cyclotomic_exponents)
    gcds = oracles.count_calls(monkeypatch, qpoly, "pgcd")
    for t, max_length in (("A1~", 12), ("A3~", 4)):
        for cache in caches:
            cache.cache_clear()
        oracles.layer_table(from_type(t), max_length)
        assert gcds[0] == 0, t
        misses = [cache.cache_info().misses for cache in caches]
        assert misses == {"A1~": [702, 294, 12], "A3~": [32, 12, 6]}[t]


def test_load_decodes_each_distinct_value_once(tmp_path, monkeypatch):
    # one load decodes each distinct (num_coeffs, den_coeffs) once, and
    # equal weights share one packed key: a saved A3~ <= 4 table repeats a few
    # hundred weights and a few dozen coefficients over 2,895 terms
    table, _ = oracles.layer_table(from_type("A3~"), 4)
    path = tmp_path / "a3.json"
    table.save(str(path))
    terms = [t for ent in json.loads(path.read_text())["entries"]
             for t in ent["terms"]]
    coefs = {json.dumps([t["num_coeffs"], t["den_coeffs"]]) for t in terms}
    weights = {json.dumps(t["weight"], sort_keys=True) for t in terms}
    decodes = oracles.count_calls(monkeypatch, CoefQ, "from_pairs")
    loaded = GrothTable.load(str(path), cd=table.cd)
    assert loaded.entries == table.entries
    assert decodes[0] == len(coefs) < len(terms)
    held = {id(k) for g in loaded.entries.values() for k in g.keys}
    assert len(held) <= len(weights) < len(terms)


def test_save_decodes_each_distinct_key_once(tmp_path, monkeypatch):
    # a save decodes each distinct packed key of the table once, however
    # many entries hold it, and makes no Weight
    table, _ = oracles.layer_table(from_type("A3~"), 4)
    keys = {(g.layout, k) for g in table.entries.values() for k in g.keys}
    terms = sum(len(g) for g in table.entries.values())
    decodes = oracles.count_calls(monkeypatch, keys_mod.Layout, "coordinates")
    weights = oracles.count_calls(monkeypatch, Weight, "__init__")
    table.save(str(tmp_path / "a3.json"))
    assert decodes[0] == len(keys) < terms and weights[0] == 0


def test_save_lays_out_each_denominator_once(tmp_path, monkeypatch):
    # _pairs lays out one pair list: each term's numerator, and each
    # distinct denominator once per save
    table, _ = oracles.layer_table(from_type("A3~"), 4)
    coefs = [c for g in table.entries.values() for c in g.terms.values()]
    layouts = oracles.count_calls(monkeypatch, groth_mod, "_pairs")
    table.save(str(tmp_path / "a3.json"))
    assert layouts[0] == len(coefs) + len({c.den for c in coefs})


def test_verify_transport_needs_same_probe_length(monkeypatch):
    # a pass stands in for an orbit-mate only at the probe_length it ran
    # with, another probe list being another set of checks; each element
    # keeps its latest pass
    runs = _count_full_runs(monkeypatch)
    cd = from_type("A1~")
    table = GrothTable(cd)
    s0, s1 = (weyl.canonicalize(cd, (i,)) for i in (0, 1))
    for w, probe_length, ran in ((s1, 1, 1), (s0, 2, 1), (s1, 2, 0),
                                 (s0, 1, 1), (s1, 1, 0), (s1, 3, 1)):
        runs[0] = 0
        assert table.verify(w, probe_length=probe_length) == []
        assert runs[0] == ran, (w.word, probe_length)


def test_save_load_round_trip(tmp_path):
    cd = from_type("A2~")
    table = GrothTable(cd)
    w = weyl.canonicalize(cd, (0, 1, 0))
    table.compute(w)
    table.verify(w, probe_length=1)
    path = tmp_path / "a2.json"
    table.save(str(path))
    first = path.read_bytes()

    loaded = GrothTable.load(str(path), cd=cd)
    assert loaded.entries == table.entries
    assert loaded.verified == table.verified
    loaded.save(str(path))
    assert path.read_bytes() == first


def json_dumps_bytes(table):
    """The save bytes as the standard library writes them."""
    entries = sorted(table.entries.items(),
                     key=lambda kv: (kv[0].length, kv[0].word))
    obj = {"format": 1, "cartan": cartan_to_json(table.cd),
           "entries": [{"word": list(w.word), "terms": to_json(g),
                        "verified": w in table.verified}
                       for w, g in entries]}
    return (json.dumps(obj, sort_keys=True, indent=1) + "\n").encode()


def golden_tables():
    tables = {}
    for _, t, word in oracles.GOLDEN:
        table = tables.setdefault(t, GrothTable(from_type(t)))
        table.compute(weyl.canonicalize(table.cd, word))
    return sorted(tables.items())


def test_save_bytes_golden_tables(tmp_path):
    for t, table in golden_tables():
        path = tmp_path / "t.json"
        table.save(str(path))
        assert path.read_bytes() == json_dumps_bytes(table), t


def test_save_bytes_empty_and_verified(tmp_path):
    cd = from_type("A2~")
    table = GrothTable(cd)
    path = tmp_path / "t.json"
    table.save(str(path))
    assert path.read_bytes() == json_dumps_bytes(table)
    assert b'"entries": []' in path.read_bytes()
    for word in ((0,), (1, 0), (0, 1, 0)):
        table.compute(weyl.canonicalize(cd, word))
    table.verify(weyl.canonicalize(cd, (1, 0)), probe_length=2)
    assert table.verified and len(table.verified) < len(table.entries)
    table.save(str(path))
    assert path.read_bytes() == json_dumps_bytes(table)
    assert b"true" in path.read_bytes() and b"false" in path.read_bytes()
    # an entry with no terms, as a loaded "terms": [] is
    table.entries[weyl.canonicalize(cd, (1, 0))] = k_zero(cd)
    table.save(str(path))
    assert path.read_bytes() == json_dumps_bytes(table)
    assert b'"terms": [],' in path.read_bytes()


def test_save_bytes_twisted_and_negative(tmp_path):
    # A2^(2) is given by its matrix only, so its type is null; the random
    # entries add negative coefficients, negative exponents and the
    # nontrivial denominator (1 - q)(1 - q^3); 1 - 2q - q^3 lies outside R
    # and is refused
    with pytest.raises(ValueError, match="outside R"):
        CoefQ.make((1,), 0, (1, -2, 0, -1))
    cd = build_cartan(dict(oracles.CUSTOM_GCMS)["A2^(2)"])
    table = GrothTable(cd)
    for layer in weyl.enumerate_up_to(cd, 3):
        for w in layer:
            table.compute(w)
    rng = oracles.rng_for("save-bytes")
    for layer in weyl.enumerate_up_to(cd, 5)[4:]:
        for w in layer:
            f = oracles.random_element(cd, rng)
            table.entries[w] = f * CoefQ.make((1,), 0, (1, -1, 0, -1, 1))
    coeffs = [x for g in table.entries.values() for c in g.terms.values()
              for x in c.num + c.den]
    assert min(coeffs) < 0
    path = tmp_path / "t.json"
    table.save(str(path))
    assert path.read_bytes() == json_dumps_bytes(table)
    assert b'"type": null' in path.read_bytes()


def test_high_degree_table_bytes_pinned(tmp_path):
    """The saved table of A1~ to length 10, whose denominators reach degree
    45 (the golden values stop at degree 10), is pinned byte for byte."""
    cd = from_type("A1~")
    table = GrothTable(cd)
    for layer in weyl.enumerate_up_to(cd, 10):
        for w in layer:
            table.compute(w)
    assert max(len(c.den) - 1 for g in table.entries.values()
               for c in g.terms.values()) == 45
    path = tmp_path / "a1.json"
    table.save(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "1e18489874174814da6322a2ae70049cfae54a12a52566834fea2f5c2b5468b1")


def test_load_without_cd_adopts_file_data(tmp_path):
    cd = from_type("A1~")
    table = GrothTable(cd)
    table.compute(weyl.canonicalize(cd, (0, 1)))
    path = tmp_path / "a1.json"
    table.save(str(path))
    loaded = GrothTable.load(str(path))
    assert loaded.cd == cd
    assert loaded.entries == table.entries


def test_from_json_obj_refuses_non_string_type():
    # without cd the table adopts the file's data; a float type loaded and
    # made the next save raise a bare TypeError
    cd = from_type("A1~")
    table = GrothTable(cd)
    table.compute(weyl.canonicalize(cd, (0, 1)))
    obj = json.loads(json_dumps_bytes(table))
    obj["cartan"]["type"] = None
    assert GrothTable.from_json_obj(obj).cd.type_string is None
    for value in (1.5, 7, True, ["A"], {"x": 1}):
        obj["cartan"]["type"] = value
        with pytest.raises(CacheMismatch, match="Cartan type must be"):
            GrothTable.from_json_obj(obj)


def test_from_json_obj_refuses_relabelled_type():
    # an A1~ cache edited to "type": "C7~" loaded as AffineCartanData(C7~)
    # holding the A1~ matrix
    cd = from_type("A1~")
    table = GrothTable(cd)
    table.compute(weyl.canonicalize(cd, (1,)))
    obj = json.loads(json_dumps_bytes(table))
    obj["cartan"]["type"] = "C7~"
    for given in (None, cd):
        with pytest.raises(CacheMismatch, match="does not name the stored"):
            GrothTable.from_json_obj(obj, cd=given)


def test_load_mismatch(tmp_path):
    cd = from_type("A1~")
    table = GrothTable(cd)
    table.compute(weyl.identity(cd))
    path = tmp_path / "a1.json"
    table.save(str(path))
    with pytest.raises(CacheMismatch):
        GrothTable.load(str(path), cd=from_type("A2~"))


def test_cached_reuse():
    cd = from_type("A2~")
    table = GrothTable(cd)
    w = weyl.canonicalize(cd, (0, 1, 0))
    g1 = table.compute(w)
    n = len(table.entries)
    assert table.compute(w) is g1
    assert len(table.entries) == n
    # all prefixes along descents got cached
    assert weyl.identity(cd) in table.entries


# --- transport along diagram automorphisms ------------------------------------

def _relabelled_a3():
    """A3~ with its nodes relabelled by 0, 1, 2, 3 -> 1, 3, 0, 2, built by
    build_cartan: no label order follows the cycle, and node0 is the node
    the automorphisms move like any other."""
    gcm = from_type("A3~").gcm
    p = (2, 0, 3, 1)
    return build_cartan([[gcm[p[i]][p[j]] for j in range(4)]
                         for i in range(4)])


@pytest.mark.parametrize("cd,max_length", [
    (from_type("A1~"), 8), (from_type("A2~"), 4), (from_type("A3~"), 4),
    (from_type("A4~"), 3), (from_type("C2~"), 4), (from_type("C3~"), 3),
    (from_type("D4~"), 3), (from_type("D5~"), 2), (_relabelled_a3(), 4)],
    ids=["A1~", "A2~", "A3~", "A4~", "C2~", "C3~", "D4~", "D5~",
         "A3~-relabelled"])
def test_transported_table_equals_solved(monkeypatch, cd, max_length):
    # G_{sigma(u)} = sigma(G_u): a table that solves one element per orbit
    # and transports the rest holds exactly the entries of one coboundary
    # solve per element
    solves = [0]
    solve = groth_mod.solve_coboundary

    def counted(*args):
        solves[0] += 1
        return solve(*args)

    monkeypatch.setattr(groth_mod, "solve_coboundary", counted)
    assert any(p[cd.node0] != cd.node0 for p in cd.automorphisms())
    table, elems = oracles.layer_table(cd, max_length)
    assert 0 < solves[0] < len(elems) - 1
    memo = {}
    for w in elems:
        assert table.compute(w) == oracles.solved_entry(cd, w, memo), w.word


def test_transported_save_bytes_equal_solved(tmp_path):
    cd = from_type("A3~")
    table, elems = oracles.layer_table(cd, 4)
    solved = GrothTable(cd)
    for w in elems:
        solved.entries[w] = oracles.solved_entry(cd, w, solved.entries)
    assert solved.entries.keys() == table.entries.keys()
    for t, name in ((table, "transported.json"), (solved, "solved.json")):
        t.save(str(tmp_path / name))
    assert ((tmp_path / "transported.json").read_bytes()
            == (tmp_path / "solved.json").read_bytes())


def test_transported_entry_is_not_verified(monkeypatch):
    # G_{s_0} of A1~ is the flip of a verified G_{s_1}; it is verified only
    # once verify has run on it
    cd = from_type("A1~")
    table = GrothTable(cd)
    s0, s1 = (weyl.canonicalize(cd, (i,)) for i in (0, 1))
    assert table.verify(s1) == []
    assert s1 in table.verified

    def refused(*args):
        raise AssertionError("an orbit-mate is present, nothing to solve")

    monkeypatch.setattr(groth_mod, "solve_coboundary", refused)
    assert table.compute(s0) == simple_expected(cd, 0)
    assert s0 not in table.verified
    assert table.verify(s0) == []
    assert s0 in table.verified
