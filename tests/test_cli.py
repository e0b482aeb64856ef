"""Command-line behaviors: output shapes, exit codes, cache wiring."""

import hashlib
import json
import subprocess
import sys

import pytest

from affgroth.cartan import _gcm_a, build_cartan, from_type
from affgroth.cli import main
from affgroth.expr import parse_expression
from affgroth.groth import GrothTable, grothendieck
from affgroth.kring import k_one, relabel
from affgroth.weights import format_weight, parse_weight
from affgroth import cartan, coefq, groth, qpoly, weyl

import oracles


@pytest.fixture(autouse=True)
def no_env_cache(monkeypatch):
    monkeypatch.delenv("AFFGROTH_CACHE", raising=False)


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def test_groth_simple(capsys):
    status, out, _ = run(capsys, "groth", "--type", "A1~", "--word", "1")
    assert status == 0
    assert out.strip() == "1 - e[-L1]"


def test_groth_nonreduced(capsys):
    status, out, _ = run(capsys, "groth", "--type", "A1~", "--word", "1,1")
    assert status == 0
    assert out.strip() == "1"


def test_groth_verify_flag(capsys):
    status, out, _ = run(capsys, "groth", "--type", "A2~", "--word", "0,1",
                         "--verify")
    assert status == 0
    cd = from_type("A2~")
    assert parse_expression(out, cd) == grothendieck(cd, (0, 1))


def test_groth_formats_agree(capsys):
    cd = from_type("A2~")
    for fmt in ("terms", "orbit"):
        status, out, _ = run(capsys, "groth", "--type", "A2~",
                             "--word", "0,1,0", "--format", fmt)
        assert status == 0
        assert parse_expression(out, cd) == grothendieck(cd, (0, 1, 0))


def test_cartan_output(capsys):
    status, out, _ = run(capsys, "cartan", "--type", "C2~")
    assert status == 0
    assert "marks: 1 2 1" in out
    assert "dual_coxeter: 3" in out
    assert "order(0,1): 4" in out
    assert "untwisted: True" in out


def test_cartan_custom_gcm(capsys):
    status, out, _ = run(capsys, "cartan", "--gcm", "[[2,-4],[-1,2]]")
    assert status == 0
    assert "untwisted: False" in out


def test_verify_command(capsys):
    status, out, _ = run(capsys, "verify", "--type", "A1~", "--max-length", "2")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "ok e"
    assert len(lines) == 5  # e plus two layers of two


def test_verify_detects_bad_cache(tmp_path, capsys):
    cd = from_type("A1~")
    table = GrothTable(cd)
    w = weyl.canonicalize(cd, (0,))
    table.compute(w)
    table.entries[w] = table.entries[w] + k_one(cd)
    path = tmp_path / "bad.json"
    table.save(str(path))
    status, out, _ = run(capsys, "verify", "--type", "A1~", "--max-length", "1",
                         "--cache", str(path))
    assert status == 1
    assert "FAIL 0:" in out


def test_verify_checks_subset(capsys):
    status, out, _ = run(capsys, "verify", "--type", "A1~", "--max-length", "1",
                         "--checks", "window,ring")
    assert status == 0
    with pytest.raises(SystemExit):
        main(["verify", "--type", "A1~", "--max-length", "1",
              "--checks", "bogus"])
    capsys.readouterr()


@pytest.mark.parametrize("checks", ["bogus", "window,bogus", ""])
def test_verify_unknown_check_usage_error(tmp_path, capsys, checks):
    path = tmp_path / "a1.json"
    with pytest.raises(SystemExit) as ei:
        main(["verify", "--type", "A1~", "--max-length", "1",
              "--checks", checks, "--cache", str(path)])
    assert ei.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unknown check %r" % checks.split(",")[-1] in err
    assert not path.exists()


def test_char_plain(capsys):
    status, out, _ = run(capsys, "char", "--type", "A1~", "--weight", "L0",
                         "--cutoff", "3")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1 * e[L0]"
    assert len(lines) > 3


def test_char_euler_identity_matches(capsys):
    args = ["--type", "A1~", "--weight", "L0", "--cutoff", "3"]
    _, plain, _ = run(capsys, "char", *args)
    status, eul, _ = run(capsys, "char", "--word", "e", "--euler", *args)
    assert status == 0
    assert eul == plain


def test_char_local_empty_below(capsys):
    status, out, _ = run(capsys, "char", "--type", "A1~", "--weight", "L0",
                         "--cutoff", "2", "--word", "0", "--local", "e")
    assert status == 0
    assert out.strip() == ""


def test_char_local_huge_twist_text(capsys):
    # a twist with coordinates of 2^100 and 2^20: the printed series is
    # the one the Weight-keyed group ring printed (its sha256 pinned), and
    # its first keys carry the twist exactly
    status, out, _ = run(capsys, "char", "--type", "A2~", "--word", "1,0",
                         "--local", "1,0,2", "--cutoff", "2", "--weight",
                         "%d*L0 + %d*L1" % (2 ** 100, 2 ** 20))
    assert status == 0
    assert out.startswith("1 * e[%d*L0 + %d*L1 - %d*a0 - %d*a1 - a2]\n"
                          % (2 ** 100, 2 ** 20, 2 ** 100 + 1,
                             2 ** 100 + 2 ** 20 + 2))
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "87d4249958c98a8301154f1955cddb8e33c1b633e370726f899e0ac496237e87")


def test_char_twisted(capsys):
    # A2^(2): the character of L1 is the Freudenthal series with Kac's
    # imaginary multiplicity 1, and the Euler series of s_1 s_0 matches the
    # term-by-term oracle
    args = ["--gcm", "[[2,-4],[-1,2]]", "--weight", "L1", "--cutoff", "3"]
    status, out, err = run(capsys, "char", *args)
    assert (status, err) == (0, "")
    assert out.splitlines() == ["1 * e[L1]", "1 * e[L1 - a1]",
                                "1 * e[L1 - a0 - a1]",
                                "1 * e[L1 - 2*a0 - a1]"]
    status, out, err = run(capsys, "char", "--euler", "--word", "1,0", *args)
    assert (status, err) == (0, "")
    cd = build_cartan([[2, -4], [-1, 2]])
    want = oracles.euler_by_terms(cd, weyl.canonicalize(cd, (1, 0)),
                                  parse_weight("L1", cd.rank), 3,
                                  GrothTable(cd))
    assert len(want) and out.splitlines() == [
        "%s * e[%s]" % (c, format_weight(k)) for k, c in want.items_by_depth()]


def test_localize(capsys):
    status, out, _ = run(capsys, "localize", "--type", "A1~", "--word", "1",
                         "--at", "1")
    assert status == 0
    cd = from_type("A1~")
    assert parse_expression(out, cd) == \
        parse_expression("1 - e[a1]", cd)


def test_localize_above_vanishes(capsys):
    status, out, _ = run(capsys, "localize", "--type", "A1~", "--word", "1",
                         "--at", "0")
    assert status == 0
    assert out.strip() == "0"


@pytest.mark.parametrize("mode", [(), ("--euler",), ("--local", "0")])
def test_char_negative_cutoff_usage_error(capsys, mode):
    with pytest.raises(SystemExit) as ei:
        main(["char", "--type", "A1~", "--weight", "L0", "--cutoff", "-1"]
             + list(mode))
    assert ei.value.code == 2
    assert "--cutoff" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [(), ("--euler",), ("--local", "0")])
def test_char_huge_cutoff_usage_error(capsys, mode):
    # a cutoff past the exponent ceiling is refused before any series is
    # sized: 10^11 ran into a MemoryError traceback in CoefQ.expand_down
    with pytest.raises(SystemExit) as ei:
        main(["char", "--type", "A1~", "--word", "0", "--weight", "L0",
              "--cutoff", "100000000000"] + list(mode))
    assert ei.value.code == 2
    out = capsys.readouterr()
    assert "--cutoff must be <= %d" % coefq.MAX_EXPONENT in out.err
    assert out.out == ""


def test_groth_long_word_is_one_line_error(tmp_path, capsys):
    # GrothTable.compute recurses two frames per letter: a 500-letter word
    # runs out of stack before any solve, which is an error line, not a
    # traceback, and no cache is written
    path = tmp_path / "table.json"
    word = ",".join(str(k % 2) for k in range(500))
    status, out, err = run(capsys, "groth", "--type", "A1~", "--word", word,
                           "--cache", str(path))
    assert status == 1
    assert out == ""
    assert err.startswith("error: word too long: ")
    assert err.count("\n") == 1
    assert not path.exists()


@pytest.mark.parametrize("argv,flag", [
    (("table", "--max-length", "-2"), "--max-length"),
    (("verify", "--max-length", "-1"), "--max-length"),
    (("verify", "--max-length", "2", "--probe-length", "-3"), "--probe-length"),
])
def test_negative_length_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as ei:
        main([argv[0], "--type", "A1~"] + list(argv[1:]))
    assert ei.value.code == 2
    out = capsys.readouterr()
    assert flag in out.err
    assert out.out == ""


def test_parse_error_exit_2(capsys):
    status, _, err = run(capsys, "char", "--type", "A1~", "--weight", "L0 +",
                         "--cutoff", "2")
    assert status == 2
    assert "expression grammar" in err


def test_unknown_node_exit_2(capsys):
    status, _, err = run(capsys, "groth", "--type", "A1~", "--word", "7")
    assert status == 2
    assert "out of range" in err


@pytest.mark.parametrize("label", ["A99999999999~", "D101~"])
def test_type_above_ceiling_is_error(capsys, label):
    # A99999999999~ died with a MemoryError traceback building its matrix
    status, out, err = run(capsys, "cartan", "--type", label)
    assert status == 1
    assert out == ""
    assert err == ("error: type %r is above the largest built-in n, 100\n"
                   % label)


def test_gcm_above_ceiling_is_error(capsys, monkeypatch):
    # the A130~ matrix as --gcm ran 16 s in the exact null-space elimination
    # and exited 0, while --type A130~ was refused at once
    def refused(rows):
        raise AssertionError("an oversized matrix reached the elimination")

    monkeypatch.setattr("affgroth.cartan._nullspace", refused)
    status, out, err = run(capsys, "cartan", "--gcm",
                           json.dumps(_gcm_a(130)))
    assert (status, out) == (1, "")
    assert err == "error: matrix of size 131 is above the largest size, 101\n"


def test_cache_gcm_above_ceiling_is_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "a1.json"
    assert run(capsys, "groth", "--type", "A1~", "--word", "1",
               "--cache", str(path))[0] == 0
    obj = json.loads(path.read_text())
    obj["cartan"] = {"type": None, "gcm": [list(r) for r in _gcm_a(130)]}
    path.write_text(json.dumps(obj))
    before = path.read_bytes()
    nullspace = cartan._nullspace

    def bounded(rows):
        assert len(rows) <= 101, "an oversized matrix reached the elimination"
        return nullspace(rows)

    monkeypatch.setattr(cartan, "_nullspace", bounded)
    status, out, err = run(capsys, "groth", "--type", "A1~", "--word", "1",
                           "--cache", str(path))
    assert (status, out) == (1, "")
    assert err == "error: matrix of size 131 is above the largest size, 101\n"
    assert path.read_bytes() == before


def test_missing_type_usage_error(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["groth", "--word", "1"])
    assert ei.value.code == 2
    capsys.readouterr()


def test_cache_create_and_stable(tmp_path, capsys):
    path = tmp_path / "a2.json"
    run(capsys, "groth", "--type", "A2~", "--word", "0,1", "--cache", str(path))
    first = path.read_bytes()
    assert first
    # same request again: nothing new, file untouched
    run(capsys, "groth", "--type", "A2~", "--word", "0,1", "--cache", str(path))
    assert path.read_bytes() == first
    # a longer word extends the file
    run(capsys, "groth", "--type", "A2~", "--word", "0,1,0", "--cache", str(path))
    assert len(path.read_bytes()) > len(first)


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    path = tmp_path / "env.json"
    monkeypatch.setenv("AFFGROTH_CACHE", str(path))
    run(capsys, "groth", "--type", "A1~", "--word", "0")
    assert path.exists()


def test_cache_verified_persists(tmp_path, capsys):
    path = tmp_path / "a1.json"
    run(capsys, "verify", "--type", "A1~", "--max-length", "1",
        "--cache", str(path))
    table = GrothTable.load(str(path))
    assert len(table.verified) == 3


def test_table_command(capsys):
    status, out, _ = run(capsys, "table", "--type", "A1~", "--max-length", "2")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "length 0: 1 elements, 1 terms"
    assert lines[1].startswith("length 1: 2 elements")


def test_table_jobs_usage_error(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["table", "--type", "A1~", "--max-length", "1", "--jobs", "2"])
    assert ei.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_twisted_gcm(capsys):
    status, out, _ = run(capsys, "verify", "--gcm", "[[2,-4],[-1,2]]",
                         "--max-length", "3")
    assert status == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7  # e, then 2 + 2 + 2 elements of lengths 1 to 3
    assert all(line.startswith("ok ") for line in lines)


def test_console_entry_point(subprocess_env):
    proc = subprocess.run(
        [sys.executable, "-m", "affgroth.cli", "groth", "--type", "A1~",
         "--word", "0,1"],
        capture_output=True, text=True, env=subprocess_env)
    assert proc.returncode == 0
    assert "e[" in proc.stdout


@pytest.mark.parametrize("content", ['{"format": 1}', "not json {"])
def test_cache_malformed_is_error(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    status, out, err = run(capsys, "groth", "--type", "A1~", "--word", "1",
                           "--cache", str(path))
    assert status == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert path.read_text() == content


@pytest.mark.parametrize("field,pairs", [
    ("num_coeffs", [[0, 1], [0, 5]]),  # duplicate exponent
    ("num_coeffs", [[0, 1.7]]),  # float coefficient
    ("num_coeffs", [[0.0, 1]]),  # float exponent
    ("num_coeffs", [[0, True]]),  # bool coefficient
    ("den_coeffs", [[False, 1]]),  # bool exponent
    ("den_coeffs", [[0, 0]]),  # zero denominator
], ids=["duplicate", "float-coeff", "float-exp", "bool-coeff", "bool-exp",
        "zero-den"])
def test_cache_bad_coefficient_is_error(tmp_path, capsys, field, pairs):
    # G_{s_1} = 1 - e[-L1]; its constant term gets the bad pairs
    path = tmp_path / "a1.json"
    assert run(capsys, "groth", "--type", "A1~", "--word", "1",
               "--cache", str(path))[0] == 0
    obj = json.loads(path.read_text())
    entry = next(e for e in obj["entries"] if e["word"] == [1])
    entry["terms"][0][field] = pairs
    path.write_text(json.dumps(obj))
    status, out, err = run(capsys, "groth", "--type", "A1~", "--word", "1",
                           "--cache", str(path))
    assert status == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err.splitlines()) == 1


def _repeat_term(obj, entry):
    entry["terms"].append(entry["terms"][0])


def _repeat_entry(obj, entry):
    obj["entries"].append(dict(entry, terms=entry["terms"][:1]))


def _equivalent_word(obj, entry):
    obj["entries"].append(dict(entry, word=[1, 0, 0],
                               terms=entry["terms"][:1]))


def _delta_part(obj, entry):
    entry["terms"][0]["weight"]["m"][0] = 1  # node0 of A1~ is 0


def _wrong_rank(obj, entry):
    for t in entry["terms"]:
        t["weight"]["l"].append(0)
        t["weight"]["m"].append(0)


def _float_coordinate(obj, entry):
    entry["terms"][0]["weight"]["l"][0] = 0.0


def _verified_as(value):
    # every save writes the flag as true or false
    def edit(obj, entry):
        del entry["verified"]
        entry.update(value)
    return edit


def _cartan_type(value):
    # a non-string type loaded and was written back by the next save
    def edit(obj, entry):
        obj["cartan"]["type"] = value
    return edit


def _cartan_list(obj, entry):
    # a TypeError only while cartan_from_json reads "gcm" before "type":
    # list.get would raise AttributeError, which no caller reports as error:
    obj["cartan"] = [obj["cartan"]["gcm"]]


@pytest.mark.parametrize("edit,word", [
    (_repeat_term, "1"), (_repeat_entry, "1"), (_equivalent_word, "1"),
    (_delta_part, "1"), (_wrong_rank, "1,0"), (_float_coordinate, "1,0"),
    (_verified_as({"verified": "no"}), "1"),
    (_verified_as({"verified": 1}), "1"),
    (_verified_as({"verified": None}), "1"), (_verified_as({}), "1"),
    (_cartan_type(1.5), "1,0"), (_cartan_type(7), "1,0"),
    (_cartan_type(True), "1,0"), (_cartan_type(["A"]), "1,0"),
    (_cartan_type({"x": 1}), "1,0"), (_cartan_list, "1"),
    (_cartan_type("C7~"), "1"),
], ids=["repeated-term", "repeated-entry", "equivalent-word", "delta-part",
        "wrong-rank", "float-coordinate", "verified-string", "verified-int",
        "verified-null", "verified-missing", "type-float", "type-int",
        "type-bool", "type-list", "type-dict", "cartan-list",
        "type-relabelled"])
def test_cache_bad_weight_or_entry_is_error(tmp_path, capsys, edit, word):
    # each edit of the cached G_{s_1} = 1 - e[-L1] once loaded silently,
    # as a wrong G_w, a wrong verified flag or a late traceback
    path = tmp_path / "a1.json"
    assert run(capsys, "groth", "--type", "A1~", "--word", "1",
               "--cache", str(path))[0] == 0
    obj = json.loads(path.read_text())
    edit(obj, next(e for e in obj["entries"] if e["word"] == [1]))
    path.write_text(json.dumps(obj))
    status, out, err = run(capsys, "groth", "--type", "A1~", "--word", word,
                           "--cache", str(path))
    assert status == 1
    assert out == ""
    assert err.startswith("error: malformed cache") and "Traceback" not in err
    assert len(err.splitlines()) == 1


def _format_true(obj, entry):
    obj["format"] = True  # True == 1 in Python


def _word_true(obj, entry):
    entry["word"] = [True]  # indexes like node 1


@pytest.mark.parametrize("edit", [_format_true, _word_true],
                         ids=["format-true", "word-true"])
def test_cache_bool_field_is_error(tmp_path, capsys, edit):
    # a JSON true where the cache holds an int loaded as 1, and the edited
    # cache of G_{s_1} printed 1 - e[-L1] with exit 0
    path = tmp_path / "a1.json"
    assert run(capsys, "groth", "--type", "A1~", "--word", "1",
               "--cache", str(path))[0] == 0
    obj = json.loads(path.read_text())
    edit(obj, next(e for e in obj["entries"] if e["word"] == [1]))
    path.write_text(json.dumps(obj))
    status, out, err = run(capsys, "groth", "--type", "A1~", "--word", "1",
                           "--cache", str(path))
    assert status == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("gcm", ["[[2,-2.7],[-2,2]]", "[[2.9,-2],[-2,2]]",
                                 '[["2",-2],[-2,2]]', "[[2,false],[false,2]]"])
def test_gcm_non_integer_entry_is_error(capsys, gcm):
    status, out, err = run(capsys, "groth", "--gcm", gcm, "--word", "1")
    assert status == 1
    assert out == ""
    assert err == "error: matrix entries must be integers\n"


def _last_term(obj):
    """The last term of the last entry, which a load decodes after G_e = 1
    and every other entry."""
    return obj["entries"][-1]["terms"][-1]


def _coefficient_as(num, den):
    def edit(obj):
        _last_term(obj).update(num_coeffs=num, den_coeffs=den)
    return edit


def _weight_coordinate_true(obj):
    # the first saved weight with a coordinate 1, that coordinate made true:
    # equal to and hashed as the weight decoded in an earlier entry
    for ent in obj["entries"][:-1]:
        for t in ent["terms"]:
            for part in ("l", "m"):
                coords = t["weight"][part]
                if 1 in coords:
                    weight = json.loads(json.dumps(t["weight"]))
                    weight[part][coords.index(1)] = True
                    _last_term(obj)["weight"] = weight
                    return
    raise AssertionError("no weight coordinate 1 in the cache")


@pytest.mark.parametrize("edit", [
    _coefficient_as([[0, True]], [[0, 1]]),
    _coefficient_as([[0, 1]], [[0, True]]),
    _coefficient_as([[False, 1]], [[0, 1]]),
    _coefficient_as([[0, 1.0]], [[0, 1]]),
    _weight_coordinate_true,
], ids=["num-true", "den-true", "exponent-false", "num-float",
        "weight-true"])
def test_cache_bool_after_int_is_error(tmp_path, capsys, edit):
    # the load decodes each distinct weight and coefficient once and keys
    # them on their values; (0, True) == (0, 1) with the same hash, so the
    # edited last term equals a value decoded earlier in the same load
    path = tmp_path / "a1.json"
    assert run(capsys, "table", "--type", "A1~", "--max-length", "2",
               "--cache", str(path))[0] == 0
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))
    status, out, err = run(capsys, "groth", "--type", "A1~", "--word", "1",
                           "--cache", str(path))
    assert status == 1
    assert out == ""
    assert err.startswith("error: malformed cache") and "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_cache_nested_too_deep_is_error(tmp_path, capsys):
    # json's decoder raises RecursionError, not ValueError, on lists nested
    # deeper than the interpreter's recursion limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    status, out, err = run(capsys, "groth", "--type", "A1~", "--word", "1",
                           "--cache", str(path))
    assert status == 1
    assert out == ""
    assert err.startswith("error: cannot read cache") and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert path.read_text() == "[" * 100000


def test_cache_exponent_above_ceiling_is_error(tmp_path, capsys):
    # a sparse coefficient with a huge exponent span would make the load's
    # gcd run for minutes; from_pairs refuses it first
    path = tmp_path / "a1.json"
    assert run(capsys, "table", "--type", "A1~", "--max-length", "1",
               "--cache", str(path))[0] == 0
    obj = json.loads(path.read_text())
    entry = next(e for e in obj["entries"] if e["word"] == [1])
    term = next(t for t in entry["terms"] if not any(t["weight"]["l"]))
    term.update(num_coeffs=[[0, 1], [1000000, 1]],
                den_coeffs=[[0, 1], [200000, -1]])
    path.write_text(json.dumps(obj))
    status, out, err = run(capsys, "groth", "--type", "A1~", "--word", "1",
                           "--cache", str(path))
    assert status == 1
    assert out == ""
    assert err.startswith("error: malformed cache") and "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_ring_check_refuses_non_cyclotomic_shape_at_once(tmp_path, capsys,
                                                         monkeypatch):
    # 1 + 2q^16 ran the ring check's 4 deg^2 + 4 gcd loop for seconds; a
    # divisor of a product of q^k - 1 has end coefficients +-1, so it is
    # refused without a gcd, at load, before any check runs
    path = tmp_path / "a1.json"
    assert run(capsys, "table", "--type", "A1~", "--max-length", "1",
               "--cache", str(path))[0] == 0
    obj = json.loads(path.read_text())
    entry = next(e for e in obj["entries"] if e["word"] == [1])
    term = next(t for t in entry["terms"] if not any(t["weight"]["l"]))
    term["den_coeffs"] = [[0, 1], [16, 2]]
    path.write_text(json.dumps(obj))
    # coefq binds no pgcd of its own, so every gcd of the PRS passes here
    gcds = oracles.count_calls(monkeypatch, qpoly, "pgcd")
    status, out, err = run(capsys, "verify", "--type", "A1~", "--max-length",
                           "1", "--checks", "ring", "--cache", str(path))
    assert status == 1
    assert out == ""
    assert err.startswith("error: malformed cache") and "Traceback" not in err
    assert "denominator of degree 16" in err and "outside R" in err
    assert len(err.splitlines()) == 1
    assert gcds[0] == 0


@pytest.mark.parametrize("den", [
    [[0, 1], [64, 3], [128, 1]],  # monic palindrome, passes the shape check
    [[0, 3]],  # an integer denominator: R is over Z
    [[0, -1], [1, 2], [2, -1]],  # -(1 - q)^2 (1 - 2q + q^2 = Phi_1^2)
], ids=["palindrome", "integer", "in-r"])
def test_cache_denominator_outside_r_is_error(tmp_path, capsys, den):
    # a cache term whose denominator lies outside R fails the load on one
    # line that names the denominator's degree, not its coefficients; one
    # in R loads and prints
    path = tmp_path / "a1.json"
    assert run(capsys, "table", "--type", "A1~", "--max-length", "1",
               "--cache", str(path))[0] == 0
    obj = json.loads(path.read_text())
    entry = next(e for e in obj["entries"] if e["word"] == [1])
    term = next(t for t in entry["terms"] if not any(t["weight"]["l"]))
    term["den_coeffs"] = den
    path.write_text(json.dumps(obj))
    status, out, err = run(capsys, "groth", "--type", "A1~", "--word", "1",
                           "--cache", str(path))
    if den[-1][0] == 2:
        assert (status, err) == (0, "")
        assert out == "(1 - 2*q + q^2)^{-1}(-1) - e[-L1]\n"
        return
    assert status == 1
    assert out == ""
    assert err.startswith("error: malformed cache") and "Traceback" not in err
    assert "denominator of degree %d" % den[-1][0] in err
    assert "outside R" in err and len(err) < 200
    assert len(err.splitlines()) == 1


def test_gcm_nested_too_deep_usage_error(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["cartan", "--gcm", "[" * 3000 + "]" * 3000])
    assert ei.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--gcm is not valid JSON" in err and "Traceback" not in err


def test_cache_failed_save_keeps_old_file(tmp_path, monkeypatch):
    cd = from_type("A1~")
    table = GrothTable(cd)
    table.compute(weyl.canonicalize(cd, (0, 1)))
    path = tmp_path / "a1.json"
    table.save(str(path))
    before = path.read_bytes()

    # the per-entry layout fails on the second entry, after the first one
    # has been written to the temporary file
    calls = []
    terms = groth._terms

    def broken(g, *args):
        calls.append(g)
        if len(calls) == 2:
            raise RuntimeError("interrupted")
        return terms(g, *args)

    monkeypatch.setattr(groth, "_terms", broken)
    with pytest.raises(RuntimeError):
        table.save(str(path))
    assert len(calls) == 2
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a1.json"]


def test_cache_unwritable_is_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    status, out, err = run(capsys, "groth", "--type", "A1~", "--word", "1",
                           "--cache", str(path))
    assert status == 1
    assert out == ""
    assert err.startswith("error: cannot write cache")
    assert len(err.splitlines()) == 1
    assert list(tmp_path.rglob("*.tmp")) == []


def test_cache_failed_replace_is_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "x.json"

    def refused(src, dst):
        raise PermissionError("replace refused")

    monkeypatch.setattr("affgroth.groth.os.replace", refused)
    status, out, err = run(capsys, "groth", "--type", "A1~", "--word", "1",
                           "--cache", str(path))
    assert status == 1
    assert out == ""
    assert err.startswith("error: cannot write cache")
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


# --- verdicts transported along diagram automorphisms ------------------------

def _oracle_verify(table, max_length):
    """(exit status, stdout) that `verify --max-length` must give on table's
    entries: each element verified on a table of its own, so every check
    runs on every entry and no orbit-mate's verdict stands in."""
    out, bad = [], 0
    for layer in weyl.enumerate_up_to(table.cd, max_length):
        for w in layer:
            fails = oracles.full_verdict(table, w)
            name = ",".join(map(str, w.word)) or "e"
            out.extend("FAIL %s: %s\n" % (name, line) for line in fails)
            if fails:
                bad += 1
            else:
                out.append("ok %s\n" % name)
    return 1 if bad else 0, "".join(out)


def _verify_cache(capsys, table, path, max_length, *cartan_args):
    """Save table to path, run `verify` on it, check status and stdout
    against _oracle_verify, and check that the saved cache flags exactly
    the elements printed ok and those table flagged that were not printed
    FAIL.  Returns the stdout."""
    table.save(str(path))
    status, expect = _oracle_verify(table, max_length)
    assert run(capsys, "verify", *cartan_args, "--max-length",
               str(max_length), "--cache", str(path)) == (status, expect, "")
    flagged = {",".join(map(str, e["word"])) or "e"
               for e in json.loads(path.read_text())["entries"]
               if e["verified"]}
    oks = {line[3:] for line in expect.splitlines() if line.startswith("ok ")}
    fails = {line[5:line.index(":")] for line in expect.splitlines()
             if line.startswith("FAIL ")}
    assert flagged == oks | ({",".join(map(str, w.word)) or "e"
                              for w in table.verified} - fails)
    return expect


@pytest.fixture(scope="module")
def a2_table():
    return oracles.layer_table(from_type("A2~"), 5)[0]


def _reads(w):
    """The elements whose entries verify(w) reads."""
    return ({w, weyl.inverse(w)}
            | {weyl.mul_gen(w, i) for i in weyl.right_descents(w)})


def _edit_site(cd, max_length, where):
    """(v, w): the entry v to edit, and the element w that the edit aims
    at, the last in layer order to max_length with such a v.  u, the first
    element of w's orbit in layer order, is not w, and only one of u and w
    reads v:
      representative  v = u; u fails, w passes
      orbit-mate      v = w
      descent         v = w s_i at a right descent i of w
      inverse         v = w^-1, not w
    In the last three u passes in full, and w would pass by transport
    from u if transport tested G_w alone."""
    elems = [x for layer in weyl.enumerate_up_to(cd, max_length)
             for x in layer]
    order = {x: n for n, x in enumerate(elems)}
    for w in elems[::-1]:
        u = elems[min(order[weyl.relabel(w, p)] for p in cd.automorphisms())]
        sites = {"representative": [u], "orbit-mate": [w],
                 "descent": [weyl.mul_gen(w, i)
                             for i in weyl.right_descents(w)],
                 "inverse": [weyl.inverse(w)]}[where]
        for v in sites:
            if (u != w and (v in _reads(u)) != (v in _reads(w))
                    and (v == w) == (where == "orbit-mate")):
                return v, w
    raise AssertionError("no site for an edit in the %s" % where)


@pytest.mark.parametrize("where", ["clean", "representative", "orbit-mate",
                                   "descent", "inverse"])
def test_verify_transport_matches_full_checks(tmp_path, capsys, a2_table,
                                              where):
    # verify passes an entry whose orbit-mate passed without running the
    # checks; on a cache with one entry edited it must print what the
    # checks print when every element runs them on its own
    cd = a2_table.cd
    table = GrothTable(cd)
    table.entries = dict(a2_table.entries)
    if where != "clean":
        v, w = _edit_site(cd, 4, where)
        table.entries[v] = table.entries[v] + k_one(cd)
    out = _verify_cache(capsys, table, tmp_path / "a2.json", 4,
                        "--type", "A2~")
    if where == "clean":
        assert "FAIL" not in out
    else:
        name = ",".join(map(str, w.word))
        assert "FAIL %s:" % ",".join(map(str, v.word)) in out
        assert ("ok %s\n" % name in out) == (where == "representative")


def test_verify_custom_gcm_matches_full_checks(tmp_path, capsys):
    # data given by a matrix has no diagram automorphism: every entry runs
    # the full checks
    name, gcm = oracles.CUSTOM_GCMS[1]
    assert name == "G2~"
    cd = build_cartan(gcm)
    assert len(cd.automorphisms()) == 1
    table = oracles.layer_table(cd, 4)[0]
    v = weyl.enumerate_up_to(cd, 2)[2][0]
    table.entries[v] = table.entries[v] + k_one(cd)
    out = _verify_cache(capsys, table, tmp_path / "g2.json", 3,
                        "--gcm", json.dumps(gcm))
    assert "FAIL %s:" % ",".join(map(str, v.word)) in out


def test_verify_consistent_orbit_edit_fails_both(tmp_path, capsys):
    # G_{s_0} and G_{s_1} of A1~ get the same edit (constant 1 -> 6), so the
    # flip still maps one onto the other, and the cache flags both verified:
    # neither the loaded flag nor the transport equality passes either
    cd = from_type("A1~")
    table = oracles.layer_table(cd, 3)[0]
    s0, s1 = (weyl.canonicalize(cd, (i,)) for i in (0, 1))
    for s in (s0, s1):
        table.entries[s] = table.entries[s] + 5 * k_one(cd)
        table.verified.add(s)
    assert relabel(table.entries[s1], (1, 0)) == table.entries[s0]
    out = _verify_cache(capsys, table, tmp_path / "a1.json", 2,
                        "--type", "A1~")
    assert "FAIL 0:" in out and "FAIL 1:" in out


def test_verify_failure_clears_loaded_flag(tmp_path, capsys):
    # a cache flags G_{s_1} and G_{s_0 s_1} verified but both are edited:
    # verify prints their FAIL lines, exits 1 and saves both flags false
    cd = from_type("A1~")
    table = oracles.layer_table(cd, 6)[0]
    edited = [weyl.canonicalize(cd, word) for word in ((1,), (0, 1))]
    for w in edited:
        table.entries[w] = table.entries[w] + k_one(cd)
        table.verified.add(w)
    path = tmp_path / "a1.json"
    table.save(str(path))
    status, out, _ = run(capsys, "verify", "--type", "A1~", "--max-length",
                         "2", "--cache", str(path))
    assert status == 1
    assert "FAIL 1:" in out and "FAIL 0,1:" in out
    flags = {tuple(e["word"]): e["verified"]
             for e in json.loads(path.read_text())["entries"]}
    assert [flags[w.word] for w in edited] == [False, False]
