"""Command-line behaviors: output shapes, exit codes, cache wiring."""

import subprocess
import sys

import pytest

from affgroth.cartan import from_type
from affgroth.cli import main
from affgroth.expr import parse_expression
from affgroth.groth import GrothTable, grothendieck
from affgroth.kring import k_one
from affgroth import weyl


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


def test_char_refuses_twisted(capsys):
    status, _, err = run(capsys, "char", "--gcm", "[[2,-4],[-1,2]]",
                         "--weight", "L1", "--cutoff", "2")
    assert status == 1
    assert "error:" in err


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


def test_table_parallel_matches_serial(tmp_path, capsys):
    p1 = tmp_path / "serial.json"
    p2 = tmp_path / "par.json"
    run(capsys, "table", "--type", "A1~", "--max-length", "3", "--cache", str(p1))
    run(capsys, "table", "--type", "A1~", "--max-length", "3", "--jobs", "2",
        "--cache", str(p2))
    assert GrothTable.load(str(p1)).entries == GrothTable.load(str(p2)).entries


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


def test_cache_failed_save_keeps_old_file(tmp_path, monkeypatch):
    cd = from_type("A1~")
    table = GrothTable(cd)
    table.compute(weyl.canonicalize(cd, (0, 1)))
    path = tmp_path / "a1.json"
    table.save(str(path))
    before = path.read_bytes()

    def broken():
        raise RuntimeError("interrupted")

    monkeypatch.setattr(table, "to_json", broken)
    with pytest.raises(RuntimeError):
        table.save(str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a1.json"]
