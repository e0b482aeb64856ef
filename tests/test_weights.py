"""Weight vectors: arithmetic, text format, JSON."""

import pytest

from affgroth.errors import ParseError, UnknownNode
from affgroth.weights import (Weight, format_weight, parse_weight,
                              weight_coords_from_json, weight_to_json)

import oracles


def test_arithmetic():
    a = Weight((1, 0), (0, 2))
    b = Weight((0, -1), (3, 0))
    assert a + b == Weight((1, -1), (3, 2))
    assert a - b == Weight((1, 1), (-3, 2))
    assert -a == Weight((-1, 0), (0, -2))
    assert 3 * a == Weight((3, 0), (0, 6))
    assert 0 * a == Weight((0, 0), (0, 0))
    assert a + Weight((0, 0), (0, 0)) == a


def test_hash_and_eq():
    a = Weight((1, 0), (0, 2))
    assert a == Weight([1, 0], [0, 2])
    assert hash(a) == hash(Weight((1, 0), (0, 2)))
    s = {a, Weight((1, 0), (0, 2)), Weight((0, 1), (0, 2))}
    assert len(s) == 2


def test_is_zero():
    assert Weight((0, 0, 0), (0, 0, 0)).is_zero()
    assert not Weight((0, 0, 0), (0, 1, 0)).is_zero()


def test_format_basic():
    assert format_weight(Weight((0, 0), (0, 0))) == "0"
    assert format_weight(Weight((1, 0), (0, 0))) == "L0"
    assert format_weight(Weight((0, -1), (0, 0))) == "-L1"
    assert format_weight(Weight((0, 2), (-1, 0))) == "2*L1 - a0"
    assert format_weight(Weight((-2, 0), (0, 3))) == "-2*L0 + 3*a1"


def test_parse_basic():
    assert parse_weight("0", 2) == Weight((0, 0), (0, 0))
    assert parse_weight("L0", 2) == Weight((1, 0), (0, 0))
    assert parse_weight("2L1 - a0", 2) == Weight((0, 2), (-1, 0))
    assert parse_weight("2*L1-a0", 2) == Weight((0, 2), (-1, 0))
    assert parse_weight(" - L0 + L1 + 3 a1 ", 2) == Weight((-1, 1), (0, 3))


def test_parse_rejects():
    with pytest.raises(UnknownNode):
        parse_weight("L5", 2)
    with pytest.raises(UnknownNode):
        parse_weight("a2", 2)
    for bad in ("", "L", "q", "L0 +", "+ +L0", "2", "L0 L1"):
        with pytest.raises(ParseError):
            parse_weight(bad, 2)
    # a refusal points at the token's first character, past the spaces
    with pytest.raises(ParseError, match="bare integer") as ei:
        parse_weight("L0 + 3", 2)
    assert ei.value.pos == 5


def test_round_trip_random():
    rng = oracles.rng_for("weights-roundtrip")
    for rank in (2, 3, 5):
        for _ in range(40):
            l = tuple(rng.randint(-4, 4) for _ in range(rank))
            m = tuple(rng.randint(-4, 4) for _ in range(rank))
            w = Weight(l, m)
            assert parse_weight(format_weight(w), rank) == w


def test_json_round_trip():
    rng = oracles.rng_for("weights-json")
    for _ in range(20):
        w = Weight(tuple(rng.randint(-3, 3) for _ in range(3)),
                   tuple(rng.randint(-3, 3) for _ in range(3)))
        assert Weight(*weight_coords_from_json(weight_to_json(w), 3)) == w


def test_eq_foreign_type():
    a = Weight((1, 0), (0, 2))
    assert not (a == None)  # noqa: E711
    assert a != None  # noqa: E711
    assert a != ((1, 0), (0, 2))
