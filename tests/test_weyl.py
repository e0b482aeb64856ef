"""Weyl group elements: canonical words, actions, Bruhat order."""

from itertools import combinations

from affgroth.cartan import from_type
from affgroth import weyl

import oracles


def test_identity_and_squares():
    cd = from_type("A2~")
    e = weyl.identity(cd)
    assert e.length == 0
    for i in cd.labels:
        assert weyl.canonicalize(cd, (i, i)) == e
        assert weyl.canonicalize(cd, (i,)).length == 1


def test_braid_relations():
    cd = from_type("A2~")
    assert weyl.canonicalize(cd, (0, 1, 0)) == weyl.canonicalize(cd, (1, 0, 1))
    cd4 = from_type("C2~")
    assert weyl.canonicalize(cd4, (0, 1, 0, 1)) == weyl.canonicalize(cd4, (1, 0, 1, 0))
    assert weyl.canonicalize(cd4, (0, 2)) == weyl.canonicalize(cd4, (2, 0))


def test_canonical_word_stable():
    cd = from_type("C2~")
    rng = oracles.rng_for("weyl-canon")
    for _ in range(50):
        w = weyl.canonicalize(cd, oracles.random_word(cd, rng, max_len=6))
        assert weyl.canonicalize(cd, w.word) == w
        assert len(weyl.canonicalize(cd, w.word).word) == w.length


def test_act_is_group_action():
    cd = from_type("A2~")
    rng = oracles.rng_for("weyl-act")
    for _ in range(30):
        u = weyl.canonicalize(cd, oracles.random_word(cd, rng))
        v = weyl.canonicalize(cd, oracles.random_word(cd, rng))
        x = oracles.random_weight(cd, rng)
        assert weyl.act(u * v, x) == weyl.act(u, weyl.act(v, x))
        assert weyl.act(weyl.inverse(u), weyl.act(u, x)) == x
    assert weyl.inverse(weyl.inverse(u)) == u


def test_descents_by_length():
    cd = from_type("C2~")
    rng = oracles.rng_for("weyl-descents")
    for _ in range(25):
        w = weyl.canonicalize(cd, oracles.random_word(cd, rng, max_len=5))
        for i in cd.labels:
            right = weyl.mul_gen(w, i).length < w.length
            left = weyl.canonicalize(cd, (i,) + w.word).length < w.length
            assert (i in weyl.right_descents(w)) == right
            assert (i in weyl.left_descents(w)) == left


def test_inversion_set():
    for t in ("A1~", "A2~", "C2~"):
        cd = from_type(t)
        rng = oracles.rng_for("weyl-inv-" + t)
        for _ in range(20):
            w = weyl.canonicalize(cd, oracles.random_word(cd, rng, max_len=5))
            inv = weyl.inversion_set(w)
            assert len(inv) == w.length
            assert len({b.m for b in inv}) == w.length
            winv = weyl.inverse(w)
            for b in inv:
                assert all(c >= 0 for c in b.m) and any(b.m)
                assert all(c <= 0 for c in weyl.act(winv, b).m)


def test_enumerate_layers():
    cd = from_type("A2~")
    layers = weyl.enumerate_up_to(cd, 3)
    assert [len(L) for L in layers] == [1, 3, 6, 9]  # affine rank-2: 3k for k >= 1
    seen = set()
    for k, L in enumerate(layers):
        for w in L:
            assert w.length == k
            assert w not in seen
            seen.add(w)
        assert [w.word for w in L] == sorted(w.word for w in L)
    a1 = weyl.enumerate_up_to(from_type("A1~"), 4)
    assert [len(L) for L in a1] == [1, 2, 2, 2, 2]


def bruhat_oracle(cd, x, w):
    """Subword property against the fixed canonical word of w."""
    word = w.word
    for k in range(len(word) + 1):
        for pick in combinations(range(len(word)), k):
            sub = tuple(word[p] for p in pick)
            u = weyl.canonicalize(cd, sub)
            if u == x:
                return True
    return False


def test_bruhat_vs_subword_oracle():
    for t in ("A2~", "C2~"):
        cd = from_type(t)
        elems = [w for L in weyl.enumerate_up_to(cd, 3) for w in L]
        for w in elems:
            for x in elems:
                assert weyl.bruhat_leq(x, w) == bruhat_oracle(cd, x, w), \
                    (t, x.word, w.word)


def test_reduced_words():
    cd = from_type("A2~")
    w = weyl.canonicalize(cd, (0, 1, 0))
    words = weyl.reduced_words(w)
    assert set(words) == {(0, 1, 0), (1, 0, 1)}
    for word in words:
        assert weyl.canonicalize(cd, word) == w
    cd4 = from_type("C2~")
    w4 = weyl.canonicalize(cd4, (0, 1, 0, 1))
    assert set(weyl.reduced_words(w4)) == {(0, 1, 0, 1), (1, 0, 1, 0)}
    assert weyl.reduced_words(weyl.identity(cd)) == [()]


def test_eq_compares_cartan_data():
    a = weyl.canonicalize(from_type("C2~"), (0,))
    b = weyl.canonicalize(from_type("A2~"), (0,))
    assert a.rho_image == b.rho_image  # same rank, same image of rho
    assert a != b
    assert a == weyl.canonicalize(from_type("C2~"), (0,))  # equal data, new object
    assert len({a, b}) == 2


def test_eq_foreign_type():
    e = weyl.identity(from_type("A1~"))
    assert not (e == None)  # noqa: E711
    assert e != ()


def test_act_equals_reflections():
    for t in ("A1~", "A2~", "C2~", "A3~", "D4~"):
        cd = from_type(t)
        rng = oracles.rng_for("weyl-act-reflect-" + t)
        for _ in range(20):
            w = weyl.canonicalize(cd, oracles.random_word(cd, rng, max_len=6))
            x = oracles.random_weight(cd, rng)
            want = x
            for i in reversed(w.word):
                want = cd.reflect(i, want)
            assert weyl.act(w, x) == want, (t, w.word, x)


def test_enumerate_long_then_short():
    cd = from_type("C2~")
    deep = weyl.enumerate_up_to(cd, 4)
    kept = [list(layer) for layer in deep]
    deep[1].clear()
    deep.append(["junk"])
    short = weyl.enumerate_up_to(cd, 2)
    assert short == kept[:3]
    assert short == weyl.enumerate_up_to(from_type("C2~"), 2)
    assert weyl.enumerate_up_to(cd, 4) == kept
    assert weyl.enumerate_up_to(cd, 5)[:5] == kept


def test_enumerate_negative_length():
    cd = from_type("A2~")
    assert weyl.enumerate_up_to(cd, -1) == [[weyl.identity(cd)]]
    weyl.enumerate_up_to(cd, 3)
    assert weyl.enumerate_up_to(cd, -2) == [[weyl.identity(cd)]]


def test_results_carry_callers_datum():
    a, b = from_type("A2~"), from_type("A2~")
    assert a == b and a is not b
    for cd in (a, b, a):
        w = weyl.canonicalize(cd, (0, 1))
        assert weyl.mul_gen(w, 2).cd is cd
        assert all(x.cd is cd for layer in weyl.enumerate_up_to(cd, 3)
                   for x in layer)
