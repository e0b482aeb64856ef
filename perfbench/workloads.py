"""The four benchmark workloads, as lists of operations on the public API.

An operation ("op") is one top-level public call, the same call a CLI
subcommand makes.  Building a workload returns its ops in a fixed order; each
op is (key, call, digest_of), where key names the op in reference.json, call()
performs it and digest_of(result) reduces the result to the hex digest the
reference records.  Everything done while building (imports of the data,
from_type, enumerate_up_to, GrothTable.load) is set-up, not op time.

Imported by worker.py and record_reference.py after src/ is on sys.path.
"""

import hashlib
import json
import os
import random

from affgroth import GrothTable, characters, from_type, weyl
from affgroth.kring import to_json
from affgroth.weights import Weight, format_weight, parse_weight

# Sizes: table-wide is many large sparse systems with small coefficients;
# table-deep is few small systems whose coefficients carry high-degree
# (1 - q^k) denominators; verify-cached runs every entry check against caches
# one length deeper, so it never solves a coboundary; euler expands G_w into
# Weyl-Kac characters and barely touches the solver.
TABLE = {"table-wide": ("A3~", 4), "table-deep": ("A1~", 12)}
VERIFY = (("A2~", 4), ("C2~", 4), ("A3~", 3))
EULER = (("C2~", 12, 2, "L0 + L2"), ("A2~", 10, 2, "L0 + L1"))
NAMES = ("table-wide", "table-deep", "verify-cached", "euler")
EXPECTED_OPS = {"table-wide": 70, "table-deep": 26, "verify-cached": 94,
                "euler": 19}


def digest(obj):
    """sha256 of the canonical JSON text of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def word_key(word):
    return ",".join(map(str, word)) or "e"


def table_key(type_string, word):
    """Reference key of G_w; also used to check prepared cache entries."""
    return "table/%s/%s" % (type_string, word_key(word))


def euler_key(type_string, cutoff, twist, w):
    return "euler/%s/%d/%s/%s" % (type_string, cutoff, twist, word_key(w.word))


def elements(cd, max_length):
    """All Weyl elements up to max_length, in layer order."""
    return [w for layer in weyl.enumerate_up_to(cd, max_length) for w in layer]


def cache_name(type_string, max_length):
    return "%s-%d.json" % (type_string.replace("~", "t"), max_length)


def level_twists(cd, level):
    """Dominant weights sum_i c_i L_i of the given level, in text form."""
    out = []

    def extend(i, left, coeffs):
        if i == cd.rank:
            if left == 0:
                out.append(format_weight(Weight(coeffs, (0,) * cd.rank)))
            return
        for c in range(left // cd.comarks[i] + 1):
            extend(i + 1, left - c * cd.comarks[i], coeffs + (c,))

    extend(0, level, ())
    return sorted(out)


def twist_cycle(name, seed):
    """How many passes make one full cycle of the inputs (see euler_twists);
    a run completes whole cycles so its figures do not depend on the seed."""
    if name != "euler" or seed == 0:
        return 1
    return max(len(_level_pool(from_type(t), d)) for t, _, _, d in EULER)


def _level_pool(cd, default):
    return level_twists(cd, cd.level(parse_weight(default, cd.rank)))


def euler_twists(cd, words, default, seed, pass_index):
    """One twist per word.  Seed 0 gives the stated twist everywhere.  Other
    seeds use every dominant weight of the same level: word i of pass p gets
    pool[(i + p + r) % len(pool)], r drawn from the seed, so each cycle of
    len(pool) passes runs every (word, twist) pair once.  A plain random draw
    per word made run cost swing with the seed (cost per op varies up to
    sevenfold between twists), far beyond any useful regression bound."""
    if seed == 0:
        return [default] * len(words)
    pool = _level_pool(cd, default)
    r = random.Random(seed).randrange(len(pool))
    return [pool[(i + pass_index + r) % len(pool)] for i in range(len(words))]


def _take_file_digest(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    finally:
        os.unlink(path)


def build(name, seed, cache_dir, save_dir, pass_index=0, verify_call=None):
    """Set up workload `name` and return its ops.  verify_call(table, w)
    replaces GrothTable.verify for the verify ops when given."""
    if name in TABLE:
        type_string, max_length = TABLE[name]
        cd = from_type(type_string)
        table = GrothTable(cd)
        ops = [(table_key(type_string, w.word),
                (lambda w=w: table.compute(w)), lambda g: digest(to_json(g)))
               for w in elements(cd, max_length)]
        path = os.path.join(save_dir, "%s-%d.json" % (name, os.getpid()))
        # the save op returns the path; its digest is taken after timing
        ops.append(("save/" + name, lambda: table.save(path) or path,
                    _take_file_digest))
        return ops
    if name == "verify-cached":
        call = verify_call or (lambda table, w: table.verify(w))
        ops = []
        for type_string, max_length in VERIFY:
            cd = from_type(type_string)
            todo = elements(cd, max_length)
            table = GrothTable.load(
                os.path.join(cache_dir, cache_name(type_string, max_length + 1)),
                cd=cd)
            ops.extend(("verify/%s/%s" % (type_string, word_key(w.word)),
                        (lambda t=table, w=w: call(t, w)), digest)
                       for w in todo)
        return ops
    if name == "euler":
        ops = []
        for type_string, cutoff, max_length, default in EULER:
            cd = from_type(type_string)
            table = GrothTable(cd)
            todo = elements(cd, max_length)
            for w, twist in zip(todo, euler_twists(cd, todo, default, seed,
                                                     pass_index)):
                mu = parse_weight(twist, cd.rank)
                ops.append((euler_key(type_string, cutoff, twist, w),
                            (lambda cd=cd, w=w, mu=mu, table=table, n=cutoff:
                             characters.euler_character(cd, w, mu, n, table)),
                            lambda s: digest(s.to_json())))
        return ops
    raise ValueError("unknown workload %r" % (name,))


def prepare_caches(cache_dir):
    """Write the length L+1 caches that verify-cached loads, one per type,
    with the code under test.  Each file is written whole, then renamed."""
    os.makedirs(cache_dir, exist_ok=True)
    for type_string, max_length in VERIFY:
        cd = from_type(type_string)
        table = GrothTable(cd)
        for w in elements(cd, max_length + 1):
            table.compute(w)
        path = os.path.join(cache_dir, cache_name(type_string, max_length + 1))
        table.save(path + ".tmp")
        os.replace(path + ".tmp", path)
