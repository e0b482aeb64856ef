"""Record reference.json: the digest of every op any seed can produce.

    python3 perfbench/record_reference.py

Run only at a commit whose outputs are trusted; the benchmark compares every
later run against this file.  Keys name ops as workloads.build does: table
entries (G_w as canonical JSON of kring.to_json, including the length L+1
entries the verify-cached caches hold), the saved table files, verify results
(the empty failure list) and Euler-character series for every twist of the
stated level.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from affgroth import GrothTable, from_type  # noqa: E402
from affgroth.characters import euler_character  # noqa: E402
from affgroth.kring import to_json  # noqa: E402
from affgroth.weights import parse_weight  # noqa: E402
import workloads as wl  # noqa: E402


def main():
    ref = {}
    work = os.path.join(HERE, "_work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for name in wl.TABLE:
            for key, call, digest_of in wl.build(name, 0, tmp, tmp):
                ref[key] = digest_of(call())
        for type_string, max_length in wl.VERIFY:
            table = GrothTable(from_type(type_string))
            for w in wl.elements(table.cd, max_length + 1):
                ref[wl.table_key(type_string, w.word)] = wl.digest(
                    to_json(table.compute(w)))
        wl.prepare_caches(tmp)
        for key, call, digest_of in wl.build("verify-cached", 0, tmp, tmp):
            ref[key] = digest_of(call())
            if ref[key] != wl.digest([]):
                sys.exit("verify failed: %s" % key)
    for type_string, cutoff, max_length, default in wl.EULER:
        cd = from_type(type_string)
        twists = wl.level_twists(cd, cd.level(parse_weight(default, cd.rank)))
        if default not in twists:
            sys.exit("%s is not a level twist" % default)
        for twist in twists:
            table = GrothTable(cd)
            for w in wl.elements(cd, max_length):
                series = euler_character(cd, w, parse_weight(twist, cd.rank),
                                         cutoff, table)
                ref[wl.euler_key(type_string, cutoff, twist, w)] = wl.digest(
                    series.to_json())
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, sort_keys=True, indent=0)
        fh.write("\n")
    print("recorded %d digests" % len(ref))


if __name__ == "__main__":
    main()
