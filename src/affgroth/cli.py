"""Command-line front end.

Exit status: 0 success, 1 verification or data failure, 2 usage error.
A cache file (--cache or the AFFGROTH_CACHE environment variable) persists a
GrothTable per Cartan datum as JSON; commands load it when present and save
back when they added entries.
"""

import argparse
import json
import os
import sys

from . import weyl as weyl_mod
from .cartan import build_cartan, from_type
from .characters import (euler_character, local_cohomology_character,
                         weyl_kac_character)
from .errors import AffGrothError, ParseError, UnknownNode
from .expr import parse_expression, print_element
from .groth import GrothTable
from .kring import j_map
from .weights import parse_weight

GRAMMAR_HELP = """expression grammar:
  expr    := ['-'] product (('+'|'-') product)*
  product := power (['*'] power)*            (adjacency multiplies)
  power   := atom ['^' exponent]             exponent: -2, 3, {-1}
  atom    := rational | q | e[weight] | E[weight] | (expr) | {expr}
  weight  := signed sum of L<i> and a<i> with integer coefficients, e.g.
             "2*L0 - L1 + a1"; words are comma-separated node labels, "1,0"
"""


def _add_common(p, cache=True):
    p.add_argument("--type", help="built-in affine type, e.g. A1~, A2~, C2~, D4~")
    p.add_argument("--gcm", help="affine GCM as a JSON matrix, overrides --type")
    if cache:
        p.add_argument("--cache", help="table cache file (default $AFFGROTH_CACHE)")


def _cartan_of(args, parser):
    if args.gcm:
        try:
            rows = json.loads(args.gcm)
        except json.JSONDecodeError as ex:
            parser.error("--gcm is not valid JSON: %s" % ex)
        return build_cartan(rows)
    if not args.type:
        parser.error("one of --type or --gcm is required")
    return from_type(args.type)


def _parse_word(text, cd, parser):
    text = (text or "").strip()
    if text in ("", "e"):
        return ()
    try:
        word = tuple(int(p) for p in text.split(","))
    except ValueError:
        parser.error("word must be comma-separated node labels, got %r" % text)
    for i in word:
        if not 0 <= i < cd.rank:
            raise UnknownNode("node label %d out of range (rank %d)"
                              % (i, cd.rank))
    return word


def _load_table(cd, args):
    path = getattr(args, "cache", None) or os.environ.get("AFFGROTH_CACHE")
    if path and os.path.exists(path):
        table = GrothTable.load(path, cd=cd)
    else:
        table = GrothTable(cd)
    return table, path


def _table_state(table):
    return len(table.entries), len(table.verified)


def _save_table(table, path, prior_state):
    if path and _table_state(table) != prior_state:
        table.save(path)


def cmd_cartan(args, parser):
    cd = _cartan_of(args, parser)
    out = sys.stdout
    out.write("type: %s\n" % (cd.type_string or "custom"))
    out.write("rank: %d\n" % cd.rank)
    for row in cd.gcm:
        out.write("gcm: %s\n" % " ".join("%3d" % x for x in row))
    out.write("marks: %s\n" % " ".join(str(x) for x in cd.marks))
    out.write("comarks: %s\n" % " ".join(str(x) for x in cd.comarks))
    out.write("symmetrizer: %s\n" % " ".join(str(x) for x in cd.d))
    out.write("node0: %d\n" % cd.node0)
    out.write("dual_coxeter: %d\n" % cd.dual_coxeter)
    out.write("untwisted: %s\n" % cd.untwisted)
    for (i, j), m in sorted(cd.orders.items()):
        if i < j:
            out.write("order(%d,%d): %s\n" % (i, j, m if m else "inf"))
    return 0


def cmd_groth(args, parser):
    cd = _cartan_of(args, parser)
    word = _parse_word(args.word, cd, parser)
    table, path = _load_table(cd, args)
    prior = _table_state(table)
    w = weyl_mod.canonicalize(cd, word)
    g = table.compute(w)
    status = 0
    if args.verify:
        fails = table.verify(w)
        for line in fails:
            sys.stderr.write("FAIL %s: %s\n" % (",".join(map(str, w.word)), line))
        status = 1 if fails else 0
    _save_table(table, path, prior)
    sys.stdout.write(print_element(g, args.format) + "\n")
    return status


def _require_nonnegative(parser, flag, value):
    if value is not None and value < 0:
        parser.error("%s must be >= 0, got %d" % (flag, value))


def cmd_table(args, parser):
    _require_nonnegative(parser, "--max-length", args.max_length)
    cd = _cartan_of(args, parser)
    table, path = _load_table(cd, args)
    prior = _table_state(table)
    layers = weyl_mod.enumerate_up_to(cd, args.max_length)
    jobs = args.jobs or 1
    for length, layer in enumerate(layers):
        todo = [w for w in layer if w not in table.entries]
        if todo and jobs > 1 and length > 0:
            _compute_layer_parallel(table, todo, jobs)
        else:
            for w in layer:
                table.compute(w)
        total = sum(len(table.entries[w]) for w in layer)
        sys.stdout.write("length %d: %d elements, %d terms\n"
                         % (length, len(layer), total))
    _save_table(table, path, prior)
    return 0


def _compute_layer_parallel(table, todo, jobs):
    import multiprocessing as mp

    state = table.to_json()
    with mp.Pool(min(jobs, len(todo)), initializer=_worker_init,
                 initargs=(state,)) as pool:
        results = pool.map(_worker_compute, [list(w.word) for w in todo])
    from .kring import from_json as kring_from_json
    for word, terms in sorted(results):
        w = weyl_mod.canonicalize(table.cd, tuple(word))
        table.entries[w] = kring_from_json(table.cd, terms)


_WORKER_TABLE = None


def _worker_init(state):
    global _WORKER_TABLE
    _WORKER_TABLE = GrothTable.from_json_obj(state)


def _worker_compute(word):
    from .kring import to_json as kring_to_json
    w = weyl_mod.canonicalize(_WORKER_TABLE.cd, tuple(word))
    return word, kring_to_json(_WORKER_TABLE.compute(w))


def cmd_verify(args, parser):
    _require_nonnegative(parser, "--max-length", args.max_length)
    _require_nonnegative(parser, "--probe-length", args.probe_length)
    cd = _cartan_of(args, parser)
    table, path = _load_table(cd, args)
    prior = _table_state(table)
    checks = tuple(args.checks.split(",")) if args.checks else None
    if checks:
        for c in checks:
            if c not in GrothTable.ALL_CHECKS:
                parser.error("unknown check %r (choose from %s)"
                             % (c, ",".join(GrothTable.ALL_CHECKS)))
    bad = 0
    for layer in weyl_mod.enumerate_up_to(cd, args.max_length):
        for w in layer:
            fails = table.verify(w, checks=checks,
                                 probe_length=args.probe_length)
            name = ",".join(map(str, w.word)) or "e"
            if fails:
                bad += 1
                for line in fails:
                    sys.stdout.write("FAIL %s: %s\n" % (name, line))
            else:
                sys.stdout.write("ok %s\n" % name)
    _save_table(table, path, prior)
    return 1 if bad else 0


def cmd_char(args, parser):
    _require_nonnegative(parser, "--cutoff", args.cutoff)
    cd = _cartan_of(args, parser)
    mu = parse_weight(args.weight, cd.rank)
    table, path = _load_table(cd, args)
    prior = _table_state(table)
    w = weyl_mod.canonicalize(cd, _parse_word(args.word, cd, parser))
    if args.local is not None:
        x = weyl_mod.canonicalize(cd, _parse_word(args.local, cd, parser))
        series = local_cohomology_character(cd, w, x, mu, args.cutoff, table)
    elif args.euler:
        series = euler_character(cd, w, mu, args.cutoff, table)
    else:
        series = weyl_kac_character(cd, mu, args.cutoff)
    _save_table(table, path, prior)
    from .weights import format_weight
    for kappa, c in series.items_by_depth():
        sys.stdout.write("%s * e[%s]\n" % (c, format_weight(kappa)))
    return 0


def cmd_localize(args, parser):
    cd = _cartan_of(args, parser)
    table, path = _load_table(cd, args)
    prior = _table_state(table)
    w = weyl_mod.canonicalize(cd, _parse_word(args.word, cd, parser))
    x = weyl_mod.canonicalize(cd, _parse_word(args.at, cd, parser))
    g = table.compute(w)
    _save_table(table, path, prior)
    sys.stdout.write(print_element(j_map(x, g), args.format) + "\n")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="affgroth",
        description="Exact affine Grothendieck elements and truncated "
                    "characters.",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("cartan", help="print derived Cartan data")
    _add_common(sp, cache=False)
    sp.set_defaults(func=cmd_cartan)

    sp = sub.add_parser("groth", help="compute one G_w")
    _add_common(sp)
    sp.add_argument("--word", required=True, help="e.g. 1,0 for s_1 s_0")
    sp.add_argument("--format", default="terms",
                    choices=("terms", "orbit", "json"))
    sp.add_argument("--verify", action="store_true",
                    help="run all entry checks; nonzero exit on failure")
    sp.set_defaults(func=cmd_groth)

    sp = sub.add_parser("table", help="compute all G_w up to a length")
    _add_common(sp)
    sp.add_argument("--max-length", type=int, required=True)
    sp.add_argument("--jobs", type=int, default=1,
                    help="parallel workers per layer")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("verify", help="verify table entries up to a length")
    _add_common(sp)
    sp.add_argument("--max-length", type=int, required=True)
    sp.add_argument("--checks",
                    help="comma subset of %s" % ",".join(GrothTable.ALL_CHECKS))
    sp.add_argument("--probe-length", type=int, default=None,
                    help="max length of localization probe points")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("char", help="truncated character series")
    _add_common(sp)
    sp.add_argument("--word", default="", help="w for --euler/--local")
    sp.add_argument("--weight", required=True, help="weight expression")
    sp.add_argument("--cutoff", type=int, required=True)
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--euler", action="store_true",
                      help="Euler characteristic of the twisted sheaf at w")
    mode.add_argument("--local", metavar="X",
                      help="local cohomology character at cell word X")
    sp.set_defaults(func=cmd_char)

    sp = sub.add_parser("localize", help="print j_x(G_w)")
    _add_common(sp)
    sp.add_argument("--word", required=True)
    sp.add_argument("--at", required=True, help="localization point word")
    sp.add_argument("--format", default="terms",
                    choices=("terms", "orbit", "json"))
    sp.set_defaults(func=cmd_localize)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except ParseError as ex:
        sys.stderr.write("parse error: %s\n%s" % (ex, GRAMMAR_HELP))
        return 2
    except UnknownNode as ex:
        sys.stderr.write("error: %s\n" % ex)
        return 2
    except AffGrothError as ex:
        sys.stderr.write("error: %s\n" % ex)
        return 1


if __name__ == "__main__":
    sys.exit(main())
