"""Command-line front end.

Exit status: 0 success, 1 verification or data failure or a closed
standard output, 2 usage error.
A cache file (--cache or the AFFGROTH_CACHE environment variable) persists a
GrothTable per Cartan datum as JSON; commands load it when present and save
back when they added entries.
"""

import argparse
import contextlib
import json
import os
import sys

from . import weyl as weyl_mod
from .cartan import build_cartan, from_type
from .characters import (euler_character, local_cohomology_character,
                         weyl_kac_character)
from .coefq import MAX_EXPONENT
from .errors import AffGrothError, ParseError, UnknownNode
from .expr import print_element
from .groth import GrothTable
from .kring import j_map
from .weights import format_weight, parse_weight

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
        except (json.JSONDecodeError, RecursionError) as ex:
            # RecursionError: lists nested too deep for json, never a GCM
            parser.error("--gcm is not valid JSON: %s" % ex)
        return build_cartan(rows)
    if not args.type:
        parser.error("one of --type or --gcm is required")
    return from_type(args.type)


def _element(text, cd, parser):
    """The Weyl group element of a word given as comma-separated node
    labels; "" and "e" give the identity."""
    text = (text or "").strip()
    try:
        word = () if text in ("", "e") else tuple(map(int, text.split(",")))
    except ValueError:
        parser.error("word must be comma-separated node labels, got %r" % text)
    for i in word:
        if not 0 <= i < cd.rank:
            raise UnknownNode("node label %d out of range (rank %d)"
                              % (i, cd.rank))
    return weyl_mod.canonicalize(cd, word)


@contextlib.contextmanager
def _cached_table(cd, args):
    """The GrothTable of the cache file (--cache, else $AFFGROTH_CACHE), or
    a fresh one when there is no file; saved back when the block exits
    normally and has added entries or changed verified flags."""
    path = args.cache or os.environ.get("AFFGROTH_CACHE")
    if path and os.path.exists(path):
        table = GrothTable.load(path, cd=cd)
    else:
        table = GrothTable(cd)
    # the flags themselves, not their count: verify can clear one flag and
    # set another
    prior = len(table.entries), frozenset(table.verified)
    yield table
    if path and (len(table.entries), frozenset(table.verified)) != prior:
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
    w = _element(args.word, cd, parser)
    with _cached_table(cd, args) as table:
        g = table.compute(w)
        status = 0
        if args.verify:
            fails = table.verify(w)
            for line in fails:
                sys.stderr.write("FAIL %s: %s\n"
                                 % (",".join(map(str, w.word)), line))
            status = 1 if fails else 0
    sys.stdout.write(print_element(g, args.format) + "\n")
    return status


def _require_nonnegative(parser, flag, value):
    if value is not None and value < 0:
        parser.error("%s must be >= 0, got %d" % (flag, value))


def cmd_table(args, parser):
    _require_nonnegative(parser, "--max-length", args.max_length)
    cd = _cartan_of(args, parser)
    with _cached_table(cd, args) as table:
        layers = weyl_mod.enumerate_up_to(cd, args.max_length)
        for length, layer in enumerate(layers):
            total = sum(len(table.compute(w)) for w in layer)
            sys.stdout.write("length %d: %d elements, %d terms\n"
                             % (length, len(layer), total))
    return 0


def cmd_verify(args, parser):
    _require_nonnegative(parser, "--max-length", args.max_length)
    _require_nonnegative(parser, "--probe-length", args.probe_length)
    try:
        checks = GrothTable.check_names(
            args.checks.split(",") if args.checks is not None else None)
    except ValueError as ex:
        parser.error(str(ex))
    cd = _cartan_of(args, parser)
    bad = 0
    with _cached_table(cd, args) as table:
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
    return 1 if bad else 0


def cmd_char(args, parser):
    _require_nonnegative(parser, "--cutoff", args.cutoff)
    if args.cutoff > MAX_EXPONENT:
        # no coefficient carries a larger exponent, and a deeper cut asks
        # for series far beyond any that can be computed
        parser.error("--cutoff must be <= %d, got %d"
                     % (MAX_EXPONENT, args.cutoff))
    cd = _cartan_of(args, parser)
    mu = parse_weight(args.weight, cd.rank)
    with _cached_table(cd, args) as table:
        w = _element(args.word, cd, parser)
        if args.local is not None:
            x = _element(args.local, cd, parser)
            series = local_cohomology_character(cd, w, x, mu, args.cutoff,
                                                table)
        elif args.euler:
            series = euler_character(cd, w, mu, args.cutoff, table)
        else:
            series = weyl_kac_character(cd, mu, args.cutoff)
    for kappa, c in series.items_by_depth():
        sys.stdout.write("%s * e[%s]\n" % (c, format_weight(kappa)))
    return 0


def cmd_localize(args, parser):
    cd = _cartan_of(args, parser)
    with _cached_table(cd, args) as table:
        w = _element(args.word, cd, parser)
        x = _element(args.at, cd, parser)
        g = table.compute(w)
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
        status = args.func(args, parser)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # the reader went away (`| head`): nothing more can be said, and
        # stdout goes to devnull so that the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ParseError as ex:
        sys.stderr.write("parse error: %s\n%s" % (ex, GRAMMAR_HELP))
        return 2
    except UnknownNode as ex:
        sys.stderr.write("error: %s\n" % ex)
        return 2
    except AffGrothError as ex:
        sys.stderr.write("error: %s\n" % ex)
        return 1
    except RecursionError as ex:
        # GrothTable.compute recurses two frames per letter of the word
        sys.stderr.write("error: word too long: %s\n" % ex)
        return 1


if __name__ == "__main__":
    sys.exit(main())
