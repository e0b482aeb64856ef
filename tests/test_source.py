"""Rules on the package source itself."""

import ast
import glob
import os

import affgroth


def test_no_assert_statements():
    # python -O strips assert statements, and an invariant written as one
    # would vanish with them; the package raises typed errors instead
    paths = sorted(glob.glob(os.path.join(
        os.path.dirname(os.path.abspath(affgroth.__file__)), "*.py")))
    assert paths
    found = []
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found += ["%s:%d" % (os.path.basename(path), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
