"""Rules on the package source itself."""

import ast
import glob
import os

import affgroth


def _package_trees():
    """(file name, parsed module) for every affgroth/*.py."""
    paths = sorted(glob.glob(os.path.join(
        os.path.dirname(os.path.abspath(affgroth.__file__)), "*.py")))
    assert paths
    for path in paths:
        with open(path) as fh:
            yield os.path.basename(path), ast.parse(fh.read(), path)


def test_no_assert_statements():
    # python -O strips assert statements, and an invariant written as one
    # would vanish with them; the package raises typed errors instead
    found = []
    for name, tree in _package_trees():
        found += ["%s:%d" % (name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _exported(tree):
    """The names a module-level __all__ = [...] lists."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def test_no_unused_imports():
    # a name an import binds must be read somewhere in its module, or be
    # re-exported through __all__
    found = []
    for name, tree in _package_trees():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        read |= _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        found.append("%s:%d %s" % (name, node.lineno, bound))
    assert found == []
