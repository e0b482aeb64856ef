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


def test_only_coefq_and_probes_import_qpoly():
    # the q-polynomial kernels sit under CoefQ and the vanishing probes;
    # every other module, the orbit printer included, goes through coefq
    found = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.module == "qpoly" or node.module is None
                    and any(a.name == "qpoly" for a in node.names)):
                found.append(name)
    assert sorted(set(found)) == ["coefq.py", "probes.py"]


def test_only_qpoly_names_pgcd():
    # the package runs no gcd: a coefficient holds its denominator as
    # cyclotomic exponents and cancels by exact division.  qpoly.pgcd stays
    # as the reference gcd of the tests, and no other module may name it
    found = []
    for name, tree in _package_trees():
        if name != "qpoly.py":
            found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                      if isinstance(node, ast.Name) and node.id == "pgcd"
                      or isinstance(node, ast.Attribute)
                      and node.attr == "pgcd"]
            found += ["%s import" % name for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom)
                      for a in node.names if a.name == "pgcd"]
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


# library entry points no module of the repo calls: the weight constructor
# Lam, the invariant form bilinear, the README's parse_expression and the
# delta-normal form normalize (the solver normalizes packed keys, and
# perfbench/tracing.py wraps normalize by name)
_API_WITHOUT_CALLER = {"Lam", "bilinear", "parse_expression", "normalize"}


def _reads(tree, out, enclosing=()):
    """Append (name, enclosing definitions) for every name and attribute
    that tree loads."""
    for child in ast.iter_child_nodes(tree):
        inner = enclosing
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = enclosing + (child,)
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            out.append((child.id, inner))
        elif (isinstance(child, ast.Attribute)
              and isinstance(child.ctx, ast.Load)):
            out.append((child.attr, inner))
        _reads(child, out, inner)


def test_every_definition_has_a_reader():
    # a function, class or method of the package is read, by name, outside
    # its own body in the package, perfbench/ or benchmarks/, or is
    # exported through affgroth.__all__; tests alone do not keep a name
    repo = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    package = list(_package_trees())
    trees = [tree for _, tree in package]
    for sub in ("perfbench", "benchmarks"):
        for path in sorted(glob.glob(os.path.join(repo, sub, "*.py"))):
            with open(path) as fh:
                trees.append(ast.parse(fh.read(), path))
    reads = []
    for tree in trees:
        _reads(tree, reads)
    keep = set(affgroth.__all__) | _API_WITHOUT_CALLER
    found = []
    for name, tree in package:
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))
                    and node.name not in keep
                    and not any(n == node.name and node not in inner
                                for n, inner in reads)):
                found.append("%s:%d %s" % (name, node.lineno, node.name))
    assert found == []
