"""Tracing from outside the program: wrap public functions of affgroth.

Every wrapped function aggregates calls, total time and self time (its total
minus the time spent in wrapped functions it called).  Coarse boundaries also
record one span each: (name, start, end, parent span, op id), kept in memory
and written out by the worker at the end of the pass.  Hot leaves, which run
millions of times, only aggregate.

Functions imported by name into other modules (groth binds solve_coboundary
and j_map, coefq binds pgcd, cocycle binds reflect_act, ...) are replaced at
every binding in every loaded affgroth module.  Private helpers the roadmap
plans to delete (_eliminate, _solve_on_support, CoefQ.complexity, _qpoly_c)
are deliberately not wrapped.
"""

import functools
import importlib
import sys
import time

# (module, attribute path, records spans)
TARGETS = (
    ("groth", "GrothTable.compute", True),
    ("groth", "GrothTable.verify", True),
    ("groth", "GrothTable.save", True),
    ("groth", "GrothTable.load", True),
    ("cocycle", "solve_coboundary", True),
    ("cocycle", "check_cocycle", True),
    ("kring", "j_map", True),
    ("kring", "demazure", False),
    ("kring", "psi", False),
    ("kring", "reflect_act", False),
    ("kring", "weyl_act", False),
    ("kring", "KElement.__add__", False),
    ("kring", "KElement.__mul__", False),
    ("characters", "euler_character", True),
    ("characters", "weyl_kac_character", True),
    ("characters", "denominator_inverse", True),
    ("coefq", "CoefQ.make", False),
    ("coefq", "CoefQ.__add__", False),
    ("coefq", "CoefQ.__mul__", False),
    ("coefq", "CoefQ.inv", False),
    ("qpoly", "pgcd", False),
    ("qpoly", "pmul", False),
    ("qpoly", "pdivexact", False),
    ("weights", "Weight.__add__", False),
    ("cartan", "AffineCartanData.reflect", False),
    ("cartan", "AffineCartanData.normalize", False),
    ("weyl", "bruhat_leq", False),
)


def stat_name(module, path):
    """Metric prefix: groth.GrothTable.compute is reported as groth.compute."""
    if path.startswith("GrothTable."):
        path = path[len("GrothTable."):]
    return "%s.%s" % (module, path)


class Tracer:
    def __init__(self):
        self.stats = {}    # name -> [calls, total_s, self_s]
        self.spans = []    # (name, start, end, parent index, op id)
        self.stack = []    # indices of open spans
        self.child = 0.0   # time spent in wrapped callees of the open frame
        self.op = None

    def wrap(self, name, fn, span):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter
        tr = self

        if span:
            def wrapper(*args, **kwargs):
                idx = len(tr.spans)
                parent = tr.stack[-1] if tr.stack else None
                tr.spans.append(None)
                tr.stack.append(idx)
                saved, tr.child = tr.child, 0.0
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    dt = t1 - t0
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += dt - tr.child
                    tr.child = saved + dt
                    tr.stack.pop()
                    tr.spans[idx] = (name, t0, t1, parent, tr.op)
        else:
            def wrapper(*args, **kwargs):
                saved, tr.child = tr.child, 0.0
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += dt - tr.child
                    tr.child = saved + dt
        return functools.wraps(fn)(wrapper)

    def span(self, name, op):
        """Context for a span recorded by the benchmark itself (one op)."""
        return _Span(self, name, op)

    def install(self):
        """Replace every target at every binding in the loaded package."""
        for module, path, span in TARGETS:
            mod = importlib.import_module("affgroth." + module)
            owner = mod
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            orig = raw.__func__ if kind else raw
            wrapped = self.wrap(stat_name(module, path), orig, span)
            if isinstance(owner, type):
                for key, val in list(owner.__dict__.items()):
                    if val is raw:
                        setattr(owner, key, kind(wrapped) if kind else wrapped)
            else:
                for name, m in list(sys.modules.items()):
                    if name == "affgroth" or name.startswith("affgroth."):
                        for key, val in list(vars(m).items()):
                            if val is orig:
                                setattr(m, key, wrapped)


class _Span:
    def __init__(self, tracer, name, op):
        self.tr, self.name, self.op = tracer, name, op

    def __enter__(self):
        tr = self.tr
        tr.op = self.op
        self.idx = len(tr.spans)
        self.parent = tr.stack[-1] if tr.stack else None
        tr.spans.append(None)
        tr.stack.append(self.idx)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        tr = self.tr
        tr.stack.pop()
        tr.spans[self.idx] = (self.name, self.t0, t1, self.parent, self.op)
        self.seconds = t1 - self.t0
        return False
