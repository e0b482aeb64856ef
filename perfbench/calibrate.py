"""A fixed reference job that measures how fast the host runs right now.

The benchmark runs on shared hosts whose speed drifts, by up to twofold, over
seconds to minutes; CPU time drifts with wall time, so neither can tell a
change of the program from a change of the host.  worker.py therefore runs
chunk() between the ops of a pass, about one chunk per CHUNK_EVERY_S of op
time, and divides each op's time by the host's speed around it: the median
chunk time near the op over REF_CHUNK_S, the chunk time of the reference
machine, raised to RESPONSE (README.md).

RESPONSE is how strongly the workloads follow the job: over some 180 passes
of the four workloads, with the median chunk time between 2.9 and 6.0 ms,
the log-log slope of a pass's op time on its chunk time was 0.75-0.91
(correlation 0.94-0.97; 0.72 on euler, whose passes differ in cost by
design).  Compute-bound code follows the job fully; code that waits on
memory less so.  One exponent for all workloads leaves at most about 6% of a
twofold drift uncorrected.

The job is of the same kind as affgroth's pure kernels (products and
pseudo-remainder gcds of integer polynomials held as lists of Python ints)
but shares no code with them, so a change of the program never moves it.
Among the jobs tried it followed the workloads' own drift most closely
(README.md, Noise).  Do not edit it: REF_CHUNK_S and every recorded figure
depend on it.
"""

import gc
import random
import statistics
import time

REF_CHUNK_S = 0.004  # seconds per chunk() on the reference machine (README)
RESPONSE = 0.82
CHUNK_EVERY_S = 0.04  # op time between chunks
WINDOW_S = 0.5  # half-width of the window local_speeds() looks at
MIN_LOCAL = 9  # fewest chunks in a window; below it the pass's own median

_rng = random.Random(20060101)
_POLYS = [[_rng.randint(-9, 9) for _ in range(_rng.randint(4, 9))] + [1]
          for _ in range(16)]


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _prem(a, b):
    """Pseudo-remainder of a by b (coefficients low degree first)."""
    a = list(a)
    lead, db = b[-1], len(b) - 1
    while len(a) > db:
        c, shift = a[-1], len(a) - 1 - db
        a = [lead * x for x in a]
        for j, y in enumerate(b):
            a[shift + j] -= c * y
        while a and not a[-1]:
            a.pop()
    return a


def _gcd_int(x, y):
    x, y = abs(x), abs(y)
    while y:
        x, y = y, x % y
    return x


def _primitive(a):
    g = 0
    for x in a:
        g = _gcd_int(g, x)
    return [x // g for x in a] if g > 1 else a


def _pgcd(a, b):
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a


def chunk():
    """One unit of the reference job: the same 48 gcds every time."""
    degree = 0
    for _ in range(3):
        for k in range(16):
            a, b, c = _POLYS[k], _POLYS[(k + 1) % 16], _POLYS[(k + 5) % 16]
            degree += len(_pgcd(_mul(a, b), _mul(a, c)))
    return degree


def timed_chunk(clock=time.perf_counter):
    """(start, seconds) of one chunk(), with the cyclic garbage collector off
    so that a collection of the program's heap is not charged to the host."""
    gc.disable()
    try:
        t0 = clock()
        chunk()
        return t0, clock() - t0
    finally:
        gc.enable()


def speed_factor(chunks):
    """The host's slowness: (median chunk time / REF_CHUNK_S) ** RESPONSE,
    above 1 when the host is slower than the reference machine."""
    return (statistics.median(d for _, d in chunks) / REF_CHUNK_S) ** RESPONSE


def local_speeds(starts, chunks):
    """The host's speed around each op: the speed factor of the chunks that
    started within WINDOW_S of the op's start, or of the whole pass where
    fewer than MIN_LOCAL did.  The host's speed drifts within a pass too."""
    whole = speed_factor(chunks)
    out = []
    for t in starts:
        near = [c for c in chunks if abs(c[0] - t) <= WINDOW_S]
        out.append(speed_factor(near) if len(near) >= MIN_LOCAL else whole)
    return out
