"""affgroth benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source tree that has src/affgroth next to
perfbench/.  Each pass of the workload runs in a fresh single-threaded
process (worker.py) with the pure-Python kernels; passes repeat until about
S seconds are spent (at least MIN_PASSES, and whole cycles of the euler
twists for seeds other than 0).  Every op's result is checked
against reference.json.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
environment, the seed, sample counts and every pass's raw figures.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians over the
passes, and op_p50_ms over each op's median across the passes.  Times
are in reference-machine seconds: each op's time is divided by the host's
speed around it, which calibrate.py measures between the ops; the raw
figures are on the line before the last.  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics (raw seconds, medians over
the traced passes) plus trace.overhead_s, the traced minus the untraced
median wall time.  See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

START = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
WORKER = os.path.join(HERE, "worker.py")

MIN_PASSES = 3
TIME_LIMIT = 165.0  # seconds; the whole run must end well within 180


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def src_digest():
    """Digest of the package sources; keys the prepared caches."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "affgroth")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def child_env():
    env = dict(os.environ)
    env["AFFGROTH_PURE"] = "1"      # the benchmark never uses _qpoly_c
    env["PYTHONHASHSEED"] = "0"
    env.pop("AFFGROTH_CACHE", None)
    return env


def remaining():
    return TIME_LIMIT - (time.monotonic() - START)


def run_worker(args):
    """Start one worker, wait for it, return (spawn time, parsed last line)."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, remaining()))
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: worker timed out: %s\n" % args)
        return t_spawn, None
    if proc.returncode != 0:
        sys.stderr.write("perfbench: worker failed (%d): %s\n%s"
                         % (proc.returncode, args, proc.stderr[-4000:]))
        return t_spawn, None
    lines = proc.stdout.strip().splitlines()
    return t_spawn, json.loads(lines[-1]) if lines else None


def prepare(ref, cache_dir, workloads):
    """Write the verify-cached caches once per source tree, then check every
    entry against the reference digests.  Returns a list of problems."""
    paths = [os.path.join(cache_dir, workloads.cache_name(t, n + 1))
             for t, n in workloads.VERIFY]
    if not all(os.path.exists(p) for p in paths):
        run_worker(["--prepare", cache_dir])
        if not all(os.path.exists(p) for p in paths):
            return ["prepare step did not write the caches"]
    problems = []
    for (type_string, _), path in zip(workloads.VERIFY, paths):
        with open(path) as fh:
            entries = json.load(fh)["entries"]
        for ent in entries:
            key = workloads.table_key(type_string, ent["word"])
            if ref.get(key) != workloads.digest(ent["terms"]):
                problems.append("cache entry %s differs from reference" % key)
        if len(entries) != sum(1 for k in ref
                               if k.startswith("table/%s/" % type_string)):
            problems.append("cache %s has %d entries" % (path, len(entries)))
    return problems


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(SRC, "affgroth", "__init__.py")):
        fail("no affgroth sources at %s" % SRC)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("no BENCHMARK.json at %s" % ROOT)
    with open(spec_path) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.NAMES:
        fail("unknown workload %r (choose from %s)"
             % (args.workload, ", ".join(workloads.NAMES)))
    expected = workloads.EXPECTED_OPS[args.workload]
    cycle = workloads.twist_cycle(args.workload, args.seed)

    problems = []
    cache_dir = os.path.join(WORK, "cache", src_digest()[:16])
    if args.workload == "verify-cached":
        problems += prepare(ref, cache_dir, workloads)
    os.makedirs(WORK, exist_ok=True)

    plain, traced = [], []
    attempted = failed = 0
    backends = set()
    t0 = time.monotonic()
    while True:
        mode = 1 if args.trace and len(traced) < len(plain) else 0
        index = len(traced) if mode else len(plain)
        t_spawn, out = run_worker([args.workload, str(args.seed), str(index),
                                   str(mode), cache_dir, WORK])
        attempted += expected
        if out is None:
            failed += expected
            break
        bad = expected - len(out["ops"])
        for key, dt, dig, err in out["ops"]:
            if err is not None or ref.get(key) != dig:
                bad += 1
                problems.append("op %s: %s" % (key, err or "digest mismatch"))
        failed += bad
        backends.add(out["backend"])
        out["setup_s"] = out["ready"] - t_spawn
        out["wall_s"] = sum(r[1] for r in out["ops"] if r[1] is not None)
        # the same figures in reference-machine seconds (calibrate.py)
        out["ref_setup_s"] = out["setup_s"] / out["setup_speed"]
        out["ref_wall_s"] = sum(r[1] / v
                                for r, v in zip(out["ops"], out["op_speed"])
                                if r[1] is not None)
        out["duration"] = time.monotonic() - t_spawn
        (traced if mode else plain).append(out)
        if args.trace:
            done = traced and len(traced) == len(plain)
            step = plain[-1]["duration"] + (traced[-1]["duration"] if traced else 0)
        else:
            done = len(plain) >= MIN_PASSES and len(plain) % cycle == 0
            step = out["duration"]
        if done and time.monotonic() - t0 + step * cycle > args.seconds:
            break
        if step > remaining():
            break
    if not plain or (args.trace and not traced):
        fail("no complete pass; %s" % "; ".join(problems[:5]))

    # each op's median over the passes, then percentiles over the ops: the
    # pooled samples put the median between two ops of unlike cost, where
    # one slow sample moved it by a third
    by_key = {}
    for o in plain:
        for r, v in zip(o["ops"], o["op_speed"]):
            if r[1] is not None:
                by_key.setdefault(r[0], []).append(r[1] * 1000 / v)
    op_ms = [statistics.median(v) for v in by_key.values()]
    if args.trace:
        values = per_layer(args.workload, plain, traced, problems)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(plain, op_ms)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    if "pure" not in backends or len(backends) != 1:
        problems.append("kernels backend is %s, not pure" % sorted(backends))
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(plain), "traced_passes": len(traced),
        "op_samples": sum(map(len, by_key.values())), "op_keys": len(op_ms),
        # unbounded: the costliest ops follow the host's drift least (README)
        "op_p90_ms": statistics.quantiles(op_ms, n=10, method="inclusive")[8],
        "ops_failed_share": failed / attempted,
        "per_pass": {k: [o[k] for o in plain]
                     for k in ("wall_s", "setup_s", "chunk_s", "ref_wall_s",
                               "ref_setup_s", "peak_rss_kb")},
        "env": {"backend": sorted(backends), "python": platform.python_version(),
                "nproc": os.cpu_count(), "commit": git_commit(),
                "src_sha256": src_digest()},
        "problems": problems[:20],
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def end_to_end(passes, op_ms):
    return {
        "wall_s": statistics.median(o["ref_wall_s"] for o in passes),
        "setup_s": statistics.median(o["ref_setup_s"] for o in passes),
        "peak_rss_mb": statistics.median(o["peak_rss_kb"] / 1024
                                         for o in passes),
        "op_p50_ms": statistics.median(op_ms),
    }


def per_layer(workload, plain, traced, problems):
    def med(f):
        return statistics.median(f(o) for o in traced)

    values = {}
    for name in traced[0]["stats"]:
        for col, suffix in enumerate(("calls", "total_s", "self_s")):
            values["%s.%s" % (name, suffix)] = med(lambda o: o["stats"][name][col])
    for c in traced[0]["verify_check_s"]:
        values["groth.verify.%s_s" % c] = med(lambda o: o["verify_check_s"][c])
    values["groth.save.bytes"] = med(lambda o: o["save_bytes"])
    values["trace.overhead_s"] = (med(lambda o: o["ref_wall_s"])
                                  - statistics.median(o["ref_wall_s"]
                                                      for o in plain))

    # bypass properties: each workload skips the layers it is meant to skip
    if workload == "verify-cached" and values["cocycle.solve_coboundary.calls"]:
        problems.append("verify-cached solved a coboundary")
    if workload.startswith("table-"):
        for fn in ("euler_character", "weyl_kac_character",
                   "denominator_inverse"):
            if values["characters.%s.calls" % fn]:
                problems.append("%s called characters.%s" % (workload, fn))
    return values


if __name__ == "__main__":
    sys.exit(main())
