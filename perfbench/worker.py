"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED PASS TRACE CACHE_DIR WORK_DIR
    python3 perfbench/worker.py --prepare CACHE_DIR

run.py starts this once per pass and reads the last line of its standard
output: a JSON object with the monotonic time at which set-up ended, every
op's key, seconds and result digest, the host's speed around each op and
around the end of set-up (calibrate.py), the peak RSS and, when TRACE is 1,
the per-layer aggregates.  Traced passes also write their spans to WORK_DIR.
"""

import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

from affgroth import GrothTable, qpoly  # noqa: E402
import calibrate  # noqa: E402
import workloads  # noqa: E402

WARM_CHUNKS = 10  # reference chunks between set-up and the first op


def run_pass(name, seed, pass_index, traced, cache_dir, work_dir):
    tracer = None
    check_s = {c: 0.0 for c in GrothTable.ALL_CHECKS}
    verify_call = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

        def verify_call(table, w):
            # one call per check, so each check's time is its own span
            fails = []
            for c in GrothTable.ALL_CHECKS:
                with tracer.span("groth.verify." + c, tracer.op) as sp:
                    fails.extend(table.verify(w, checks=(c,)))
                check_s[c] += sp.seconds
            return fails

    ops = workloads.build(name, seed, cache_dir, work_dir, pass_index,
                          verify_call)
    ready = time.monotonic()

    clock = time.perf_counter
    t_ready = clock()
    calibrate.chunk()  # warm-up, untimed
    chunks = [calibrate.timed_chunk(clock) for _ in range(WARM_CHUNKS)]
    starts = []
    owed = 0.0
    records = []
    save_bytes = 0
    for op_id, (key, call, digest_of) in enumerate(ops):
        starts.append(clock())
        try:
            if tracer is None:
                t0 = clock()
                result = call()
                dt = clock() - t0
            else:
                with tracer.span("op", op_id) as sp:
                    result = call()
                dt = sp.seconds
            if key.startswith("save/"):
                save_bytes += os.path.getsize(result)
            records.append([key, dt, digest_of(result), None])
        except Exception as ex:  # one failed op must not hide the others
            records.append([key, None, None, "%s: %s" % (type(ex).__name__, ex)])
            continue
        # sample the host's speed in proportion to op time
        owed += dt
        while owed >= calibrate.CHUNK_EVERY_S:
            owed -= calibrate.CHUNK_EVERY_S
            chunks.append(calibrate.timed_chunk(clock))

    out = {"ready": ready, "ops": records, "backend": qpoly.BACKEND,
           "chunk_s": statistics.median(d for _, d in chunks),
           "op_speed": calibrate.local_speeds(starts, chunks),
           "setup_speed": calibrate.local_speeds([t_ready], chunks)[0],
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        out["stats"] = tracer.stats
        out["verify_check_s"] = check_s
        out["save_bytes"] = save_bytes
        spans_dir = os.path.join(work_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        path = os.path.join(spans_dir, "%s-seed%d.jsonl" % (name, seed))
        with open(path + ".tmp", "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")
        os.replace(path + ".tmp", path)
    return out


def main(argv):
    if argv[0] == "--prepare":
        workloads.prepare_caches(argv[1])
        return 0
    name, seed, pass_index, traced, cache_dir, work_dir = argv
    out = run_pass(name, int(seed), int(pass_index), traced == "1", cache_dir,
                   work_dir)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
