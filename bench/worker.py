"""One workload process: set up, then send documents one at a time.

Started by run.py, never directly. Set-up is the import, generating the
pool of inputs from the seed and a census that processes and checks every
document once; it ends at the first timed document. The census is the
warm-up, and it leaves the library's known defects (workloads.py) out of
the timed pool and counts them instead. The timed phase runs whole passes
over that pool until its share of the run is spent. With --trace 1 an
untraced half is followed by a traced half. The last line of stdout is one
JSON object for run.py.
"""
import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import unitary3
from spans import Tracer
from workloads import WORKLOADS


def run_passes(wl, pool, seconds, tracer=None, first_doc=0):
    """Closed loop over whole passes of the pool until ``seconds`` elapse.

    Keeps each document's fastest time over its repeats, its error if any
    repeat failed, the time of every correct repeat, and the reference
    task's times: its fastest, run once per pass, or for a paired workload
    its median and each repeat's ratio to it, run after every document.
    """
    best = [math.inf] * len(pool)
    references = []
    ratios = [[] for _ in pool]
    errors = [None] * len(pool)
    latencies, completed = [], set()
    attempted = failed = 0
    doc_id = first_doc
    deadline = time.monotonic() + seconds
    while True:
        for i, doc in enumerate(pool):
            if tracer:
                tracer.doc, tracer.active = doc_id, True
            start = time.perf_counter_ns()
            try:
                out, error = wl.process(doc), None
            except Exception as exc:  # any failure of a document is counted, not fatal
                out, error = None, type(exc).__name__
            elapsed = time.perf_counter_ns() - start
            if tracer:
                tracer.active = False
            if error is None:
                completed.add(doc_id)
                if not wl.check(doc, out):
                    error = "check"
            attempted += 1
            best[i] = min(best[i], elapsed)
            if error is None:
                latencies.append(elapsed)
            else:
                failed += 1
                errors[i] = errors[i] or f"{doc.stratum}:{error}"
            doc_id += 1
            if wl.paired:
                references.append(wl.reference())
                ratios[i].append(elapsed / references[-1])
        if not wl.paired:
            references.append(wl.reference())
        if time.monotonic() >= deadline:
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "best_ns": best,
        "reference_ns": statistics.median(references) if wl.paired else min(references),
        "ratios": ratios if wl.paired else None,
        "errors": errors,
        "latencies_ns": latencies,
        "completed": completed,
    }


def census(wl, pool):
    """Process and check each document once, untimed.

    Returns the documents to time and the count of known defects by
    stratum and error. A document that fails in any other way is timed, so
    its failure counts in the run.
    """
    timed, defects = [], Counter()
    for doc in pool:
        try:
            error = None if wl.check(doc, wl.process(doc)) else "check"
        except Exception as exc:  # any failure of a document is counted, not fatal
            error = type(exc).__name__
        if error is not None and wl.known_defect(doc.stratum, error):
            defects[f"{doc.stratum}:{error}"] += 1
        else:
            timed.append(doc)
    return timed, defects


def measure(wl, args, out, inputs, tracer):
    if tracer:
        tracer.install()
        tracer.active = True
    pool = wl.generate(unitary3.SeededGenerator(args.seed), wl.pool_size, inputs)
    if tracer:
        tracer.active = False
    timed, defects = census(wl, pool)
    gc.collect()
    setup_s = time.monotonic() - args.spawned

    result = {
        "setup_s": setup_s,
        "numpy": np.__version__,
        "reference_nominal_ns": wl.reference_ns,
        "pool": len(pool),
        "known_defects": defects,
    }
    if tracer:
        plain = run_passes(wl, timed, args.seconds / 2)
        traced = run_passes(wl, timed, args.seconds / 2, tracer, first_doc=plain["attempted"])
        tracer.write(out / f"spans-{args.workload}.csv")  # one file per workload bounds the disk used
        result["layers"] = tracer.layer_metrics(len(pool), traced["attempted"], traced["completed"])
        result["absent"] = tracer.absent
        result["traced"] = {k: traced[k] for k in ("best_ns", "reference_ns", "ratios")}
    else:
        plain = run_passes(wl, timed, args.seconds)
    plain.pop("completed")
    result.update(plain)
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--out", required=True, help="directory for spans and CLI inputs")
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    if Path(unitary3.__file__).resolve().parent != root / "src" / "unitary3":
        sys.exit(f"unitary3 imported from {unitary3.__file__}, not from {root / 'src'}")
    wl = WORKLOADS[args.workload]
    out = Path(args.out)
    tracer = Tracer() if args.trace else None
    inputs = out / f"inputs-{os.getpid()}"
    try:
        result = measure(wl, args, out, inputs, tracer)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-process" else resource.RUSAGE_SELF
    result["peak_rss_kb"] = resource.getrusage(usage).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main()
