"""Benchmark of unitary3: parameter recovery, coherency analysis, CLI process.

Run from the repository root:

    python3 bench/run.py --workload recover-haar --seed 1 --seconds 20 --trace 0

Workloads: recover-haar, recover-faces, chardecomp, cli-process (see
workloads.py and BENCHMARK.json). The load is one closed-loop caller: one
document at a time, each sent after the previous one completed, BLAS
threads pinned to 1.

With --trace 0 the run starts WORKERS fresh worker processes one after
another, each with an equal share of --seconds, and reports the end-to-end
metrics. Each document's time is scaled by the workload's reference task
to the machine's nominal speed (scaled_times; bench/README.md says why);
setup_s, scaled the same way, and peak_rss_mb are medians over the
workers. With --trace 1 one worker runs an untraced half and a traced half
and the run reports the per-layer metrics, with spans written to
.bench_out/.

Each worker first processes and checks every document of its pool once.
Documents that fail with one of the library's known defects (workloads.py)
are counted, printed and left out of the timed passes; every other
document is timed. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; attempted and failed count
the timed documents, and correct is false when any of them failed.
"""
import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# The names in workloads.WORKLOADS; importing it would load numpy here.
WORKLOADS = ("recover-haar", "recover-faces", "chardecomp", "cli-process")
WORKERS = 5
PROBES = 5  # spawns per interpreter start-up probe in a traced run
P99_MIN_DOCS = 1000  # at least ten samples beyond the 99th percentile
RUN_LIMIT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_worker(args, seconds, deadline) -> dict:
    cmd = [
        sys.executable,
        str(Path(__file__).with_name("worker.py")),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--trace", str(args.trace),
        "--out", str(OUT),
        "--spawned", repr(time.monotonic()),
    ]
    proc = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.exit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe_us(argv: list, env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, check=True)
    return (time.perf_counter() - start) * 1e6


def metric(value, unit):
    return {"value": value, "unit": unit}


def reference_ns(results: list) -> float:
    """The reference task's time over the workers: fastest, or for a paired
    workload the median of the workers' medians."""
    refs = [res["reference_ns"] for res in results]
    return statistics.median(refs) if results[0]["ratios"] is not None else min(refs)


def scaled_times(results: list, nominal_ns: float) -> list:
    """Each document's time scaled to the machine's nominal speed: its
    fastest repeat over the workers times the reference task's nominal time
    over its fastest time, or for a paired workload the median of its
    ratios to the reference over the workers times the nominal time."""
    if results[0]["ratios"] is not None:
        pooled = zip(*(res["ratios"] for res in results))
        return [statistics.median(r for rs in doc for r in rs) * nominal_ns for doc in pooled]
    best = [min(ts) for ts in zip(*(res["best_ns"] for res in results))]
    return [t * nominal_ns / reference_ns(results) for t in best]


def throughput(times_ns: list, errors: list) -> float:
    """Correct documents per second of document time; a failed document
    adds its time but is not counted."""
    return sum(e is None for e in errors) / (sum(times_ns) / 1e9)


def end_to_end(results: list) -> dict:
    errors = [next(filter(None, es), None) for es in zip(*(res["errors"] for res in results))]
    reference = reference_ns(results)
    nominal = results[0]["reference_nominal_ns"]
    times = scaled_times(results, nominal)
    correct_times = [t for t, e in zip(times, errors) if e is None]
    if not correct_times:
        sys.exit("no document of the pool was correct")
    p50_us = statistics.median(correct_times) / 1e3
    rate = throughput(times, errors)
    setup_s = statistics.median(res["setup_s"] for res in results)
    print(
        f"speed: reference task {reference / 1e3:.1f} us, nominal {nominal / 1e3:.1f} us; unscaled "
        f"docs_per_s {rate * nominal / reference:.6g}, latency_p50_us {p50_us * reference / nominal:.6g}, "
        f"setup_s {setup_s:.6g}"
    )
    return {
        "docs_per_s": metric(rate, "1/s"),
        "latency_p50_us": metric(p50_us, "us"),
        "setup_s": metric(setup_s * nominal / reference, "s"),
        "peak_rss_mb": metric(statistics.median(res["peak_rss_kb"] for res in results) / 1024, "MiB"),
    }


# The recovery stages named in the ROADMAP, in pipeline order.
RECOVERY_STAGES = (
    "parametrization.normalize_global_phase",
    "parametrization.recover_first_column",
    "rotations.extract_rotation_angles",
    "parametrization.extract_core_params",
    "parametrization.compose_unitary",
)


def per_layer(res: dict) -> dict:
    metrics = dict(res["layers"])
    if metrics["parametrization.recover_params.calls_per_doc"]["value"]:
        stages = ", ".join(
            f"{name.split('.')[1]} {metrics[name + '.p50_us']['value']:.1f}" for name in RECOVERY_STAGES
        )
        total = metrics["parametrization.recover_params.p50_us"]["value"]
        own = metrics["parametrization.recover_params.self_p50_us"]["value"]
        print(f"recover_params p50 {total:.1f} us, self {own:.1f} us; stages p50 us: {stages}")
    latencies = sorted(res["latencies_ns"])
    if len(latencies) >= P99_MIN_DOCS:
        p99 = statistics.quantiles(latencies, n=100)[98] / 1e3
    else:
        print(f"latency_p99_us: {len(latencies)} correct documents, fewer than {P99_MIN_DOCS}; reported as 0")
        p99 = 0.0
    metrics["latency_p99_us"] = metric(p99, "us")
    metrics["known_defect_frac"] = metric(sum(res["known_defects"].values()) / res["pool"], "ratio")
    nominal = res["reference_nominal_ns"]
    plain_rate = throughput(scaled_times([res], nominal), res["errors"])
    traced_rate = throughput(scaled_times([res["traced"]], nominal), res["errors"])
    metrics["trace.delta_docs_per_s"] = metric(traced_rate - plain_rate, "1/s")
    metrics["reference_task_us"] = metric(res["reference_ns"] / 1e3, "us")
    env = child_env()
    bare, imported = [], []
    for _ in range(PROBES):
        bare.append(probe_us(["-c", "pass"], env))
        imported.append(probe_us(["-c", "import unitary3.cli"], env))
    metrics["cli.interpreter_start_us"] = metric(statistics.median(bare), "us")
    metrics["cli.import_us"] = metric(statistics.median(imported) - statistics.median(bare), "us")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "unitary3" / "__init__.py").is_file():
        sys.exit(f"no unitary3 sources under {SRC}")
    if not compileall.compile_dir(SRC, quiet=1):
        sys.exit("compiling the unitary3 sources failed")
    OUT.mkdir(exist_ok=True)
    load = os.getloadavg()
    print(
        f"environment: {os.cpu_count()} cores, {cpu_model()}, Python {platform.python_version()}, "
        f"load average {load[0]:.2f} {load[1]:.2f} {load[2]:.2f}"
    )

    workers = 1 if args.trace else WORKERS
    results = [run_worker(args, args.seconds / workers, deadline) for _ in range(workers)]
    print(f"numpy {results[0]['numpy']}")
    defects = results[0]["known_defects"]
    print(
        f"known defects, left out of the timed pool of {results[0]['pool']} (stratum:error): "
        f"{json.dumps(defects, sort_keys=True)}"
    )
    failures = Counter(filter(None, results[0]["errors"]))
    print(f"failed timed documents (stratum:error): {json.dumps(failures, sort_keys=True)}")
    for layer in results[0].get("absent", []):
        print(f"absent from the library: {layer}")

    metrics = per_layer(results[0]) if args.trace else end_to_end(results)
    summary = {
        "correct": all(res["failed"] == 0 for res in results),
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["failed"] for res in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
