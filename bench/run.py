"""Benchmark of the magnetotrio command line, end to end and layer by layer.

Run from the repository root::

    python3 bench/run.py --workload simulate --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --compare bench/out/A [bench/out/B]

A run generates the workload's seeded inputs, then starts fresh
interpreters (bench/worker.py) that drive ``magnetotrio.cli.main(argv)``
in-process: a few that stop after the first op, for the set-up and
cold-start times, and a few that each run the closed loop for a share of
``--seconds``; their latencies are pooled.  BLAS/OpenMP pools are pinned
to one thread and ``MAGNETOTRIO_THREADS`` is removed, which is the
package's default serial path.

With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the per-layer metrics from spans
recorded around the package's layer functions.  ``setup_s`` and
``cold_start_s`` are wall times from the spawn of a fresh interpreter,
median over all interpreters of the run; ``ops_per_s`` is ops over their
summed latencies.  All times are scaled to a reference machine speed by
a calibration kernel run outside the measured intervals (see worker.py);
the raw times are kept in the run record.  Every run writes a full
record (environment, metrics, exact counts, latencies, failures) to
``--results`` and prints each metric with its unit; the last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--compare`` summarises one or two result
directories.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src", "magnetotrio")
OUT = os.path.join(BENCH_DIR, "out")

COLD_RUNS = 8          # interpreters that stop after the first op
LOOP_RUNS = 3          # interpreters that share the measuring time
DEADLINE_S = 170.0     # a run must end within 180 s
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k != "MAGNETOTRIO_THREADS" and not k.startswith("PYTHON")}
    env.update({k: "1" for k in THREAD_PINS})
    return env


def source_digest():
    h = hashlib.sha256()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(SRC, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev():
    """The commit of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def spawn(work, tag, job, deadline):
    """Run one worker in a fresh interpreter and return its result record."""
    job_path = os.path.join(work, f"{tag}.job.json")
    result_path = os.path.join(work, f"{tag}.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(dict(job, out_root=os.path.join(work, tag)), fh)
    proc = subprocess.run(
        [sys.executable, "-I", os.path.join(BENCH_DIR, "worker.py"),
         job_path, result_path, repr(time.monotonic())],
        env=child_env(), cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited {proc.returncode}:\n{proc.stdout}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def quantile(values, q):
    """The q-quantile of the samples, and how many samples lie above it."""
    cut = statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]
    return cut, sum(v > cut for v in values)


def end_to_end(cold, loops):
    lat = [x * f * 1e3 for r in loops
           for x, f in zip(r["latencies_s"], r["factors"])]
    p50, _ = quantile(lat, 0.5)
    p90, above = quantile(lat, 0.9)
    workers = cold + loops
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in workers),
        "cold_start_s": statistics.median(r["cold_start_s"] for r in workers),
        "ops_per_s": len(lat) / (sum(lat) / 1e3),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in loops),
    }
    samples = {"ops": len(lat), "above_p90": above,
               "cycles": sum(r["cycles"] for r in loops),
               "interpreters": len(workers)}
    return metrics, samples


def per_layer(loops):
    """Mean of the loop interpreters' per-layer metrics and self times."""
    def mean(key, name):
        return statistics.fmean(r[key][name] for r in loops)

    counts = loops[0]["counts"]
    stable = all(r["counts_stable"] and r["counts"] == counts for r in loops)
    return ({name: mean("layers", name) for name in loops[0]["layers"]},
            {name: mean("self_s", name) for name in loops[0]["self_s"]},
            counts, stable)


def run(args, spec):
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        sys.exit(f"bench: no package source at {SRC}")
    import workloads   # the input generator needs numpy

    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = os.path.join(OUT, "work", tag)
    shutil.rmtree(work, ignore_errors=True)
    ops = workloads.build(args.workload, args.seed, os.path.join(work, "in"))
    job = {"ops": ops, "seconds": args.seconds / LOOP_RUNS,
           "trace": args.trace, "mode": "cold"}
    try:
        cold = [] if args.trace else [spawn(work, f"cold{k}", job, deadline)
                                     for k in range(COLD_RUNS)]
        loops = [spawn(work, f"loop{k}", dict(job, mode="loop"), deadline)
                 for k in range(LOOP_RUNS)]
        if args.trace:
            os.makedirs(args.results, exist_ok=True)
            spans_files = [os.path.join(args.results, f"{tag}.{k}.spans.jsonl")
                           for k in range(LOOP_RUNS)]
            for r, path in zip(loops, spans_files):
                shutil.move(r.pop("spans_file"), path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    workers = cold + loops
    attempted = sum(r["attempted"] for r in workers)
    failed = sum(r["failed"] for r in workers)
    kind = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        values, self_s, counts, counts_stable = per_layer(loops)
        samples = {"cycles": sum(r["cycles"] for r in loops)}
    else:
        values, samples = end_to_end(cold, loops)
    names = [m["name"] for m in spec[kind]]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(names))} are "
                           f"not both measured and declared in BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": failed == 0, "attempted": attempted,
        "failed": failed, "fail_rate": failed / attempted,
        "metrics": metrics, "samples": samples,
        "failures": [f for r in workers for f in r["failures"]],
        "env": {
            "git_rev": git_rev(), "source_digest": source_digest(),
            **loops[0]["versions"], "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "thread_pins": {k: "1" for k in THREAD_PINS},
            "MAGNETOTRIO_THREADS": None,
            "fresh_interpreters": [r["pid"] for r in workers],
        },
        "latencies_s": [r["latencies_s"] for r in loops],
        "speed_factors": [r["factors"] for r in loops],
        "cold_samples": [{k: r[k] for k in ("setup_s", "cold_start_s",
                                            "setup_raw_s", "cold_start_raw_s")}
                         for r in workers],
    }
    if args.trace:
        record.update(counts=counts, counts_stable=counts_stable,
                      self_s=self_s, spans_files=spans_files)
    os.makedirs(args.results, exist_ok=True)
    with open(os.path.join(args.results, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed {args.seed}: {attempted} ops, {failed} failed, "
          f"{samples}")
    for name, m in metrics.items():
        print(f"  {name:<40s} {m['value']:14.6g} {m['unit']}")
    for line in record["failures"]:
        print(f"  FAIL {line}")
    if args.trace:
        top = max((n for n in self_s if not n.startswith("cli.")),
                  key=self_s.get)
        layer = max((k for k in values if k.count(".") == 1
                     and k.endswith(".self_s")), key=values.get)
        print(f"  largest self time outside cli: span {top}, layer {layer}")
        if not counts_stable:
            print("  WARNING: exact counts differ between cycles")
    elif samples["above_p90"] < 10:
        print(f"  WARNING: only {samples['above_p90']} samples above op_p90_ms")
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=os.path.join(OUT, "results"),
                        help="directory for the run records")
    parser.add_argument("--compare", nargs="+", metavar="DIR",
                        help="summarise one result directory, or compare two")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        import compare
        return compare.main(args.compare, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error("--workload must name a workload of BENCHMARK.json")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    run(args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
