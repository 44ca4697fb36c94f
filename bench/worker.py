"""One workload in a fresh interpreter: set up, run ops, report as JSON.

Started by run.py as ``python3 -I bench/worker.py JOB RESULT T_SPAWN``.
JOB is a JSON file with the op cycle and the mode, T_SPAWN the parent's
``time.monotonic()`` just before the spawn; the worker writes its
measurements to RESULT.

* mode ``cold``: set up, run the first op, check it, exit.  Gives one
  sample of ``setup_s`` and ``cold_start_s``.
* mode ``loop``: the same, then finish the first cycle as a warm-up
  (every output fully checked), then repeat whole cycles for the
  measuring time.  A closed loop with one client: the next op starts when
  the previous one returns.  With tracing on, traced and untraced cycles
  alternate; the untraced ones give the tracing overhead.

The op latency is the wall time of one in-process ``magnetotrio.cli.main``
call.  Output checks run between ops, outside that time; an output
byte-identical to one already checked for the same op is not re-checked.

The speed of a shared machine drifts by up to a factor of two within
seconds.  So that runs stay comparable, a fixed calibration kernel runs
between the ops of the loop, outside their time, and each op's
``factor`` is ``CALIBRATION_REF_S`` over the median of the kernel times
of the ``CALIBRATION_WINDOW`` runs around it: latency times factor is
the op's time on a machine where the kernel takes ``CALIBRATION_REF_S``.
Set-up and cold-start times are scaled the same way by the kernel run
three times just before and three times just after the imports.  The
raw times are kept too.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import statistics
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WRITES_FILES = ("simulate", "find", "split")
CALIBRATION_REF_S = 0.0025
CALIBRATION_WINDOW = 6


_KERNEL_SOURCE = ("def f(x, y):\n"
                  "    z = [a * b for a, b in zip(x, y)]\n"
                  "    return {k: v for k, v in enumerate(z)}\n") * 40


def calibration_kernel():
    """Fixed interpreter work: compile and run a block of Python source.
    Its mix of parsing, allocation and dict work tracked the package's op
    times across machine-speed swings better than a tight arithmetic
    loop.  It imports nothing, so it can run before the package is
    imported.  Returns its wall time."""
    t0 = time.perf_counter()
    exec(compile(_KERNEL_SOURCE, "<calibration>", "exec"), {})
    return time.perf_counter() - t0


def run_op(main, op, out_dir):
    """Run one op; return (exit code or None on a traceback, output, seconds)."""
    argv = list(op["argv"])
    if op["expect"]["kind"] in WRITES_FILES:
        argv += ["--out-dir", out_dir]
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = main(argv)
    except SystemExit as ex:
        rc = ex.code if isinstance(ex.code, int) else 1
    except Exception:
        rc = None
        buf.write(traceback.format_exc())
    return rc, buf.getvalue(), time.perf_counter() - t0


def fingerprint(rc, out, out_dir):
    """Hash of everything an op produced, minus wall-time figures."""
    h = hashlib.sha256(repr(rc).encode())
    h.update(re.sub(r"\d+\.\d+ s\)", "s)", out).encode())
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            if not name.endswith(".manifest.json"):
                h.update(name.encode())
                with open(os.path.join(out_dir, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


class Checker:
    """Checks each op's output, once per distinct output of that op."""

    def __init__(self):
        import checks
        self.check = checks.check
        self.verified = {}
        self.failures = []

    def __call__(self, k, op, rc, out, out_dir):
        if rc is None:
            why = "traceback: " + out.strip().splitlines()[-1]
        else:
            fp = fingerprint(rc, out, out_dir)
            if fp in self.verified.setdefault(k, set()):
                return True
            why = self.check(op, rc, out, out_dir)
            if why is None:
                self.verified[k].add(fp)
                return True
        if len(self.failures) < 20:
            self.failures.append(f"op {k} ({' '.join(op['argv'][:1])}): {why}")
        return False


def calibrate():
    """Median of three kernel times, and the wall time spent on them."""
    t0 = time.monotonic()
    kernel = sorted(calibration_kernel() for _ in range(3))[1]
    return kernel, time.monotonic() - t0


def main(job_path, result_path, t_spawn):
    # Set-up time runs from the parent's spawn until the first op can start,
    # less the calibration kernels that bracket the imports.
    kernel_before, spent_before = calibrate()
    sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]
    from magnetotrio import cli
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    ready = time.monotonic()
    kernel_after, spent_after = calibrate()

    ops = job["ops"]
    out_dirs = [os.path.join(job["out_root"], f"o{k:02d}") for k in range(len(ops))]
    rc, out, _ = run_op(cli.main, ops[0], out_dirs[0])
    first_done = time.monotonic()
    setup = ready - t_spawn - spent_before
    cold_start = first_done - t_spawn - spent_before - spent_after
    factor = 2.0 * CALIBRATION_REF_S / (kernel_before + kernel_after)
    checker = Checker()
    result = {"pid": os.getpid(),
              "setup_raw_s": setup, "cold_start_raw_s": cold_start,
              "setup_s": setup * factor, "cold_start_s": cold_start * factor,
              "attempted": 1,
              "failed": 0 if checker(0, ops[0], rc, out, out_dirs[0]) else 1}

    if job["mode"] == "loop":
        spans_path = result_path[:-len(".json")] + ".spans.jsonl"
        result.update(loop(cli.main, ops, out_dirs, checker, job["seconds"],
                           job["trace"], spans_path))
        result["attempted"] += result.pop("loop_attempted")
        result["failed"] += result.pop("loop_failed")

    import numpy
    import scipy
    result["failures"] = checker.failures
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__, "scipy": scipy.__version__}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def loop(cli_main, ops, out_dirs, checker, seconds, traced, spans_path):
    attempted = failed = 0
    for k in range(1, len(ops)):       # warm-up: rest of the first cycle
        rc, out, _ = run_op(cli_main, ops[k], out_dirs[k])
        attempted += 1
        failed += not checker(k, ops[k], rc, out, out_dirs[k])

    tracer = None
    if traced:
        import spans
        tracer = spans.Tracer()
        traced_main = tracer.span("cli.main", cli_main)

    latencies, on, cycle_spans = [], [], []
    start = time.perf_counter()
    cycle = 0
    kernel = [calibration_kernel()]
    while time.perf_counter() - start < seconds or cycle < (2 if traced else 1):
        tracing = traced and cycle % 2 == 0
        if tracing:
            first_span = len(tracer.spans)
            tracer.install()
        for k, op in enumerate(ops):
            if tracing:
                tracer.op = len(latencies)
            rc, out, dt = run_op(traced_main if tracing else cli_main, op,
                                 out_dirs[k])
            kernel.append(calibration_kernel())
            latencies.append(dt)
            on.append(tracing)
            attempted += 1
            failed += not checker(k, op, rc, out, out_dirs[k])
        if tracing:
            tracer.uninstall()
            cycle_spans.append((first_span, len(tracer.spans)))
        cycle += 1

    # kernel[i] ran just before op i and kernel[i + 1] just after it
    half = CALIBRATION_WINDOW // 2
    factors = [CALIBRATION_REF_S
               / statistics.median(kernel[max(0, i + 1 - half):i + 1 + half])
               for i in range(len(latencies))]
    result = {"cycles": cycle, "latencies_s": latencies, "factors": factors,
              "traced": on, "loop_attempted": attempted, "loop_failed": failed}
    if traced:
        result.update(layers(tracer, cycle_spans, latencies, factors, on,
                             spans_path))
    return result


def layers(tracer, cycle_spans, latencies, factors, on, spans_path):
    import spans
    per_cycle = [spans.exact_counts(spans.span_table(tracer.spans[a:b], factors, a))
                 for a, b in cycle_spans]
    table = spans.span_table(tracer.spans, factors)
    metrics = spans.layer_metrics(table, len(cycle_spans))

    def rate(flag):
        lat = [x * f for x, f, t in zip(latencies, factors, on) if t == flag]
        return len(lat) / sum(lat)

    metrics["trace.traced_minus_untraced_ops_per_s"] = rate(True) - rate(False)
    tracer.dump(spans_path)
    return {"layers": metrics, "counts": per_cycle[0],
            "counts_stable": all(c == per_cycle[0] for c in per_cycle),
            "spans_file": spans_path,
            "self_s": {name: row["self_s"] / len(cycle_spans)
                       for name, row in table.items()}}


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], float(sys.argv[3]))
