"""Exact work counts of one benchmark workload: Python opcodes per op.

    python tools/opcount.py WORKLOAD [--seed N]

WORKLOAD is one of the workloads of ``bench/workloads.py`` (simulate,
find, check, split).  The script writes that workload's seeded inputs into
a temporary directory with ``bench/workloads.py`` and runs one warm-up
cycle of its ops through ``magnetotrio.cli.main`` in this process, with
the benchmark's own op runner (``run_op`` of ``bench/worker.py``) and one
output directory per op, as the benchmark keeps them; it only reads the
files under ``bench/``.  It then runs a second cycle, counts the Python
opcodes that each op executes (``sys.settrace`` with ``f_trace_opcodes``)
and prints one JSON line: the workload, the seed, the count of each op in
cycle order and their total.  An op that raises ends the script with its
traceback.  No time is reported.  Work done in C, such as numpy's, does
not show in the counts, and the counts are the same under any hash seed.
"""

import argparse
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402
from magnetotrio.cli import main  # noqa: E402
from worker import run_op  # noqa: E402


def count_opcodes(op, out_dir):
    """The Python opcodes that ``main`` executes on ``op``, run as the
    benchmark runs it (``worker.run_op``); the output is discarded."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        if event == "opcode":
            count += 1
        return tracer

    def traced_main(argv):
        sys.settrace(tracer)
        try:
            return main(argv)
        finally:
            sys.settrace(None)

    rc, out, _ = run_op(traced_main, op, out_dir)
    if rc is None:
        sys.exit(f"{' '.join(op['argv'])} raised:\n{out}")
    return count


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as root:
        ops = workloads.build(args.workload, args.seed, os.path.join(root, "in"))
        out_dirs = [os.path.join(root, f"o{k:02d}") for k in range(len(ops))]
        for op, out_dir in zip(ops, out_dirs):
            run_op(main, op, out_dir)
        counts = [count_opcodes(op, out_dir) for op, out_dir in zip(ops, out_dirs)]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "ops": counts, "total": sum(counts)}))


if __name__ == "__main__":
    run()
