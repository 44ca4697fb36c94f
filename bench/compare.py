"""Summarise one result directory, or compare two (``run.py --compare``).

For each workload and end-to-end metric: the median and quartiles over
the runs in each directory, their spread (interquartile range over the
median), and with two directories the ratio of the medians and whether
the second stays within the metric's bound of the first.  Per-layer
metrics of traced runs are listed by median.  Exact counts (calls, nfev, rows, bytes,
samples per cycle) must repeat for the same workload, seed and source;
any that differ are flagged.
"""

import glob
import json
import os
import statistics


def load(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    if not records:
        raise SystemExit(f"bench: no run records in {directory}")
    return records


def stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def by_workload(records, trace):
    out = {}
    for r in records:
        if r["trace"] == trace:
            out.setdefault(r["workload"], []).append(r)
    return out


def metric_values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def count_mismatches(records):
    """(workload, seed) pairs whose exact counts differ on the same source."""
    seen, flagged = {}, []
    for r in records:
        if "counts" not in r:
            continue
        key = (r["workload"], r["seed"], r["env"]["source_digest"])
        if key in seen and seen[key] != r["counts"]:
            diff = sorted(k for k in set(seen[key]) | set(r["counts"])
                          if seen[key].get(k) != r["counts"].get(k))
            flagged.append(f"{key[0]} seed {key[1]}: {', '.join(diff)}")
        seen.setdefault(key, r["counts"])
    return flagged


def fail_rate(runs):
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    return f"fail_rate {failed / attempted:.3g} ({failed}/{attempted} ops)"


def summarise(records, spec):
    for workload, runs in sorted(by_workload(records, 0).items()):
        print(f"{workload}: {len(runs)} runs, {fail_rate(runs)}")
        for m in spec["end_to_end"]:
            med, q1, q3, spread = stats(metric_values(runs, m["name"]))
            flag = "" if spread <= m["bound"] else "  SPREAD ABOVE BOUND"
            print(f"  {m['name']:<14s} {med:12.6g} {m['unit']:<6s} "
                  f"q1 {q1:.6g} q3 {q3:.6g}  spread {spread:.3f} "
                  f"(bound {m['bound']}){flag}")
    for workload, runs in sorted(by_workload(records, 1).items()):
        print(f"{workload} (traced): {len(runs)} runs")
        for m in spec["per_layer"]:
            values = metric_values(runs, m["name"])
            print(f"  {m['name']:<40s} {statistics.median(values):12.6g} "
                  f"{m['unit']}")


def compare(base, new, spec):
    a, b = by_workload(base, 0), by_workload(new, 0)
    for workload in sorted(set(a) & set(b)):
        print(f"{workload}: {len(a[workload])} runs, {fail_rate(a[workload])} "
              f"vs {len(b[workload])} runs, {fail_rate(b[workload])}")
        for m in spec["end_to_end"]:
            ma, qa1, qa3, _ = stats(metric_values(a[workload], m["name"]))
            mb, qb1, qb3, _ = stats(metric_values(b[workload], m["name"]))
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            verdict = "within bound" if worse <= m["bound"] else "WORSE THAN BOUND"
            print(f"  {m['name']:<14s} {ma:.6g} [{qa1:.6g}, {qa3:.6g}] -> "
                  f"{mb:.6g} [{qb1:.6g}, {qb3:.6g}] {m['unit']}  "
                  f"ratio {mb / ma:.3f}  {verdict} ({m['bound']})")


def main(dirs, spec):
    if len(dirs) > 2:
        raise SystemExit("bench: --compare takes one or two directories")
    sets = [load(d) for d in dirs]
    if len(sets) == 1:
        summarise(sets[0], spec)
    else:
        compare(sets[0], sets[1], spec)
    flagged = count_mismatches([r for s in sets for r in s])
    for line in flagged:
        print(f"EXACT COUNTS DIFFER: {line}")
    return 1 if flagged else 0
