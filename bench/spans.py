"""Span recording around the package's layer functions, from outside.

The package is not changed.  ``Tracer.install`` replaces every function
that ``magnetotrio.cli`` binds from the other package modules, plus
``magnetotrio.dynamics.integrate`` (the solvers look it up there for
their certification integrations), with a wrapper that records a span:
name, start, end, parent span and op id.  Spans stay in memory;
``Tracer.dump`` writes them out when the run ends, and ``layer_metrics``
derives busy and self times and the per-layer metrics from them.

Span names are ``<module>.<function>``; the op itself is ``cli.main``.
"""

import inspect
import json
import os
import time

from magnetotrio import cli, dynamics


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent, op, counts]
        self._stack = []
        self._saved = []
        self.op = None

    def span(self, name, fn, counter=None):
        """Wrap ``fn`` so that each call records a span named ``name``."""
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self.op, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            out = None
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if counter:
                    counter(span[5], args, out)
        return traced

    def install(self):
        """Wrap the layer functions where the CLI and the solvers find them."""
        targets = [(cli, attr, fn) for attr, fn in vars(cli).items()
                   if inspect.isfunction(fn)
                   and fn.__module__.startswith("magnetotrio.")
                   and fn.__module__ != cli.__name__]
        targets.append((dynamics, "integrate", dynamics.integrate))
        for module, attr, fn in targets:
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.span(name, fn, COUNTERS.get(name)))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, t0, t1, parent, op, counts) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent, "op": op,
                                     **counts}) + "\n")


# ---------------------------------------------------------------------------
# counts taken at the span boundary: exact, repeatable work measures
# ---------------------------------------------------------------------------

def _nfev(counts, args, out):
    counts["nfev"] = out.stats["nfev"] if out is not None else 0


def _bytes_written(counts, args, out):
    counts["bytes"] = os.path.getsize(args[1])


def _bytes_read(counts, args, out):
    counts["bytes"] = os.path.getsize(args[0])


def _samples(counts, args, out):
    counts["samples"] = args[0].n_samples


def _solutions(counts, args, out):
    counts["rows"] = len(out) if out is not None else 0


COUNTERS = {
    "dynamics.integrate": _nfev,
    "jacobi.integrate_jacobi": _nfev,
    "dynamics.write_trajectory_csv": _bytes_written,
    "dynamics.read_trajectory_csv": _bytes_read,
    "invariants.write_invariant_csv": _samples,
    "invariants.drift_report": _samples,
    "solvers.solve_config_II": _solutions,
    "solvers.solve_config_III": _solutions,
    "solvers.solve_nbody_II": _solutions,
}

MODULES = ("model", "dynamics", "invariants", "jacobi", "solvers")
SOLVERS = ("solve_config_II", "solve_config_III", "solve_nbody_II")


def span_table(spans, factors, first=0):
    """Per span name: calls, busy and self seconds, summed counts.

    ``spans`` is a slice of ``Tracer.spans`` that starts at index ``first``
    and holds whole ops, so every parent id points inside it.  Durations
    are scaled by the machine-speed factor of their op (see worker.py).
    """
    dur = [(t1 - t0) * factors[op] for name, t0, t1, parent, op, counts in spans]
    child = [0.0] * len(spans)
    for sid, span in enumerate(spans):
        if span[3] is not None:
            child[span[3] - first] += dur[sid]
    table = {}
    for sid, (name, t0, t1, parent, op, counts) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                      "yield": 0})
        row["calls"] += 1
        row["busy_s"] += dur[sid]
        row["self_s"] += dur[sid] - child[sid]
        row["yield"] += counts.get("rows", 0) > 0
        for key, value in counts.items():
            row[key] = row.get(key, 0) + value
    return table


def layer_metrics(table, cycles):
    """The per-layer metrics, per cycle of the workload's op list.

    Times are seconds per cycle; counts are exact per cycle.  A ratio whose
    denominator is zero (the layer is idle in this workload) reads 0.
    """
    def get(name, key):
        return table.get(name, {}).get(key, 0)

    def per_cycle(name, key):
        return get(name, key) / cycles

    def ratio(a, b, scale):
        return scale * a / b if b else 0.0

    m = {}
    for name in ("dynamics.integrate", "jacobi.integrate_jacobi"):
        for key in ("calls", "busy_s", "nfev"):
            m[f"{name}.{key}"] = per_cycle(name, key)
        m[f"{name}.us_per_nfev"] = ratio(get(name, "busy_s"), get(name, "nfev"), 1e6)
    for name in ("dynamics.write_trajectory_csv", "dynamics.read_trajectory_csv"):
        for key in ("busy_s", "bytes"):
            m[f"{name}.{key}"] = per_cycle(name, key)
    name = "dynamics.rigidity_report"
    m[f"{name}.busy_s"] = per_cycle(name, "busy_s")
    inv = ("invariants.write_invariant_csv", "invariants.drift_report")
    for name in inv:
        m[f"{name}.busy_s"] = per_cycle(name, "busy_s")
    m["invariants.us_per_sample"] = ratio(sum(get(n, "busy_s") for n in inv),
                                          sum(get(n, "samples") for n in inv), 1e6)
    name = "invariants.algebra_check"
    m[f"{name}.calls"] = per_cycle(name, "calls")
    m[f"{name}.busy_s"] = per_cycle(name, "busy_s")
    m[f"{name}.ms_per_state"] = ratio(get(name, "busy_s"), get(name, "calls"), 1e3)
    solvers = [f"solvers.{fn}" for fn in SOLVERS]
    for name in solvers:
        m[f"{name}.calls"] = per_cycle(name, "calls")
        m[f"{name}.busy_s"] = per_cycle(name, "busy_s")
        m[f"{name}.ms_per_point"] = ratio(get(name, "busy_s"), get(name, "calls"), 1e3)
    m["solvers.solve_nbody_II.self_s"] = per_cycle("solvers.solve_nbody_II", "self_s")
    m["solvers.point_yield"] = ratio(sum(get(n, "yield") for n in solvers),
                                     sum(get(n, "calls") for n in solvers), 1.0)
    m["solvers.rows"] = sum(get(n, "rows") for n in solvers) / cycles
    m["solvers.write_catalog.busy_s"] = per_cycle("solvers.write_catalog", "busy_s")
    for name in ("model.load_system", "model.save_system"):
        m[f"{name}.calls"] = per_cycle(name, "calls")
        m[f"{name}.busy_s"] = per_cycle(name, "busy_s")
    m["cli.main.self_s"] = per_cycle("cli.main", "self_s")
    for module in MODULES:
        m[f"{module}.self_s"] = sum(row["self_s"] for name, row in table.items()
                                    if name.startswith(module + ".")) / cycles
    return m


def exact_counts(table):
    """The counts that must repeat exactly between runs of the same code."""
    return {f"{name}.{key}": row[key] for name, row in sorted(table.items())
            for key in ("calls", "nfev", "rows", "bytes", "samples") if key in row}
