"""Layer tracing from outside the package.

A Tracer replaces public names with timing wrappers on the module that
imported them, so the package itself is never edited: `cli.run_sweep`
is wrapped where `cli` looks it up, `sweep.negativity` where `sweep`
looks it up, and so on. Each call becomes a span (name, start, end,
parent, count) kept in memory. The integrand passed to an
`integrate_*` function is wrapped as well; its spans carry the number
of nodes in the call, so quadrature passes and nodes are counted where
the work happens. Spans are written out only when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time

# (module, attribute) -> span name. The module is the caller: its global
# name is the one replaced. Integrate spans say who called them, because
# the package's X integrals (model) and the oracle's nested integrals are
# different workloads for the same quadrature layer.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("cli", "run_sweep", "sweep.run_sweep"),
    ("cli", "run_region_scan", "sweep.run_region_scan"),
    ("cli", "write_sweep_csv", "sweep.write_sweep_csv"),
    ("cli", "write_region_csv", "sweep.write_region_csv"),
    ("cli", "run_validation", "validate.run_validation"),
    ("validate", "run_sweep", "sweep.run_sweep"),
    ("validate", "write_sweep_csv", "sweep.write_sweep_csv"),
    ("sweep", "negativity", "model.negativity"),
    ("model", "negativity", "model.negativity"),
    ("sweep", "classify_region", "model.classify_region"),
    ("sweep", "find_peak_velocity", "model.find_peak_velocity"),
    ("model", "find_peak_velocity", "model.find_peak_velocity"),
    ("validate", "find_peak_velocity", "model.find_peak_velocity"),
    ("oracle", "x_momentum_oracle", "oracle.x_momentum_oracle"),
    ("oracle", "p_momentum_oracle", "oracle.p_momentum_oracle"),
)
INTEGRATORS = (
    ("model", "integrate_line", "model.integrate_line"),
    ("oracle", "integrate_line", "oracle.integrate_line"),
    ("oracle", "integrate_halfline", "oracle.integrate_halfline"),
    ("oracle", "integrate_interval", "oracle.integrate_interval"),
)
INTEGRAND = "quadrature.integrand"

NAME, START, END, PARENT, COUNT = range(5)


class Tracer:
    """Context manager that installs the wrappers and records spans."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str, count: int = 0) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, count])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a block as a span: `with tracer.span("bench.job"):`."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _timed(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _integrand(self, f):
        def wrapper(u):
            idx = self._open(INTEGRAND, len(u))
            try:
                return f(u)
            finally:
                self._close(idx)

        return wrapper

    def _integrator(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(integrand, *args, **kwargs):
            idx = self._open(name)
            try:
                return fn(self._integrand(integrand), *args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def __enter__(self) -> "Tracer":
        for wrap, table in ((self._timed, WRAPPED), (self._integrator, INTEGRATORS)):
            for module_name, attr, name in table:
                module = getattr(self.package, module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        """Write spans as JSON lines: name, start_ns, end_ns, parent, count."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _subtree(spans: list[list], root_name: str) -> list[bool]:
    """Mask of spans that descend from (or are) a span named root_name."""
    inside = [False] * len(spans)
    for i, s in enumerate(spans):  # parents precede children
        inside[i] = s[NAME] == root_name or (s[PARENT] >= 0 and inside[s[PARENT]])
    return inside


def _children_ns(spans: list[list]) -> list[int]:
    covered = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    return covered


def _pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_counts(spans: list[list], units: int) -> dict[str, float]:
    """Per-layer metrics from one traced run.

    Job metrics use the spans under the "bench.job" root, divided by the
    job's work units. Oracle and interval metrics use every span, so they
    include the correctness gate's oracle spot checks (the sweeps and the
    region map reach the oracle only there). Metrics of a layer that a
    workload never reaches read 0.
    """
    in_job = _subtree(spans, "bench.job")
    child_ns = _children_ns(spans)
    dur = [s[END] - s[START] for s in spans]

    def select(name, job_only):
        return [i for i, s in enumerate(spans) if s[NAME] == name and (in_job[i] or not job_only)]

    x_int = select("model.integrate_line", True)
    integrand_ns = nodes = passes = 0
    for i, s in enumerate(spans):
        if s[NAME] == INTEGRAND and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "model.integrate_line" \
                and in_job[i]:
            integrand_ns += dur[i]
            nodes += s[COUNT]
            passes += 1
    x_ns = sum(dur[i] for i in x_int)
    n_x = max(len(x_int), 1)

    interval = select("oracle.integrate_interval", False)
    neg = [dur[i] / 1e6 for i in select("model.negativity", False)]
    x_or = select("oracle.x_momentum_oracle", False)
    p_or = select("oracle.p_momentum_oracle", False)
    n_oracle = max(len(x_or) + len(p_or), 1)
    validate_ns = sum(dur[i] for i in select("validate.run_validation", True))
    oracle_in_validate_ns = sum(dur[i] for i in x_or + p_or if in_job[i])
    cli = select("cli.main", True)

    def total_s(names):
        return sum(dur[i] for i, s in enumerate(spans) if s[NAME] in names and in_job[i]) / 1e9

    return {
        "quadrature.nodes_per_integral": nodes / n_x,
        "quadrature.passes_per_integral": passes / n_x,
        "quadrature.integrand_ns_per_node": integrand_ns / max(nodes, 1),
        "quadrature.self_ms_per_integral": (x_ns - integrand_ns) / n_x / 1e6,
        "quadrature.integrand_share": integrand_ns / max(x_ns, 1),
        "quadrature.interval_calls": float(len(interval)),
        "quadrature.interval_self_us_per_call":
            sum(dur[i] - child_ns[i] for i in interval) / max(len(interval), 1) / 1e3,
        "model.negativity_p50_ms": statistics.median(neg) if neg else 0.0,
        "model.negativity_p99_ms": _pct(neg, 0.99),
        "model.negativity_calls": float(len(neg)),
        "model.x_integrals_per_point": len(x_int) / units,
        "model.peak_searches_per_point": len(select("model.find_peak_velocity", True)) / units,
        "sweep.run_s": total_s({"sweep.run_sweep", "sweep.run_region_scan"}),
        "sweep.csv_write_s": total_s({"sweep.write_sweep_csv", "sweep.write_region_csv"}),
        "cli.self_s": sum(dur[i] - child_ns[i] for i in cli) / 1e9,
        "oracle.x_ms_per_call": sum(dur[i] for i in x_or) / max(len(x_or), 1) / 1e6,
        "oracle.p_ms_per_call": sum(dur[i] for i in p_or) / max(len(p_or), 1) / 1e6,
        "oracle.inner_integrals_per_call": len(interval) / n_oracle,
        "validate.oracle_share": oracle_in_validate_ns / validate_ns if validate_ns else 0.0,
    }

