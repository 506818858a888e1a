"""The names perfbench's tracer wraps must exist on the package.

The benchmark traces the package from outside by replacing names on the
modules that call them (see perfbench/tracing.py). A refactor that drops
one of those names would only show up as a crash in a traced benchmark
run; these tests make it fail here, with the missing name.
"""

import importlib

import entharvest
from entharvest.sweep import GridSpec, SweepSpec, run_sweep
from perfbench.tracing import COUNT, INTEGRAND, INTEGRATORS, NAME, PARENT, WRAPPED, Tracer


def test_wrapped_names_exist():
    missing = []
    for module_name, attr, _ in WRAPPED + INTEGRATORS:
        module = importlib.import_module(f"entharvest.{module_name}")
        if not callable(getattr(module, attr, None)):
            missing.append(f"entharvest.{module_name}.{attr}")
    assert not missing, f"names the benchmark's tracer wraps are gone: {missing}"


def test_x_integrals_are_counted_node_by_node():
    spec = SweepSpec(GridSpec(1.0, 1.0, 1), GridSpec(1.0, 1.0, 1), GridSpec(0.0, 0.9, 3))
    with Tracer(entharvest) as tracer:
        run_sweep(spec)
    spans = tracer.spans
    x_nodes = [s[COUNT] for s in spans
               if s[NAME] == INTEGRAND and spans[s[PARENT]][NAME] == "model.integrate_line"]
    assert x_nodes and min(x_nodes) > 0
