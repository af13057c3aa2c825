"""The benchmark's contract with the package, at smoke-test size.

bench/spans.py wraps named package functions and bench/workloads.py calls
the package directly, so a renamed or re-signed function breaks the
benchmark.  This runs every item of each workload's smoke-test plan through
its oracle with the tracer installed, plus the workload's once-per-run
checks.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_traced_tiny_plan_passes_its_oracles(workload):
    plan = workloads.BUILDERS[workload](3, tiny=True)
    tracer = spans.Tracer()
    tracer.install()
    tracer.active = True
    try:
        failures = [f"{item.label}: {why}" for item in plan.items
                    if (why := plan.check(item, plan.call(item))) is not None]
    finally:
        tracer.active = False
        tracer.uninstall()
    failures += plan.hard_checks()
    assert failures == []
    assert len(tracer.start) > 0
