"""The benchmark's in-process workloads still run on the library as it is now.

perfbench/ is frozen between benchmark changes, so it keeps calling the
library the way it was written to: a ModeSolution and a CSV-loaded bare
SampledField into the gap model, `full_budget(area, spec, None, atom)` with
the gap factor in the spec.  One pass of each in-process workload, driven as
perfbench/run.py drives it, fails here before it fails a benchmark run.
"""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _files():
    return {p for p in ROOT.rglob("*") if ".git" not in p.parts}


@pytest.mark.parametrize("name", ["geometry_sweep", "gap_design"])
def test_benchmark_workload_runs_a_pass_with_no_failed_operation(monkeypatch, name):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    before = _files()
    workload = workloads.WORKLOADS[name](seed=1)
    workload.setup()
    workload.run_pass(workload.make_pass(0), traced=False)
    workload.after_first_pass()
    workload.finish()
    assert workload.tally.attempted > 2
    assert workload.tally.failed == 0, workload.tally.problems
    assert _files() == before
