"""ridgecav benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload geometry_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; ridgecav is imported from its src/.  With
--trace 0 the last line of stdout is the JSON result with every end-to-end
metric; with --trace 1 it carries every per-layer metric instead, from a run
whose passes alternate untraced and traced.  The line before it is a JSON
report with the workload-specific figures, the failures and the run
environment.  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
MIN_PASSES = 2  # so that a median exists; a traced run needs one untraced/traced pair
UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MiB"}


def pin_threads() -> int:
    """One BLAS/OpenMP thread, set before numpy loads; returns the CPUs available.

    On two shared cores, two BLAS threads made the 256^2 eigensolve no faster
    and its time far less steady than one thread did.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def environment(nproc: int, args) -> dict:
    import hashlib

    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            sha = out[1]
    except OSError:
        pass  # no git: the source digest still identifies the code
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ridgecav").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_sha": sha, "src_sha256": digest.hexdigest(),
    }


def unit_of(name: str) -> str:
    """Unit of a workload-specific report figure, from its name."""
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def run(workload, seconds: float, trace: bool):
    """Set up, run passes until time is up.

    Returns the end-to-end values, the tracing overhead (traced run only),
    the span recorder (traced run only) and the number of passes.
    """
    import layers
    import spans

    rec = spans.Recorder(f"{workload.name}-{workload.seed}-parent") if trace else None

    def tracing(on):
        return rec.tracing(layers.HOOKS) if on else nullcontext()

    setup_s = []
    with tracing(trace):
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            workload.setup()
            setup_s.append(perf_counter() - t0)

    pass_s = {False: [], True: []}  # untraced, traced
    deadline = perf_counter() + seconds
    index = 0
    while index < (1 if trace else MIN_PASSES) or perf_counter() < deadline:
        inputs = workload.make_pass(index)
        # a traced run does each pass untraced and traced on the same inputs,
        # alternating which goes first
        order = ((False, True) if index % 2 == 0 else (True, False)) if trace else (False,)
        for traced in order:
            with tracing(traced):
                t0 = perf_counter()
                workload.run_pass(inputs, traced)
                pass_s[traced].append(perf_counter() - t0)
        if index == 0:
            with tracing(trace):
                workload.after_first_pass()
        index += 1
    workload.finish()

    values = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(pass_s[False]),
        "op_p50_ms": statistics.median(workload.op_ms),
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    overhead = sum(pass_s[True]) / sum(pass_s[False]) - 1.0 if trace else None
    return values, overhead, rec, index


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("geometry_sweep", "gap_design", "cli_batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not ((ROOT / "src" / "ridgecav" / "__init__.py").is_file()
            and (ROOT / "configs" / "reference.cfg").is_file()):
        print(f"error: {ROOT} holds no ridgecav checkout (src/ridgecav, configs/reference.cfg)",
              file=sys.stderr)
        return 2
    nproc = pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import ridgecav

    if not Path(ridgecav.__file__).resolve().is_relative_to(ROOT):
        print(f"error: ridgecav imported from {ridgecav.__file__}, not from {ROOT}",
              file=sys.stderr)
        return 2

    import layers
    import spans
    import workloads

    (ROOT / workloads.OUT).mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    values, overhead, rec, passes = run(workload, args.seconds, bool(args.trace))
    tally = workload.tally
    figures = {"fail_frac": tally.failed / tally.attempted, **workload.report}
    report = {
        "passes": passes,
        "op_samples": len(workload.op_ms),
        **{k: {"value": v, "unit": unit_of(k)} for k, v in figures.items()},
        "problems": tally.problems[:20],
        "env": environment(nproc, args),
    }
    if args.trace:
        rec.dump(ROOT / workloads.OUT / f"spans-{args.workload}-{args.seed}-parent.json")
        agg = spans.aggregate([rec.as_dump(), *workload.dumps])
        layer = layers.layer_metrics(agg, workload.import_s(), sum(workload.identical.values()),
                                     overhead)
        metrics = {k: {"value": v, "unit": layers.UNITS[k]} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
