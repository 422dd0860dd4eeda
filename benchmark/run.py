#!/usr/bin/env python3
"""anyonlab benchmark: end-to-end and per-layer figures for one workload.

    python3 benchmark/run.py --workload toric-scale --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` next to this directory, and nothing needs building.  Workloads
are described in ``workloads.py`` and ``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` sets up once under tracing, runs untraced passes for half
the time and traced passes for the other half, and reports the per-layer
metrics plus the tracing overhead (traced minus untraced figure); the
spans themselves are written to ``.bench_work/spans-<workload>.tsv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the per-command figures.  Figures are only
comparable between runs on the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 4     # half before the passes and half after, to span the run
IMPORT_REPEATS = 5
# In-process set-up times are converted to reference units like the call
# times, and reported back in seconds at a fixed speed: one reference unit
# counts as 2.3 ms, the mix's time on the 2-vCPU Intel Xeon host the bounds
# were calibrated on when it runs fast.  Raw set-up seconds spread by up to 41%
# between runs there.
SECONDS_PER_REF = 2.3e-3
# A cold import is timed against a cold ``import numpy`` run just before it,
# which pays for the same process start and shared-library loading.  Over a
# few minutes on that host the ratio spread by 8 %, the import in reference
# units by 22 %.  It is reported back in seconds at a fixed 0.2 s per numpy
# import, about its time there.
SECONDS_PER_NUMPY_IMPORT = 0.2
SIZES = (8, 16, 24, 32)

# per-layer metrics: name -> (unit, how it is computed from the traced segments)
CALL_COUNTS = ("tableau.measure", "tableau.measure.random", "pauli.mul_phase_exp",
               "pauli.str", "tableau.apply_pauli", "pauli.mul", "tableau.apply_gate",
               "dense.apply_gate", "anyon.run_experiment", "spectrum.synthesize")
SELF_TIMES = ("pauli.str", "report.dumps_report", "tableau.apply_pauli", "pauli.mul",
              "dense.apply_gate", "dense.apply_pauli", "anyon.run_experiment",
              "anyon.prepare_initial_state", "anyon.braid", "anyon.measurement_reduction",
              "anyon.extract_phase", "spectrum.synthesize", "spectrum.assign_peak_labels",
              "dense.expect_pauli", "lattice.syndrome", "dense.dump_amplitudes",
              "spectrum.sample_lineshape", "spectrum.to_csv", "report.write",
              "report.write_manifest", "cli.build_parser", "cli.ground", "cli.toric",
              "cli.braid_demo", "cli.spectrum", "cli.sweep")
PER_CALL = tuple(
    [(f"tableau.init_toric_ground.self_s.k{k}", f"tableau.init_toric_ground.k{k}")
     for k in SIZES]
    + [(f"tableau.syndrome_sweep.first_s.k{k}", f"tableau.syndrome_sweep.first.k{k}")
       for k in SIZES]
    + [(f"lattice.build_toric.self_s.k{k}", f"lattice.build_toric.k{k}") for k in SIZES]
    + [("tableau.syndrome_sweep.cached_s.k32", "tableau.syndrome_sweep.cached.k32")])
PER_LAYER_UNITS = {
    **{f"{name}.calls": "count" for name in CALL_COUNTS},
    "tableau.rowmult_per_measure": "ratio",
    "report.bytes_written": "bytes",
    **{f"{name}.self_s": "s" for name in SELF_TIMES},
    **{metric: "s" for metric, _ in PER_CALL},
    "setup.import_s": "s",
    "trace.overhead.op_p50_ref": "ref",
    "trace.overhead.ops_per_kref": "1/kref",
}
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_p50_ref": "ref",
                    "ops_per_kref": "1/kref"}


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "machine": platform.machine()}


def referenced(fn) -> tuple[float, float]:
    """(wall seconds, reference units) of one call of ``fn``.

    The reference is the mean of two samples, one taken just before the
    call and one just after it.
    """
    from workloads import SETUP_REFERENCE_REPEATS, reference_s

    before = reference_s(SETUP_REFERENCE_REPEATS)
    start = time.perf_counter()
    fn()
    seconds = time.perf_counter() - start
    after = reference_s(SETUP_REFERENCE_REPEATS)
    return seconds, seconds / ((before + after) / 2)


def cold_import(work: Path) -> tuple[float, float]:
    """Median (wall seconds, fixed-speed seconds) of a fresh ``import anyonlab.cli``.

    Fixed-speed seconds are the import's time over that of a fresh
    ``import numpy`` just before it, times ``SECONDS_PER_NUMPY_IMPORT``.
    """
    from workloads import child_env

    def once(module: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], cwd=work,
                       env=child_env(), check=True, timeout=120, stdout=subprocess.DEVNULL)
        return time.perf_counter() - start

    runs = []
    for _ in range(IMPORT_REPEATS):
        numpy_s = once("numpy")
        seconds = once("anyonlab.cli")
        runs.append((seconds, seconds / numpy_s * SECONDS_PER_NUMPY_IMPORT))
    return (statistics.median(s for s, _ in runs), statistics.median(f for _, f in runs))


def run_passes(workload, rec, seconds: float, index: int, between=None) -> int:
    """Closed loop: whole passes until ``seconds`` have gone by (at least one)."""
    deadline = time.perf_counter() + seconds
    rec.sample_reference()
    while True:
        workload.run_pass(rec, index)
        index += 1
        if between is not None:
            between()
        if time.perf_counter() >= deadline:
            return index


def op_figures(workload, rec) -> tuple[float, float]:
    """Median cost of the headline call, and operations per 1000 reference units.

    Both are in units of the reference mix timed next to each call (see
    ``workloads.Record``), which cancels most of the host's speed drift.
    """
    units = [u for u in rec.ref_units() if u[0] not in workload.PER_LAYER_ONLY]
    headline = [u for kind, _, u in units if kind == workload.headline]
    return (statistics.median(headline),
            1000 * sum(count for _, count, _ in units) / sum(u for _, _, u in units))


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def untraced_run(workload, seconds: float, work: Path):
    from workloads import Record

    setup_rec, rec = Record(), Record()
    import_s, import_fixed_s = cold_import(work)
    prep = [referenced(lambda: workload.setup(setup_rec)) for _ in range(SETUP_REPEATS // 2)]
    run_passes(workload, rec, seconds, 0)
    prep += [referenced(lambda: workload.setup(setup_rec))
             for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
    prep_ref = statistics.median(u for _, u in prep)
    op_p50_ref, ops_per_kref = op_figures(workload, rec)
    metrics = {"setup_s": import_fixed_s + prep_ref * SECONDS_PER_REF,
               "peak_rss_mb": peak_rss_mb(), "op_p50_ref": op_p50_ref,
               "ops_per_kref": ops_per_kref}
    units: dict[str, list[float]] = {}
    for kind, _, u in rec.ref_units():
        units.setdefault(kind, []).append(u)
    detail = {"setup_import_s": import_s, "setup_import_fixed_s": import_fixed_s,
              "setup_prep_s": [s for s, _ in prep], "setup_prep_ref": [u for _, u in prep],
              "median_ms": {k: statistics.median(v) * 1e3 for k, v in sorted(rec.times.items())},
              "median_ref": {k: statistics.median(v) for k, v in sorted(units.items())},
              "reference_ms": statistics.median(r for _, r in rec.references) * 1e3,
              "samples": {k: len(v) for k, v in sorted(rec.times.items())},
              "ops_per_s": rec.ops / rec.op_seconds,
              "error_rate": (setup_rec.failed + rec.failed)
              / (setup_rec.attempted + rec.attempted)}
    return metrics, detail, [setup_rec, rec]


def traced_run(workload, seconds: float, work: Path):
    from tracer import Tracer
    from workloads import Record

    setup_rec, plain_rec, traced_rec = Record(), Record(), Record()
    _, import_fixed_s = cold_import(work)
    tracer = Tracer()
    for name in tracer.install():
        print(f"benchmark: not traced, the program has no {name}", file=sys.stderr)
    try:
        begin = tracer.mark()
        workload.setup(setup_rec)
        marks = [begin, tracer.mark()]
    finally:
        tracer.uninstall()
    index = run_passes(workload, plain_rec, seconds / 2, 0)
    tracer.install()
    try:
        run_passes(workload, traced_rec, seconds / 2, index,
                   between=lambda: marks.append(tracer.mark()))
    finally:
        tracer.uninstall()
    segments = [tracer.segment(a, b) for a, b in zip(marks, marks[1:])]
    WORK_ROOT.mkdir(exist_ok=True)
    tracer.write_spans(WORK_ROOT / f"spans-{workload.name}.tsv")

    plain_p50, plain_rate = op_figures(workload, plain_rec)
    traced_p50, traced_rate = op_figures(workload, traced_rec)
    metrics = per_layer(segments)
    metrics["setup.import_s"] = import_fixed_s
    metrics["trace.overhead.op_p50_ref"] = traced_p50 - plain_p50
    metrics["trace.overhead.ops_per_kref"] = traced_rate - plain_rate
    detail = {"untraced": {"op_p50_ref": plain_p50, "ops_per_kref": plain_rate},
              "traced": {"op_p50_ref": traced_p50, "ops_per_kref": traced_rate},
              "traced_passes": len(segments) - 1}
    return metrics, detail, [setup_rec, plain_rec, traced_rec]


def per_layer(segments) -> dict:
    """Per-layer figures from the traced set-up (first segment) and the traced passes.

    ``.calls`` and ``report.bytes_written`` count the set-up plus the first
    traced pass, so they repeat exactly.  ``.self_s`` is the layer's self
    time in the set-up plus the median over passes of its self time in one
    pass.  Size-keyed figures (``.kK``) are the median self time of one call
    at that size.
    """
    setup, passes = segments[0], segments[1:]

    def calls(seg, name):
        by_name, counts = seg
        return len(by_name.get(name, ())) + counts.get(name, 0)

    def busy_s(seg, name):
        return sum(seg[0].get(name, ())) / 1e9

    out: dict = {}
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = calls(setup, name) + calls(passes[0], name)
    rowmults = calls(setup, "tableau.rowmult") + calls(passes[0], "tableau.rowmult")
    measures = out["tableau.measure.calls"]
    out["tableau.rowmult_per_measure"] = rowmults / measures if measures else 0.0
    out["report.bytes_written"] = (calls(setup, "report.bytes_written")
                                   + calls(passes[0], "report.bytes_written"))
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = busy_s(setup, name) + statistics.median(
            busy_s(seg, name) for seg in passes)
    for metric, span in PER_CALL:
        per_call = [ns for seg in segments for ns in seg[0].get(span, ())]
        out[metric] = statistics.median(per_call) / 1e9 if per_call else 0.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "anyonlab" / "__init__.py").is_file():
        print(f"benchmark: no anyonlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import anyonlab
    from workloads import WORKLOADS

    if not Path(anyonlab.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"benchmark: imported anyonlab from {anyonlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        runner = traced_run if args.trace else untraced_run
        metrics, detail, records = runner(workload, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    problems = [p for r in records for p in r.problems]
    for p in problems:
        print(f"benchmark: FAILED {p}", file=sys.stderr)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "env": environment(), "detail": detail}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
