#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ``topdown run`` / ``topdown sweep``.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 55 --trace 0

Set-up generates the workload's fixtures, one per sub-seed of ``--seed``
(several times, to time it), under ``.perfbench/work/``.  The measurement is a
closed loop from one process and one thread: each operation is one call of
``topdown.cli.main`` with ``--jobs 1`` on the next fixture in turn, started
after the previous one returned and its outputs were checked, until the next
one would end after ``--seconds``.  One untimed warm-up operation comes first.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations, prints the per-layer metrics of the traced
ones and the tracing overhead, and writes every span to the result file under
``.perfbench/results/``.  The last line of standard output is always one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it carries the stamp (git sha, versions, nproc, seed) and the raw
operation times.

Exit codes: 0 when the run completed (even with failed operations, which
``failed`` counts), 2 when the program under test cannot be imported from
``src/`` next to this directory.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPS = 3
# one thread: numpy's BLAS would otherwise start a pool as wide as the machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# end-to-end metric -> unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "poses_per_s": "poses/s",
    "op_s.mean": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ap_total": "%",
    "mota_total": "%",
}
TRACE_METRICS = {
    "synth.generate_s": "s",
    "trace.op_s.p50": "s",
    "trace.untraced_op_s.p50": "s",
    "trace.overhead_pct": "%",
    "trace.spans_per_op": "count",
}


def _import_program():
    """Import ``topdown`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "topdown" / "__init__.py").is_file():
        raise ImportError(f"no topdown package under {SRC}")
    sys.path.insert(0, str(SRC))
    import topdown

    if Path(topdown.__file__).resolve().parent != SRC / "topdown":
        raise ImportError(f"topdown imported from {topdown.__file__}, not from {SRC}")
    return topdown


def _git_sha(root: Path) -> str | None:
    """HEAD's commit, read from ``.git`` without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _metric(value, unit: str) -> dict:
    if isinstance(value, str):  # reason the metric could not be measured
        return {"value": None, "unit": unit, "absent": value}
    return {"value": value, "unit": unit}


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, run the closed loop, check every operation; return the full record."""
    import layers
    import workloads
    from tracing import Tracer
    from topdown import cli

    tracer = Tracer() if trace else None
    sub_seeds = workloads.fixture_seeds(workload, seed)
    setup_times = []
    for _ in range(SETUP_REPS):
        if tracer:
            tracer.begin_op(-1)
            tracer.install()
        start = perf_counter()
        try:
            generated = [
                workloads.write_fixture(workload, s, work / "fixtures" / str(k))
                for k, s in enumerate(sub_seeds)
            ]
        finally:
            setup_times.append(perf_counter() - start)
            if tracer:
                tracer.uninstall()
    fixtures = []
    for fixture, synth_out in generated:
        workloads.attach_oracle(workload, fixture, synth_out)
        fixtures.append(fixture)
    del generated, synth_out

    out_dirs = [work / "out" / str(k) for k in range(len(fixtures))]
    argvs = [workloads.argv(workload, f, d) for f, d in zip(fixtures, out_dirs)]
    op_times: list[float] = []
    op_fixture: list[int] = []  # fixture of each untraced op
    traced_times: list[float] = []
    per_op_layers: list[dict] = []
    failures: list[str] = []
    references: dict[int, object] = {}

    def run_op(op: int, k: int, traced: bool) -> float:
        """One checked operation on fixture ``k``; returns its wall time."""
        if traced:
            tracer.begin_op(op)
            tracer.install()
        sink = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(argvs[k])
        except Exception:
            code = None
            failures.append(f"op {op}: {traceback.format_exc()}")
        finally:
            elapsed = perf_counter() - t0
            if traced:
                tracer.uninstall()
        if code is not None:
            try:
                if code != 0:
                    raise workloads.CheckFailed(f"exit code {code}")
                outcome = workloads.check_output(
                    workload, fixtures[k], out_dirs[k], references.get(k)
                )
                references.setdefault(k, outcome)
            except workloads.CheckFailed as exc:
                failures.append(f"op {op} (fixture {k}): {exc}")
        if traced:
            per_op_layers.append(layers.derive(tracer.op_trace(op)))
            tracer.release(op)
        return elapsed

    # warm-up: first-call costs (lazy imports, allocator growth) stay out of the figures
    run_op(0, 0, False)
    n = len(fixtures)
    # every fixture runs at least once, traced and untraced when tracing
    min_ops = 2 * n if trace else n
    started = perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        k = (i // 2 if trace else i) % n
        elapsed = run_op(i + 1, k, traced)
        if traced:
            traced_times.append(elapsed)
        else:
            op_times.append(elapsed)
            op_fixture.append(k)
        i += 1
        if i >= min_ops and perf_counter() - started + elapsed > seconds:
            break

    attempted = i + 1
    record = {
        "workload": workload.name,
        "stamp": stamp(seed),
        "sub_seeds": list(sub_seeds),
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures,
        "op_s": op_times,
        "op_fixture": op_fixture,
        "op_s.p50": statistics.median(op_times),
        # nearest rank: with 100 or more ops, ten or more lie above it
        "op_s.p90": sorted(op_times)[math.ceil(0.9 * len(op_times)) - 1],
        "traced_op_s": traced_times,
        "setup_s": setup_times,
    }
    if not trace:
        # Means over the whole run, not medians: other tenants of a shared host
        # slow an op up to 2x in bursts of seconds, so op times gather in a
        # fast and a slow mode, and a median jumps between the modes where a
        # mean moves smoothly with the share of the run the bursts covered.
        missing = [k for k in range(n) if k not in references]
        reason = f"no operation on fixtures {missing} passed its checks"
        record["metrics"] = {
            "poses_per_s": sum(fixtures[k].poses for k in op_fixture) / sum(op_times),
            "op_s.mean": statistics.fmean(op_times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ap_total": statistics.fmean(r.ap_total for r in references.values())
            if not missing else reason,
            "mota_total": statistics.fmean(r.mota_total for r in references.values())
            if not missing else reason,
        }
        record["samples"] = {"op_s": len(op_times), "setup_s": len(setup_times)}
        return record

    record["metrics"] = _per_layer(tracer, per_op_layers, op_times, traced_times)
    record["per_op_layers"] = per_op_layers
    record["spans"] = tracer.dump_spans()
    record["samples"] = {"traced": len(traced_times), "untraced": len(op_times)}
    return record


def _per_layer(tracer, per_op_layers: list[dict], op_times: list[float],
               traced_times: list[float]) -> dict:
    """Median over traced ops of each layer metric, plus set-up and tracing figures."""
    import layers

    values: dict = {}
    for metric in layers.PER_LAYER:
        measured = [d[metric.name] for d in per_op_layers]
        reasons = [v for v in measured if isinstance(v, str)]
        values[metric.name] = reasons[0] if reasons else statistics.median(measured)
    generate = [s.duration for s in tracer.spans if s.name == "topdown.synth.generate"]
    values["synth.generate_s"] = statistics.median(generate) if generate else tracer.absent.get(
        "topdown.synth.generate", "synth.generate was not called"
    )
    traced_p50 = statistics.median(traced_times)
    untraced_p50 = statistics.median(op_times)
    values["trace.op_s.p50"] = traced_p50
    values["trace.untraced_op_s.p50"] = untraced_p50
    values["trace.overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0)
    spans_per_op = Counter(s.op for s in tracer.spans if s.op >= 0)
    values["trace.spans_per_op"] = statistics.median(spans_per_op.values())
    return values


def units() -> dict[str, str]:
    import layers

    return {**END_TO_END, **{m.name: m.unit for m in layers.PER_LAYER}, **TRACE_METRICS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    base = ROOT / ".perfbench"
    work = base / "work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        record = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unit_of = units()
    metrics = {name: _metric(value, unit_of[name]) for name, value in record["metrics"].items()}
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**record, "metrics": metrics}))
    info = {k: record[k] for k in ("workload", "stamp", "samples", "error_rate", "op_s.p50",
                                   "op_s.p90", "op_s", "op_fixture", "traced_op_s", "setup_s",
                                   "failures")}
    print(json.dumps({**info, "record": str(path.relative_to(ROOT))}))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
