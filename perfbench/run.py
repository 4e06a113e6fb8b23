"""kspoly benchmark: one command runs any workload and prints its metrics.

    python3 perfbench/run.py --workload {cli,census,refute,assign}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the program is taken from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones, measured untraced; with --trace 1 they are the per-layer
ones, from a run with spans around the calls into each module.  Every
metric of the run also goes to perfbench/results/<workload>-seed<N>-
trace<T>.json, and the spans of a traced run to the matching -spans.json.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from checks import HERE, ROOT, SRC, Wrong
from harness import child_env, run_pass, setup_workload

RESULTS = HERE / "results"

WORKLOADS = ("cli", "census", "refute", "assign")
SETUP_REPEATS = 7     # fresh interpreters per set-up measurement
MIN_OPS = 100         # operations per run: ten samples above the p90
PROBE_REPEATS = 5     # interpreter and import probes in the traced run


def _python(*args: str, **kw):
    return subprocess.Popen([sys.executable, *args], cwd=ROOT,
                            env=child_env(), **kw)


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until the workload's first
    operation could run (ready.py prints its line at that point)."""
    start = perf_counter()
    child = _python(str(HERE / "ready.py"), workload, str(seed),
                    stdout=subprocess.PIPE, text=True)
    line = child.stdout.readline()
    seconds = perf_counter() - start
    child.stdout.close()
    if child.wait() != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up of {workload} failed")
    return seconds


def _probe(code: str, importtime: bool = False) -> tuple[float, str]:
    args = ["-X", "importtime", "-c", code] if importtime else ["-c", code]
    start = perf_counter()
    child = _python(*args, stderr=subprocess.PIPE, text=True)
    _, err = child.communicate()
    seconds = perf_counter() - start
    if child.returncode != 0:
        raise RuntimeError(f"probe {code!r} failed: {err}")
    return seconds, err


def _numpy_import_ms(importtime_log: str) -> float:
    """Cumulative import time of the top-level numpy package, in ms."""
    for line in importtime_log.splitlines():
        m = re.fullmatch(r"import time:\s*\d+ \|\s*(\d+) \|\s*numpy\s*", line)
        if m:
            return int(m.group(1)) / 1000
    return 0.0


def import_probes() -> dict:
    """The interpreter floor and the package import on top of it."""
    bare, pkg, numpy = [], [], []
    for _ in range(PROBE_REPEATS):
        bare.append(_probe("pass")[0])
        pkg.append(_probe("import kspoly")[0])
        numpy.append(_numpy_import_ms(_probe("import kspoly",
                                             importtime=True)[1]))
    interpreter = statistics.median(bare)
    return {"cli.interpreter_ms": interpreter * 1000,
            "cli.import_ms": (statistics.median(pkg) - interpreter) * 1000,
            "cli.import_numpy_ms": statistics.median(numpy)}


def quantile(values, q: int) -> float:
    """The q-th decile, statistics.quantiles' inclusive method."""
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def untraced_run(args, work) -> tuple[dict, int, int, dict]:
    passes, latencies, failed = [], [], 0
    by_op: dict[str, list[float]] = {op.name: [] for op in work.ops}
    start = perf_counter()
    while perf_counter() - start < args.seconds or len(latencies) < MIN_OPS:
        result = run_pass(work)
        passes.append(result.seconds)
        latencies += result.latencies
        failed += result.failed
        for op, seconds in zip(work.ops, result.latencies):
            by_op[op.name].append(seconds)
    if work.post_check is not None:
        work.post_check()
    metrics = {"pass_s": statistics.median(passes),
               "op_p50_ms": quantile(latencies, 5) * 1000,
               "op_p90_ms": quantile(latencies, 9) * 1000,
               "peak_rss_mb": peak_rss_mb(args.workload)}
    op_ms = {name: statistics.median(v) * 1000 for name, v in by_op.items()}
    return metrics, len(latencies), failed, {"passes": passes,
                                             "op_median_ms": op_ms}


def traced_run(args) -> tuple[dict, int, int, dict, list]:
    """Alternate untraced and traced passes of the same operations in this
    process; the difference of their medians is the tracing overhead."""
    from spans import COUNT_NAMES, SPAN_NAMES, Tracer

    tracer = Tracer()
    tracer.install()
    work = setup_workload(args.workload, args.seed, in_process_cli=True)
    tracer.uninstall()
    setup_end = len(tracer.spans)
    setup_counts = Counter(tracer.counts)
    plain, traced, attempted, failed = [], [], 0, 0
    output_counts: Counter = Counter()
    start = perf_counter()
    while not traced or perf_counter() - start < args.seconds:
        result = run_pass(work)
        plain.append(result.seconds)
        tracer.install()
        try:
            traced_result = run_pass(work)
        finally:
            tracer.uninstall()
        traced.append(traced_result.seconds)
        output_counts.update(traced_result.output_counts)
        for r in (result, traced_result):
            attempted += len(r.latencies)
            failed += r.failed
    if work.post_check is not None:
        work.post_check()
    n = len(traced)
    setup_self = tracer.self_ns(0, setup_end)
    pass_self = tracer.self_ns(setup_end)
    pass_counts = tracer.counts - setup_counts + output_counts
    metrics = {f"{name}.self_ms": (setup_self[name] + pass_self[name] / n)
               / 1e6 for name in SPAN_NAMES}
    for name in COUNT_NAMES:
        metrics[name] = setup_counts[name] + pass_counts[name] // n
    metrics.update(import_probes())
    metrics["trace.spans"] = setup_end + (len(tracer.spans) - setup_end) // n
    metrics["trace.overhead_ms"] = (statistics.median(traced)
                                    - statistics.median(plain)) * 1000
    detail = {"untraced_passes": plain, "traced_passes": traced}
    return metrics, attempted, failed, detail, tracer.spans


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted(SRC.rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kspoly" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'kspoly'}; run from the root "
              "of a kspoly checkout", file=sys.stderr)
        return 2

    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    unit = {m["name"]: m["unit"] for m in units[kind]}
    try:
        if args.trace:
            values, attempted, failed, detail, spans = traced_run(args)
        else:
            setups = [measure_setup(args.workload, args.seed)
                      for _ in range(SETUP_REPEATS)]
            work = setup_workload(args.workload, args.seed)
            values, attempted, failed, detail = untraced_run(args, work)
            values["setup_s"] = statistics.median(setups)
            detail.update(setups=setups, inputs=work.notes)
            spans = None
        correct = True
    except Wrong as exc:
        print(f"perfbench: wrong output: {exc}", file=sys.stderr)
        correct, values, attempted, failed, detail, spans = \
            False, {}, 1, 0, {"wrong": str(exc)}, None
    except Exception:
        traceback.print_exc()
        print("perfbench: an operation failed unexpectedly", file=sys.stderr)
        return 1

    metrics = {name: {"value": values[name], "unit": unit[name]}
               for name in unit if name in values}
    missing = sorted(set(unit) - set(values))
    if correct and missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics, "src_lines": src_lines(), "detail": detail}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        Path(f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start_ns", "end_ns", "parent"],
             "spans": spans}) + "\n")
    for name, m in metrics.items():
        print(f"{name:48} {m['value']:14.4f} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
