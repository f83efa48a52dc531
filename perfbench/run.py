#!/usr/bin/env python3
"""Seeded benchmark of varbounds: closed-form search, Monte Carlo route, CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload closed_search --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --compare RESULT_A.json RESULT_B.json

A run repeats the workload's call list (built once from --seed) until
--seconds have passed, then prints one line per metric and, as the last line,
a JSON object with `correct`, `attempted`, `failed` and `metrics`.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 the first half of the time runs untraced and the second half
traced, and the metrics are the per-layer ones.  Every call's bound values,
references and check results go to a results file (default
.perfbench/results/<workload>-seed<n>-trace<t>.json); --compare prints the
largest relative value difference between two such files and fails above
1e-12.  See NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # one single-threaded process per workload
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import io
import json
import math
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
SETUP_PROBES = 5
AGREEMENT = 1e-12


class BenchError(Exception):
    """The benchmark cannot run here; nothing is printed as a result."""


def _import_library():
    if not (SRC / "varbounds" / "__init__.py").is_file():
        raise BenchError(f"no varbounds sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import varbounds
    if Path(varbounds.__file__).resolve().parent != SRC / "varbounds":
        raise BenchError(f"varbounds imported from {varbounds.__file__}, not {SRC}")


def _setup(workload: str, seed: int, tmpdir: str) -> list:
    _import_library()
    import workloads
    return workloads.build(workload, seed, tmpdir)


def _tmpdir(tag: str) -> Path:
    path = ROOT / ".perfbench" / f"tmp-{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _setup_probe(workload: str, seed: int) -> int:
    tmp = _tmpdir("probe")
    try:
        t0 = time.perf_counter()
        _setup(workload, seed, str(tmp))
        print(repr(time.perf_counter() - t0))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


def _measure_setup(workload: str, seed: int) -> list[float]:
    """Import plus input construction, each time in a fresh interpreter,
    one after the other, before the workload runs."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# Running the call list
# ---------------------------------------------------------------------------

def _run_pass(calls) -> list[dict]:
    """One pass over the call list; library output goes to a sink."""
    records = []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for call in calls:
            t0 = time.perf_counter()
            try:
                result, error = call.run(), None
            except Exception as exc:  # a failing call is counted, the pass goes on
                result, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            checks, check_error = [], None
            if error is None:
                try:
                    checks = call.checks(result)
                except Exception as exc:  # noqa: BLE001 - reported as a check that could not run
                    check_error = f"{type(exc).__name__}: {exc}"
                if any(not math.isfinite(c.value) for c in checks):
                    error, checks = "non-finite bound value", []
            records.append({"label": call.label, "latency_s": latency, "error": error,
                            "check_error": check_error, "checks": checks,
                            "wrong": sum(c.wrong for c in checks),
                            "exact_wrong": sum(c.wrong and c.exact for c in checks)})
    return records


def _values(records) -> dict:
    return {c.case: c.value for r in records for c in r["checks"]}


def _run_until(calls, deadline: float, first=None, on_pass=None) -> list[list[dict]]:
    """Passes until the deadline, at least one.  Only the first pass keeps
    its Check objects; every later pass is compared with it bit for bit and
    keeps counts, so bookkeeping does not grow the measured memory."""
    passes = []
    while not passes or time.perf_counter() < deadline:
        if on_pass is not None:
            on_pass()
        records = _run_pass(calls)
        if first is None:
            first = records
        else:
            same = _values(records) == _values(first) and \
                [r["error"] for r in records] == [r["error"] for r in first]
            for r in records:
                r["checked"], r["checks"], r["same"] = len(r["checks"]), [], same
        passes.append(records)
    return passes


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: the 11th
    largest value, at percentile 100 (n - 10) / n."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        raise BenchError(f"{n} calls are too few for a latency tail")
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _call_means(passes: list[list[dict]]) -> list[float]:
    """Each call's mean latency over the passes.  The latency statistics
    are taken over these, one per call of the list, so the sample count does
    not depend on how many passes fit in the run.  A mean, not a median:
    on a shared machine that flips between a fast and a slow state every few
    seconds, a per-call median jumps to whichever state held most of the
    run, while the mean moves in proportion to the time spent in each."""
    return [statistics.fmean(p[i]["latency_s"] for p in passes)
            for i in range(len(passes[0]))]


def _summary(passes: list[list[dict]]) -> dict:
    records = [r for p in passes for r in p]
    means = _call_means(passes)
    checked = sum(r.get("checked", len(r["checks"])) for r in records)
    failed = sum(r["error"] is not None for r in records)
    wrong = sum(r["wrong"] for r in records)
    tail, pct, n = _tail(means)
    return {
        "run_s": sum(means),
        "call_ms_p50": 1000.0 * statistics.median(means),
        "call_ms_tail": 1000.0 * tail,
        "tail_percentile": pct,
        "call_samples": n,
        "passes": len(passes),
        "attempted": len(records),
        "failed": failed,
        "fail_frac": failed / len(records),
        "checked": checked,
        "wrong": wrong,
        "wrong_frac": wrong / checked if checked else 0.0,
    }


def _end_to_end(summary: dict, setup_times: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": summary["run_s"],
        "call_ms_p50": summary["call_ms_p50"],
        "call_ms_tail": summary["call_ms_tail"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - summary["fail_frac"],
        "right_frac": 1.0 - summary["wrong_frac"],
    }


def _layer_metrics(names, rec, traced: int, overhead_s: float) -> dict:
    import tracer
    spans = {t[-1] for t in tracer.FUNCTIONS + tracer.METHODS} | {tracer.LINALG_SPAN}
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            out[name] = overhead_s
        elif name == "kernel.linalg.decompositions":
            out[name] = rec.calls[tracer.LINALG_SPAN] / traced
        elif name == "models.log_density_batch.distinct_frac":
            calls = rec.calls["models.log_density_batch"]
            out[name] = rec.counters["models.log_density_batch.distinct"] / calls if calls else 0.0
        elif name in tracer.COUNTERS:
            out[name] = rec.counters[name] / traced
        else:
            span, _, field = name.rpartition(".")
            table = {"calls": rec.calls, "s": rec.incl_ns, "self_s": rec.self_ns}.get(field)
            if span not in spans or table is None:
                raise BenchError(f"per-layer metric {name!r} has no span or counter")
            scale = 1.0 if field == "calls" else 1e-9
            out[name] = table[span] * scale / traced
    return out


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    import ctypes
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            return int(getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_")())
        except (OSError, AttributeError):
            continue
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (requested)"


def _environment(seed: int) -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _benchmark_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    return json.loads(path.read_text())


def _correct(passes: list[list[dict]]) -> bool:
    """Every completed value could be checked, every exact-route value passes
    its check, and every pass, traced or not, reproduced the first pass bit
    for bit.  Monte Carlo values that fail their check are the known defect
    `right_frac` measures; they do not make the run incorrect."""
    records = [r for p in passes for r in p]
    return not any(r["check_error"] or r["exact_wrong"] for r in records) and \
        all(r.get("same", True) for r in records)


def run(args) -> int:
    spec = _benchmark_spec()
    _import_library()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    setup_times = _measure_setup(args.workload, args.seed)
    tmp = _tmpdir(args.workload)
    try:
        calls = _setup(args.workload, args.seed, str(tmp))
        env = _environment(args.seed)
        start = time.perf_counter()
        rec = None
        if args.trace:
            import tracer
            plain = _run_until(calls, start + args.seconds / 2.0)
            rec = tracer.Recorder()
            undo = tracer.install(rec)
            try:
                traced = _run_until(calls, start + args.seconds, first=plain[0],
                                    on_pass=rec.new_pass)
            finally:
                tracer.uninstall(undo)
            rec.new_pass()
            passes = plain + traced
        else:
            plain = traced = passes = _run_until(calls, start + args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    summary = _summary(plain)
    correct = _correct(passes)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        overhead = sum(_call_means(traced)) - summary["run_s"]
        values = _layer_metrics([m["name"] for m in spec["per_layer"]], rec,
                                len(traced), overhead)
    else:
        e2e = _end_to_end(summary, setup_times)
        values = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    out = Path(args.out) if args.out else \
        ROOT / ".perfbench" / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    first = passes[0]
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "correct": correct,
        "setup_probes_s": setup_times, "summary": summary, "metrics": metrics,
        "calls": [{"label": r["label"], "error": r["error"], "check_error": r["check_error"],
                   "latency_s": [p[i]["latency_s"] for p in passes]}
                  for i, r in enumerate(first)],
        "values": [c.as_dict() for r in first for c in r["checks"]],
    }
    if rec is not None:
        result["spans"] = {name: {"calls": rec.calls[name], "s": rec.incl_ns[name] * 1e-9,
                                  "self_s": rec.self_ns[name] * 1e-9} for name in rec.calls}
        result["span_edges"] = [{"parent": p, "child": c, "calls": n, "s": ns * 1e-9}
                                for (p, c), (n, ns) in sorted(rec.edges.items())]
        result["counters"] = dict(rec.counters)
    out.write_text(json.dumps(result, indent=1))

    print(f"workload {args.workload} seed {args.seed}: {summary['passes']} untraced "
          f"pass(es) of {len(calls)} calls; environment {json.dumps(env)}")
    for k, v in metrics.items():
        print(f"  {k:<44} {v['value']:.6g} {v['unit']}")
    print(f"  fail_frac {summary['fail_frac']:.6g} ({summary['failed']}/{summary['attempted']})"
          f"  wrong_frac {summary['wrong_frac']:.6g} ({summary['wrong']}/{summary['checked']})"
          f"  tail = p{summary['tail_percentile']:.1f} of {summary['call_samples']} calls")
    for r in first:
        if r["error"] or r["check_error"]:
            print(f"  {r['label']}: {r['error'] or r['check_error']}")
    print(f"  results: {out}  correct: {correct}")
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0 if correct else 1


def compare(path_a: str, path_b: str) -> int:
    """Largest relative difference between the bound values of two results."""
    a, b = (
        {v["case"]: v["value"] for v in json.loads(Path(p).read_text())["values"]}
        for p in (path_a, path_b))
    worst, worst_case = 0.0, None
    for case in sorted(a.keys() & b.keys()):
        x, y = a[case], b[case]
        scale = max(abs(x), abs(y))
        rel = abs(x - y) / scale if scale > 0 else 0.0
        if rel > worst:
            worst, worst_case = rel, case
    only = sorted(a.keys() ^ b.keys())
    print(f"{len(a.keys() & b.keys())} common values; largest relative difference "
          f"{worst:.3e}" + (f" at {worst_case}" if worst_case else ""))
    for case in only:
        print(f"  only in {'first' if case in a else 'second'}: {case}")
    return 0 if worst <= AGREEMENT and not only else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="closed_search, mc_route or cli_batch")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="results file (default under .perfbench/results)")
    ap.add_argument("--compare", nargs=2, metavar="RESULT")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.workload is None:
            ap.error("--workload is required")
        if args.setup_probe:
            return _setup_probe(args.workload, args.seed)
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
