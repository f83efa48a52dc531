#!/usr/bin/env python3
"""Self-check of the benchmark's interception, on a short run of each workload.

    python3 perfbench/selfcheck.py [--seed N]

It checks that tracing rebinds every namespace holding a traced name and
restores them all, that the counters see the work where it happens
(`kernel.expfam_pairwise.calls` >= `bounds.objective_evals` and no
`models.log_density_batch` call on closed_search, some on mc_route), and
that traced bound values are bit-identical to untraced ones.  Exits 1 on the
first failed check.
"""

from __future__ import annotations

import argparse
import shutil
import sys

import run  # sets the BLAS thread cap before numpy loads


class SelfCheckError(Exception):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise SelfCheckError(what)
    print(f"ok: {what}")


def _namespaces_hold(objects) -> list[str]:
    import tracer
    ids = {id(o) for o in objects}
    return [f"{m.__name__}.{k}" for m in tracer.varbounds_modules()
            for k, v in vars(m).items() if id(v) in ids]


def _traced_run(calls):
    import tracer
    untraced = run._run_pass(calls)
    originals = tracer.originals()
    bindings = _namespaces_hold(originals)
    rec = tracer.Recorder()
    undo = tracer.install(rec)
    try:
        _require(not _namespaces_hold(originals),
                 f"all {len(bindings)} bindings of traced names are rebound")
        traced = run._run_pass(calls)
    finally:
        tracer.uninstall(undo)
    _require(_namespaces_hold(originals) == bindings, "uninstall restores every binding")
    rec.new_pass()
    for kind, records in (("untraced", untraced), ("traced", traced)):
        failures = [r["label"] for r in records if r["error"] or r["check_error"]]
        _require(not failures, f"{kind}: every call completes and is checked"
                 + (f" (not: {failures})" if failures else ""))
    return untraced, traced, rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    tmp = run._tmpdir("selfcheck")
    try:
        run._import_library()
        import workloads
        for name in workloads.WORKLOADS:
            calls = run._setup(name, args.seed, str(tmp))
            if name == "closed_search":
                # the 6 s acceptance-9 scan adds nothing the other searches miss
                calls = [c for c in calls if not c.label.startswith("scan:")]
            print(f"{name}: {len(calls)} calls")
            untraced, traced, rec = _traced_run(calls)
            _require(run._values(traced) == run._values(untraced),
                     f"{name}: traced values are bit-identical to untraced ones")
            lds = rec.calls["models.log_density_batch"]
            if name == "closed_search":
                evals = rec.counters["bounds.objective_evals"]
                _require(evals > 0 and rec.calls["kernel.expfam_pairwise"] >= evals,
                         f"closed_search: expfam_pairwise.calls "
                         f"{rec.calls['kernel.expfam_pairwise']} >= objective_evals {evals}")
                _require(lds == 0, "closed_search: no log_density_batch call")
            elif name == "mc_route":
                _require(lds > 0, f"mc_route: {lds} log_density_batch calls")
            else:
                _require(rec.calls["cli.main"] == len(calls),
                         "cli_batch: cli.main traced once per call")
    except SelfCheckError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
