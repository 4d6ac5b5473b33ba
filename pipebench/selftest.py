#!/usr/bin/env python3
"""Self-tests of the pipeline benchmark, in tiny-size mode (about a minute).

Run from the root of a checkout:

    python3 pipebench/selftest.py

For every workload in BENCHMARK.json it checks that
  - an untraced run emits exactly the end-to-end metrics, each with its unit,
    all non-zero, with correct=true and no failed pass;
  - a traced run emits exactly the per-layer metrics with their units and
    writes a Chrome trace holding one span per layer call the workload
    makes, each with a valid parent link;
  - with --corrupt-cadj (one flipped CADJ byte after every pass) every pass
    counts as failed, correct=false and the exit code is non-zero.
Last, a directory holding only BENCHMARK.json and pipebench/ must make the
benchmark exit non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")

# Layer calls every workload makes, then the ones only some make.
COMMON_SPANS = {
    "pass", "simulate", "synthesize", "analyze", "pop.generate", "abm.run",
    "net.synthesize", "elog.load", "net.subset", "net.collocation",
    "net.partition", "net.adjacency", "net.reduce", "sparse.load",
    "graph.build", "stats.degree_fits", "graph.components",
}
EXTRA_SPANS = {
    "city-week": {"sparse.to_triplets", "sparse.save"},
    "city-week-spill": set(),
    "fig-analysis": {"sparse.to_triplets", "sparse.save", "graph.clustering",
                     "graph.transitivity", "graph.louvain", "graph.ego",
                     "net.age_groups"},
    "abm-month": {"sparse.to_triplets", "sparse.save"},
}

failures = []


def check(condition, what):
    print(("ok   " if condition else "FAIL ") + what, flush=True)
    if not condition:
        failures.append(what)


def run(workload, trace, extra=(), cwd=None):
    script = os.path.join(cwd, "pipebench", "run.py") if cwd else RUN
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", trace, "--size", "tiny", *extra],
        capture_output=True, text=True, cwd=cwd)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def check_metrics(workload, result, expected, nonzero):
    metrics = result.get("metrics", {}) if result else {}
    check(set(metrics) == set(expected),
          "%s: metric names are exactly the declared ones" % workload)
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        check(set(entry) == {"value", "unit"} and entry.get("unit") == unit,
              "%s: %s carries unit %s" % (workload, name, unit))
        if nonzero:
            check(isinstance(entry.get("value"), (int, float))
                  and entry.get("value") > 0,
                  "%s: %s is non-zero" % (workload, name))


def check_trace(workload):
    path = ".bench_out/trace-%s-seed3.json" % workload
    check(os.path.isfile(path), "%s: trace written to %s" % (workload, path))
    if not os.path.isfile(path):
        return
    with open(path) as handle:
        events = json.load(handle)["traceEvents"]
    ids = {event["args"]["id"] for event in events}
    names = {event["name"] for event in events}
    missing = (COMMON_SPANS | EXTRA_SPANS[workload]) - names
    check(not missing, "%s: one span per layer call (missing: %s)"
          % (workload, sorted(missing)))
    check(all(event["args"]["parent"] in ids or
              (event["name"] == "pass" and event["args"]["parent"] == 0)
              for event in events),
          "%s: every span links to an existing parent" % workload)


def main():
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for workload in (w["name"] for w in bench["workloads"]):
        proc, result = run(workload, "0")
        check(proc.returncode == 0 and result is not None
              and result.get("correct") is True and result.get("failed") == 0
              and result.get("attempted", 0) >= 2,
              "%s: untraced run is correct (exit %d)" % (workload,
                                                         proc.returncode))
        check_metrics(workload, result, end_to_end, nonzero=True)

        proc, result = run(workload, "1")
        check(proc.returncode == 0 and result is not None
              and result.get("correct") is True,
              "%s: traced run is correct (exit %d)" % (workload,
                                                       proc.returncode))
        check_metrics(workload, result, per_layer, nonzero=False)
        check_trace(workload)

        proc, result = run(workload, "0", ["--corrupt-cadj"])
        check(proc.returncode != 0 and result is not None
              and result.get("correct") is False
              and result.get("failed") == result.get("attempted") >= 1,
              "%s: a flipped CADJ byte fails every pass" % workload)

    bare = tempfile.mkdtemp(prefix="pipebench-bare-", dir=".")
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, os.path.join(bare, "pipebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, result = run("city-week", "0", cwd=bare)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without the sources: non-zero exit and no result")
    finally:
        shutil.rmtree(bare)

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
