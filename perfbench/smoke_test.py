#!/usr/bin/env python3
"""Smoke test of the probemon benchmark at tiny sizes.

    python3 perfbench/smoke_test.py

Run from the repository root (about a minute). For every workload in
BENCHMARK.json it runs perfbench/run.py --tiny untraced and traced and
checks that the result line names exactly the metrics BENCHMARK.json
lists, each with its unit and a finite value, and that the run's own
correctness checks passed. It then checks that the seed is honoured
(same seed, same generated inputs; another seed, other inputs) and that
the benchmark refuses to run, without a result line, from a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FAILURES = []


def fail(msg):
    FAILURES.append(msg)
    print("FAIL: " + msg, flush=True)


def run(workload, seed, trace, cwd=ROOT, timeout=300):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def result_of(proc, what):
    if proc.returncode != 0:
        fail("%s exited %d: %s" % (what, proc.returncode, proc.stderr.strip()[-400:]))
        return None, []
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), lines[:-1]
    except (IndexError, ValueError):
        fail("%s: last line is not a JSON object" % what)
        return None, []


def check_result(res, expected, what):
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (what, sorted(res)))
    if res.get("correct") is not True:
        fail("%s: correct is %r" % (what, res.get("correct")))
    if not isinstance(res.get("attempted"), int) or res["attempted"] < 1:
        fail("%s: attempted %r" % (what, res.get("attempted")))
    if not isinstance(res.get("failed"), int):
        fail("%s: failed %r" % (what, res.get("failed")))
    metrics = res.get("metrics", {})
    if sorted(metrics) != sorted(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        fail("%s: metric names differ from BENCHMARK.json (missing %s, extra %s)"
             % (what, missing, extra))
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            fail("%s: %s has unit %r, BENCHMARK.json says %r" % (what, name, m.get("unit"), unit))
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail("%s: %s value %r is not finite" % (what, name, v))


def inputs_fingerprint(notes, workload):
    """The note line that summarizes the generated inputs of a run."""
    pattern = {"des_fleet": r"^# des_fleet determinism:", "des_paper": r"^# des_paper determinism:",
               "rt_fleet": r"^# rt_fleet inputs:"}[workload]
    for line in notes:
        if re.match(pattern, line):
            return line
    fail("%s: no inputs note" % workload)
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for w in bench["workloads"]:
        name = w["name"]
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            what = "%s trace=%d" % (name, trace)
            res, _ = result_of(run(name, 7, trace), what)
            if res is not None:
                check_result(res, expected, what)
                print("ok: %s (%d metrics)" % (what, len(res["metrics"])), flush=True)

        # The seed is honoured: the same seed repeats the generated
        # inputs, another seed changes them.
        a = inputs_fingerprint(result_of(run(name, 11, 0), name + " seed 11")[1], name)
        b = inputs_fingerprint(result_of(run(name, 11, 0), name + " seed 11 again")[1], name)
        c = inputs_fingerprint(result_of(run(name, 12, 0), name + " seed 12")[1], name)
        if a is not None and a != b:
            fail("%s: seed 11 gave different inputs: %s | %s" % (name, a, b))
        if a is not None and a == c:
            fail("%s: seeds 11 and 12 gave the same inputs: %s" % (name, a))
        print("ok: %s seed honoured" % name, flush=True)

    # Without the library sources the benchmark must refuse to run.
    bare = os.path.join(ROOT, ".bench_build", "smoke_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bench["workloads"][0]["name"], 1, 0, cwd=bare, timeout=180)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("benchmark ran without the library sources (exit %d)" % proc.returncode)
    else:
        print("ok: refuses to run without the library sources (exit %d)" % proc.returncode)
    shutil.rmtree(bare, ignore_errors=True)

    if FAILURES:
        print("%d failure(s)" % len(FAILURES))
        return 1
    print("all smoke checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
