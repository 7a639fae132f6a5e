"""Self-test of the locdt benchmark.

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the benchmark's schema, runs every workload
at a tiny size with and without tracing and checks the printed metrics,
shows that the correctness gate can fail (a wrong golden hash, a wrong
known answer, a missed deadline), and that run.py refuses to run without
the locdt sources.  Exits 0 when every check passes.
"""

import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import worker  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
FAILURES = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json has exactly the six keys")
    check(1 <= len(spec["paths"]) <= 16 and all(
        re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", p) and not p.startswith("/")
        and ".." not in p.split("/") for p in spec["paths"]), "paths are relative and well formed")
    check(len(spec["command"]) <= 32 and all(len(c) <= 200 for c in spec["command"]),
          "command fits its limits")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
          "run_seconds is a whole number in 1..60")
    check(2 <= len(spec["workloads"]) <= 8 and all(
        set(w) == {"name", "why"} and NAME.match(w["name"]) and len(w["why"]) <= 200
        and "\n" not in w["why"] for w in spec["workloads"]), "workloads are well formed")
    e2e, layer = spec["end_to_end"], spec["per_layer"]
    check(1 <= len(e2e) <= 16 and all(
        set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        for m in e2e), "end_to_end metrics carry bounds of at most 0.25")
    check(any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
              for m in e2e), "setup_s is an end_to_end metric")
    check(max(e2e, key=lambda m: m["bound"])["bound"]
          == next(m["bound"] for m in e2e if m["name"] == "setup_s"),
          "setup_s has the largest bound")
    check(1 <= len(layer) <= 128 and all(set(m) == {"name", "unit", "better"} for m in layer),
          "per_layer metrics are well formed")
    names = [m["name"] for m in e2e + layer] + [w["name"] for w in spec["workloads"]]
    check(all(NAME.match(n) for n in names), "names fit the name pattern")
    check(len(set(m["name"] for m in e2e + layer)) == len(e2e + layer), "metric names are unique")
    check(all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
              for m in e2e + layer), "units and directions are well formed")
    check(len(json.dumps(spec)) <= 64 * 1024, "BENCHMARK.json is at most 64 KiB")


def run_tiny(workload, trace, declared):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    what = f"{workload} --trace {trace}"
    check(proc.returncode == 0, f"{what}: exit code 0")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        check(False, f"{what}: last stdout line is JSON")
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{what}: correct, {result['attempted']} attempted, {result['failed']} failed")
    metrics = result["metrics"]
    check(set(metrics) == set(declared), f"{what}: metric names match BENCHMARK.json")
    check(all(set(v) == {"value", "unit"} and v["unit"] == declared[k]
              and isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
              for k, v in metrics.items() if k in declared), f"{what}: values and units")
    for line in proc.stdout.splitlines()[:-1]:
        name = line.split()[0] if line.strip() else ""
        declared.pop(name, None)
    check(not declared, f"{what}: every metric printed by name ({sorted(declared)[:3]} missing)")


def gate_checks():
    out = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench-out"))
    try:
        table = worker.Table(out, 1, tiny=True)
        check(all(o.ok for o in table.op()), "tiny table passes with the right golden hash")
        table.golden = "0" * 64
        check(not any(o.ok for o in table.op()), "a wrong golden hash fails the table")
        hexagon = worker.HexagonRow(tiny=True)
        hexagon.golden = "0" * 64
        check(not any(o.ok for o in hexagon.op()), "a wrong golden hash fails the hexagon row")
    finally:
        shutil.rmtree(out, ignore_errors=True)

    queries = worker.Queries(3, worker.TINY_QUERY_SPECS)
    check(all(o.ok for o in queries.op()), "tiny queries pass with the known answers")
    saved = dict(worker.AUT_ORDER)
    worker.AUT_ORDER["petersen"] = 121
    try:
        check(sum(not o.ok for o in queries.op()) == worker.QUERY_COPIES,
              "a wrong known |Aut| fails exactly its queries")
    finally:
        worker.AUT_ORDER.update(saved)
    wrong_star = worker.q_star(3, "noswap")
    q = wrong_star(worker.QueryInputs(), random.Random(0))
    q.check = lambda satisfied: satisfied is True
    check(not worker.run_query(q).ok, "a wrong known verdict fails its query")

    from locdt import geometry
    g = geometry.petersen()
    check(not worker.is_isomorphism(g, g, tuple(range(1, 10)) + (0,)),
          "a non-isomorphism fails the edge-by-edge check")

    def spin():
        while True:
            pass
    saved_deadline = worker.QUERY_DEADLINE_S
    worker.QUERY_DEADLINE_S = 0.05
    try:
        miss = worker.run_query(worker.Query("spin", spin, lambda r: True))
    finally:
        worker.QUERY_DEADLINE_S = saved_deadline
    check(not miss.ok and miss.latency == 0.05, "a missed deadline fails, recorded at the deadline")


def bare_directory_check():
    """run.py must fail, printing no result, next to BENCHMARK.json alone."""
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench-out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "table", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              f"without sources run.py exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(ROOT, ".perfbench-out"), exist_ok=True)
    check_spec(spec)
    bare_directory_check()
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            run_tiny(w["name"], trace, {m["name"]: m["unit"] for m in spec[key]})
    gate_checks()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
