"""One measured run of one locdt benchmark workload, in a process of its own.

run.py starts this file with ``PYTHONPATH=src``; it writes its
measurements as JSON to ``--result`` and prints nothing on stdout.

Set-up (importing locdt and building the workload's inputs) is timed from
this module's first line to the first timed call.  Every operation's output
is checked: reports against the sha256 of the seed's report, query results
against answers known from theory, never from the code under test.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

from locdt import autgrp, checks, cli, geometry, graphs, harness, perms  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

# Fixed on every commit: a query still running after this many seconds is
# stopped, counted as failed and recorded with this latency.
QUERY_DEADLINE_S = 10.0

# Each query kind below appears this many times per pass, every time under
# a fresh seeded relabeling: 100 specs x 2 = 200 queries per pass.
QUERY_COPIES = 2

with open(os.path.join(HERE, "golden.json")) as _fh:
    GOLDEN = json.load(_fh)

# |Aut| from theory.  K_{n,n}: S_n wr S_2, 2(n!)^2.  Petersen: S_5.
# Heawood = PG(2,2), and PG(2,q) incidence: PGammaL(3,q) with a duality,
# 2|PGammaL(3,q)|.  Tutte 8-cage = W(3,2) incidence: Aut(S_6) = PGammaL(2,9).
# Hoffman-Singleton: PSigmaU(3,5^2).
AUT_ORDER = {
    "k33": 72, "k44": 1152, "petersen": 120, "heawood": 336, "pg23": 11232,
    "tutte": 1440, "pg24": 241920, "hosi": 252000,
}
# diameter d of each graph; S(G) is locally (Aut G, 2d)-distance transitive
# for every one of them (classification rows 1-5)
DIAMETER = {
    "k33": 2, "k44": 2, "petersen": 2, "heawood": 3, "pg23": 3,
    "tutte": 4, "pg24": 3, "hosi": 2,
}
# largest s for which Aut G is s-arc transitive: Petersen 3, Heawood 4,
# Tutte 8-cage 5 (Tutte's bound for cubic graphs)
MAX_ARC_S = {"petersen": 3, "heawood": 4, "tutte": 5}
# (depth-2 verdict, full-depth verdict) on S(K_n).  Depth 2 holds iff G is
# 3-transitive.  Full depth holds for 4-transitive G, for PGammaL(2,8) on 9
# points, and for A_5: the distance-4 sphere of an edge vertex of S(K_5) is
# the three disjoint edges, on which the set stabilizer of an edge in A_5
# acts as S_3.  AGL(1,5) is only 2-transitive, so both fail.
COMPLETE = {
    ("S", 4): (True, True), ("A", 5): (True, True), ("S", 5): (True, True),
    ("S", 6): (True, True), ("AGL1", 5): (False, False),
    ("PGammaL28", 9): (True, True),
}
# condition (*) on K_{n,n}: the full wreath group satisfies it; the
# side-preserving S_n x S_n fails the interchange clause.
STAR = {"full": True, "noswap": False}


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded


@dataclass
class Outcome:
    latency: float
    ok: bool
    note: str = ""


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# -- workloads ---------------------------------------------------------------

class Workload:
    jobs = 1

    def advance(self):
        """Make the next operation's inputs (untimed)."""


class Table(Workload):
    """``locdt verify-table -o FILE`` in-process, checked byte for byte."""

    def __init__(self, out_dir, jobs, tiny):
        if tiny:
            shrink_harness()
        self.jobs = jobs
        self.golden = GOLDEN["tiny-verify-table" if tiny else "verify-table"]
        self.path = os.path.join(out_dir, "verify-table.json")
        self.argv = ["verify-table", "-o", self.path]
        if jobs > 1:
            self.argv += ["--jobs", str(jobs)]

    def op(self):
        t = time.perf_counter()
        code = cli.main(self.argv)
        latency = time.perf_counter() - t
        if code != 0:
            return [Outcome(latency, False, f"verify-table exit code {code}")]
        with open(self.path, "rb") as fh:
            digest = sha256(fh.read())
        if digest != self.golden:
            return [Outcome(latency, False, f"report sha256 {digest} != golden")]
        return [Outcome(latency, True)]


class HexagonRow(Workload):
    """Row 7 alone: the split Cayley hexagon H(3), 728 vertices."""

    def __init__(self, tiny):
        if tiny:
            shrink_harness()
        self.golden = GOLDEN["tiny-hexagon-row" if tiny else "hexagon-row"]

    def op(self):
        t = time.perf_counter()
        report = harness.run_case_by_id("7", include_hexagon=True)
        latency = time.perf_counter() - t
        # the bytes report_to_json writes, computed without entering harness
        digest = sha256((json.dumps(report, indent=2) + "\n").encode())
        if not report["passed"]:
            return [Outcome(latency, False, f"row 7 failed: {report['failures']}")]
        if digest != self.golden:
            return [Outcome(latency, False, f"row sha256 {digest} != golden")]
        return [Outcome(latency, True)]


def shrink_harness():
    """Tiny size for the self-test: the same entry points over a two-row
    table, one negative, one complete-graph case and a 14-vertex row 7."""
    harness.CASES = harness.CASES[:2]
    harness.NEGATIVE_CASES = harness.NEGATIVE_CASES[-1:]
    harness.COMPLETE_GRAPH_CASES = harness.COMPLETE_GRAPH_CASES[:1]
    harness.HEXAGON_CASE = harness.CaseSpec("7", "pg2", (2,), (14, 6, 3, 6), "full")


@dataclass
class Query:
    label: str
    call: object  # () -> result, timed under the deadline
    check: object  # result -> bool


class Queries(Workload):
    """A seeded stream of short independent queries.  One operation is a
    pass over ``QUERY_COPIES`` copies of every spec; each pass draws fresh
    relabelings, so a run averages over many labelings of each graph."""

    def __init__(self, seed, specs):
        signal.signal(signal.SIGALRM, _on_alarm)
        self.inputs = QueryInputs()
        self.specs = specs
        self.rng = random.Random(seed)
        self.advance()

    def advance(self):
        self.stream = [build(self.inputs, self.rng) for _ in range(QUERY_COPIES)
                       for build in self.specs]
        self.rng.shuffle(self.stream)

    def op(self):
        return [run_query(q) for q in self.stream]


def run_query(q):
    t = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, QUERY_DEADLINE_S)
        try:
            result = q.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return Outcome(QUERY_DEADLINE_S, False, f"{q.label}: missed the deadline")
    except Exception as exc:  # a raising query is a failed operation
        traceback.print_exc()
        return Outcome(time.perf_counter() - t, False, f"{q.label}: raised {exc!r}")
    latency = time.perf_counter() - t
    if not q.check(result):
        return Outcome(latency, False, f"{q.label}: wrong answer {result!r}")
    return Outcome(latency, True)


class QueryInputs:
    """Graphs and groups the queries draw on, built once per run."""

    def __init__(self):
        self.graphs = {
            "k33": geometry.complete_bipartite(3, 3),
            "k44": geometry.complete_bipartite(4, 4),
            "petersen": geometry.petersen(),
            "heawood": geometry.incidence_pg2(2).graph,
            "pg23": geometry.incidence_pg2(3).graph,
            "tutte": geometry.incidence_w3(2).graph,
            "pg24": geometry.incidence_pg2(4).graph,
            "hosi": geometry.hoffman_singleton(),
        }
        P = perms.Permutation
        self.complete_groups = {
            ("S", 4): perms.symmetric_group(4),
            ("A", 5): perms.alternating_group(5),
            ("S", 5): perms.symmetric_group(5),
            ("S", 6): perms.symmetric_group(6),
            ("AGL1", 5): perms.PermGroup(5, [P([1, 2, 3, 4, 0]), P([0, 2, 4, 1, 3])]),
            ("PGammaL28", 9): geometry.pgammal2(8),
        }
        self.star_groups = {}
        for n in (3, 4, 5):
            side1, side2 = list(range(n)), list(range(n, 2 * n))
            noswap = [P.from_cycles(2 * n, [tuple(side[:2])]) for side in (side1, side2)]
            noswap += [P.from_cycles(2 * n, [tuple(side)]) for side in (side1, side2)]
            swap = P.from_cycles(2 * n, [(i, n + i) for i in range(n)])
            self.star_groups[n, "noswap"] = perms.PermGroup(2 * n, noswap)
            self.star_groups[n, "full"] = perms.PermGroup(2 * n, noswap[::2] + [swap])


def relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graphs.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]), perm


def conjugate(G, perm):
    """The group G acting on points renamed by ``perm``."""
    gens = []
    for p in G.generators:
        images = [0] * G.degree
        for i, j in enumerate(p.images):
            images[perm[i]] = perm[j]
        gens.append(perms.Permutation(images))
    return perms.PermGroup(G.degree, gens)


def is_isomorphism(g1, g2, mapping):
    """Edge-by-edge check that ``mapping`` is an isomorphism g1 -> g2."""
    if mapping is None or g1.m != g2.m or sorted(mapping) != list(range(g2.n)):
        return False
    edges2 = set(g2.edges)
    return all(tuple(sorted((mapping[u], mapping[v]))) in edges2 for u, v in g1.edges)


def q_aut(name):
    def build(inputs, rng):
        h, _ = relabel(inputs.graphs[name], rng)
        return Query(f"aut {name}", lambda: autgrp.automorphism_group(h).order(),
                     lambda order: order == AUT_ORDER[name])
    return build


def _ldt_verdict(h, G, s):
    """The calls behind ``locdt check-ldt --subdivide``."""
    sub, smap = graphs.subdivision(h)
    return checks.check_local_sdt(sub, graphs.lift_group(G, smap), s).verdict


def q_ldt(name):
    def build(inputs, rng):
        h, _ = relabel(inputs.graphs[name], rng)
        s = 2 * DIAMETER[name]
        return Query(f"check-ldt {name} --s {s}",
                     lambda: _ldt_verdict(h, autgrp.automorphism_group(h), s),
                     lambda verdict: verdict is True)
    return build


def q_ldt_noswap(n):
    def build(inputs, rng):
        h, perm = relabel(inputs.graphs[f"k{n}{n}"], rng)
        G = conjugate(inputs.star_groups[n, "noswap"], perm)
        return Query(f"check-ldt k{n}{n} noswap --s 4", lambda: _ldt_verdict(h, G, 4),
                     lambda verdict: verdict is False)
    return build


def q_arc(name, s):
    def build(inputs, rng):
        h, _ = relabel(inputs.graphs[name], rng)
        return Query(
            f"check-arc {name} --s {s}",
            lambda: checks.check_arc_transitive(h, autgrp.automorphism_group(h), s).transitive,
            lambda transitive: transitive is (s <= MAX_ARC_S[name]))
    return build


def q_iso(name):
    def build(inputs, rng):
        h1, _ = relabel(inputs.graphs[name], rng)
        h2, _ = relabel(inputs.graphs[name], rng)
        return Query(f"isomorphism {name}", lambda: autgrp.isomorphism(h1, h2),
                     lambda mapping: is_isomorphism(h1, h2, mapping))
    return build


def q_complete(key):
    def build(inputs, rng):
        n = key[1]
        perm = list(range(n))
        rng.shuffle(perm)
        G = conjugate(inputs.complete_groups[key], perm)

        def call():
            rep = checks.complete_graph_criteria(n, G)
            return rep.ldt_half, rep.ldt_full
        return Query(f"complete_graph_criteria {key}", call,
                     lambda verdicts: verdicts == COMPLETE[key])
    return build


def q_star(n, kind):
    def build(inputs, rng):
        # rename within the two sides, and swap the sides half of the time
        side1, side2 = list(range(n)), list(range(n, 2 * n))
        rng.shuffle(side1)
        rng.shuffle(side2)
        perm = side1 + side2 if rng.random() < 0.5 else side2 + side1
        G = conjugate(inputs.star_groups[n, kind], perm)
        return Query(f"condition_star k{n}{n} {kind}",
                     lambda: checks.condition_star(G, n).satisfied,
                     lambda satisfied: satisfied is STAR[kind])
    return build


FAMILIES = ("k33", "k44", "petersen", "heawood", "pg23", "tutte", "pg24", "hosi")
QUERY_SPECS = (
    [q_aut(f) for f in FAMILIES for _ in range(3)]
    + [q_ldt(f) for f in FAMILIES for _ in range(3)]
    + [q_ldt_noswap(n) for n in (3, 4) for _ in range(2)]
    + [q_arc(f, s + extra) for f, s in MAX_ARC_S.items() for extra in (0, 1)
       for _ in range(2)]
    + [q_iso(f) for f in ("k33", "k44", "petersen", "heawood", "pg23", "tutte")
       for _ in range(2)]
    + [q_complete(key) for key in COMPLETE for _ in range(2)]
    + [q_star(n, kind) for n in (3, 4, 5) for kind in STAR for _ in range(2)]
)
TINY_QUERY_SPECS = (q_aut("petersen"), q_ldt("k33"), q_ldt_noswap(3),
                    q_arc("petersen", 4), q_iso("heawood"),
                    q_complete(("AGL1", 5)), q_star(3, "full"))
# Not a benchmark workload: isomorphism on these two graphs misses any
# deadline at the seed, so every operation of this stream fails.
ISO_DEFECT_SPECS = (q_iso("hosi"), q_iso("pg24"))


def make_workload(name, seed, out_dir, tiny):
    if name == "table":
        return Table(out_dir, 1, tiny)
    if name == "table-jobs2":
        return Table(out_dir, 2, tiny)
    if name == "hexagon":
        return HexagonRow(tiny)
    if name == "queries":
        return Queries(seed, TINY_QUERY_SPECS if tiny else QUERY_SPECS)
    if name == "iso-defect":
        return Queries(seed, ISO_DEFECT_SPECS)
    raise ValueError(f"unknown workload {name!r}")


# -- measurement -------------------------------------------------------------

def cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def timed_ops(wl, seconds):
    """Closed loop: start operations until ``seconds`` have passed."""
    walls, cpus, outcomes = [], [], []
    start = time.perf_counter()
    while True:
        t, c = time.perf_counter(), cpu_seconds()
        outcomes += wl.op()
        walls.append(time.perf_counter() - t)
        cpus.append(cpu_seconds() - c)
        if time.perf_counter() - start >= seconds:
            return walls, cpus, outcomes
        wl.advance()


def traced_ops(wl, seconds, span_dir):
    """Untraced operations for the first half of ``seconds``, traced ones
    for the second half, at least one of each; per-layer metrics are
    averaged per traced operation."""
    from statistics import median

    import spans

    ref_walls, _, outcomes = timed_ops(wl, seconds / 2)
    tracer = spans.Tracer(span_dir)
    tracer.install()
    walls, cpus, totals = [], [], {}
    start = time.perf_counter()
    try:
        while True:
            tracer.reset()
            t, c = time.perf_counter(), cpu_seconds()
            outcomes += wl.op()
            wall = time.perf_counter() - t
            walls.append(wall)
            cpus.append(cpu_seconds() - c)
            tracer.merge_children()
            for k, v in spans.layer_metrics(tracer.spans, tracer.counts, wall).items():
                totals[k] = totals.get(k, 0) + v
            if time.perf_counter() - start >= seconds / 2:
                break
            wl.advance()
    finally:
        tracer.uninstall()
    layer = {k: v / len(walls) for k, v in totals.items()}
    layer["harness.parallel_efficiency"] = sum(cpus) / (sum(walls) * wl.jobs)
    layer["trace.wall_s"] = median(walls)
    layer["trace.untraced_wall_s"] = median(ref_walls)
    layer["trace.overhead_s"] = median(walls) - median(ref_walls)
    layer["trace.ops"] = len(walls)
    return walls, outcomes, layer


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True, help="scratch directory for reports and spans")
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    wl = make_workload(args.workload, args.seed, args.out, args.tiny)
    result = {"setup_s": time.perf_counter() - T0}
    if not args.setup_only:
        if args.trace:
            walls, outcomes, result["layer"] = traced_ops(wl, args.seconds, args.out)
        else:
            walls, _, outcomes = timed_ops(wl, args.seconds)
        result["op_walls"] = walls
        result["latencies"] = [o.latency for o in outcomes]
        result["attempted"] = len(outcomes)
        result["failed"] = sum(1 for o in outcomes if not o.ok)
        result["failures"] = sorted({o.note for o in outcomes if not o.ok})
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
