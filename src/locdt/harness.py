"""End-to-end verification harness for the classified rows.

Each case builds its graph, selects the acting group by the row's rule,
checks the expected invariant columns (|V|, girth, diameter, subdivision
diameter), which ``analyze`` takes from the orbit representatives of a
group of automorphisms, lifts the group to the subdivision graph and runs
the local distance-transitivity test once, at full depth D.  The depth-2d
verdict is read off that run: D >= 2d, so its spheres up to 2d are the
whole depth-2d test.  Positive rows must pass at both depths; the shipped
negative cases must fail (a verifier that cannot fail is broken).  Reports
are plain dicts with a fixed key order so serialised output is byte-stable.
"""

import json
from dataclasses import dataclass
from itertools import repeat

from . import geometry
from .autgrp import automorphism_group, isomorphism
from .checks import (
    check_local_sdt,
    condition_star,
    diameter_bounds_check,
    complete_graph_criteria,
)
from .graphs import (
    Graph,
    analyze,
    bfs_distances,
    lift_group,
    subdivision,
)
from .perms import (
    GroupError,
    PermGroup,
    Permutation,
    alternating_group,
    symmetric_group,
)

# reference data: the classification of (G,s)-transitive graphs of girth
# g <= 2s for s >= 4 (family, s, g, valency); used as annotations only
S_TRANSITIVE_CLASSIFICATION = (
    ("pg2", 4, 6, "q+1"),
    ("w3 (q even)", 5, 8, "q+1"),
    ("w3 (q=2, derived A6)", 4, 8, 3),
    ("hexagon (q power of 3)", 7, 12, "q+1"),
    ("triple cover of w3 q=2", 5, 10, 3),
)

CONSTRUCTORS = {
    "kn": (1, lambda n: geometry.complete(n)),
    "kbip": (2, lambda a, b: geometry.complete_bipartite(a, b)),
    "cycle": (1, lambda n: geometry.cycle(n)),
    "petersen": (0, lambda: geometry.petersen()),
    "hosi": (0, lambda: geometry.hoffman_singleton()),
    "pg2": (1, lambda q: geometry.incidence_pg2(q).graph),
    "w3": (1, lambda q: geometry.incidence_w3(q).graph),
    "hexagon": (1, lambda q: geometry.incidence_hexagon(q).graph),
    "chamber45": (0, lambda: geometry.chamber_model_w32().graph),
}


def build_constructor(name, params):
    if name not in CONSTRUCTORS:
        raise ValueError(f"unknown constructor {name!r}")
    arity, fn = CONSTRUCTORS[name]
    if len(params) != arity:
        raise ValueError(
            f"constructor {name!r} takes {arity} parameter(s), got {len(params)}"
        )
    return fn(*params)


@dataclass(frozen=True)
class CaseSpec:
    """One verification case: constructor, expected invariant columns,
    group selection rule and expected verdict."""

    row: str
    constructor: str
    params: tuple
    expected: tuple  # (n, girth, diameter, subdivision diameter)
    group_rule: str  # full | index2-sdt-pick | chamber-*
    expect_pass: bool = True
    classification_line: int = None  # index into S_TRANSITIVE_CLASSIFICATION


CASES = (
    CaseSpec("1(n=3)", "kbip", (3, 3), (6, 4, 2, 4), "full"),
    CaseSpec("1(n=4)", "kbip", (4, 4), (8, 4, 2, 4), "full"),
    CaseSpec("2", "petersen", (), (10, 5, 2, 6), "full"),
    CaseSpec("3", "hosi", (), (50, 5, 2, 6), "full"),
    CaseSpec("4(q=2)", "pg2", (2,), (14, 6, 3, 6), "full", classification_line=0),
    CaseSpec("4(q=3)", "pg2", (3,), (26, 6, 3, 6), "full", classification_line=0),
    CaseSpec("4(q=4)", "pg2", (4,), (42, 6, 3, 6), "full", classification_line=0),
    CaseSpec("5(q=2)", "w3", (2,), (30, 8, 4, 8), "full", classification_line=1),
    CaseSpec("5(q=4)", "w3", (4,), (170, 8, 4, 8), "full", classification_line=1),
    CaseSpec("6", "w3", (2,), (30, 8, 4, 8), "index2-sdt-pick", classification_line=2),
) + tuple(
    CaseSpec(f"8(n={n})", "cycle", (n,), (n, n, n // 2, n), "full")
    for n in range(5, 13)
)

HEXAGON_CASE = CaseSpec(
    "7", "hexagon", (3,), (728, 12, 6, 12), "full", classification_line=3
)

NEGATIVE_CASES = (
    CaseSpec("neg-w3(q=3)", "w3", (3,), (80, 8, 4, 8), "full", expect_pass=False),
    CaseSpec(
        "neg-w3(q=2)-pgl", "w3", (2,), (30, 8, 4, 8), "chamber-pgl", expect_pass=False
    ),
)

# Expected instance verdicts (depth 2, full depth), mechanically verified.
# Note: for (5, A5) the full-depth verdict is True even though the group is
# not 4-transitive; the distance-4 sphere of an edge vertex in S(K5) is the
# action on 3 points in disguise, so sharp 3-transitivity already suffices.
# The report records the resulting equivalence flags for each instance.
COMPLETE_GRAPH_CASES = (
    ("kn(n=4,S4)", 4, "symmetric", (True, True)),
    ("kn(n=5,A5)", 5, "alternating", (True, True)),
    ("kn(n=9,PGammaL28)", 9, "pgammal2-8", (True, True)),
)


def chamber_groups_on_w32():
    """The Moebius groups transported from the 45-pair chamber model onto
    the 30 vertices of the q=2 quadrangle, via an isomorphism between the
    opposition graph and the distance-8 relation on edge vertices.

    A vertex is its star: the sorted chamber indices of its edges.  Two
    stars share at most one edge, so a group permuting the stars induces
    exactly the transported edge action; ``restrict`` raises when a star's
    image is not a star."""
    g = geometry.incidence_w3(2).graph
    sub, smap = subdivision(g)
    edge_ids = list(range(g.n, g.n + smap.m))
    dist = {e: bfs_distances(sub, e) for e in edge_ids}
    d8_edges = []
    for i, a in enumerate(edge_ids):
        for b in edge_ids[i + 1 :]:
            if dist[a][b] == 8:
                d8_edges.append((a - g.n, b - g.n))
    d8 = Graph(smap.m, d8_edges)
    model = geometry.chamber_model_w32()
    phi = isomorphism(model.graph, d8)
    if phi is None:
        raise GroupError("chamber opposition graph does not match distance-8 graph")
    chamber_of = [0] * len(phi)
    for pair_idx, edge_idx in enumerate(phi):
        chamber_of[edge_idx] = pair_idx
    stars = [[] for _ in range(g.n)]
    for idx, (u, v) in enumerate(smap.edges):
        stars[u].append(chamber_of[idx])
        stars[v].append(chamber_of[idx])
    stars = [tuple(sorted(star)) for star in stars]
    return {
        name: getattr(model, name).restrict(stars)
        for name in ("psl", "pgl", "psigmal", "m10", "pgammal")
    }


def _select_group(case, g, sub, smap):
    """Group per the case rule; returns (group, info dict, g's invariants,
    LDT result).  The invariants come from the orbit representatives of the
    group the rule has at hand: Aut(g) for the index-2 pick, which needs
    D = diam S(g) before it picks, and the selected group otherwise.  The
    LDT result is the group's run on ``sub`` at depth D when the rule has
    already made it, and None otherwise."""
    rule = case.group_rule
    if rule == "index2-sdt-pick":
        full = automorphism_group(g)
        rep = analyze(g, full)
        D = rep.subdivision_diameter
        subs = full.index2_subgroups_over_derived()
        results = [check_local_sdt(sub, lift_group(H, smap), D) for H in subs]
        verdicts = [r.verdict for r in results]
        passing = [i for i, v in enumerate(verdicts) if v]
        if len(passing) != 1:
            raise GroupError(
                f"expected exactly one passing index-2 subgroup, got {passing}"
            )
        G = subs[passing[0]]
        return G, {
            "rule": rule,
            "order": G.order(),
            "full_order": full.order(),
            # index2_subgroups_over_derived has checked |G : D| = 4
            "derived_order": full.order() // 4,
            "index2_orders": [H.order() for H in subs],
            "index2_verdicts": verdicts,
        }, rep, results[passing[0]]
    if rule == "full":
        G = automorphism_group(g)
    elif rule.startswith("chamber-"):
        G = chamber_groups_on_w32()[rule.split("-", 1)[1]]
    else:
        raise ValueError(f"unknown group rule {case.group_rule!r}")
    return G, {"rule": rule, "order": G.order()}, analyze(g, G), None


def verify_case(case):
    """Structured row report; mismatches are recorded, never raised."""
    failures = []
    g = build_constructor(case.constructor, case.params)
    sub, smap = subdivision(g)
    group, group_info, rep, ldt_full = _select_group(case, g, sub, smap)
    expected = {
        "n": case.expected[0],
        "girth": case.expected[1],
        "diameter": case.expected[2],
        "subdivision_diameter": case.expected[3],
    }
    got = rep.to_dict()
    for key, want in expected.items():
        if got[key] != want:
            failures.append(f"{key}: expected {want}, got {got[key]}")

    if ldt_full is None:
        D = rep.subdivision_diameter
        ldt_full = check_local_sdt(sub, lift_group(group, smap), D)
    ldt_2d = ldt_full.at_depth(2 * rep.diameter)
    if ldt_2d.verdict != ldt_full.verdict:
        failures.append(
            "depth-2d and full-depth verdicts disagree: "
            f"{ldt_2d.verdict} vs {ldt_full.verdict}"
        )

    star = None
    if case.constructor == "kbip":
        star = condition_star(group, case.params[0])
        if star.satisfied != case.expect_pass:
            failures.append(f"wreath condition satisfied={star.satisfied}")

    if case.expect_pass:
        if not ldt_2d.verdict:
            failures.append(f"depth-2d check failed: {ldt_2d.first_failure}")
        if not ldt_full.verdict:
            failures.append(f"full-depth check failed: {ldt_full.first_failure}")
    else:
        if ldt_2d.verdict:
            failures.append("negative case unexpectedly passed at depth 2d")

    report = {
        "row": case.row,
        "constructor": case.constructor,
        "params": list(case.params),
        "expected": expected,
        "graph": got,
        "group": group_info,
        "ldt": {
            "depth_2d": ldt_2d.to_dict(),
            "full_depth": ldt_full.to_dict(),
        },
        "expect_pass": case.expect_pass,
        "passed": not failures,
        "failures": failures,
    }
    if star is not None:
        report["condition_star"] = star.to_dict()
    if case.classification_line is not None:
        line = S_TRANSITIVE_CLASSIFICATION[case.classification_line]
        report["classification_line"] = {
            "family": line[0],
            "s": line[1],
            "girth": line[2],
            "valency": str(line[3]),
        }
    return report


def _noswap_case_report():
    """The order-36 bipart-preserving subgroup S3 x S3 of the K_{3,3} group
    must fail the interchange clause."""
    gens = []
    for side in ((0, 1, 2), (3, 4, 5)):
        gens.append(Permutation.from_cycles(6, [side[:2]]))
        gens.append(Permutation.from_cycles(6, [side]))
    group = PermGroup(6, gens)
    star = condition_star(group, 3)
    failures = []
    if star.satisfied:
        failures.append("no-swap subgroup unexpectedly satisfies the condition")
    if star.clause_iii.holds:
        failures.append("interchange clause unexpectedly holds")
    return {
        "row": "neg-k33-noswap",
        "constructor": "kbip",
        "params": [3, 3],
        "group": {"rule": "noswap", "order": group.order()},
        "condition_star": star.to_dict(),
        "expect_pass": False,
        "passed": not failures,
        "failures": failures,
    }


def _complete_graph_report(row, n, kind, expected):
    if kind == "symmetric":
        G = symmetric_group(n)
    elif kind == "alternating":
        G = alternating_group(n)
    elif kind == "pgammal2-8":
        G = geometry.pgammal2(8)
    else:
        raise ValueError(f"unknown complete-graph group kind {kind!r}")
    rep = complete_graph_criteria(n, G)
    failures = []
    if rep.ldt_half != expected[0]:
        failures.append(f"depth-2 verdict {rep.ldt_half}, expected {expected[0]}")
    if rep.ldt_full != expected[1]:
        failures.append(f"full-depth verdict {rep.ldt_full}, expected {expected[1]}")
    out = rep.to_dict()
    out["row"] = row
    out["expected"] = {"depth2": expected[0], "full_depth": expected[1]}
    out["passed"] = not failures
    out["failures"] = failures
    return out


def run_case_by_id(row_id, include_hexagon=False):
    for case in CASES + NEGATIVE_CASES + ((HEXAGON_CASE,) if include_hexagon else ()):
        if case.row == row_id:
            return verify_case(case)
    raise ValueError(f"unknown case {row_id!r}")


def verify_table(include_hexagon=False, jobs=1):
    """Run every case, the shipped negatives, the complete-graph checks and
    the global diameter bounds; aggregate into one report."""
    cases = list(CASES)
    if include_hexagon:
        cases.append(HEXAGON_CASE)
    cases += NEGATIVE_CASES
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            row_ids = [c.row for c in cases]
            reports = list(
                pool.map(run_case_by_id, row_ids, repeat(include_hexagon))
            )
    else:
        reports = [verify_case(c) for c in cases]
    split = len(cases) - len(NEGATIVE_CASES)
    rows, negatives = reports[:split], reports[split:]
    negatives.append(_noswap_case_report())
    complete_graphs = [
        _complete_graph_report(row, n, kind, expected)
        for row, n, kind, expected in COMPLETE_GRAPH_CASES
    ]
    bounds = diameter_bounds_check(rows)

    ok = (
        all(r["passed"] for r in rows)
        and all(r["passed"] for r in negatives)
        and all(r["passed"] for r in complete_graphs)
        and bounds["holds"]
    )
    return {
        "rows": rows,
        "negatives": negatives,
        "complete_graphs": complete_graphs,
        "diameter_bounds": bounds,
        "verdict": ok,
    }


def report_to_json(report):
    return json.dumps(report, indent=2) + "\n"


def compare_with_golden(report, golden_text):
    """Byte comparison against a stored report; returns the list of row ids
    whose sub-reports differ (empty when identical)."""
    current = report_to_json(report)
    if current == golden_text:
        return []
    try:
        golden = json.loads(golden_text)
    except json.JSONDecodeError:
        return ["<golden file unreadable>"]
    diffs = []
    for section in ("rows", "negatives", "complete_graphs"):
        got = {r["row"]: r for r in report.get(section, [])}
        want = {r["row"]: r for r in golden.get(section, [])}
        for rid in sorted(set(got) | set(want)):
            if got.get(rid) != want.get(rid):
                diffs.append(rid)
    if report.get("diameter_bounds") != golden.get("diameter_bounds"):
        diffs.append("<diameter_bounds>")
    if not diffs:
        diffs.append("<formatting>")
    return diffs
