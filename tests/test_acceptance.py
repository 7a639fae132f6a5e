"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated runtime budget.

Criterion 6 expects (K5, A5) to pass full depth, since the 2-subsets of
the other three points are the complements of single points and
3-transitivity already makes each stabilizer transitive there; the
expected table is checked against a recount over every group element
(``_recount_kn_verdicts``) that uses no library orbit or LDT code.

Stretch criterion 9 checks the 728-vertex hexagon H(3) end to end.
"""

import itertools
import time

import pytest

from locdt.autgrp import automorphism_group
from locdt.checks import (
    check_local_sdt,
    condition_star,
    complete_graph_criteria,
)
from locdt.geometry import (
    chamber_model_w32,
    incidence_hexagon,
    incidence_w3,
)
from locdt.graphs import analyze, lift_group, subdivision
from locdt.harness import CASES, build_constructor, verify_case
from locdt.perms import PermGroup, Permutation, alternating_group, symmetric_group


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    return ok


@pytest.fixture(scope="module")
def row_reports():
    t0 = time.time()
    reports = {case.row: verify_case(case) for case in CASES}
    return reports, time.time() - t0


def test_criterion_1_table_columns():
    t0 = time.time()
    ok = True
    for case in CASES:
        rep = analyze(build_constructor(case.constructor, case.params))
        got = (rep.n, rep.girth, rep.diameter, rep.subdivision_diameter)
        if got != case.expected:
            ok = False
    elapsed = time.time() - t0
    assert _report(1, ok and elapsed < 30, f"(columns exact, {elapsed:.1f}s)")
    assert ok
    assert elapsed < 30


def test_criterion_2_theorem_equivalence_per_row(row_reports):
    reports, build_seconds = row_reports
    ok = True
    for case in CASES:
        rep = reports[case.row]
        if not (
            rep["ldt"]["depth_2d"]["verdict"] and rep["ldt"]["full_depth"]["verdict"]
        ):
            ok = False
    assert _report(
        2, ok and build_seconds < 180, f"(2d and full depth, {build_seconds:.1f}s)"
    )
    assert ok
    assert build_seconds < 180


def test_criterion_3_pair_stabilizer_facts():
    from locdt.perms import orbit_sizes_within

    t0 = time.time()
    cm = chamber_model_w32()
    opposite = cm.graph.adjacency[0]
    pgl_stab = cm.pgl.stabilizer(0)
    psl_stab = cm.psl.stabilizer(0)
    # semiregular: every orbit of the PSL pair stabilizer on the opposite
    # chambers has size 8 = its order
    semiregular = orbit_sizes_within(psl_stab, opposite) == [8, 8]
    ok = (
        pgl_stab.order() == 16
        and psl_stab.order() == 8
        and orbit_sizes_within(cm.pgl.stabilizer(0), opposite) == [8, 8]
        and orbit_sizes_within(cm.psl.stabilizer(0), opposite) == [8, 8]
        and semiregular
    )
    elapsed = time.time() - t0
    assert _report(3, ok and elapsed < 1, f"(orders 16/8, orbits [8,8], {elapsed:.2f}s)")
    assert ok
    assert elapsed < 1


def test_criterion_4_row6_discrimination():
    t0 = time.time()
    g = incidence_w3(2).graph
    full = automorphism_group(g)
    derived = full.derived_subgroup()
    subs = full.index2_subgroups_over_derived()
    sub, smap = subdivision(g)
    verdicts = [
        check_local_sdt(sub, lift_group(H, smap), 8).verdict for H in subs
    ]
    ok = (
        full.order() == 1440
        and derived.order() == 360
        and [H.order() for H in subs] == [720, 720, 720]
        and sum(verdicts) == 1
    )
    elapsed = time.time() - t0
    assert _report(4, ok and elapsed < 30, f"(exactly one passes, {elapsed:.1f}s)")
    assert ok
    assert elapsed < 30


def test_criterion_5_negative_controls():
    t0 = time.time()
    w33 = incidence_w3(3).graph
    sub, smap = subdivision(w33)
    lifted = lift_group(automorphism_group(w33), smap)
    w33_fails = not check_local_sdt(sub, lifted, 8).verdict

    gens = []
    for base in (0, 3):
        pts = list(range(base, base + 3))
        gens.append(Permutation.from_cycles(6, [tuple(pts[:2])]))
        gens.append(Permutation.from_cycles(6, [tuple(pts)]))
    noswap = PermGroup(6, gens)
    star = condition_star(noswap, 3)
    noswap_fails_iii = noswap.order() == 36 and not star.clause_iii.holds

    ok = w33_fails and noswap_fails_iii
    elapsed = time.time() - t0
    assert _report(5, ok and elapsed < 30, f"(required failures observed, {elapsed:.1f}s)")
    assert ok
    assert elapsed < 30


def _recount_kn_verdicts(n, generators):
    """(depth 2, full depth) verdicts for S(K_n) under the group generated
    by ``generators`` (image tuples on 0..n-1), recounted from every group
    element and the spheres of S(K_n) written out by hand:

      point a:   edges at a | other points | edges missing a
      edge {a,b}: a and b | edges meeting {a,b} in one point |
                  other points | edges disjoint from {a,b}
    """
    elements = {tuple(range(n))}
    frontier = list(elements)
    while frontier:
        g = frontier.pop()
        for h in generators:
            gh = tuple(h[x] for x in g)
            if gh not in elements:
                elements.add(gh)
                frontier.append(gh)

    def image(g, x):
        return g[x] if isinstance(x, int) else frozenset(g[y] for y in x)

    points = range(n)
    edges = [frozenset(e) for e in itertools.combinations(points, 2)]
    spheres = []
    for a in points:
        spheres.append((a, [
            [e for e in edges if a in e],
            [b for b in points if b != a],
            [e for e in edges if a not in e],
        ]))
    for ab in edges:
        spheres.append((ab, [
            sorted(ab),
            [e for e in edges if len(e & ab) == 1],
            [c for c in points if c not in ab],
            [e for e in edges if not e & ab],
        ]))
    transitive = []
    for x, layers in spheres:
        stab = [g for g in elements if image(g, x) == x]
        transitive.append(
            [{image(g, sphere[0]) for g in stab} == set(sphere) for sphere in layers]
        )
    return (
        all(all(t[:2]) for t in transitive),
        all(all(t) for t in transitive),
    )


def test_criterion_6_complete_graph_criteria():
    from locdt.geometry import pgammal2

    t0 = time.time()
    psl28 = pgammal2(8).derived_subgroup()
    # name -> (n, G, expected (depth 2, full depth)).  Full depth holds
    # exactly when G is 3-transitive and G_{a,b} is transitive on the
    # 2-subsets of the other n-2 points (see README).
    instances = {
        "n=4,S4": (4, symmetric_group(4), (True, True)),
        "n=4,A4": (4, alternating_group(4), (False, False)),
        "n=5,A5": (5, alternating_group(5), (True, True)),
        "n=5,S5": (5, symmetric_group(5), (True, True)),
        "n=6,A6": (6, alternating_group(6), (True, True)),
        "n=6,PGL(2,5)": (6, pgammal2(5), (True, False)),
        "n=9,PSL(2,8)": (9, psl28, (True, False)),
        "n=9,order 1512": (9, pgammal2(8), (True, True)),
    }
    mismatches = []
    full_disagrees = []
    for name, (n, G, want) in instances.items():
        rep = complete_graph_criteria(n, G)
        recount = _recount_kn_verdicts(n, [p.images for p in G.generators])
        computed = (rep.ldt_half, rep.ldt_full)
        for label, got, counted, expected in zip(
            ("depth 2", "full depth"), computed, recount, want
        ):
            if not got == counted == expected:
                mismatches.append(
                    f"({name}) {label}: computed {got}, "
                    f"recounted {counted}, expected {expected}"
                )
        if not rep.half_agrees:
            mismatches.append(f"({name}) depth 2 <=> 3-transitive fails")
        if not rep.full_agrees:
            full_disagrees.append(name)
    # (B) in complete_graph_criteria's docstring names 4-transitivity or
    # the order-1512 group; (n=5,A5) is its one counterexample here.
    if full_disagrees != ["n=5,A5"]:
        mismatches.append(f"full_agrees False for {full_disagrees}, expected [n=5,A5]")
    elapsed = time.time() - t0
    _report(6, not mismatches and elapsed < 30, f"({elapsed:.1f}s)")
    assert elapsed < 30
    assert not mismatches, (
        "expected verdict table violated: " + "; ".join(mismatches)
    )


def test_criterion_7_property_suites():
    import test_properties as props

    t0 = time.time()
    props.test_delta_in_range_random_graphs()
    props.test_bipartite_doubles_diameter_exactly()
    props.test_girth_doubles_under_subdivision()
    props.test_distance2_components_reproduce_base_and_line_graph()
    props.test_moore_bound_matches_independent_evaluation()
    elapsed = time.time() - t0
    ok = elapsed < 60
    assert _report(7, ok, f"(200-sample suites, {elapsed:.1f}s)")
    assert elapsed < 60


def test_criterion_8_diameter_bounds(row_reports):
    reports, _ = row_reports
    checked = 0
    ok = True
    for rep in reports.values():
        if rep["graph"]["valency_max"] < 3 or not rep["passed"]:
            continue
        checked += 1
        if rep["graph"]["diameter"] > 6 or rep["graph"]["subdivision_diameter"] > 12:
            ok = False
    assert _report(8, ok and checked > 0, f"({checked} rows, d<=6 and D<=12)")
    assert ok and checked > 0


def test_criterion_9_hexagon_stretch():
    t0 = time.time()
    gg = incidence_hexagon(3)
    rep = analyze(gg.graph)
    columns = (rep.n, rep.girth, rep.diameter, rep.subdivision_diameter) == (
        728, 12, 6, 12)
    A = automorphism_group(gg.graph)
    order_ok = A.order() == 8491392
    sub, smap = subdivision(gg.graph)
    sdt = check_local_sdt(sub, lift_group(A, smap), 12).verdict
    elapsed = time.time() - t0
    ok = columns and order_ok and sdt and elapsed < 3600
    assert _report(9, ok, f"(order {A.order()}, s=12 verdict {sdt}, {elapsed:.0f}s)")
    assert ok
