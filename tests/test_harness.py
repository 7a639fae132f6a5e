import json

import pytest

from locdt.autgrp import automorphism_group
from locdt.graphs import isomorphism_failure, lift_group, subdivision
from locdt.harness import (
    CASES,
    HEXAGON_CASE,
    NEGATIVE_CASES,
    CaseSpec,
    build_constructor,
    chamber_groups_on_w32,
    compare_with_golden,
    report_to_json,
    verify_case,
    verify_table,
)


def test_constructor_registry():
    assert build_constructor("petersen", ()).n == 10
    assert build_constructor("pg2", (2,)).n == 14
    with pytest.raises(ValueError):
        build_constructor("pg2", ())
    with pytest.raises(ValueError):
        build_constructor("nope", ())


def test_case_rows_are_unique():
    rows = [c.row for c in CASES + NEGATIVE_CASES + (HEXAGON_CASE,)]
    assert len(rows) == len(set(rows))


def test_every_rows_search_group_and_lift_are_automorphisms():
    """The check each recorded group skips, made directly: on every row's
    graph each search generator is an automorphism, and on the
    subdivision graph each lift of one."""
    for case in (*CASES, *NEGATIVE_CASES, HEXAGON_CASE):
        g = build_constructor(case.constructor, case.params)
        sub, smap = subdivision(g)
        G = automorphism_group(g)
        for graph, H in ((g, G), (sub, lift_group(G, smap))):
            assert H.automorphisms_of is graph, case.row
            for p in H.generators:
                assert isomorphism_failure(graph, graph, p.images) is None, case.row


def test_verify_case_row2():
    case = next(c for c in CASES if c.row == "2")
    rep = verify_case(case)
    assert rep["passed"]
    assert rep["group"]["order"] == 120
    assert rep["ldt"]["depth_2d"]["verdict"]
    assert rep["ldt"]["full_depth"]["verdict"]


def test_verify_case_row1_group_orders():
    by_row = {c.row: c for c in CASES}
    rep3 = verify_case(by_row["1(n=3)"])
    rep4 = verify_case(by_row["1(n=4)"])
    assert rep3["group"]["order"] == 72  # |S3 wr S2|
    assert rep4["group"]["order"] == 1152  # |S4 wr S2|
    assert rep3["condition_star"]["satisfied"]
    assert rep4["condition_star"]["satisfied"]


def test_verify_case_row6_discrimination(monkeypatch):
    import locdt.harness as harness

    runs = []
    real = harness.check_local_sdt

    def counted(*args):
        runs.append(args[2])
        return real(*args)

    monkeypatch.setattr(harness, "check_local_sdt", counted)
    case = next(c for c in CASES if c.row == "6")
    rep = verify_case(case)
    assert rep["passed"]
    # one depth-8 pass per index-2 subgroup; the chosen one's is reused
    assert runs == [8, 8, 8]
    info = rep["group"]
    assert info["full_order"] == 1440
    assert info["derived_order"] == 360
    assert info["index2_orders"] == [720, 720, 720]
    assert sum(info["index2_verdicts"]) == 1


def test_row6_pick_matches_chamber_m10():
    case = next(c for c in CASES if c.row == "6")
    g = build_constructor(case.constructor, case.params)
    from locdt.autgrp import automorphism_group
    from locdt.checks import check_local_sdt
    from locdt.graphs import lift_group, subdivision

    full = automorphism_group(g)
    subs = full.index2_subgroups_over_derived()
    sub, smap = subdivision(g)
    passing = [
        H
        for H in subs
        if check_local_sdt(sub, lift_group(H, smap), 8).verdict
    ]
    assert len(passing) == 1
    m10 = chamber_groups_on_w32()["m10"]
    assert m10.order() == passing[0].order() == 720
    assert all(p in passing[0] for p in m10.generators)


def test_verify_case_detects_tampered_expectation():
    tampered = CaseSpec("2", "petersen", (), (10, 5, 2, 7), "full")
    rep = verify_case(tampered)
    assert not rep["passed"]
    assert any("subdivision_diameter" in f for f in rep["failures"])


def test_negative_cases_fail_for_the_right_reason():
    w33 = verify_case(NEGATIVE_CASES[0])
    assert w33["passed"]  # the case expects failure and observes it
    assert not w33["ldt"]["depth_2d"]["verdict"]
    first = w33["ldt"]["depth_2d"]["first_failure"]
    assert first["depth"] == 1  # no duality: edge neighbourhoods split

    pgl = verify_case(NEGATIVE_CASES[1])
    assert pgl["passed"]
    first = pgl["ldt"]["depth_2d"]["first_failure"]
    assert first["depth"] == 8
    assert first["orbit_sizes"] == [8, 8]


def test_verify_table_default_passes():
    report = verify_table()
    assert report["verdict"]
    assert len(report["rows"]) == len(CASES)
    assert {r["row"] for r in report["negatives"]} == {
        "neg-w3(q=3)",
        "neg-w3(q=2)-pgl",
        "neg-k33-noswap",
    }
    assert report["diameter_bounds"]["holds"]
    kn_by_row = {r["row"]: r for r in report["complete_graphs"]}
    assert kn_by_row["kn(n=5,A5)"]["full_depth_equivalence_holds"] is False
    assert all(r["passed"] for r in report["complete_graphs"])


def test_report_serialization_is_stable():
    case = next(c for c in CASES if c.row == "4(q=2)")
    a = report_to_json(verify_case(case))
    b = report_to_json(verify_case(case))
    assert a == b


def test_compare_with_golden_names_rows():
    case = next(c for c in CASES if c.row == "2")
    rep = {"rows": [verify_case(case)], "negatives": [], "complete_graphs": [],
           "diameter_bounds": {"holds": True}, "verdict": True}
    golden = report_to_json(rep)
    assert compare_with_golden(rep, golden) == []
    tampered = json.loads(golden)
    tampered["rows"][0]["graph"]["subdivision_diameter"] = 7
    diffs = compare_with_golden(rep, json.dumps(tampered, indent=2) + "\n")
    assert diffs == ["2"]
