import random

import pytest

from locdt.autgrp import LimitError, automorphism_group
from locdt.checks import (
    CAGE_GIRTHS,
    _bipart_kernel,
    cage_certificate,
    check_arc_transitive,
    check_local_sdt,
    condition_star,
    diameter_bounds_check,
    complete_graph_criteria,
)
from locdt.graphs import Graph, bfs_distances, diameter, lift_group, subdivision
from locdt.geometry import (
    complete_bipartite,
    cycle,
    incidence_pg2,
    incidence_w3,
    petersen,
    petersen_s5,
    pgammal2,
)
from locdt.harness import (
    CASES,
    NEGATIVE_CASES,
    _select_group,
    build_constructor,
    chamber_groups_on_w32,
)
from locdt.perms import (
    GroupError,
    PermGroup,
    Permutation,
    alternating_group,
    dihedral_group,
    on_tuples,
    orbit_partition,
    symmetric_group,
)


def test_ldt_petersen_full_depth():
    g, s5 = petersen_s5()
    sub, smap = subdivision(g)
    lifted = lift_group(s5, smap)
    res = check_local_sdt(sub, lifted, 6)
    assert res.verdict
    assert res.first_failure is None
    assert len(res.reps) == 2  # vertex side and edge side
    for rep in res.reps:
        assert all(len(s.orbit_sizes) == 1 for s in rep.spheres)


def test_ldt_pgl_fails_at_depth8():
    g = incidence_w3(2).graph
    pgl = chamber_groups_on_w32()["pgl"]
    assert pgl.order() == 720
    sub, smap = subdivision(g)
    lifted = lift_group(pgl, smap)
    res = check_local_sdt(sub, lifted, 8)
    assert not res.verdict
    vertex, depth, sizes = res.first_failure
    assert depth == 8
    assert list(sizes) == [8, 8]
    assert vertex >= 30  # failure happens at an edge vertex


def test_ldt_m10_passes_depth8():
    g = incidence_w3(2).graph
    m10 = chamber_groups_on_w32()["m10"]
    sub, smap = subdivision(g)
    res = check_local_sdt(sub, lift_group(m10, smap), 8)
    assert res.verdict


def test_ldt_arc_transitive_graph_depth1():
    g = cycle(8)
    res = check_local_sdt(g, dihedral_group(8), 1)
    assert res.verdict


def test_ldt_rejects_non_automorphism():
    g = petersen()
    bad = PermGroup(10, [Permutation.from_cycles(10, [(0, 1)])])
    with pytest.raises(GroupError):
        check_local_sdt(g, bad, 1)


def test_ldt_depth_clamped_to_eccentricity():
    g, s5 = petersen_s5()
    sub, smap = subdivision(g)
    lifted = lift_group(s5, smap)
    res = check_local_sdt(sub, lifted, 6)
    vertex_rep = next(r for r in res.reps if r.vertex < 10)
    assert vertex_rep.eccentricity == 5
    assert len(vertex_rep.spheres) == 5  # depth 6 sphere is empty, skipped


def test_orbit_representative_soundness():
    # orbit sizes on spheres agree between two vertices of one orbit
    g, s5 = petersen_s5()
    sub, smap = subdivision(g)
    lifted = lift_group(s5, smap)
    from locdt.graphs import bfs_distances
    from locdt.perms import orbit_sizes_within

    for x, x2 in ((0, 7), (10, 17)):
        assert x2 in lifted.orbit(x)
        for probe in (x, x2):
            dist = bfs_distances(sub, probe)
            stab = lifted.stabilizer(probe)
            sizes = [
                orbit_sizes_within(
                    stab, [v for v in range(sub.n) if dist[v] == i]
                )
                for i in range(1, 5)
            ]
            if probe == x:
                base_sizes = sizes
            else:
                assert sizes == base_sizes


def test_ldt_builds_one_chain_per_orbit_representative(monkeypatch):
    """A lifted group knows its order, so the LDT pass builds one
    stabilizer chain per orbit representative and none for the group."""
    from locdt import perms

    g, s5 = petersen_s5()
    sub, smap = subdivision(g)
    lifted = lift_group(s5, smap)
    calls = []
    real = perms.build_chain

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(perms, "build_chain", counted)
    res = check_local_sdt(sub, lifted, 10)
    assert [r.vertex for r in res.reps] == [0, 10]
    assert len(calls) == 2
    assert lifted._chain is None


def enumerate_arcs(g, s, cap=10**7):
    """All s-arcs (non-backtracking walks) in lexicographic order."""
    if s < 1:
        raise ValueError(f"arc length must be at least 1, got {s}")
    adj = g.adjacency
    arcs = []
    stack = [(v,) for v in reversed(range(g.n))]
    while stack:
        walk = stack.pop()
        if len(walk) == s + 1:
            arcs.append(walk)
            if len(arcs) > cap:
                raise LimitError(f"more than {cap} arcs of length {s}")
            continue
        prev = walk[-2] if len(walk) >= 2 else -1
        for w in reversed(adj[walk[-1]]):
            if w != prev:
                stack.append(walk + (w,))
    return arcs


def _arc_oracle(g, G, s):
    """(arc_count, orbit_count, all_geodesic) from every arc, listed."""
    arcs = enumerate_arcs(g, s)
    orbits = orbit_partition(G.raw_generators, arcs, on_tuples)
    dist = [bfs_distances(g, v) for v in range(g.n)]
    return len(arcs), len(orbits), all(dist[a[0]][a[-1]] == s for a in arcs)


def _random_arc_graphs(seed):
    """A random graph on five vertices with pendant vertices, two disjoint
    copies of it, and the two copies joined at one vertex pair; the copy
    swap is an automorphism of the last two."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5) if rng.random() < 0.55]
    edges += [(rng.randrange(5), 5), (rng.randrange(6), 6)]
    twin = edges + [(u + 7, v + 7) for u, v in edges]
    joint = rng.randrange(7)
    return [Graph(7, edges), Graph(14, twin), Graph(14, twin + [(joint, joint + 7)])]


@pytest.mark.parametrize("seed", range(6))
def test_arc_orbits_match_listed_arcs(seed):
    """Counts, orbits and the geodesic flag agree with a listing of every
    arc, under Aut, its first generator and the trivial group."""
    for g in _random_arc_graphs(seed):
        A = automorphism_group(g)
        for G in (A, PermGroup(g.n, A.generators[:1]), PermGroup.trivial(g.n)):
            for s in range(1, 7):
                res = check_arc_transitive(g, G, s)
                want = _arc_oracle(g, G, s)
                assert (res.arc_count, res.orbit_count, res.all_geodesic) == want


def test_arc_orbit_closed_forms():
    """Aut is regular on the s-arcs of these graphs for s past its
    transitivity bound t (3, 4, 5), and each arc has two extensions, so
    the orbit count doubles with each step past t."""
    g, s5 = petersen_s5()
    heawood = incidence_pg2(2).graph
    tutte = incidence_w3(2).graph
    for g, G, t in ((g, s5, 3), (heawood, automorphism_group(heawood), 4),
                    (tutte, automorphism_group(tutte), 5)):
        for s in range(t, t + 5):
            assert check_arc_transitive(g, G, s).orbit_count == 2 ** (s - t)
    for s in range(1, 13):
        res = check_arc_transitive(cycle(8), dihedral_group(8), s)
        assert (res.arc_count, res.orbit_count) == (16, 1)


def test_arc_descent_is_not_recursive():
    res = check_arc_transitive(cycle(8), dihedral_group(8), 3000)
    assert (res.arc_count, res.orbit_count, res.all_geodesic) == (16, 1, False)


def test_arc_descent_builds_no_chain_for_fixed_points(monkeypatch):
    """A point fixed by the arc stabilizer passes it down unchanged, so the
    trivial group builds no chain at all."""
    from locdt import perms

    calls = []
    real = perms.build_chain

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(perms, "build_chain", counted)
    res = check_arc_transitive(petersen(), PermGroup.trivial(10), 4)
    assert (res.arc_count, res.orbit_count) == (240, 240)
    assert calls == []


def test_arc_depth_checked_after_generators():
    bad = PermGroup(10, [Permutation.from_cycles(10, [(0, 1)])])
    with pytest.raises(GroupError):
        check_arc_transitive(petersen(), bad, 0)
    with pytest.raises(ValueError, match="at least 1"):
        check_arc_transitive(petersen(), petersen_s5()[1], 0)


def test_arc_counts():
    g = petersen()
    arcs = enumerate_arcs(g, 3)
    assert len(arcs) == 10 * 3 * 2 * 2
    c8 = cycle(8)
    assert len(enumerate_arcs(c8, 5)) == 16


def test_arc_transitivity_cases():
    g, s5 = petersen_s5()
    res = check_arc_transitive(g, s5, 3)
    assert res.transitive and res.arc_count == 120

    heawood = incidence_pg2(2).graph
    res = check_arc_transitive(heawood, automorphism_group(heawood), 4)
    assert res.transitive and res.arc_count == 336

    res = check_arc_transitive(cycle(8), dihedral_group(8), 6)
    assert res.transitive


def test_arc_transitivity_monotone():
    heawood = incidence_pg2(2).graph
    A = automorphism_group(heawood)
    verdicts = [check_arc_transitive(heawood, A, s).transitive for s in (1, 2, 3, 4, 5)]
    assert verdicts == [True, True, True, True, False]
    # once transitivity is lost it stays lost going up
    for a, b in zip(verdicts, verdicts[1:]):
        assert a or not b


def test_arc_cap():
    with pytest.raises(LimitError):
        check_arc_transitive(petersen(), petersen_s5()[1], 3, cap=10)


def test_m10_regular_on_4_arcs():
    tc = incidence_w3(2).graph
    m10 = chamber_groups_on_w32()["m10"]
    res = check_arc_transitive(tc, m10, 4)
    # 720 arcs, group order 720: the action is regular
    assert res.arc_count == 720 and res.transitive and res.all_geodesic


def test_arc_geodesic_flag():
    g, s5 = petersen_s5()
    assert check_arc_transitive(g, s5, 2).all_geodesic
    assert not check_arc_transitive(g, s5, 3).all_geodesic  # girth 5 closes 3-arcs


def test_condition_star_full_wreath():
    K = automorphism_group(complete_bipartite(3, 3))
    assert K.order() == 72
    rep = condition_star(K, 3)
    assert rep.satisfied


def test_condition_star_noswap_fails_interchange():
    gens = []
    for base in (0, 3):
        pts = list(range(base, base + 3))
        gens.append(Permutation.from_cycles(6, [tuple(pts[:2])]))
        gens.append(Permutation.from_cycles(6, [tuple(pts)]))
    noswap = PermGroup(6, gens)
    assert noswap.order() == 36
    rep = condition_star(noswap, 3)
    assert rep.clause_i.holds
    assert rep.clause_ii.holds
    assert not rep.clause_iii.holds
    assert not rep.satisfied


def test_condition_star_a3_wreath_fails_two_transitivity():
    wa3 = PermGroup(
        6,
        [
            Permutation.from_cycles(6, [(0, 1, 2)]),
            Permutation.from_cycles(6, [(3, 4, 5)]),
            Permutation.from_cycles(6, [(0, 3), (1, 4), (2, 5)]),
        ],
    )
    assert wa3.order() == 18
    rep = condition_star(wa3, 3)
    assert not rep.clause_i.holds
    assert not rep.satisfied


def test_condition_star_second_representative_agrees():
    K = automorphism_group(complete_bipartite(3, 3))
    assert condition_star(K, 3, representative=0).satisfied
    assert condition_star(K, 3, representative=1).satisfied


def test_condition_star_rejects_bipart_breakers():
    # transposing one vertex across the sides mixes the bipartition
    mix = PermGroup(4, [Permutation.from_cycles(4, [(1, 2)])])
    with pytest.raises(GroupError):
        condition_star(mix, 2)


def test_bipart_kernel_is_the_side_preserving_subgroup():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    def wreath_element(n):
        # sigma on side 1, pi on side 2, then optionally swap the sides
        side = st.permutations(range(n))
        return st.tuples(side, side, st.booleans()).map(
            lambda t: [n * t[2] + i for i in t[0]]
            + [n * (not t[2]) + i for i in t[1]]
        )

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 4).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(wreath_element(n), max_size=3))))
    def check(case):
        n, gens = case
        G = PermGroup(2 * n, gens)
        preserving = sum(1 for p in G.elements() if p.images[0] < n)
        assert _bipart_kernel(G, n).order() == preserving

    check()


def test_cage_certificates():
    rep = cage_certificate(incidence_w3(2).graph)
    assert rep.is_cage and (rep.valency, rep.girth, rep.moore) == (3, 8, 30)
    rep = cage_certificate(complete_bipartite(3, 3))
    assert rep.is_cage and (rep.valency, rep.girth, rep.moore) == (3, 4, 6)
    # Petersen minus an edge is not regular, hence not a cage
    p = petersen()
    edges = list(p.edges)[:-1]
    rep = cage_certificate(Graph(10, edges))
    assert not rep.regular and not rep.is_cage
    assert CAGE_GIRTHS == (3, 4, 5, 6, 8, 12)


def test_complete_graph_s4_and_pgammal28():
    rep = complete_graph_criteria(4, symmetric_group(4))
    assert rep.ldt_half and rep.ldt_full
    assert rep.half_agrees and rep.full_agrees

    rep = complete_graph_criteria(9, pgammal2(8))
    assert rep.group_order == 1512
    assert rep.ldt_half and rep.ldt_full
    assert rep.exceptional_pair
    assert rep.half_agrees and rep.full_agrees


def test_complete_graph_a5_instance_values():
    # computed instance verdicts: A5 passes depth 2 and, although it is not
    # 4-transitive, also full depth: the distance-4 sphere of an edge
    # vertex in S(K5) is the natural 3-point action in disguise, so the
    # naive full-depth equivalence flag comes out False
    rep = complete_graph_criteria(5, alternating_group(5))
    assert rep.ldt_half
    assert rep.three_transitive and not rep.four_transitive
    assert rep.ldt_full
    assert rep.half_agrees
    assert not rep.full_agrees


def test_complete_graph_a4_fails_depth2():
    rep = complete_graph_criteria(4, alternating_group(4))
    assert not rep.ldt_half
    assert not rep.three_transitive
    assert rep.half_agrees


def test_diameter_bounds():
    rows = [
        {"row": "a", "passed": True,
         "graph": {"valency_max": 3, "diameter": 4, "subdivision_diameter": 8}},
        {"row": "cycle", "passed": True,
         "graph": {"valency_max": 2, "diameter": 9, "subdivision_diameter": 18}},
    ]
    out = diameter_bounds_check(rows)
    assert out["holds"] and out["checked"] == 1
    assert diameter_bounds_check([])["holds"]
    bad = [{"row": "x", "passed": True,
            "graph": {"valency_max": 3, "diameter": 7, "subdivision_diameter": 14}}]
    assert not diameter_bounds_check(bad)["holds"]


@pytest.mark.parametrize(
    "row", ["1(n=3)", "2", "4(q=2)", "8(n=7)", "8(n=8)", "neg-w3(q=2)-pgl"]
)
def test_ldt_at_depth_matches_direct_run(row):
    # 8(n=7) is an odd cycle, where D = 2d + 1
    case = next(c for c in CASES + NEGATIVE_CASES if c.row == row)
    g = build_constructor(case.constructor, case.params)
    sub, smap = subdivision(g)
    D = diameter(sub)
    G, _, rep, _ = _select_group(case, g, sub, smap)
    assert rep.subdivision_diameter == D
    lifted = lift_group(G, smap)
    full = check_local_sdt(sub, lifted, D)
    for s in range(1, D + 1):
        cut, direct = full.at_depth(s), check_local_sdt(sub, lifted, s)
        assert cut == direct
        assert cut.to_dict() == direct.to_dict()
    assert full.at_depth(D) == full
    for bad in (0, D + 1):
        with pytest.raises(ValueError):
            full.at_depth(bad)
