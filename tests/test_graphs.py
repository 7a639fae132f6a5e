import pytest

from locdt import graphs
from locdt.autgrp import automorphism_group
from locdt.checks import check_local_sdt
from locdt.graphs import (
    INF,
    Graph,
    GraphError,
    analyze,
    bfs_distances,
    diameter,
    distance2_components,
    girth,
    isomorphism_failure,
    lift_group,
    lift_to_subdivision,
    line_graph,
    moore_bound,
    read_edge_list,
    sphere,
    subdivision,
    write_edge_list,
)
from locdt.geometry import (
    complete,
    complete_bipartite,
    cycle,
    hoffman_singleton,
    incidence_hexagon,
    incidence_pg2,
    incidence_w3,
    petersen,
    petersen_s5,
)
from locdt.harness import CONSTRUCTORS, build_constructor
from locdt.perms import GroupError, Permutation, PermGroup


def test_graph_validation():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph(2, [(0, 2)])


def test_adjacency_sorted_and_symmetric():
    g = Graph(4, [(2, 1), (0, 3), (1, 0)])
    assert g.adjacency == ((1, 3), (0, 2), (1,), (0,))
    assert g.edges == ((0, 1), (0, 3), (1, 2))


def test_bfs_cycle6():
    g = cycle(6)
    assert bfs_distances(g, 0) == (0, 1, 2, 3, 2, 1)


def test_bfs_petersen_eccentricity():
    g = petersen()
    for v in range(10):
        assert max(bfs_distances(g, v)) == 2


def test_bfs_k4_minus_edge():
    # remove edge (2,3); vertex 2 has degree 2 and eccentricity 2
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert max(bfs_distances(g, 2)) == 2


def test_bfs_unreachable_sentinel():
    g = Graph(3, [(0, 1)])
    assert bfs_distances(g, 0)[2] == INF


def test_diameter_values():
    assert diameter(incidence_pg2(2).graph) == 3
    assert diameter(incidence_w3(2).graph) == 4
    assert diameter(complete_bipartite(4, 4)) == 2


def test_diameter_rejects_disconnected():
    with pytest.raises(GraphError):
        diameter(Graph(4, [(0, 1), (2, 3)]))


def test_girth_values():
    assert girth(petersen()) == 5
    assert girth(incidence_w3(2).graph) == 8
    assert girth(Graph(4, [(0, 1), (1, 2), (2, 3)])) == INF
    assert girth(complete(4)) == 3


def test_subdivision_cycle_doubles():
    s, smap = subdivision(cycle(5))
    assert s.n == 10 and s.m == 10
    assert girth(s) == 10
    assert s.is_bipartite()


def test_subdivision_petersen():
    s, _ = subdivision(petersen())
    assert s.n == 25 and s.m == 30
    assert diameter(s) == 6
    assert girth(s) == 10


def test_subdivision_k33():
    s, _ = subdivision(complete_bipartite(3, 3))
    assert s.n == 15
    assert diameter(s) == 4


def test_subdivision_layout():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    s, smap = subdivision(g)
    assert smap.edge_vertex(1, 0) == 3
    assert smap.edge_vertex(0, 2) == 4
    assert smap.edge_vertex(2, 1) == 5
    assert all(len(s.adjacency[e]) == 2 for e in range(3, 6))


def test_line_graph_cycle():
    lg = line_graph(cycle(5))
    assert lg.n == 5
    assert girth(lg) == 5
    assert lg.is_regular() and lg.degrees[0] == 2


def test_line_graph_k4():
    lg = line_graph(complete(4))
    assert lg.n == 6
    assert lg.is_regular() and lg.degrees[0] == 4


def test_line_graph_petersen():
    lg = line_graph(petersen())
    assert lg.n == 15
    assert lg.is_regular() and lg.degrees[0] == 4


def test_distance2_components_cycle():
    s, _ = subdivision(cycle(5))
    a, b = distance2_components(s)
    assert a.n == 5 and b.n == 5
    assert girth(a) == 5 and girth(b) == 5


def test_distance2_components_match_provenance():
    g = petersen()
    s, _ = subdivision(g)
    a, b = distance2_components(s)
    # positional relabeling must reproduce the base graph and its line graph
    assert a.adjacency == g.adjacency
    assert b.adjacency == line_graph(g).adjacency


def test_distance2_components_k33_sizes():
    s, _ = subdivision(complete_bipartite(3, 3))
    a, b = distance2_components(s)
    assert (a.n, b.n) == (6, 9)


def test_distance2_rejects_nonbipartite():
    with pytest.raises(GraphError):
        distance2_components(petersen())


def test_sphere_basics():
    g = petersen()
    assert sphere(g, 3, 0) == (3,)
    s, smap = subdivision(g)
    e = smap.edge_vertex(*smap.edges[0])
    assert len(sphere(s, e, 1)) == 2
    assert len(sphere(s, e, 3)) == 4
    assert len(sphere(s, e, 5)) == 4


def test_sphere_heawood_point():
    g = incidence_pg2(2).graph
    assert len(sphere(g, 0, 3)) == 4


def test_lift_identity():
    g = cycle(5)
    _, smap = subdivision(g)
    lifted = lift_to_subdivision(Permutation.identity(5), smap)
    assert lifted.is_identity()
    assert lifted.degree == 10


def test_lift_cycle_rotation():
    g = cycle(5)
    _, smap = subdivision(g)
    rot = Permutation([1, 2, 3, 4, 0])
    lifted = lift_to_subdivision(rot, smap)
    assert lifted.images == (1, 2, 3, 4, 0, 7, 5, 8, 9, 6)


def test_lift_petersen_generators_are_automorphisms():
    g, s5 = petersen_s5()
    s, smap = subdivision(g)
    for p in s5.generators:
        lifted = lift_to_subdivision(p, smap)
        for u in range(s.n):
            img = tuple(sorted(lifted.images[w] for w in s.adjacency[u]))
            assert img == s.adjacency[lifted.images[u]]


def test_lift_rejects_non_automorphism():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])  # path, no 4-cycle symmetry
    _, smap = subdivision(g)
    with pytest.raises(GroupError):
        lift_to_subdivision(Permutation([1, 0, 2, 3]), smap)


def test_moore_bound_known_values():
    assert moore_bound(3, 5) == 10
    assert moore_bound(7, 5) == 50
    assert moore_bound(3, 6) == 14
    assert moore_bound(3, 8) == 30
    assert moore_bound(4, 12) == 728
    assert moore_bound(3, 12) == 126
    assert moore_bound(5, 8) == 170


def _moore_closed_form(k, g):
    # independent evaluation via the geometric series
    if k == 2:
        return g
    if g % 2 == 1:
        r = (g - 1) // 2
        return 1 + k * ((k - 1) ** r - 1) // (k - 2)
    r = g // 2
    return 2 * ((k - 1) ** r - 1) // (k - 2)


def test_moore_bound_second_evaluation():
    for k in range(3, 8):
        for g in range(4, 9):
            assert moore_bound(k, g) == _moore_closed_form(k, g)


def test_analyze_hoffman_singleton():
    rep = analyze(hoffman_singleton())
    assert (rep.n, rep.girth, rep.diameter, rep.subdivision_diameter) == (50, 5, 2, 6)
    assert rep.delta == 2 and rep.is_cage


def test_analyze_heawood():
    rep = analyze(incidence_pg2(2).graph)
    assert (rep.n, rep.girth, rep.diameter, rep.subdivision_diameter) == (14, 6, 3, 6)
    assert rep.delta == 0 and rep.bipartite and rep.is_cage


def test_analyze_cycles():
    for n in (5, 6, 9):
        rep = analyze(cycle(n))
        assert (rep.girth, rep.diameter, rep.subdivision_diameter) == (n, n // 2, n)
        assert rep.is_cage  # every cycle attains the valency-2 bound


def _check_subdivision_diameter(g):
    """analyze's subdivision diameter against a BFS over S(g), and the
    orbit-representative path against the all-sources path under Aut(g),
    the subgroup its first generator generates and the trivial group;
    returns delta, which says which of 2d, 2d+1 and 2d+2 it is."""
    rep = analyze(g)
    assert rep.subdivision_diameter == diameter(subdivision(g)[0])
    full = automorphism_group(g)
    for G in (full, PermGroup(g.n, full.generators[:1]), PermGroup(g.n, [])):
        assert analyze(g, G) == rep
    return rep.delta


# parameters for each registered constructor; the hexagon at q=2
FAMILY_PARAMS = {"kn": (5,), "kbip": (3, 4), "cycle": (7,), "petersen": (),
                 "hosi": (), "pg2": (3,), "w3": (3,), "hexagon": (2,),
                 "chamber45": ()}


def test_subdivision_diameter_matches_bfs_on_families():
    assert set(FAMILY_PARAMS) == set(CONSTRUCTORS)
    graphs = [build_constructor(name, params) for name, params in FAMILY_PARAMS.items()]
    graphs += [complete(n) for n in range(1, 8)]
    graphs += [complete_bipartite(a, b) for a in range(1, 5) for b in range(a, 5)]
    graphs += [cycle(n) for n in range(3, 13)]
    deltas = {_check_subdivision_diameter(g) for g in graphs}
    assert deltas == {0, 1, 2}


def test_subdivision_diameter_matches_bfs_on_random_graphs():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def connected_graphs(draw):
        n = draw(st.integers(1, 14))
        edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for u, v in draw(st.lists(pair, max_size=2 * n)):
            if u != v:
                edges.add((min(u, v), max(u, v)))
        return Graph(n, sorted(edges))

    @settings(max_examples=300, deadline=None)
    @given(connected_graphs())
    def check(g):
        _check_subdivision_diameter(g)

    check()


@pytest.mark.parametrize("g", [Graph(0, []), Graph(4, [(0, 1), (2, 3)])])
def test_analyze_rejects_empty_and_disconnected_graphs_on_both_paths(g):
    for group in (None, automorphism_group(g), PermGroup(g.n, [])):
        with pytest.raises(GraphError):
            analyze(g, group)


def test_analyze_rejects_a_group_that_is_not_of_automorphisms():
    g = petersen()
    swap = Permutation.from_cycles(10, [(0, 1)])  # an edge, not an automorphism
    with pytest.raises(GroupError, match="not an automorphism"):
        analyze(g, PermGroup(10, [swap]))
    with pytest.raises(GroupError, match="does not match"):
        analyze(g, PermGroup(11, []))


def test_automorphism_record_stays_with_its_graph():
    """A search group and its lift skip the check on the graph they record
    and on no other: on a relabelled copy, where some generator is not an
    automorphism, analyze and check_local_sdt still raise."""
    g = incidence_w3(2).graph
    sub, smap = subdivision(g)
    for G, graph in ((automorphism_group(g), g),
                     (lift_group(automorphism_group(g), smap), sub)):
        h = graph.relabeled(list(reversed(range(graph.n))))
        assert G.automorphisms_of is graph
        assert any(isomorphism_failure(h, h, p.images) is not None
                   for p in G.generators)
        with pytest.raises(GroupError, match="not an automorphism"):
            analyze(h, G)
        with pytest.raises(GroupError, match="not an automorphism"):
            check_local_sdt(h, G, 8)


def test_groups_that_record_no_graph_take_the_full_check(monkeypatch):
    """Only the search and the lift record a graph.  A group built by hand
    from the search's generators, and the groups that restrict, stabilizer
    and index2_subgroups_over_derived return, are checked generator by
    generator in analyze and in check_local_sdt."""
    g = incidence_w3(2).graph  # Aut(W(3,2)) / D is of order 4, as in row 6
    G = automorphism_group(g)
    calls = []

    def counted(*args):
        calls.append(args)
        return isomorphism_failure(*args)

    monkeypatch.setattr(graphs, "isomorphism_failure", counted)
    analyze(g, G)
    check_local_sdt(g, G, 1)
    assert calls == []
    for H in (PermGroup(g.n, G.generators), G.restrict(range(g.n)),
              G.stabilizer(0), *G.index2_subgroups_over_derived()):
        assert H.automorphisms_of is None and H.generators
        analyze(g, H)
        check_local_sdt(g, H, 1)
        assert len(calls) == 2 * len(H.generators)
        calls.clear()


def test_analyze_runs_bfs_from_representatives_and_their_neighbours(monkeypatch):
    """Rows come from the representatives and their neighbours above them.
    Under its full automorphism group, H(3) is vertex-transitive: vertex 0
    and its 4 neighbours, 5 BFS rows where the all-sources path runs 728.
    W(3,3) has two orbits, points and lines: point 0, its 4 lines, one of
    them the least line and so the other representative, whose neighbours
    are all lower points: 5 rows, not 80 (nor the 8 of all neighbours)."""
    cases = [(gg.graph, rows) for gg, rows in
             ((incidence_hexagon(3), 5), (incidence_w3(3), 5))]
    groups = [automorphism_group(g) for g, _ in cases]
    sources = []
    real = graphs._bfs_closing

    def counted(g, src):
        sources.append(src)
        return real(g, src)

    monkeypatch.setattr(graphs, "_bfs_closing", counted)
    for (g, rows), G in zip(cases, groups):
        sources.clear()
        assert analyze(g, G).is_cage
        assert len(sources) == rows


def test_girth_and_bipartiteness_match_networkx():
    nx = pytest.importorskip("networkx")
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def graphs(draw):
        """Forests, disconnected graphs, and (with a spanning tree drawn
        first) connected ones."""
        n = draw(st.integers(1, 14))
        edges = set()
        if draw(st.booleans()):
            edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for u, v in draw(st.lists(pair, max_size=2 * n)):
            if u != v:
                edges.add((min(u, v), max(u, v)))
        return Graph(n, sorted(edges))

    @settings(max_examples=300, deadline=None)
    @given(graphs())
    def check(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        expected = nx.girth(h)
        expected = INF if expected == float("inf") else expected
        assert girth(g) == expected
        if nx.is_connected(h):
            rep = analyze(g)
            assert rep.girth == expected
            assert rep.bipartite == nx.is_bipartite(h)

    check()


def test_edge_list_roundtrip(tmp_path):
    g = petersen()
    path = tmp_path / "petersen.txt"
    write_edge_list(g, path)
    back = read_edge_list(path)
    assert back.n == g.n and back.edges == g.edges
    first = path.read_bytes()
    write_edge_list(back, path)
    assert path.read_bytes() == first


def test_edge_list_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 1\n1 0\n")
    with pytest.raises(GraphError):
        read_edge_list(path)
