import random
from itertools import permutations

import pytest

from locdt.autgrp import (
    Coloring,
    LimitError,
    automorphism_group,
    isomorphism,
    refine,
    unit_coloring,
)
from locdt.graphs import Graph, lift_group, subdivision
from locdt.geometry import (
    complete_bipartite,
    cycle,
    hoffman_singleton,
    incidence_hexagon,
    incidence_pg2,
    incidence_w3,
    petersen,
)
from locdt.harness import chamber_groups_on_w32
from locdt.perms import GroupError, PermGroup, build_chain, symmetric_group


def test_refine_regular_graph_stays_unit():
    g = petersen()
    c = refine(g, unit_coloring(g))
    assert c.cells == (tuple(range(10)),)


def test_refine_is_idempotent():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
    c1 = refine(g, unit_coloring(g))
    assert refine(g, c1) == c1


def test_refine_subdivided_petersen_degree_split():
    s, _ = subdivision(petersen())
    c = refine(s, unit_coloring(s))
    assert sorted(len(cell) for cell in c.cells) == [10, 15]


def test_refine_path_ends_vs_middle():
    g = Graph(3, [(0, 1), (1, 2)])
    c = refine(g, unit_coloring(g))
    assert c.cells == ((0, 2), (1,))


def test_refine_respects_initial_colors():
    g = cycle(6)
    c = refine(g, Coloring(((0,), (1, 2, 3, 4, 5))))
    # individualizing one cycle vertex forces the distance partition;
    # fragments with smaller splitter counts come first
    assert c.cells == ((0,), (3,), (2, 4), (1, 5))


def _brute_force_order(g):
    n = g.n
    adj = g.adjacency
    count = 0
    for p in permutations(range(n)):
        if all(
            tuple(sorted(p[w] for w in adj[u])) == adj[p[u]] for u in range(n)
        ):
            count += 1
    return count


def test_automorphism_order_matches_bruteforce_small():
    cases = [
        Graph(1, []),
        Graph(2, [(0, 1)]),
        Graph(4, [(0, 1), (1, 2), (2, 3)]),
        Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
        Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
        Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]),
        Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6)]),
        Graph(8, [(i, (i + 1) % 8) for i in range(8)]),
    ]
    for g in cases:
        assert automorphism_group(g).order() == _brute_force_order(g)


def test_automorphism_orders_known():
    assert automorphism_group(petersen()).order() == 120
    assert automorphism_group(incidence_pg2(2).graph).order() == 336
    assert automorphism_group(incidence_w3(2).graph).order() == 1440
    assert automorphism_group(complete_bipartite(3, 3)).order() == 72
    assert automorphism_group(cycle(9)).order() == 18


def test_automorphism_group_hoffman_singleton():
    assert automorphism_group(hoffman_singleton()).order() == 252000


def test_generators_preserve_adjacency_and_colors():
    g = incidence_pg2(3).graph
    A = automorphism_group(g)
    for p in A.generators:
        for u in range(g.n):
            assert tuple(sorted(p.images[w] for w in g.adjacency[u])) == g.adjacency[p.images[u]]


def test_initial_coloring_is_respected():
    g = cycle(6)
    # pinning one vertex cuts the group to the stabilizer (order 2)
    pinned = Coloring(((0,), tuple(range(1, 6))))
    assert automorphism_group(g, pinned).order() == 2


def test_subdivision_automorphisms_restrict_to_base():
    for g in (petersen(), incidence_pg2(2).graph):
        A = automorphism_group(g)
        s, smap = subdivision(g)
        As = automorphism_group(s)
        assert As.order() == A.order()
        # restriction to original vertices lands in Aut(g); lifting back
        # reproduces the subdivision automorphism
        from locdt.graphs import lift_to_subdivision
        from locdt.perms import Permutation

        for p in As.generators:
            base = Permutation(p.images[: g.n])
            assert lift_to_subdivision(base, smap).images == p.images


def test_vertex_limit():
    with pytest.raises(LimitError):
        automorphism_group(petersen(), limit=5)


def test_isomorphism_relabelled_cycle():
    g1 = cycle(6)
    relab = [3, 0, 4, 1, 5, 2]
    edges = [(min(relab[u], relab[v]), max(relab[u], relab[v])) for u, v in g1.edges]
    g2 = Graph(6, edges)
    phi = isomorphism(g1, g2)
    assert phi is not None
    for u, v in g1.edges:
        assert (min(phi[u], phi[v]), max(phi[u], phi[v])) in set(g2.edges)


def test_isomorphism_absent():
    c6 = cycle(6)
    two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert isomorphism(c6, two_triangles) is None


def test_isomorphism_disconnected_pair():
    two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    shuffled = Graph(6, [(1, 3), (3, 5), (1, 5), (0, 2), (2, 4), (0, 4)])
    phi = isomorphism(two_triangles, shuffled)
    assert phi is not None
    es = set(shuffled.edges)
    for u, v in two_triangles.edges:
        assert (min(phi[u], phi[v]), max(phi[u], phi[v])) in es


FAMILY_GRAPHS = {
    "petersen": petersen,
    "hosi": hoffman_singleton,
    "kbip(3,3)": lambda: complete_bipartite(3, 3),
    "kbip(4,4)": lambda: complete_bipartite(4, 4),
    "pg2(q=2)": lambda: incidence_pg2(2).graph,
    "pg2(q=3)": lambda: incidence_pg2(3).graph,
    "pg2(q=4)": lambda: incidence_pg2(4).graph,
    "w3(q=2)": lambda: incidence_w3(2).graph,
    "w3(q=3)": lambda: incidence_w3(3).graph,
    "cycle(9)": lambda: cycle(9),
    "hexagon(q=2)": lambda: incidence_hexagon(2).graph,
}


@pytest.mark.parametrize("name", sorted(FAMILY_GRAPHS))
def test_search_order_matches_blind_chain(name):
    """The order the search reports (the product of its level orbit sizes)
    against Schreier-Sims on the same generators with no order given, on a
    seeded relabeling so the anchor path is not the constructor's."""
    g = FAMILY_GRAPHS[name]()
    perm = list(range(g.n))
    random.Random(name).shuffle(perm)
    h = Graph(g.n, [tuple(sorted((perm[u], perm[v]))) for u, v in g.edges])
    G = automorphism_group(h)
    assert build_chain(h.n, G.raw_generators).order() == G.order()


def _lifted_groups():
    yield "2", automorphism_group(petersen()), petersen()
    w32 = incidence_w3(2).graph
    yield "5(q=2)", automorphism_group(w32), w32
    yield "neg-w3(q=2)-pgl", chamber_groups_on_w32()["pgl"], w32


def test_lifted_chain_equals_blind_chain():
    """A lift carries the base group's order; the chain it builds with it
    is the blind chain, field by field."""
    for row, G, g in _lifted_groups():
        _, smap = subdivision(g)
        lifted = lift_group(G, smap)
        known = lifted.chain()
        blind = build_chain(lifted.degree, lifted.raw_generators)
        assert known.order() == blind.order() == G.order(), row
        assert known.base == blind.base, row
        assert known.sgd == blind.sgd, row
        assert known.trans == blind.trans, row
        assert known.inv == blind.inv, row


def test_wrong_known_order_raises():
    s5 = PermGroup(5, symmetric_group(5).generators, order=240)
    with pytest.raises(GroupError):
        s5.order()
