import hashlib
import math
import random
import sys
import time
from collections import Counter
from itertools import permutations

import pytest

from locdt import autgrp, graphs, perms
from locdt.autgrp import (
    Coloring,
    LimitError,
    automorphism_group,
    isomorphism,
    refine,
    unit_coloring,
)
from locdt.graphs import Graph, GraphError, lift_group, subdivision
from locdt.geometry import (
    complete,
    complete_bipartite,
    cycle,
    hoffman_singleton,
    incidence_hexagon,
    incidence_pg2,
    incidence_w3,
    petersen,
)
from locdt.harness import chamber_groups_on_w32, run_case_by_id
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


def test_coloring_must_partition_the_vertices():
    g = cycle(6)
    bad = (
        ((0, 1, 2), (2, 3, 4, 5)),  # vertex 2 twice
        ((0, 1, 2), (3, 4)),  # vertex 5 missing
        ((0, 1, 2), (3, 4, 5, 6)),  # vertex 6 out of range
        ((0, 1, 2), (), (3, 4, 5)),  # an empty cell
    )
    for cells in bad:
        for entry in (automorphism_group, refine):
            with pytest.raises(GraphError):
                entry(g, Coloring(cells))
    # the empty graph's unit coloring has no cells, so none is empty
    empty = Graph(0, [])
    assert refine(empty, unit_coloring(empty)).cells == ()
    assert automorphism_group(empty).order() == 1


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


def _is_isomorphism(g1, g2, phi):
    """Edge-by-edge check that ``phi`` is a bijection g1 -> g2 carrying the
    edge set of g1 onto that of g2."""
    return sorted(phi) == list(range(g2.n)) and {
        tuple(sorted((phi[u], phi[v]))) for u, v in g1.edges
    } == set(g2.edges)


def test_isomorphism_relabelled_cycle():
    g1 = cycle(6)
    relab = [3, 0, 4, 1, 5, 2]
    edges = [(min(relab[u], relab[v]), max(relab[u], relab[v])) for u, v in g1.edges]
    g2 = Graph(6, edges)
    phi = isomorphism(g1, g2)
    assert phi is not None
    assert _is_isomorphism(g1, g2, phi)


def test_isomorphism_absent():
    c6 = cycle(6)
    two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert isomorphism(c6, two_triangles) is None


def test_isomorphism_disconnected_pair():
    two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    shuffled = Graph(6, [(1, 3), (3, 5), (1, 5), (0, 2), (2, 4), (0, 4)])
    phi = isomorphism(two_triangles, shuffled)
    assert phi is not None
    assert _is_isomorphism(two_triangles, shuffled, phi)
    assert isomorphism(Graph(0, []), Graph(0, [])) == ()
    assert isomorphism(Graph(0, []), Graph(1, [])) is None
    assert isomorphism(Graph(1, []), Graph(0, [])) is None


def _nx_isomorphic(nx, g1, g2):
    """The networkx oracle.  Two graphs are isomorphic exactly when their
    complements are, so it gets whichever pair is sparser (both have g1's
    edge count).  ``could_be_isomorphic`` compares degree, triangle and
    clique sequences first: a sound necessary condition that answers the
    near-misses on which ``vf2pp_is_isomorphic`` alone runs for minutes."""
    dense = 4 * g1.m > g1.n * (g1.n - 1)

    def as_nx(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        return nx.complement(h) if dense else h

    a, b = as_nx(g1), as_nx(g2)
    return nx.could_be_isomorphic(a, b) and nx.vf2pp_is_isomorphic(a, b)


def test_isomorphism_agrees_with_networkx():
    """Random graphs of at most 14 vertices, connected or made of repeated
    components, against a relabeled copy or a near-miss: the copy after one
    degree-preserving double-edge swap."""
    nx = pytest.importorskip("networkx")
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def graphs(draw):
        n, edges = 0, []
        while n < 14 and (n == 0 or draw(st.booleans())):
            k = draw(st.integers(1, 14 - n))
            degrees = [d for d in range(2, k) if k * d % 2 == 0]
            if degrees and draw(st.booleans()):
                # regular parts give the refinement nothing to split, so the
                # anchor paths of g1 and g2 part early
                d, seed = draw(st.sampled_from(degrees)), draw(st.integers(0, 2**32 - 1))
                part = set(nx.random_regular_graph(d, k, seed=seed).edges)
            else:
                part = set()
                if draw(st.booleans()):  # a spanning tree: the part is connected
                    part = {(draw(st.integers(0, v - 1)), v) for v in range(1, k)}
                if k > 1:
                    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
                    part |= draw(st.sets(st.sampled_from(pairs)))
            for _ in range(draw(st.integers(1, (14 - n) // k))):
                edges += [(u + n, v + n) for u, v in part]
                n += k
        return Graph(n, edges)

    @settings(max_examples=300, deadline=None)
    @given(graphs(), st.randoms(use_true_random=False), st.booleans())
    def check(g1, rnd, near_miss):
        perm = list(range(g1.n))
        rnd.shuffle(perm)
        edges = {tuple(sorted((perm[u], perm[v]))) for u, v in g1.edges}
        if near_miss and len(edges) >= 2:
            (a, b), (c, d) = rnd.sample(sorted(edges), 2)
            swapped = {tuple(sorted((a, d))), tuple(sorted((c, b)))}
            if len({a, b, c, d}) == 4 and not swapped & edges:
                edges = (edges - {(a, b), (c, d)}) | swapped
        g2 = Graph(g1.n, edges)
        phi = isomorphism(g1, g2)
        assert (phi is not None) == _nx_isomorphic(nx, g1, g2)
        if phi is not None:
            assert _is_isomorphism(g1, g2, phi)

    check()


def test_networkx_oracle_decides_a_near_miss_at_once():
    """K9 + K3 + K2 against K9 + P5: the same degree sequence, 14 vertices
    and 40 edges, so the oracle keeps the graphs themselves.
    ``vf2pp_is_isomorphic`` alone ran for over a minute on this pair."""
    nx = pytest.importorskip("networkx")
    k9 = [(u, v) for u in range(9) for v in range(u + 1, 9)]
    g1 = Graph(14, k9 + [(9, 10), (10, 11), (9, 11), (12, 13)])
    g2 = Graph(14, k9 + [(9, 10), (10, 11), (11, 12), (12, 13)])
    assert isomorphism(g1, g2) is None
    start = time.perf_counter()
    assert not _nx_isomorphic(nx, g1, g2)
    assert time.perf_counter() - start < 5


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


def _shuffled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [tuple(sorted((perm[u], perm[v]))) for u, v in g.edges])


def _relabeled(name):
    """A family graph under a relabeling seeded by its name, so the anchor
    path is not the constructor's."""
    return _shuffled(FAMILY_GRAPHS[name](), name)


@pytest.mark.parametrize("name", sorted(FAMILY_GRAPHS))
def test_search_order_matches_blind_chain(name):
    """The order the search reports (the product of its level orbit sizes)
    against Schreier-Sims on the same generators with no order given."""
    h = _relabeled(name)
    G = automorphism_group(h)
    assert build_chain(h.n, G.raw_generators).order() == G.order()


@pytest.mark.parametrize("relabel", [False, True], ids=["constructor", "relabeled"])
@pytest.mark.parametrize("name", [*sorted(FAMILY_GRAPHS), "k6"])
def test_search_generator_count_is_pinned_below_log2_order(name, relabel):
    """The search takes the anchor path deepest level first, so every
    generator found so far fixes the prefix of the level being searched.
    A new one moves that level's branch vertex out of their orbit, so it
    lies outside the group they generate and at least doubles it."""
    g = complete(6) if name == "k6" else FAMILY_GRAPHS[name]()
    G = automorphism_group(_shuffled(g, name) if relabel else g)
    assert len(G.generators) <= math.log2(G.order())


@pytest.mark.parametrize("make, order", [
    (hoffman_singleton, 252000),
    (lambda: incidence_hexagon(2).graph, 12096),
], ids=["hosi", "h2"])
def test_search_group_order_is_pinned_without_a_product_or_sift(
    monkeypatch, make, order
):
    """The generators fixing each anchor prefix generate that prefix's
    stabilizer, a strong generating set for the anchor base; the group
    comes with its chain on that base, whose orbits multiply to the order
    at once."""
    G = automorphism_group(make())
    calls = []
    mul, sift = perms._mul, perms._Chain.sift
    monkeypatch.setattr(perms, "_mul", lambda *a: calls.append(a) or mul(*a))
    monkeypatch.setattr(
        perms._Chain, "sift", lambda *a: calls.append(a) or sift(*a)
    )
    assert G.order() == order
    assert calls == []


# sha256 of repr(G.raw_generators): the anchor path and the level order of
# the search (deepest first) fix them.  Failure-orbit pruning and trace
# abort skip only searches that fail, so neither may change a generator
SEARCH_GENERATORS_SHA256 = {
    "w3(q=3)": "1b5b6d6aebd2ef80a9348e02a9fde36bda410a818835a5f7941aaa48d9a30467",
    "pg2(q=4)": "e82bd195d8b6ccf76ab7ca07822fced7228023a5855b3fd38889d67128e81a0c",
    "hosi": "6db2a455d905a2a3424ddbbc47a7404b504d3e60b593e4773263187f6bd127e9",
}


@pytest.mark.parametrize("name", sorted(SEARCH_GENERATORS_SHA256))
def test_search_generators_are_pinned(name):
    G = automorphism_group(_relabeled(name))
    digest = hashlib.sha256(repr(G.raw_generators).encode()).hexdigest()
    assert digest == SEARCH_GENERATORS_SHA256[name]


def test_row7_generator_checks_are_pinned_to_the_search(monkeypatch):
    """Row 7 checks each of H(3)'s 11 search generators once, edge by edge
    in the search's ``_leaf_map``.  The group records H(3) and its lift
    S(H(3)), so neither ``analyze`` nor ``check_local_sdt`` checks again."""
    callers = Counter()
    real = graphs.isomorphism_failure

    def counted(*args):
        callers[sys._getframe(1).f_code.co_name] += 1
        return real(*args)

    monkeypatch.setattr(graphs, "isomorphism_failure", counted)
    monkeypatch.setattr(autgrp, "isomorphism_failure", counted)
    assert run_case_by_id("7", include_hexagon=True)["passed"]
    assert callers == {"_leaf_map": 11}


def test_failure_orbits_prune_the_w33_search(monkeypatch):
    """Without failure-orbit pruning the W(3,3) search individualizes
    27 604 times; pruning on the anchor path alone, 733; pruning at every
    node of the leaf search, 74."""
    calls = _individualize_budget(monkeypatch, 2000)
    assert automorphism_group(incidence_w3(3).graph).order() == 51840
    assert len(calls) == 74


@pytest.mark.parametrize("name, order, nodes", [
    ("pg2(q=4)", 241920, 80),
    ("hosi", 252000, 67),
])
def test_search_tree_is_pinned(monkeypatch, name, order, nodes):
    """The exact individualization counts of the search on the
    constructor's labels: a change of partition layout or of refinement
    order that walks another tree moves them."""
    calls = _individualize_budget(monkeypatch, 2000)
    assert automorphism_group(FAMILY_GRAPHS[name]()).order() == order
    assert len(calls) == nodes


@pytest.mark.parametrize("q, order, splits", [
    (4, 3916800, 2432),
    (3, 51840, 817),
])
def test_trace_abort_split_counts_are_pinned(monkeypatch, q, order, splits):
    """The ``_split`` calls of the search on the constructor's W(3,q): a
    sibling's refinement stops at its first trace entry that differs from
    the anchor path's.  The 29 rejected siblings on W(3,4) all differ at
    the second of 108 entries, the 15 on W(3,3) at the 11th of 18.
    Refining every sibling to the end makes 5 506 and 862 splits."""
    calls = []
    real = autgrp._split

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(autgrp, "_split", counted)
    assert automorphism_group(incidence_w3(q).graph).order() == order
    assert len(calls) == splits


def _shrikhande():
    """Cayley graph of Z4 x Z4 with connection set +-(1,0), +-(0,1), +-(1,1)."""
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    return Graph(16, [
        (u, v) for u in range(16) for v in range(u + 1, 16)
        if ((v // 4 - u // 4) % 4, (v % 4 - u % 4) % 4) in steps
    ])


def _rook_4x4():
    """K4 x K4: cells of a 4 x 4 board, adjacent when in one row or column."""
    return Graph(16, [
        (u, v) for u in range(16) for v in range(u + 1, 16)
        if (u // 4 == v // 4) != (u % 4 == v % 4)
    ])


def test_isomorphism_absent_between_connected_srg16():
    """Both are srg(16,6,2,2), so their root refinements agree and the
    directed search must let every sibling fail."""
    shrikhande, rook = _shrikhande(), _rook_4x4()
    assert shrikhande.degrees == rook.degrees == (6,) * 16
    assert refine(shrikhande, unit_coloring(shrikhande)).cells == (tuple(range(16)),)
    assert automorphism_group(shrikhande).order() == 192
    assert automorphism_group(rook).order() == 1152
    assert isomorphism(shrikhande, rook) is None
    assert isomorphism(rook, shrikhande) is None


def _lifted_groups():
    yield "2", automorphism_group(petersen()), petersen()
    w32 = incidence_w3(2).graph
    yield "5(q=2)", automorphism_group(w32), w32
    yield "neg-w3(q=2)-pgl", chamber_groups_on_w32()["pgl"], w32


def test_lifted_chain_equals_blind_chain():
    """A lift carries the base group's order; the chain it builds with it
    and the blind chain, which drops generators, have that order and sift
    each other's strong generators to the identity."""
    for row, G, g in _lifted_groups():
        _, smap = subdivision(g)
        lifted = lift_group(G, smap)
        known = lifted.chain()
        blind = build_chain(lifted.degree, lifted.raw_generators)
        assert known.order() == blind.order() == G.order(), row
        ident = tuple(range(lifted.degree))
        for one, other in ((known, blind), (blind, known)):
            for p in (p for level in one.sgd for p in level):
                assert other.sift(p)[0] == ident, row


def test_wrong_known_order_raises():
    s5 = PermGroup(5, symmetric_group(5).generators, order=240)
    with pytest.raises(GroupError):
        s5.order()


def test_wrong_known_order_raises_in_stabilizer():
    """The LDT pass reads a stabilizer, never the group's own chain, so the
    known order is checked where the stabilizer chain is built."""
    s5 = PermGroup(5, symmetric_group(5).generators, order=240)
    with pytest.raises(GroupError):
        s5.stabilizer(0)


def _individualize_budget(monkeypatch, limit):
    """Count ``_individualize`` calls and raise past ``limit``, so a search
    that would run for hours fails at once; returns the list of calls."""
    calls = []
    real = autgrp._individualize

    def counted(*args):
        calls.append(None)
        if len(calls) > limit:
            raise AssertionError(f"more than {limit} individualizations")
        return real(*args)

    monkeypatch.setattr(autgrp, "_individualize", counted)
    return calls


@pytest.mark.parametrize("name", ["hosi", "pg2(q=4)"])
def test_isomorphism_of_large_symmetric_graphs_is_cheap(monkeypatch, name):
    """The search of the disjoint union missed a 10 s deadline on these;
    the directed search returns at the deepest level with a mapped leaf,
    well inside this budget (see ``test_isomorphism_work_is_pinned``)."""
    g, h = FAMILY_GRAPHS[name](), _relabeled(name)
    _individualize_budget(monkeypatch, 2000)
    phi = isomorphism(g, h)
    assert phi is not None and _is_isomorphism(g, h, phi)


# sha256 of repr(isomorphism(g, _relabeled(name))): the anchor paths, the
# level order and the generators each level holds fix the map returned
ISOMORPHISM_SHA256 = {
    "hosi": "42a39ca8f4c3bd5fa71b370095b400cb0923a30106efea4e7b51541918b2838b",
    "pg2(q=4)": "b9b38a0ac9fd5d54581eb9edd90bfdb3bd7e210f0532ccb24a9cbb8fac25d755",
    "w3(q=3)": "1ffe6217a217c5cf7c9bb063d9e533cc07e1b56e69b326f9f97c8e6ac76b998d",
    "hexagon(q=2)": "ae6c6f2b5955afe2228a0e9d07012cc96d514846b4baf1c9809ce5d90e71eb28",
}


@pytest.mark.parametrize("name", sorted(ISOMORPHISM_SHA256))
def test_isomorphism_maps_are_pinned(name):
    phi = isomorphism(FAMILY_GRAPHS[name](), _relabeled(name))
    digest = hashlib.sha256(repr(phi).encode()).hexdigest()
    assert digest == ISOMORPHISM_SHA256[name]


@pytest.mark.parametrize("name, nodes", [("hosi", 24), ("pg2(q=4)", 24)],
                         ids=["hosi", "pg2(q=4)"])
def test_isomorphism_work_is_pinned(monkeypatch, name, nodes):
    """The exact individualization counts of the isomorphism search: it
    returns at the first mapped leaf, at the deepest level, before the
    shallower levels' automorphisms are searched.  Searching every level
    first took 75 on HoSi and 91 on PG(2,4)."""
    calls = _individualize_budget(monkeypatch, 2000)
    assert isomorphism(FAMILY_GRAPHS[name](), _relabeled(name)) is not None
    assert len(calls) == nodes


def _disjoint_union(*parts):
    edges, n = [], 0
    for part in parts:
        edges += [(u + n, v + n) for u, v in part.edges]
        n += part.n
    return Graph(n, edges)


def _disconnected_pair(name):
    """4 x Shrikhande against 3 x Shrikhande + rook's graph, relabeled, or
    3 x (Heawood + K4) against 3 x (K4 + Heawood), its components in
    another order, relabeled by the seed after the slash."""
    if name == "srg16":
        shrikhande = _shrikhande()
        return _disjoint_union(*[shrikhande] * 4), _shuffled(
            _disjoint_union(*[shrikhande] * 3, _rook_4x4()), "srg16")
    heawood, k4 = incidence_pg2(2).graph, complete(4)
    return _disjoint_union(*[heawood, k4] * 3), _shuffled(
        _disjoint_union(*[k4, heawood] * 3), int(name.split("/")[1]))


@pytest.mark.parametrize("name, isomorphic", [
    ("srg16", False),
    *((f"heawood-k4/{seed}", True) for seed in (1, 2, 3)),
])
def test_disconnected_isomorphism_is_pinned_within_budget(
    monkeypatch, name, isomorphic
):
    """Disconnected graphs take the directed search on the whole graphs:
    161 individualizations on the Shrikhande pair, 48 to 302 on the
    Heawood + K4 seeds.  With failures pruned on the anchor path alone it
    ran for over a minute on the Shrikhande pair."""
    g1, g2 = _disconnected_pair(name)
    _individualize_budget(monkeypatch, 1000)
    phi = isomorphism(g1, g2)
    assert (phi is not None) == isomorphic
    assert phi is None or _is_isomorphism(g1, g2, phi)


def _hub(*parts):
    """A new vertex 0 joined by one edge to the first vertex of each of
    ``parts``, laid out after it."""
    edges, n = [], 1
    for part in parts:
        edges += [(0, n)] + [(u + n, v + n) for u, v in part.edges]
        n += part.n
    return Graph(n, edges)


def _hubs(k):
    """The hub of k Shrikhande graphs, and the same with the 4 x 4 rook's
    graph in place of one: both srg(16, 6, 2, 2), so refinement cannot
    tell the copies apart and many trace-equal subtrees must fail."""
    shrikhande = _shrikhande()
    return _hub(*[shrikhande] * k), _hub(*[shrikhande] * (k - 1), _rook_4x4())


DIFFERENTIAL_GRAPHS = {
    **FAMILY_GRAPHS,
    "w3(q=4)": lambda: incidence_w3(4).graph,
    "shrikhande-hub(k=4)": lambda: _hubs(4)[0],
    "rook-hub(k=4)": lambda: _hubs(4)[1],
}


@pytest.mark.parametrize("relabel", [None, "1", "2"],
                         ids=["constructor", "relabeled1", "relabeled2"])
@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_GRAPHS))
def test_failure_pruning_below_the_anchor_path_only_skips_failures(
    monkeypatch, name, relabel
):
    """``find_mapped_leaf`` with no automorphisms passed down prunes
    failures on the anchor path only.  Pruning at every node skips only
    subtrees that fail, so both searches find the same generators in the
    same order, and the pruned one individualizes no more often."""
    g = DIFFERENTIAL_GRAPHS[name]()
    if relabel is not None:
        g = _shuffled(g, f"{name}/{relabel}")
    calls = _individualize_budget(monkeypatch, 20000)
    pruned = automorphism_group(g)
    pruned_calls = len(calls)
    real = autgrp.find_mapped_leaf
    monkeypatch.setattr(
        autgrp, "find_mapped_leaf",
        lambda *args: real(*args[:6], ()),
    )
    calls.clear()
    unpruned = automorphism_group(g)
    assert pruned.raw_generators == unpruned.raw_generators
    assert pruned.order() == unpruned.order()
    assert pruned_calls <= len(calls)


HUB_SEEDS = [1, 2, 3]


@pytest.mark.parametrize("seed", HUB_SEEDS)
@pytest.mark.parametrize("k", [5, 6])
def test_hub_isomorphism_is_pinned_within_budget(monkeypatch, k, seed):
    """With failures pruned on the anchor path alone this individualized
    172 902 times at k = 5 on seed 1: below a failed sibling, every
    subtree that fails was walked again for each of its images."""
    g1, g2 = (_shuffled(g, seed) for g in _hubs(k))
    _individualize_budget(monkeypatch, 500)
    assert isomorphism(g1, g2) is None


@pytest.mark.parametrize("seed", HUB_SEEDS)
@pytest.mark.parametrize("k", [5, 6])
def test_hub_group_orders_are_pinned_within_budget(monkeypatch, k, seed):
    """Aut of the Shrikhande hub: the stabilizer of a vertex in each copy
    (192 / 16 = 12) and the k! permutations of the copies.  In the rook
    hub the rook copy (1 152 / 16 = 72) is fixed.  With failures pruned
    on the anchor path alone the rook hub took 86 519 individualizations
    at k = 5 on seed 1."""
    g1, g2 = (_shuffled(g, seed) for g in _hubs(k))
    calls = _individualize_budget(monkeypatch, 500)
    assert automorphism_group(g1).order() == 12**k * math.factorial(k)
    calls.clear()
    assert automorphism_group(g2).order() == (
        72 * 12 ** (k - 1) * math.factorial(k - 1)
    )
