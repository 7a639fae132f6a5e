import hashlib

import pytest

from locdt import geometry
from locdt.autgrp import automorphism_group, isomorphism
from locdt.graphs import GraphError, analyze, bfs_distances, subdivision
from locdt.geometry import (
    INFTY,
    chamber_model_w32,
    complete,
    complete_bipartite,
    cross_ratio,
    cycle,
    gf,
    hoffman_singleton,
    incidence_hexagon,
    incidence_pg2,
    incidence_w3,
    mobius_subgroups,
    pair_action,
    petersen,
    pgammal2,
)


def test_gf2_addition():
    f = gf(2)
    assert f.add[1][1] == 0
    assert f.mul[1][1] == 1


def test_gf9_primitive_element():
    f = gf(9)
    nu = f.primitive
    assert nu == 4  # t+1 with tables over GF(3)[t]/(t^2+1)
    assert f.pow(nu, 4) == f.neg[1]
    assert f.pow(nu, 8) == 1
    assert len({f.pow(nu, k) for k in range(8)}) == 8


def test_gf_rejects_non_prime_power():
    with pytest.raises(GraphError):
        gf(6)
    with pytest.raises(GraphError):
        gf(12)


def test_gf_field_axioms_all_supported():
    for q in (2, 3, 4, 5, 7, 8, 9, 16):
        f = gf(q)  # construction runs the exhaustive axiom check
        assert f.q == q
        assert sorted(f.add[0]) == list(range(q))


def test_standard_graphs():
    p = petersen()
    assert p.n == 10 and p.is_regular() and p.degrees[0] == 3
    rep = analyze(p)
    assert rep.girth == 5

    k33 = complete_bipartite(3, 3)
    rep = analyze(k33)
    assert (rep.girth, rep.diameter) == (4, 2)

    rep = analyze(cycle(7))
    assert (rep.girth, rep.diameter) == (7, 3)

    with pytest.raises(GraphError):
        cycle(2)
    with pytest.raises(GraphError):
        complete(0)


def test_hoffman_singleton_counts():
    g = hoffman_singleton()
    assert g.n == 50
    assert g.is_regular() and g.degrees[0] == 7
    rep = analyze(g)
    assert rep.is_cage and rep.moore_bound == 50


def test_pg2_counts_and_invariants():
    for q, n in ((2, 14), (3, 26), (4, 42)):
        gg = incidence_pg2(q)
        rep = analyze(gg.graph)
        assert gg.graph.n == n == 2 * (q * q + q + 1)
        assert rep.valency_max == q + 1
        assert (rep.girth, rep.diameter) == (6, 3)
        assert rep.bipartite and rep.is_cage


def test_pg2_point_action_two_transitive():
    for q in (2, 3):
        gg = incidence_pg2(q)
        A = automorphism_group(gg.graph)
        n_pts = gg.n_points
        preserving = []
        for p in A.generators:
            if p.images[0] < n_pts:
                preserving.append(p)
            else:
                swap = p
        from locdt.perms import PermGroup

        kernel_gens = list(preserving)
        for p in A.generators:
            if p.images[0] >= n_pts:
                kernel_gens.append(p * swap.inverse())
                kernel_gens.append(swap * p)
        kernel = PermGroup(A.degree, kernel_gens)
        points_action = kernel.restrict(range(n_pts))
        assert points_action.is_k_transitive(2)


def test_w3_counts_and_invariants():
    for q, n in ((2, 30), (3, 80), (4, 170)):
        gg = incidence_w3(q)
        rep = analyze(gg.graph)
        assert gg.graph.n == n == 2 * (q**3 + q**2 + q + 1)
        assert rep.valency_max == q + 1
        assert (rep.girth, rep.diameter) == (8, 4)
        assert rep.bipartite and rep.is_cage


def test_w3_line_counts():
    gg = incidence_w3(3)
    assert gg.n_points == 40 and gg.n_lines == 40


def test_hexagon_q2():
    gg = incidence_hexagon(2)
    rep = analyze(gg.graph)
    assert gg.graph.n == 126 == 2 * (2**6 - 1) // (2 - 1)
    assert (rep.girth, rep.diameter, rep.subdivision_diameter) == (12, 6, 12)
    assert rep.is_cage


def test_hexagon_q3_counts_and_invariants():
    gg = incidence_hexagon(3)
    assert gg.n_points == 364 and gg.n_lines == 364
    rep = analyze(gg.graph)
    assert gg.graph.n == 728 == 2 * (3**6 - 1) // (3 - 1)
    assert rep.valency_max == 4
    assert (rep.girth, rep.diameter, rep.subdivision_diameter) == (12, 6, 12)
    assert rep.is_cage  # attains the even-girth bound n0(4,12)=728


def test_hexagon_rejects_unsupported_q():
    with pytest.raises(GraphError):
        incidence_hexagon(4)


# sha256 of repr((edges, labels, points, lines)) for each incidence
# geometry: vertex numbering, labels and line lists are part of the output
GEOMETRY_SHA256 = {
    (incidence_pg2, 2): "50ec349f4a52b8d96292b2b0d89c57dd1294d88cc06c3c7233b316f9c2990349",
    (incidence_pg2, 3): "c8736355529ae8f676693bbc736bae88fef84338d387f2c98c1090a66f17c052",
    (incidence_pg2, 4): "dba0090821789b1a63dd11129f88d9c7826c4322353ad2c829591498889b04b8",
    (incidence_pg2, 5): "a3d937522b8034f9e7c81c294abf4d6a101f83e3bd3c7f71a8373acef1f7ad82",
    (incidence_pg2, 7): "a9b61b2810637187610a5c9110c29bf312c2f7abaa7cb3462fe2fbc191bf55b9",
    (incidence_pg2, 8): "6051f0e47f4b6cbf6f0e042cd575c300f8e7c5b58777aebb0fa47ac4a04145d9",
    (incidence_pg2, 9): "2570f46af4ccc70dd4b297133ab2442a46f7d0c18e4100d7ec799df00996dc78",
    (incidence_w3, 2): "6724cef27ff9bf3b551ef6261d10ebeb239745170debdf7075d51a937d80ca8c",
    (incidence_w3, 3): "41b30ef052d18f6a63501bfe5c02b6db00c994ca751f646be695401e0d6ec836",
    (incidence_w3, 4): "5453cddcced914d3b4135a87c41b1cc7d9a111be030d7051f81d7efcd2b1304b",
    (incidence_w3, 5): "0f1fd7b54d846a768a8785600139a0817bb216043ae0998694f0506204a29c6d",
    (incidence_hexagon, 2): "f153e1250c60315d2e0c7b4470d72cec88834a4827252bac639531524eb8935c",
    (incidence_hexagon, 3): "4d01193c6cbf1c8154daa7430dfcb268aea213ccd1a93795957feb805ad25fbe",
}


@pytest.mark.parametrize(
    "build, q", GEOMETRY_SHA256, ids=lambda x: getattr(x, "__name__", str(x))
)
def test_incidence_geometry_bytes_are_pinned(build, q):
    gg = build(q)
    g = gg.graph
    text = repr((g.edges, g.labels, gg.points, gg.lines))
    assert hashlib.sha256(text.encode()).hexdigest() == GEOMETRY_SHA256[build, q]


@pytest.mark.parametrize("build, q, spans, lines", [
    (incidence_w3, 3, 40, 40),
    (incidence_hexagon, 3, 364, 364),
], ids=["w3", "hexagon"])
def test_lines_per_point_span_each_line_once(monkeypatch, build, q, spans, lines):
    """One span per line, from its least point; the polar equation keeps
    H(3)'s candidates on quadric lines, so no span leaves the quadric."""
    spanned = []
    real = geometry._span_points

    def counted(*args):
        spanned.append(real(*args))
        return spanned[-1]

    monkeypatch.setattr(geometry, "_span_points", counted)
    assert len(build(q).lines) == lines
    assert len(spanned) == len(set(spanned)) == spans


def test_geometry_graph_labels_present():
    gg = incidence_pg2(2)
    assert gg.graph.labels is not None
    assert gg.graph.labels[0].startswith("P")
    assert gg.graph.labels[-1].startswith("L")


def test_mobius_orders_and_memberships():
    mg = mobius_subgroups()
    assert mg.psl.order() == 360
    assert mg.pgl.order() == 720
    assert mg.psigmal.order() == 720
    assert mg.m10.order() == 720
    assert mg.pgammal.order() == 1440
    # M10 contains neither the primitive scaling nor the field automorphism
    mul_prim = mg.pgl.generators[-1]
    frob = mg.psigmal.generators[-1]
    assert mul_prim not in mg.m10
    assert frob not in mg.m10
    assert not mg.psl.is_k_transitive(3)
    assert mg.psl.is_k_transitive(2)


def test_cross_ratio_infinity_cases():
    f = gf(9)
    # harmonic quadruple 0, inf, 1, -1: ((0-1)(inf+1))/((0+1)(inf-1)) = -1
    assert cross_ratio(f, 0, INFTY, 1, f.neg[1]) == f.neg[1]
    # invariance under the Moebius map z -> z + c
    for c in range(1, 9):
        a, b, cc, d = 0, 1, 2, 5
        shifted = [f.add[x][c] for x in (a, b, cc, d)]
        assert cross_ratio(f, a, b, cc, d) == cross_ratio(f, *shifted)


def test_cross_ratio_moebius_invariance_with_infinity():
    f = gf(9)
    pts = [INFTY, 0, 1, 5]

    def inv(z):
        if z == INFTY:
            return 0
        if z == 0:
            return INFTY
        return f.neg[f.inv[z]]

    assert cross_ratio(f, *pts) == cross_ratio(f, *[inv(z) for z in pts])


def test_chamber_model_regularity():
    cm = chamber_model_w32()
    assert cm.graph.n == 45
    assert cm.graph.is_regular() and cm.graph.degrees[0] == 16


def test_chamber_opposition_preserved_by_groups():
    cm = chamber_model_w32()
    es = set(cm.graph.edges)
    for G in (cm.psl, cm.pgl, cm.psigmal, cm.m10):
        for p in G.generators:
            for u, v in cm.graph.edges:
                iu, iv = p.images[u], p.images[v]
                assert (min(iu, iv), max(iu, iv)) in es


def test_chamber_opposition_matches_distance8_graph():
    cm = chamber_model_w32()
    g = incidence_w3(2).graph
    sub, smap = subdivision(g)
    from locdt.graphs import Graph

    edge_ids = list(range(30, 75))
    d8 = []
    dcache = {e: bfs_distances(sub, e) for e in edge_ids}
    for i, a in enumerate(edge_ids):
        for b in edge_ids[i + 1 :]:
            if dcache[a][b] == 8:
                d8.append((a - 30, b - 30))
    assert isomorphism(cm.graph, Graph(45, d8)) is not None


def test_pgammal2_orders():
    assert pgammal2(8).order() == 1512
    assert pgammal2(4).order() == 120
    assert pgammal2(9).order() == 1440


def test_pair_action_degree():
    mg = mobius_subgroups()
    act = pair_action(mg.pgl, 10)
    assert act.degree == 45
    assert act.order() == 720
