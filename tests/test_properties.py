"""Randomised invariant suites on seeded graph samples plus the structural
laws that hold for every constructed family."""

import random
from collections import Counter, deque

from locdt import autgrp
from locdt.autgrp import Coloring, refine, unit_coloring
from locdt.graphs import (
    INF,
    Graph,
    analyze,
    bfs_distances,
    diameter,
    distance2_components,
    girth,
    lift_group,
    lift_to_subdivision,
    line_graph,
    moore_bound,
    sphere,
    subdivision,
)
from locdt.geometry import (
    hoffman_singleton,
    incidence_pg2,
    incidence_w3,
    petersen,
    petersen_s5,
)


def random_connected_graph(rng, max_n=40):
    """Random spanning tree plus a few extra edges; always connected."""
    n = rng.randint(2, max_n)
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    extra = rng.randint(0, max(1, n))
    for _ in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def random_connected_bipartite(rng, max_n=40):
    """Random tree (bipartite by construction) plus random extra edges
    across its two colour classes."""
    n = rng.randint(2, max_n)
    color = [0] * n
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
        color[v] = 1 - color[u]
    for _ in range(rng.randint(0, n)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and color[u] != color[v]:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def test_delta_in_range_random_graphs():
    rng = random.Random(20260809)
    for _ in range(200):
        g = random_connected_graph(rng)
        d = diameter(g)
        s, _ = subdivision(g)
        dd = diameter(s)
        assert 2 * d <= dd <= 2 * d + 2


def test_bipartite_doubles_diameter_exactly():
    rng = random.Random(4242)
    for _ in range(200):
        g = random_connected_bipartite(rng)
        s, _ = subdivision(g)
        assert diameter(s) == 2 * diameter(g)


def test_girth_doubles_under_subdivision():
    rng = random.Random(99)
    seen_cycles = 0
    for _ in range(200):
        g = random_connected_graph(rng)
        gi = girth(g)
        s, _ = subdivision(g)
        if gi == INF:
            assert girth(s) == INF
        else:
            seen_cycles += 1
            assert girth(s) == 2 * gi
    assert seen_cycles > 100  # the sample must actually exercise the law


def test_distance2_components_reproduce_base_and_line_graph():
    rng = random.Random(7)
    checked = 0
    for _ in range(200):
        g = random_connected_bipartite(rng)
        if g.m < 2:
            continue
        s, _ = subdivision(g)
        a, b = distance2_components(s)
        assert a.adjacency == g.adjacency
        assert b.adjacency == line_graph(g).adjacency
        checked += 1
    assert checked > 150


def test_moore_bound_matches_independent_evaluation():
    # tree-counting oracle: breadth-first levels of the hypothetical
    # minimal graph, grown leaf by leaf
    def tree_count(k, g):
        if g % 2 == 1:
            total, layer = 1, k
            for _ in range((g - 1) // 2):
                total += layer
                layer *= k - 1
            return total
        total, layer = 0, 1
        for _ in range(g // 2):
            total += layer
            layer *= k - 1
        return 2 * total

    for k in range(3, 8):
        for g in range(4, 9):
            assert moore_bound(k, g) == tree_count(k, g)


def test_sphere_size_law_on_odd_girth_cages():
    # for a (k, 2d+1)-cage, the odd spheres around any edge vertex have
    # sizes 2(k-1)^(i-1) and the last one has size (k-1)^d
    for g in (petersen(), hoffman_singleton()):
        rep = analyze(g)
        assert rep.is_cage and rep.girth % 2 == 1
        k = rep.valency_max
        d = (rep.girth - 1) // 2
        s, smap = subdivision(g)
        for e in range(g.n, g.n + smap.m):
            dist = bfs_distances(s, e)
            for i in range(1, d + 1):
                size = sum(1 for v in range(s.n) if dist[v] == 2 * i - 1)
                assert size == 2 * (k - 1) ** (i - 1)
            top = sum(1 for v in range(s.n) if dist[v] == 2 * d + 1)
            assert top == (k - 1) ** d


def test_lift_is_a_homomorphism():
    g, s5 = petersen_s5()
    _, smap = subdivision(g)
    rng = random.Random(3)
    elements = list(s5.elements())
    for _ in range(25):
        p = rng.choice(elements)
        q = rng.choice(elements)
        lifted = lift_to_subdivision(p * q, smap)
        split = lift_to_subdivision(p, smap) * lift_to_subdivision(q, smap)
        assert lifted.images == split.images


def test_sphere_partition_is_exact():
    rng = random.Random(11)
    for _ in range(50):
        g = random_connected_graph(rng, max_n=25)
        x = rng.randrange(g.n)
        dist = bfs_distances(g, x)
        ecc = max(dist)
        total = 0
        for i in range(ecc + 1):
            total += len(sphere(g, x, i))
        assert total == g.n


def test_lifted_group_acts_on_subdivision():
    g, s5 = petersen_s5()
    s, smap = subdivision(g)
    lifted = lift_group(s5, smap)
    assert lifted.order() == 120
    part = lifted.orbits()
    assert sorted(map(len, part)) == [10, 15]


def _refine_samples(rng):
    """Seeded random graphs, not always connected, on 0, 1 and up to 24
    vertices, each with the unit colouring and a random ordered one."""
    for n in [0, 1] + [rng.randint(2, 24) for _ in range(40)]:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs) // 2)))
        yield g, unit_coloring(g)
        color = [rng.randrange(3) for _ in range(n)]
        cells = [[v for v in range(n) if color[v] == c] for c in rng.sample(range(3), 3)]
        yield g, Coloring(tuple(c for c in cells if c))


def test_refine_is_equitable_refinement_and_idempotent():
    rng = random.Random(20261018)
    for g, coloring in _refine_samples(rng):
        cells = refine(g, coloring).cells
        where = {v: i for i, c in enumerate(cells) for v in c}
        assert sorted(where) == list(range(g.n))
        # each cell lies in one input cell, and the input cells keep their
        # order: refinement only splits cells in place
        color = {v: i for i, c in enumerate(coloring.cells) for v in c}
        assert all(len({color[v] for v in c}) == 1 for c in cells)
        firsts = [color[c[0]] for c in cells]
        assert firsts == sorted(firsts)
        # equitable: a cell's vertices have equally many neighbours in
        # every cell
        for c in cells:
            counts = {
                frozenset(Counter(where[w] for w in g.adjacency[v]).items())
                for v in c
            }
            assert len(counts) == 1
        assert refine(g, Coloring(cells)).cells == cells


def test_refine_trace_invariance_under_relabeling():
    """The trace names split cells by offset; relabeling the graph and its
    colouring leaves the root trace, and the trace of individualizing
    corresponding vertices below it, unchanged, and maps cells onto
    cells."""
    rng = random.Random(1103)
    for g, coloring in _refine_samples(rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        hc = Coloring(tuple(tuple(perm[v] for v in c) for c in coloring.cells))
        part_g, trace_g = autgrp._root(g, coloring)
        part_h, trace_h = autgrp._root(h, hc)
        assert trace_g == trace_h
        assert [tuple(sorted(perm[v] for v in c)) for c in refine(g, coloring).cells] == list(
            refine(h, hc).cells
        )
        o = autgrp._target_cell(part_g)
        assert o == autgrp._target_cell(part_h)
        if o >= 0:
            v = part_g[0][o]
            _, child_g = autgrp._individualize(g.adjacency, part_g, v)
            _, child_h = autgrp._individualize(h.adjacency, part_h, perm[v])
            assert child_g == child_h


def _random_regular(rng, n, d):
    """A random simple d-regular graph on n vertices (pairing model with
    rejection); unit refinement leaves it one cell whose vertices are
    seldom all alike, so sibling traces differ."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = {tuple(sorted(stubs[i : i + 2])) for i in range(0, len(stubs), 2)}
        if len(edges) == n * d // 2 and all(u != v for u, v in edges):
            return Graph(n, sorted(edges))


def test_refine_stops_at_first_trace_difference():
    """Along the anchor path of random regular graphs: given its own full
    trace as ``expected``, an individualization leaves the same partition
    and trace as without one.  Given a sibling's trace, it returns its own
    trace cut just after the first entry that differs, which therefore
    differs from the sibling's."""
    rng = random.Random(1406)
    aborted = 0
    for _ in range(30):
        g = _random_regular(rng, rng.randrange(8, 25, 2), rng.choice((3, 4)))
        adj = g.adjacency
        path, _, _ = autgrp._anchor_path(adj, autgrp._root(g, unit_coloring(g))[0])
        for part, cell in path:
            children = {v: autgrp._individualize(adj, part, v) for v in cell[:6]}
            for v, (child, trace) in children.items():
                assert autgrp._individualize(adj, part, v, trace) == (child, trace)
                for _, other in children.values():
                    got = autgrp._individualize(adj, part, v, other)[1]
                    if trace == other:
                        assert got == trace
                        continue
                    k = next(i for i, (a, b) in enumerate(zip(trace, other)) if a != b)
                    assert got == trace[: k + 1] != other
                    aborted += got != trace
    assert aborted > 500


def _reference_refine(adj, part, seed, expected=None):
    """The counting kernel that ``autgrp._refine`` replaced for splitters
    of one vertex, kept verbatim as the oracle: every splitter counts its
    neighbours and every touched cell splits by count."""
    _split, _cell_offsets = autgrp._split, autgrp._cell_offsets
    order, start, size = part
    queue = deque(seed)
    cnt, trace = [0] * len(order), []
    while queue:
        touched = []
        for s in queue.popleft():
            for w in adj[s]:
                if cnt[w] == 0:
                    touched.append(w)
                cnt[w] += 1
        for o in sorted({start[w] for w in touched}, reverse=True):
            if size[o] == 1:
                continue
            buckets = {}
            for v in order[o : o + size[o]]:
                buckets.setdefault(cnt[v], []).append(v)
            if len(buckets) == 1:
                continue
            keys = sorted(buckets)
            frags = [buckets[k] for k in keys]
            entry = (o, tuple(keys), tuple(map(len, frags)))
            trace.append(entry)
            # ``expected`` ends with its cell sizes, which no split entry
            # equals, so this never reads past its end
            if expected is not None and entry != expected[len(trace) - 1]:
                return tuple(trace)
            _split(part, o, frags)
            largest = max(frags, key=len)
            queue.extend(tuple(f) for f in frags if f is not largest)
        for w in touched:
            cnt[w] = 0
    trace.append(tuple(size[o] for o in _cell_offsets(part)))
    return tuple(trace)


def _refine_both(adj, part, seed, expected=None):
    """``(order, start, size)`` and the trace from the oracle and from
    ``autgrp._refine``, each run on its own copy of ``part``."""
    results = []
    for kernel in (_reference_refine, autgrp._refine):
        copy = tuple(list(a) for a in part)
        trace = kernel(adj, copy, seed, expected)
        results.append((copy, trace))
    return results


def _individualized_both(adj, part, v, expected=None):
    """``_refine_both`` on ``part`` with v split off the front of its cell,
    as ``autgrp._individualize`` does it."""
    part = tuple(list(a) for a in part)
    rest = [w for w in autgrp._cell(part, part[1][v]) if w != v]
    autgrp._split(part, part[1][v], [(v,), rest])
    return _refine_both(adj, part, [(v,)], expected)


def test_refine_matches_reference_kernel():
    """``autgrp._refine`` gives the oracle's partition and trace, aborted
    traces included: at the roots of the refinement samples under both
    colourings, for every sibling of every anchor-path node of random
    regular graphs, alone and against each other sibling's trace, and
    along the anchor paths of Hoffman-Singleton, PG(2,4) and W(3,3)."""
    rng = random.Random(3001)
    for g, coloring in _refine_samples(rng):
        part = ([], [0] * g.n, [0] * g.n)
        autgrp._split(part, 0, coloring.cells)
        ref, got = _refine_both(g.adjacency, part, coloring.cells)
        assert got == ref
    aborted = 0
    for _ in range(30):
        g = _random_regular(rng, rng.randrange(8, 25, 2), rng.choice((3, 4)))
        adj = g.adjacency
        path, _, _ = autgrp._anchor_path(adj, autgrp._root(g, unit_coloring(g))[0])
        for part, cell in path:
            traces = set()
            for v in cell:
                ref, got = _individualized_both(adj, part, v)
                assert got == ref
                traces.add(ref[1])
            for v in cell:
                for other in traces:
                    ref, got = _individualized_both(adj, part, v, other)
                    assert got == ref
                    aborted += ref[1] != other
    assert aborted > 500
    for g in (hoffman_singleton(), incidence_pg2(4).graph, incidence_w3(3).graph):
        adj = g.adjacency
        part, _ = autgrp._root(g, unit_coloring(g))
        ref, got = _refine_both(adj, part, [tuple(range(g.n))])
        assert got == ref
        path, traces, _ = autgrp._anchor_path(adj, part)
        for (part, cell), anchor in zip(path, traces):
            for v in cell:
                ref, got = _individualized_both(adj, part, v)
                assert got == ref
                ref, got = _individualized_both(adj, part, v, anchor)
                assert got == ref
