"""Graph automorphism groups by equitable-partition refinement with
individualization.

The search fixes one anchor path (always branching on the first vertex of
the first smallest non-singleton cell), then looks for automorphisms mapping
the anchor prefix onto sibling branches.  Pruning uses refinement trace
hashes plus the orbits of the automorphisms found so far, so sibling
branches inside an orbit are never explored twice.  Failures prune by orbit
as well: a sibling with no leaf equivalent to the anchor leaf has none
anywhere in its orbit under the automorphisms that fix the prefix, so that
whole orbit is skipped (McKay & Piperno, "Practical graph isomorphism, II",
2014).  The skipped searches would all fail, so the generators found are
the same as without this pruning.  No canonical form is exposed;
isomorphism testing runs the same search on the disjoint union.
"""

from collections import deque
from dataclasses import dataclass

from .perms import Permutation, PermGroup, orbit_closure
from .graphs import Graph, automorphism_failure, components

DEFAULT_VERTEX_LIMIT = 4096


class LimitError(RuntimeError):
    """A configured size limit was exceeded."""


@dataclass(frozen=True)
class Coloring:
    """Ordered partition of the vertex set; cells never merge under
    refinement."""

    cells: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "cells", tuple(tuple(sorted(c)) for c in self.cells)
        )


def unit_coloring(g):
    return Coloring((tuple(range(g.n)),))


def _refine(adj, cells, seed=None):
    """Coarsest equitable refinement of an ordered partition.

    Returns (cells, trace) where trace records every split (cell position,
    count keys, fragment sizes) and is invariant under relabeling, which
    makes it usable for search pruning.
    """
    n = len(adj)
    cells = [list(c) for c in cells]
    queue = deque(seed if seed is not None else [tuple(c) for c in cells])
    cnt = [0] * n
    trace = []
    while queue:
        splitter = queue.popleft()
        touched = []
        for s in splitter:
            for w in adj[s]:
                if cnt[w] == 0:
                    touched.append(w)
                cnt[w] += 1
        where = {}
        for ci, cell in enumerate(cells):
            for v in cell:
                where[v] = ci
        affected = sorted({where[v] for v in touched})
        for ci in reversed(affected):
            cell = cells[ci]
            if len(cell) == 1:
                continue
            buckets = {}
            for v in cell:
                buckets.setdefault(cnt[v], []).append(v)
            if len(buckets) == 1:
                continue
            keys = sorted(buckets)
            frags = [buckets[k] for k in keys]
            cells[ci : ci + 1] = frags
            trace.append((ci, tuple(keys), tuple(len(f) for f in frags)))
            # push everything except one largest fragment
            largest = max(range(len(frags)), key=lambda i: len(frags[i]))
            for i, f in enumerate(frags):
                if i != largest:
                    queue.append(tuple(f))
        for v in touched:
            cnt[v] = 0
    trace.append(tuple(len(c) for c in cells))
    return cells, tuple(trace)


def refine(g, coloring):
    """Public refinement entry point; idempotent."""
    cells, _ = _refine(g.adjacency, [list(c) for c in coloring.cells])
    return Coloring(tuple(tuple(c) for c in cells))


def _target_cell(cells):
    """Position of the first smallest non-singleton cell, or -1."""
    best = -1
    best_len = None
    for i, c in enumerate(cells):
        if len(c) > 1 and (best_len is None or len(c) < best_len):
            best = i
            best_len = len(c)
    return best


def _individualize(adj, cells, pos, v):
    """Split cell ``pos`` into ({v}, rest) and refine incrementally."""
    new_cells = [list(c) for c in cells]
    rest = [w for w in new_cells[pos] if w != v]
    new_cells[pos : pos + 1] = [[v], rest]
    return _refine(adj, new_cells, seed=[(v,)])


def _leaf_order(cells):
    return tuple(c[0] for c in cells)


def automorphism_group(g, coloring=None, limit=DEFAULT_VERTEX_LIMIT):
    """Generators of the colour-preserving automorphism group, which carries
    its order: the product of the orbit sizes along the anchor path."""
    if g.n > limit:
        raise LimitError(f"graph has {g.n} vertices, limit is {limit}")
    adj = g.adjacency
    if coloring is None:
        coloring = unit_coloring(g)
    cells0, _ = _refine(adj, [list(c) for c in coloring.cells])

    # anchor path: at each level remember the cells, the branch cell/vertex
    # and the child's refinement trace
    anchor = []
    cells = cells0
    while True:
        pos = _target_cell(cells)
        if pos < 0:
            break
        target = list(cells[pos])
        b = target[0]
        child_cells, child_trace = _individualize(adj, cells, pos, b)
        anchor.append(
            {
                "cells": cells,
                "pos": pos,
                "branch": b,
                "target": target,
                "trace": hash(child_trace),
            }
        )
        cells = child_cells
    anchor_leaf = _leaf_order(cells)
    anchor_traces = [node["trace"] for node in anchor]

    gens = []
    order = 1

    def find_mapped_leaf(cells, depth):
        """Search below a sibling branch for one automorphism onto the
        anchor leaf; depth indexes the next anchor level."""
        if depth == len(anchor):
            if all(len(c) == 1 for c in cells):
                mapping = [0] * len(anchor_leaf)
                for a, c in zip(anchor_leaf, _leaf_order(cells)):
                    mapping[a] = c
                if automorphism_failure(g, mapping) is None:
                    return tuple(mapping)
            return None
        pos = _target_cell(cells)
        if pos < 0:
            return None
        for w in cells[pos]:
            child_cells, child_trace = _individualize(adj, cells, pos, w)
            if hash(child_trace) != anchor_traces[depth]:
                continue
            found = find_mapped_leaf(child_cells, depth + 1)
            if found is not None:
                return found
        return None

    for depth, node in enumerate(anchor):
        branch = node["branch"]
        # orbit of the branch vertex under generators fixing the prefix;
        # generators found at deeper levels fix it, so level order is safe
        level_gens = [
            p for p in gens
            if all(p[node2["branch"]] == node2["branch"] for node2 in anchor[:depth])
        ]
        orbit = orbit_closure(level_gens, [branch])
        # siblings with no mapped leaf, closed under level_gens: an image of
        # a failed sibling under an automorphism fixing the prefix fails too
        failed = set()
        for v in node["target"][1:]:
            if v in orbit or v in failed:
                continue
            child_cells, child_trace = _individualize(adj, node["cells"], node["pos"], v)
            found = None
            if hash(child_trace) == anchor_traces[depth]:
                found = find_mapped_leaf(child_cells, depth + 1)
            if found is None:
                failed |= orbit_closure(level_gens, [v])
                continue
            gens.append(found)
            level_gens.append(found)
            orbit = orbit_closure(level_gens, orbit)
            failed = orbit_closure(level_gens, failed)
        # every sibling outside the orbit was searched exhaustively or lies
        # in the orbit of one that was, so this is the whole orbit of the
        # prefix stabilizer: |Aut| is the product
        order *= len(orbit)
    return PermGroup(g.n, [Permutation(p) for p in gens], order=order)


def _quick_invariants(g):
    return (g.n, g.m, tuple(sorted(g.degrees)))


def isomorphism(g1, g2, limit=DEFAULT_VERTEX_LIMIT):
    """A vertex bijection g1 -> g2 preserving adjacency, or None.

    Runs the automorphism search on the disjoint union; absence is certified
    because the completed search would contain any component swap.
    """
    if g1.n > limit or g2.n > limit:
        raise LimitError(f"graph size exceeds limit {limit}")
    if _quick_invariants(g1) != _quick_invariants(g2):
        return None
    if g1.n == 0:
        return ()
    if g1.is_connected() and g2.is_connected():
        return _isomorphism_connected(g1, g2)
    return _isomorphism_components(g1, g2, limit)


def _isomorphism_connected(g1, g2):
    n1 = g1.n
    edges = list(g1.edges) + [(u + n1, v + n1) for u, v in g2.edges]
    union = Graph(n1 + g2.n, edges)
    A = automorphism_group(union, limit=union.n)
    trans = A.orbit_transversal(0)
    for point in sorted(trans):
        if point >= n1:
            gamma = trans[point]
            mapping = tuple(gamma.images[i] - n1 for i in range(n1))
            return mapping
    return None


def _isomorphism_components(g1, g2, limit):
    comps1 = components(g1)
    comps2 = components(g2)
    if sorted(len(c) for c in comps1) != sorted(len(c) for c in comps2):
        return None
    mapping = [None] * g1.n
    used = [False] * len(comps2)
    for verts1 in comps1:
        sub1 = g1.relabeled(verts1)
        placed = False
        for j, verts2 in enumerate(comps2):
            if used[j] or len(verts2) != len(verts1):
                continue
            sub2 = g2.relabeled(verts2)
            sub_map = isomorphism(sub1, sub2, limit)
            if sub_map is not None:
                for a, b in zip(verts1, (verts2[i] for i in sub_map)):
                    mapping[a] = b
                used[j] = True
                placed = True
                break
        if not placed:
            return None
    return tuple(mapping)
