"""Graph automorphism groups by equitable-partition refinement with
individualization.

The search fixes one anchor path (always branching on the first vertex of
the first smallest non-singleton cell), then looks for automorphisms mapping
the anchor prefix onto sibling branches.  Pruning uses refinement traces
plus the orbits of the automorphisms found so far, so sibling
branches inside an orbit are never explored twice.  Failures prune by orbit
as well: a sibling with no leaf equivalent to the anchor leaf has none
anywhere in its orbit under the automorphisms that fix the prefix, so that
whole orbit is skipped (McKay & Piperno, "Practical graph isomorphism, II",
2014).  The skipped searches would all fail, so the generators found are
the same as without this pruning.  No canonical form is exposed:
isomorphism testing searches g2's tree for a leaf with the traces of g1's
anchor path, by the same leaf search and the same orbit pruning.
"""

from collections import deque
from dataclasses import dataclass
from functools import partial

from .perms import Permutation, PermGroup, orbit_closure
from .graphs import GraphError, components, isomorphism_failure

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
    return Coloring((tuple(range(g.n)),) if g.n else ())


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


def _coloring_cells(g, coloring):
    """The cells of ``coloring`` as lists; GraphError unless they are
    non-empty and partition the vertices 0..g.n-1."""
    cells = [list(c) for c in coloring.cells]
    if not all(cells) or sorted(v for c in cells for v in c) != list(range(g.n)):
        raise GraphError("coloring cells must be non-empty and partition 0..n-1")
    return cells


def refine(g, coloring):
    """Public refinement entry point; idempotent."""
    cells, _ = _refine(g.adjacency, _coloring_cells(g, coloring))
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


def _anchor_path(adj, cells):
    """Levels (cells, branch cell position), child traces and leaf order of
    the path from ``cells`` that branches on each target cell's first vertex."""
    path, traces = [], []
    while True:
        pos = _target_cell(cells)
        if pos < 0:
            return path, traces, _leaf_order(cells)
        path.append((cells, pos))
        cells, trace = _individualize(adj, cells, pos, cells[pos][0])
        traces.append(trace)


def _prefix_gens(gens, path, depth):
    """The generators fixing the branch vertices above ``depth``."""
    prefix = [cells[pos][0] for cells, pos in path[:depth]]
    return [p for p in gens if all(p[b] == b for b in prefix)]


def _leaf_map(g1, leaf1, g2, leaf2):
    """The map leaf1 -> leaf2 if it is an isomorphism g1 -> g2, else None."""
    mapping = [0] * len(leaf1)
    for a, c in zip(leaf1, leaf2):
        mapping[a] = c
    return tuple(mapping) if isomorphism_failure(g1, g2, mapping) is None else None


def find_mapped_leaf(adj, cells, pos, v, traces, depth, accept):
    """Individualize ``v`` in cell ``pos`` of the level-``depth`` node
    ``cells``; below it, the first leaf repeating ``traces`` from ``depth``
    on that ``accept`` maps to a value other than None gives the result."""
    cells, trace = _individualize(adj, cells, pos, v)
    if trace != traces[depth]:
        return None
    if depth + 1 == len(traces):
        return accept(_leaf_order(cells))
    pos = _target_cell(cells)
    for w in cells[pos]:
        found = find_mapped_leaf(adj, cells, pos, w, traces, depth + 1, accept)
        if found is not None:
            return found
    return None


def automorphism_group(g, coloring=None, limit=DEFAULT_VERTEX_LIMIT):
    """Generators of the colour-preserving automorphism group, which carries
    its order: the product of the orbit sizes along the anchor path."""
    if g.n > limit:
        raise LimitError(f"graph has {g.n} vertices, limit is {limit}")
    if coloring is None:
        coloring = unit_coloring(g)
    cells0, _ = _refine(g.adjacency, _coloring_cells(g, coloring))
    gens, order = _search_levels(g, *_anchor_path(g.adjacency, cells0))
    return PermGroup(g.n, [Permutation(p) for p in gens], order=order)


def _search_levels(g, path, traces, leaf):
    """Raw generators and order of the automorphisms of ``g`` that preserve
    the root cells of the anchor path ``path``, whose child traces and leaf
    order are ``traces`` and ``leaf`` (as ``_anchor_path`` returns them)."""
    adj = g.adjacency
    accept = partial(_leaf_map, g, leaf, g)

    gens = []
    order = 1
    for depth, (cells, pos) in enumerate(path):
        # orbit of the branch vertex under generators fixing the prefix;
        # generators found at deeper levels fix it, so level order is safe
        level_gens = _prefix_gens(gens, path, depth)
        orbit = orbit_closure(level_gens, [cells[pos][0]])
        # siblings with no mapped leaf, closed under level_gens: an image of
        # a failed sibling under an automorphism fixing the prefix fails too
        failed = set()
        for v in cells[pos][1:]:
            if v in orbit or v in failed:
                continue
            found = find_mapped_leaf(adj, cells, pos, v, traces, depth, accept)
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
    return gens, order


def isomorphism(g1, g2, limit=DEFAULT_VERTEX_LIMIT):
    """A vertex bijection g1 -> g2 preserving adjacency, or None.

    Searches g2's tree, deepest level first, for a leaf repeating the traces
    of g1's anchor path, one sibling per orbit of Aut(g2)'s prefix
    stabilizer, and checks each leaf map edge by edge.  The isomorphisms
    taking g1's anchor prefix onto g2's send the next anchor vertex into one
    such orbit, so None is certified once all fail.  Disconnected graphs are matched
    component by component: on them the search can take exponential time.
    So can a hub joined by one edge to each of k >= 4 Shrikhande graphs,
    against the same with a 4 x 4 rook's graph in place of one.
    """
    if g1.n > limit or g2.n > limit:
        raise LimitError(f"graph size exceeds limit {limit}")
    if g1.n == 0 or not (g1.is_connected() and g2.is_connected()):
        return _isomorphism_components(g1, g2, limit)
    adj1, adj2 = g1.adjacency, g2.adjacency
    cells1, root1 = _refine(adj1, [list(range(g1.n))])
    cells2, root2 = _refine(adj2, [list(range(g2.n))])
    if root1 != root2:
        return None
    _, traces1, leaf1 = _anchor_path(adj1, cells1)
    path2, traces2, leaf2 = _anchor_path(adj2, cells2)
    accept = partial(_leaf_map, g1, leaf1, g2)
    if traces2 == traces1:
        found = accept(leaf2)
        if found is not None:
            return found
    gens, _ = _search_levels(g2, path2, traces2, leaf2)
    for depth in reversed(range(len(path2))):
        if traces2[:depth] != traces1[:depth]:  # below a mismatched node
            continue
        cells, pos = path2[depth]
        # the branch's own subtree is searched already, so its orbit fails
        level_gens = _prefix_gens(gens, path2, depth)
        failed = orbit_closure(level_gens, [cells[pos][0]])
        for v in cells[pos][1:]:
            if v in failed:
                continue
            found = find_mapped_leaf(adj2, cells, pos, v, traces1, depth, accept)
            if found is not None:
                return found
            failed |= orbit_closure(level_gens, [v])
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
        for j, verts2 in enumerate(comps2):
            if used[j] or len(verts2) != len(verts1):
                continue
            sub_map = isomorphism(sub1, g2.relabeled(verts2), limit)
            if sub_map is not None:
                for a, i in zip(verts1, sub_map):
                    mapping[a] = verts2[i]
                used[j] = True
                break
        else:
            return None
    return tuple(mapping)
