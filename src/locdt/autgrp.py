"""Graph automorphism groups by equitable-partition refinement with
individualization.

The search fixes one anchor path (always branching on the first vertex of
the first smallest non-singleton cell), then looks for automorphisms mapping
the anchor prefix onto sibling branches, deepest level first, as nauty does
(McKay & Piperno, "Practical graph isomorphism, II", 2014).  Every
automorphism found so far then fixes the prefix of the level being
searched, so each new one at least doubles the group, and the generators
form a strong generating set for the base of anchor vertices.  Pruning uses
refinement traces plus the orbits of the automorphisms found so far, so
sibling branches inside an orbit are never explored twice.  Failures prune
by orbit as well, at every node of the tree: a child with no leaf
equivalent to the anchor leaf has none anywhere in its orbit under the
automorphisms found so far that fix the node's individualized vertices, so
that whole orbit is skipped (McKay & Piperno 2014).  The skipped searches
would all fail, so the generators found are the same as without this
pruning.  A sibling's refinement stops at its first trace entry that
differs from the anchor path's (McKay & Piperno 2014), so the search tree
is unchanged and only rejected nodes do less work.  No canonical form is
exposed: isomorphism testing searches g2's tree for a leaf with the traces
of g1's anchor path, by the same leaf search and the same orbit pruning.
One level loop, ``_search_levels``, walks the anchor path for both, and
one child loop, ``_first_mapped_child``, searches every node's children.

A partition is flat, as in that paper: (order, start, size) lists the
vertices cell by cell, ``start[v]`` is the offset of v's cell in ``order``
and ``size[o]`` the length of the cell at offset o.  Refinement splits
cells in place.  Its trace names a split cell by offset, which, given the
cell sizes that earlier entries fix, determines the cell's position.  Most
splitters are one vertex, which splits each cell it touches into its
non-neighbours and neighbours with no counting, giving the same trace.
"""

from collections import deque
from dataclasses import dataclass
from functools import partial

from .perms import Permutation, PermGroup, build_chain, orbit_closure
from .graphs import GraphError, isomorphism_failure

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


def _refine(adj, part, seed, expected=None):
    """Coarsest equitable refinement of the partition ``part``, in place.

    Each splitter (a vertex tuple, first from ``seed``) counts its
    neighbours; the touched cells split stably by count in descending
    offset, and all but the first largest fragment become splitters.
    Returns the trace, (cell offset, count keys, fragment sizes) per split
    and then the cell sizes, which is invariant under relabeling.

    A splitter of one vertex s counts nothing: every count is 0 or 1, so
    a touched cell of k neighbours among n vertices either is covered
    (k = n, no split) or splits into its non-neighbours and neighbours,
    each in cell order, with entry (o, (0, 1), (n - k, k)), and the first
    largest fragment is the non-neighbours unless k > n - k.  That is what
    counting gives, entry for entry, so the trace is the same; nauty
    special-cases this trivial splitting cell too (McKay & Piperno 2014).

    Given an ``expected`` trace, the refinement stops at its first split
    entry that differs from the entry of ``expected`` at the same index
    (McKay & Piperno 2014), before making that split, and returns the
    entries so far with the differing one, a trace that can never equal
    ``expected``; ``part`` is then left half refined.
    """
    order, start, size = part
    queue = deque(seed)
    cnt, trace = [0] * len(order), []
    while queue:
        splitter = queue.popleft()
        if len(splitter) == 1:
            touched = {}
            for w in adj[splitter[0]]:
                if size[o := start[w]] > 1:
                    touched.setdefault(o, []).append(w)
            for o in sorted(touched, reverse=True):
                n, k = size[o], len(touched[o])
                if k == n:
                    continue
                entry = (o, (0, 1), (n - k, k))
                trace.append(entry)
                # ``expected`` ends with its cell sizes, which no split
                # entry equals, so this never reads past its end
                if expected is not None and entry != expected[len(trace) - 1]:
                    return tuple(trace)
                cell, nbrs = order[o : o + n], set(touched[o])
                rest = [v for v in cell if v not in nbrs]
                nbrs = [v for v in cell if v in nbrs]
                _split(part, o, [rest, nbrs])
                queue.append(tuple(nbrs if 2 * k <= n else rest))
            continue
        touched = []
        for s in splitter:
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
            if expected is not None and entry != expected[len(trace) - 1]:
                return tuple(trace)
            _split(part, o, frags)
            largest = max(frags, key=len)
            queue.extend(tuple(f) for f in frags if f is not largest)
        for w in touched:
            cnt[w] = 0
    trace.append(tuple(size[o] for o in _cell_offsets(part)))
    return tuple(trace)


def _split(part, o, frags):
    """Write ``frags`` as cells over the cell at offset o; the first keeps o."""
    order, start, size = part
    for f in frags:
        order[o : o + len(f)] = f
        size[o] = len(f)
        if f is not frags[0]:
            for v in f:
                start[v] = o
        o += len(f)


def _cell_offsets(part):
    o = 0
    while o < len(part[0]):
        yield o
        o += part[2][o]


def _cell(part, o):
    return part[0][o : o + part[2][o]]


def _root(g, coloring):
    """The refinement of ``coloring`` as a partition, and its trace;
    GraphError unless the cells are non-empty and partition 0..g.n-1."""
    cells = coloring.cells
    if not all(cells) or sorted(v for c in cells for v in c) != list(range(g.n)):
        raise GraphError("coloring cells must be non-empty and partition 0..n-1")
    part = ([], [0] * g.n, [0] * g.n)
    _split(part, 0, cells)
    return part, _refine(g.adjacency, part, cells)


def refine(g, coloring):
    """Public refinement entry point; idempotent."""
    part, _ = _root(g, coloring)
    return Coloring(tuple(tuple(_cell(part, o)) for o in _cell_offsets(part)))


def _target_cell(part):
    """Offset of the first smallest non-singleton cell, or -1."""
    cells = [(part[2][o], o) for o in _cell_offsets(part) if part[2][o] > 1]
    return min(cells)[1] if cells else -1


def _individualize(adj, part, v, expected=None):
    """A copy of ``part`` with v split off the front of its cell, the rest
    in order, refined from v up to where its trace leaves ``expected`` (see
    ``_refine``); and its trace."""
    rest = [w for w in _cell(part, part[1][v]) if w != v]
    part = (part[0][:], part[1][:], part[2][:])
    _split(part, part[1][v], [(v,), rest])
    return part, _refine(adj, part, [(v,)], expected)


def _anchor_path(adj, part):
    """Levels (partition, branch cell), child traces and leaf order of the
    path from ``part`` that branches on each target cell's first vertex."""
    path, traces = [], []
    while (o := _target_cell(part)) >= 0:
        path.append((part, _cell(part, o)))
        part, trace = _individualize(adj, part, part[0][o])
        traces.append(trace)
    return path, traces, tuple(part[0])


def _leaf_map(g1, leaf1, g2, leaf2):
    """The map leaf1 -> leaf2 if it is an isomorphism g1 -> g2, else None."""
    mapping = [0] * len(leaf1)
    for a, c in zip(leaf1, leaf2):
        mapping[a] = c
    return tuple(mapping) if isomorphism_failure(g1, g2, mapping) is None else None


def find_mapped_leaf(adj, part, v, traces, depth, accept, gens):
    """Individualize ``v`` in the level-``depth`` partition ``part``; below
    it, the first leaf repeating ``traces`` from ``depth`` on that
    ``accept`` maps to a value other than None gives the result.  A node's
    refinement stops at its first trace entry that differs from
    ``traces[depth]`` (McKay & Piperno 2014), so a rejected node costs only
    its matching prefix.  ``gens`` are automorphisms fixing the vertices
    individualized above ``part``; those that also fix v prune its children."""
    part, trace = _individualize(adj, part, v, traces[depth])
    if trace != traces[depth]:
        return None
    if depth + 1 == len(traces):
        return accept(tuple(part[0]))
    gens = [p for p in gens if p[v] == v]
    cell = _cell(part, _target_cell(part))
    return _first_mapped_child(adj, part, cell, traces, depth + 1, accept, gens, set())


def _first_mapped_child(adj, part, cell, traces, depth, accept, gens, failed):
    """The first result other than None of ``find_mapped_leaf`` on the
    children ``cell`` of ``part``.  ``gens`` fix the vertices individualized
    above ``part``, so a failed child's orbit under them fails: it joins
    ``failed``, whose children are skipped, so the result is the same."""
    for w in cell:
        if w in failed:
            continue
        found = find_mapped_leaf(adj, part, w, traces, depth, accept, gens)
        if found is not None:
            return found
        failed |= orbit_closure(gens, [w])
    return None


def automorphism_group(g, coloring=None, limit=DEFAULT_VERTEX_LIMIT):
    """The colour-preserving automorphism group, with its order: the
    product of the orbit sizes along the anchor path.

    The search takes the anchor path's levels deepest first, so the
    generators that fix each anchor prefix generate that prefix's
    stabilizer: a strong generating set for the base of anchor vertices
    (McKay & Piperno 2014; Seress 2003, section 4.1), of at most
    log2 |Aut| elements.  The group comes with its chain on that base,
    whose orbits multiply to the order with no sift.  Its generators run
    shallowest level first: a chain built blind from them, as from a
    generator file written by ``aut -o``, absorbs them far more cheaply in
    that order than in the order found.  The group records g as the graph
    its generators are automorphisms of: ``_leaf_map`` checked each one."""
    if g.n > limit:
        raise LimitError(f"graph has {g.n} vertices, limit is {limit}")
    part, _ = _root(g, coloring or unit_coloring(g))
    path, traces, leaf = _anchor_path(g.adjacency, part)
    gens, order = [], 1
    for _, orbit in _search_levels(g, path, traces, leaf, gens):
        order *= len(orbit)
    gens.reverse()  # shallowest level first, for chains built blind
    base = [cell[0] for _, cell in path]
    chain = build_chain(g.n, gens, base_prefix=base, known_order=order)
    G = PermGroup._with_chain(g.n, [Permutation(p) for p in gens], chain)
    G.automorphisms_of = g
    return G


def _search_levels(g, path, traces, leaf, gens):
    """Search the anchor path ``path`` of ``g``, whose child traces and leaf
    order are ``traces`` and ``leaf`` (as ``_anchor_path`` returns them),
    deepest level first, appending each automorphism found to ``gens``.
    After each level, yields its depth and the orbit of its branch vertex
    under ``gens``, which then generate that level's prefix stabilizer."""
    accept = partial(_leaf_map, g, leaf, g)
    for depth in reversed(range(len(path))):
        part, cell = path[depth]
        # levels run deepest first, so every generator found so far fixes
        # the branch vertices above this level; each found leaf moves the
        # branch vertex out of its orbit and at least doubles the group
        skip = orbit_closure(gens, cell[:1])
        while (found := _first_mapped_child(
            g.adjacency, part, cell, traces, depth, accept, gens, skip
        )) is not None:
            gens.append(found)
            skip = orbit_closure(gens, skip)
        # every sibling outside the orbit was searched exhaustively or lies
        # in the orbit of one that was, so this is the whole orbit of the
        # prefix stabilizer: |Aut| is the product
        yield depth, orbit_closure(gens, cell[:1])


def isomorphism(g1, g2, limit=DEFAULT_VERTEX_LIMIT):
    """A vertex bijection g1 -> g2 preserving adjacency, or None.

    Searches g2's automorphisms level by level, deepest first, and after
    each level whose prefix traces match g1's anchor path, searches that
    level's siblings for a leaf repeating g1's traces, one per orbit of the
    prefix stabilizer, checking each leaf map edge by edge.  The
    isomorphisms taking g1's anchor prefix onto g2's send the next anchor
    vertex into one such orbit, so None is certified once all fail; the
    first mapped leaf returns at once, before the shallower levels are
    searched.  Below a sibling, the same generators, less those that move
    a node's vertex, skip the orbit of each failed child.  Disconnected
    graphs take the same search, whose work grows with the number of
    interchangeable components: 20 copies of Heawood + K4 against a
    relabeled copy take about 13 000 individualizations.
    """
    if g1.n > limit or g2.n > limit:
        raise LimitError(f"graph size exceeds limit {limit}")
    part1, root1 = _root(g1, unit_coloring(g1))
    part2, root2 = _root(g2, unit_coloring(g2))
    if root1 != root2:
        return None
    _, traces1, leaf1 = _anchor_path(g1.adjacency, part1)
    path2, traces2, leaf2 = _anchor_path(g2.adjacency, part2)
    accept = partial(_leaf_map, g1, leaf1, g2)
    if traces2 == traces1 and (found := accept(leaf2)) is not None:
        return found
    gens = []
    for depth, orbit in _search_levels(g2, path2, traces2, leaf2, gens):
        if traces2[:depth] != traces1[:depth]:  # below a mismatched node
            continue
        part, cell = path2[depth]
        # gens fix the prefix; the branch's own subtree failed already
        found = _first_mapped_child(g2.adjacency, part, cell, traces1, depth,
                                    accept, gens, set(orbit))
        if found is not None:
            return found
    return None
