"""Simple undirected graphs and the derived constructions used everywhere
else in the package: subdivision, line graph, distance-2 components, metric
invariants (girth, diameter, spheres) and the Moore bound.  ``analyze``
takes every invariant, the subdivision diameter included, from BFS rows of
one representative per orbit of a group of automorphisms and of its
higher neighbours; without a group, every vertex is a representative.  The
subdivision diameter is read off the graph's distances, not off S(G).

Adjacency lists are sorted ascending and all traversals run in index order,
so every result is reproducible bit for bit.  The subdivision index layout
(original vertices first, edge vertices after, edge vertices ordered by
lexicographic endpoint pair) is part of the public contract: permutation
files refer to these indices.
"""

import sys
from collections import deque
from dataclasses import asdict, dataclass

from .perms import GroupError, Permutation, PermGroup

# Sentinel for "unreachable" distances and acyclic girth.  Never 0.
INF = sys.maxsize


class GraphError(ValueError):
    """Malformed or unusable graph input."""


class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``.

    ``labels`` is an optional per-vertex provenance tag (original vertex,
    edge vertex, geometry coordinates); it never affects the structure.
    """

    __slots__ = ("n", "adjacency", "labels", "_edges", "_degrees")

    def __init__(self, n, edges, labels=None):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        seen = set()
        adj = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise GraphError(f"duplicate edge {e}")
            seen.add(e)
            adj[e[0]].append(e[1])
            adj[e[1]].append(e[0])
        self.n = n
        self.adjacency = tuple(tuple(sorted(a)) for a in adj)
        self._edges = tuple(sorted(seen))
        self._degrees = tuple(len(a) for a in self.adjacency)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise GraphError("label count does not match vertex count")
        self.labels = labels

    @property
    def m(self):
        return len(self._edges)

    @property
    def edges(self):
        """Edges as (u, v) with u < v, sorted lexicographically."""
        return self._edges

    @property
    def degrees(self):
        return self._degrees

    def degree_range(self):
        if self.n == 0:
            return (0, 0)
        return (min(self._degrees), max(self._degrees))

    def is_regular(self):
        lo, hi = self.degree_range()
        return lo == hi

    def is_connected(self):
        if self.n == 0:
            return True
        return bfs_distances(self, 0).count(INF) == 0

    def is_bipartite(self):
        return self.bipartition() is not None

    def bipartition(self):
        """Two-colouring as (side0, side1) tuples, or None."""
        color = [-1] * self.n
        for s in range(self.n):
            if color[s] >= 0:
                continue
            color[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                cu = color[u]
                for w in self.adjacency[u]:
                    if color[w] < 0:
                        color[w] = 1 - cu
                        queue.append(w)
                    elif color[w] == cu:
                        return None
        side0 = tuple(v for v in range(self.n) if color[v] == 0)
        side1 = tuple(v for v in range(self.n) if color[v] == 1)
        return side0, side1

    def relabeled(self, vertices, labels=None):
        """Induced subgraph on ``vertices`` relabeled to 0..len-1 in the
        given order."""
        pos = {v: i for i, v in enumerate(vertices)}
        edges = []
        for u, v in self._edges:
            if u in pos and v in pos:
                edges.append((pos[u], pos[v]))
        if labels is None and self.labels is not None:
            labels = tuple(self.labels[v] for v in vertices)
        return Graph(len(vertices), edges, labels)

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adjacency == other.adjacency
        )

    def __hash__(self):
        return hash((self.n, self.adjacency))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class SubdivisionMap:
    """Index bookkeeping for a subdivision graph.

    Original vertex i keeps index i; the edge vertex for (u, v) sits at
    n + (lexicographic rank of the edge).  ``graph`` is S(g) itself.
    """

    n: int
    edges: tuple
    graph: Graph

    def edge_vertex(self, u, v):
        e = (u, v) if u < v else (v, u)
        try:
            return self.n + self.edge_rank[e]
        except KeyError:
            raise GraphError(f"no edge {e}") from None

    @property
    def m(self):
        return len(self.edges)

    @property
    def edge_rank(self):
        rank = getattr(self, "_rank_cache", None)
        if rank is None:
            rank = {e: i for i, e in enumerate(self.edges)}
            object.__setattr__(self, "_rank_cache", rank)
        return rank


@dataclass(frozen=True)
class AnalysisReport:
    """Invariant bundle for one graph and its subdivision."""

    n: int
    m: int
    valency_min: int
    valency_max: int
    girth: int
    diameter: int
    subdivision_diameter: int
    delta: int
    bipartite: bool
    moore_bound: int
    is_cage: bool

    def to_dict(self):
        # Key order is the field order; infinite girth serialises as null.
        return {**asdict(self), "girth": None if self.girth == INF else self.girth}


def _bfs_closing(g, src):
    """Hop distances from ``src`` and the shortest closed walk through
    ``src`` that a non-tree edge closes (INF when no edge does)."""
    dist = [INF] * g.n
    parent = [-1] * g.n
    dist[src] = 0
    order = [src]
    walk = INF
    adj = g.adjacency
    for u in order:  # grows while scanned: breadth-first
        du = dist[u]
        for w in adj[u]:
            if dist[w] == INF:
                dist[w] = du + 1
                parent[w] = u
                order.append(w)
            elif w != parent[u] and du + dist[w] + 1 < walk:
                walk = du + dist[w] + 1
    return tuple(dist), walk


def bfs_distances(g, src):
    """Hop distances from ``src``; unreachable vertices get the INF sentinel."""
    if not 0 <= src < g.n:
        raise GraphError(f"source {src} out of range")
    return _bfs_closing(g, src)[0]


def eccentricity(g, src):
    dist = bfs_distances(g, src)
    ecc = max(dist)
    if ecc == INF:
        raise GraphError("graph is not connected")
    return ecc


def diameter(g):
    """Largest hop distance over all pairs; rejects disconnected input."""
    if g.n == 0:
        raise GraphError("empty graph has no diameter")
    return max(eccentricity(g, s) for s in range(g.n))


def girth(g):
    """Length of a shortest cycle, or the INF sentinel for forests: the
    shortest closed walk a non-tree edge closes, over all BFS sources."""
    return min((_bfs_closing(g, s)[1] for s in range(g.n)), default=INF)


def sphere(g, x, i):
    """Vertices at distance exactly ``i`` from ``x``, ascending."""
    dist = bfs_distances(g, x)
    return tuple(v for v in range(g.n) if dist[v] == i)


def subdivision(g):
    """Subdivision graph plus its index map.

    The result has n+m vertices and 2m edges, is bipartite, and doubles the
    girth of the input.
    """
    n = g.n
    edges = g.edges
    sub_edges = []
    for idx, (u, v) in enumerate(edges):
        e = n + idx
        sub_edges.append((u, e))
        sub_edges.append((v, e))
    if g.labels is not None:
        labels = list(g.labels)
    else:
        labels = [f"v{i}" for i in range(n)]
    labels.extend(f"e({u},{v})" for u, v in edges)
    sub = Graph(n + len(edges), sub_edges, labels)
    return sub, SubdivisionMap(n, edges, sub)


def line_graph(g):
    """Graph on the edges of ``g``; two edges are adjacent when they share
    an endpoint.  Vertex order is the lexicographic edge order."""
    edges = g.edges
    rank = {e: i for i, e in enumerate(edges)}
    incident = [[] for _ in range(g.n)]
    for e, (u, v) in enumerate(edges):
        incident[u].append(e)
        incident[v].append(e)
    lg_edges = []
    for u in range(g.n):
        inc = incident[u]
        for i in range(len(inc)):
            for j in range(i + 1, len(inc)):
                lg_edges.append((inc[i], inc[j]))
    labels = tuple(f"e({u},{v})" for u, v in edges)
    return Graph(len(edges), lg_edges, labels)


def distance2_graph(g):
    edges = []
    for u in range(g.n):
        nbrs = set(g.adjacency[u])
        at2 = set()
        for w in g.adjacency[u]:
            at2.update(g.adjacency[w])
        at2.discard(u)
        at2 -= nbrs
        for v in at2:
            if v > u:
                edges.append((u, v))
    return Graph(g.n, edges, g.labels)


def distance2_components(g):
    """The two connected components of the distance-2 graph of a connected
    bipartite graph, each relabeled on its sorted vertex set.

    The component containing vertex 0 comes first.  For a subdivision graph
    this is the original graph; the second component is its line graph.
    """
    if not g.is_connected():
        raise GraphError("graph must be connected")
    if not g.is_bipartite():
        raise GraphError("graph must be bipartite")
    d2 = distance2_graph(g)
    comps = components(d2)
    if len(comps) < 2:
        raise GraphError("distance-2 graph is connected; expected two parts")
    if len(comps) > 2:
        raise GraphError("distance-2 graph has more than two components")
    return d2.relabeled(comps[0]), d2.relabeled(comps[1])


def components(g):
    """Vertex sets of the connected components, each ascending, in order
    of their smallest vertex."""
    seen = [False] * g.n
    out = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        for u in comp:  # grows while scanned: breadth-first
            for w in g.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        out.append(sorted(comp))
    return out


def isomorphism_failure(g, h, images):
    """First vertex of ``g`` whose neighbourhood ``images`` does not map
    onto the neighbourhood of its image in ``h``, or None when the bijection
    ``images`` is an isomorphism g -> h (an automorphism when h is g)."""
    adj = h.adjacency
    for u, nbrs in enumerate(g.adjacency):
        if tuple(sorted(map(images.__getitem__, nbrs))) != adj[images[u]]:
            return u
    return None


def lift_to_subdivision(p, smap):
    """Lift an automorphism of the base graph to its subdivision.

    Agrees with ``p`` on original vertices and maps the edge vertex of
    (u, v) to the edge vertex of (p(u), p(v)).  Rejects permutations that
    do not preserve the edge set.
    """
    imgs = p.images if isinstance(p, Permutation) else tuple(p)
    if len(imgs) != smap.n:
        raise GroupError(
            f"degree {len(imgs)} does not match vertex count {smap.n}"
        )
    rank = smap.edge_rank
    out = list(imgs)
    n = smap.n
    for u, v in smap.edges:
        a, b = imgs[u], imgs[v]
        e = (a, b) if a < b else (b, a)
        idx = rank.get(e)
        if idx is None:
            raise GroupError(
                f"permutation does not preserve edges: ({u},{v}) -> {e}"
            )
        out.append(n + idx)
    return Permutation(out)


def lift_group(G, smap):
    """Lift every generator of ``G`` to the subdivision graph.  The lift is
    faithful (restricting to the original vertices recovers the element),
    so the lifted group carries the order of ``G``.  It records S(g): each
    lift is an automorphism, as ``lift_to_subdivision`` rejects any
    generator that does not map edges to edges."""
    gens = [lift_to_subdivision(p, smap) for p in G.generators]
    lifted = PermGroup(smap.n + smap.m, gens, order=G.order())
    lifted.automorphisms_of = smap.graph
    return lifted


def moore_bound(k, g):
    """Minimum order of a k-regular graph of girth g (two parity branches)."""
    if k < 2:
        raise GraphError("valency must be at least 2")
    if g < 3:
        raise GraphError("girth must be at least 3")
    if g % 2 == 1:
        total = 1
        term = k
        for _ in range((g - 1) // 2):
            total += term
            term *= k - 1
        return total
    total = 0
    term = 1
    for _ in range(g // 2):
        total += term
        term *= k - 1
    return 2 * total


def moore_and_cage(g, gi):
    """Moore bound for g's valency and girth ``gi``, and whether g attains
    it; (None, False) unless g is regular of valency >= 2 with a cycle."""
    lo, hi = g.degree_range()
    if lo != hi or lo < 2 or gi == INF:
        return None, False
    mb = moore_bound(lo, gi)
    return mb, g.n == mb


def check_generators_are_automorphisms(g, G):
    """Raise GroupError unless ``G`` acts on the vertices of ``g`` and every
    generator is an automorphism of ``g``; at once for the very graph
    ``G.automorphisms_of`` records, and for no other, not even a copy."""
    if G.automorphisms_of is g:
        return
    if G.degree != g.n:
        raise GroupError(f"group degree {G.degree} does not match graph n={g.n}")
    for p in G.generators:
        u = isomorphism_failure(g, g, p.images)
        if u is not None:
            raise GroupError(
                f"generator {p!r} is not an automorphism (fails at vertex {u})"
            )


def analyze(g, group=None):
    """Full invariant bundle: sizes, valency, girth, diameter, subdivision
    diameter, delta, bipartiteness, Moore bound and cage flag.

    Every invariant is fixed by automorphisms, so BFS rows are needed only
    for one representative r of each orbit of ``group`` (a group of
    automorphisms of g; without one, every vertex is its own
    representative) and for r's neighbours above r.  The girth is the
    least closed walk a non-tree edge closes from those sources: each walk
    contains a cycle, and some representative lies on a shortest cycle.  d
    is the largest eccentricity among them.  Connectivity and bipartiteness are
    read off the row of vertex 0, a representative as the least point of
    its orbit (no INF, and no edge joins two vertices at equal distance
    from vertex 0).

    D = diam S(g) comes from g's own distances.  In S(g) a vertex v and the
    edge vertex of ab lie 2 min(d(v, a), d(v, b)) + 1 apart, and two edge
    vertices 2 + 2 * (least endpoint distance).  So D is 2d + 2 when two
    edges have all four endpoint distances equal to d, else 2d + 1 when
    some vertex is at distance d from both ends of an edge, and 2d if not.
    Both tests are fixed by automorphisms.  Among the images of an edge,
    one whose lower end is least overall has there the least point of that
    end's orbit, its representative r, else an automorphism would take it
    to an image with a lower end.  So scanning the edges rb with b > r
    covers every edge, and only those b need BFS rows besides the
    representatives.
    """
    if group is None:
        reps = range(g.n)
    else:
        check_generators_are_automorphisms(g, group)
        reps = {orbit[0] for orbit in group.orbits()}
    adj = g.adjacency
    edges = [(r, b) for r in reps for b in adj[r] if b > r]
    sources = {b for _, b in edges}.union(reps)
    passes = {s: _bfs_closing(g, s) for s in sources}
    if g.n == 0 or INF in passes[0][0]:
        raise GraphError("analysis requires a connected nonempty graph")
    gi = min(walk for _, walk in passes.values())
    lo, hi = g.degree_range()
    d = max(max(row) for row, _ in passes.values())
    far = {
        s: frozenset(v for v, x in enumerate(row) if x == d)
        for s, (row, _) in passes.items()
    }
    dd = 2 * d
    for both in (far[a] & far[b] for a, b in edges):
        if any(w in both for u in both for w in adj[u]):
            dd = 2 * d + 2
            break
        if both:
            dd = 2 * d + 1
    mb, cage = moore_and_cage(g, gi)
    row0 = passes[0][0]
    return AnalysisReport(
        n=g.n,
        m=g.m,
        valency_min=lo,
        valency_max=hi,
        girth=gi,
        diameter=d,
        subdivision_diameter=dd,
        delta=dd - 2 * d,
        bipartite=all(row0[a] != row0[b] for a, b in g.edges),
        moore_bound=mb,
        is_cage=cage,
    )


def write_edge_list(g, path):
    """Text edge list: first line "n m", then one "u v" line per edge with
    u < v, sorted lexicographically, LF endings."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for u, v in g.edges:
            fh.write(f"{u} {v}\n")


def read_edge_list(path):
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise GraphError("edge list header must be 'n m'")
        n, m = int(header[0]), int(header[1])
        edges = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphError(f"bad edge line: {line!r}")
            u, v = int(parts[0]), int(parts[1])
            if not 0 <= u < v < n:
                raise GraphError(f"edge line must satisfy 0 <= u < v < n: {line!r}")
            edges.append((u, v))
    if len(edges) != m:
        raise GraphError(f"expected {m} edges, found {len(edges)}")
    return Graph(n, edges)


def write_labels(g, path):
    """Sidecar label file: one "index<TAB>label" line per vertex."""
    with open(path, "w", newline="\n") as fh:
        for i in range(g.n):
            label = g.labels[i] if g.labels is not None else f"v{i}"
            fh.write(f"{i}\t{label}\n")
