"""Decision procedures: local (G,s)-distance transitivity, s-arc
transitivity, the three-clause wreath condition on complete bipartite
graphs, cage certification, and the complete-graph criteria.

Local distance transitivity is decided per orbit representative only: the
stabilizers of two vertices in the same orbit are conjugate, so their orbit
counts on distance spheres agree exactly (not heuristically).  s-arc
transitivity rests on the same fact: the orbits on s-arcs are counted by
orbit-stabilizer down a tree of arc stabilizers, one node per orbit
representative, and the arcs themselves are counted but never listed.
"""

from dataclasses import asdict, dataclass, replace
from itertools import product

from .autgrp import LimitError
from .geometry import complete, complete_bipartite
from .graphs import (
    INF,
    GraphError,
    analyze,
    bfs_distances,
    check_generators_are_automorphisms,
    girth,
    lift_group,
    moore_and_cage,
    subdivision,
)
from .perms import (
    GroupError,
    PermGroup,
    Permutation,
    on_tuples,
    orbit_closure,
    orbit_partition,
    orbit_sizes_within,
)

# girths that can occur for valency >= 3 (generalised polygon spectrum
# plus the degenerate small cases)
CAGE_GIRTHS = (3, 4, 5, 6, 8, 12)


@dataclass(frozen=True)
class SphereOrbits:
    depth: int
    sphere_size: int
    orbit_sizes: tuple

    @property
    def transitive(self):
        return len(self.orbit_sizes) == 1


@dataclass(frozen=True)
class RepReport:
    vertex: int
    eccentricity: int
    stabilizer_order: int
    spheres: tuple  # SphereOrbits per depth 1..min(s, ecc)


@dataclass(frozen=True)
class LDTResult:
    """Verdict of the local (G,s)-distance transitivity test, with the
    per-representative orbit counts on every tested sphere."""

    s: int
    verdict: bool
    reps: tuple
    first_failure: tuple = None  # (vertex, depth, orbit_sizes) or None

    def at_depth(self, s):
        """The result of the same test at depth ``s`` <= ``self.s``: the
        spheres are a prefix of the deeper run's, so nothing is recomputed."""
        if not 1 <= s <= self.s:
            raise ValueError(f"depth {s} outside 1..{self.s}")
        return _ldt_result(s, [replace(r, spheres=r.spheres[:s]) for r in self.reps])

    def to_dict(self):
        return {
            "s": self.s,
            "verdict": self.verdict,
            "first_failure": (
                None
                if self.first_failure is None
                else {
                    "vertex": self.first_failure[0],
                    "depth": self.first_failure[1],
                    "orbit_sizes": list(self.first_failure[2]),
                }
            ),
            "representatives": [
                {
                    "vertex": r.vertex,
                    "eccentricity": r.eccentricity,
                    "stabilizer_order": r.stabilizer_order,
                    "orbit_sizes": {
                        str(s.depth): list(s.orbit_sizes) for s in r.spheres
                    },
                }
                for r in self.reps
            ],
        }


def _ldt_result(s, reps):
    """LDTResult whose verdict and first failure are read off the spheres
    (representatives in order, depths ascending)."""
    failures = (
        (r.vertex, sp.depth, sp.orbit_sizes)
        for r in reps
        for sp in r.spheres
        if not sp.transitive
    )
    first = next(failures, None)
    return LDTResult(s, first is None, tuple(reps), first)


def check_local_sdt(gamma, G, s):
    """Is ``gamma`` locally (G,s)-distance transitive?

    For the least point x of each G-orbit, computes the orbits of the
    stabilizer G_x on every sphere at depth 1..min(s, ecc(x)); depths past
    the eccentricity have empty spheres and are skipped, never failed.
    """
    if s < 1:
        raise ValueError(f"depth must be at least 1, got {s}")
    check_generators_are_automorphisms(gamma, G)
    reps = []
    for x in [orbit[0] for orbit in G.orbits()]:
        dist = bfs_distances(gamma, x)
        ecc = max(dist)
        if ecc == INF:
            raise GraphError("graph must be connected")
        stab = G.stabilizer(x)
        spheres = []
        for depth in range(1, min(s, ecc) + 1):
            pts = [v for v in range(gamma.n) if dist[v] == depth]
            sizes = tuple(orbit_sizes_within(stab, pts))
            spheres.append(SphereOrbits(depth, len(pts), sizes))
        reps.append(RepReport(x, ecc, stab.order(), tuple(spheres)))
    return _ldt_result(s, reps)


@dataclass(frozen=True)
class ArcTransResult:
    s: int
    arc_count: int
    orbit_count: int
    all_geodesic: bool

    @property
    def transitive(self):
        return self.orbit_count == 1

    def to_dict(self):
        return {
            "s": self.s,
            "arc_count": self.arc_count,
            "orbit_count": self.orbit_count,
            "transitive": self.transitive,
            "all_geodesic": self.all_geodesic,
        }


def _count_arcs(adj, s, cap):
    """Number of s-arcs, counted as non-backtracking walks per directed
    edge; more than ``cap`` raises LimitError.  A count is held at cap + 1
    once it passes cap: a held term makes its sum pass cap too, so every
    held count is min(true count, cap + 1) and the numbers stay small."""
    held = max(cap, 0) + 1
    # walks[v][u]: the walks of the current length whose last step is u -> v
    walks = [dict.fromkeys(nbrs, 1) for nbrs in adj]
    for _ in range(s - 1):
        into = [sum(w.values()) for w in walks]
        walks = [
            {u: min(into[u] - walks[u][v], held) for u in nbrs}
            for v, nbrs in enumerate(adj)
        ]
    total = sum(sum(w.values()) for w in walks)
    if total >= held:
        raise LimitError(f"more than {cap} arcs of length {s}")
    return total


def check_arc_transitive(g, G, s, cap=10**7):
    """Does G act transitively on the s-arcs of g?

    The arcs are counted, never listed.  Orbits are counted by
    orbit-stabilizer down a tree of arc stabilizers (Seress 2003, ch. 4):
    the G-orbits on (k+1)-arcs are, for each representative r of the
    orbits on k-arcs, the orbits of the pointwise stabilizer G_r on the
    extensions N(r_k) - {r_(k-1)}.  The tree starts at the least point of
    each vertex orbit, extends a node by the least point w of each orbit of
    its stabilizer H and descends into H_w; an orbit of size 1 passes H
    down unchanged.  ``orbit_count`` is the number of leaves at depth s.
    Distance is G-invariant, so ``all_geodesic`` is read off the leaves.

    Every stabilizer below G trusts its chain's known order.  A stabilizer
    that came out too small has more orbits than the true one, so an
    error can only add orbits: a false "not transitive", never a false
    pass.
    """
    check_generators_are_automorphisms(g, G)
    if s < 1:
        raise ValueError(f"arc length must be at least 1, got {s}")
    adj = g.adjacency
    arc_count = _count_arcs(adj, s, cap)
    # (first vertex, previous vertex, last vertex, length, arc stabilizer)
    todo = [
        (o[0], -1, o[0], 0, G if len(o) == 1 else G.stabilizer(o[0]))
        for o in G.orbits()
    ]
    leaves = []
    while todo:
        first, prev, last, k, H = todo.pop()
        if k == s:
            leaves.append((first, last))
            continue
        ext = [w for w in adj[last] if w != prev]
        for orbit in orbit_partition(H.raw_generators, ext):
            w = min(orbit)
            down = H if k + 1 == s or len(orbit) == 1 else H.stabilizer(w)
            todo.append((first, last, w, k + 1, down))
    dist = {x: bfs_distances(g, x) for x in {first for first, _ in leaves}}
    all_geo = all(dist[first][last] == s for first, last in leaves)
    return ArcTransResult(s, arc_count, len(leaves), all_geo)


@dataclass(frozen=True)
class StarClause:
    holds: bool
    detail: str


@dataclass(frozen=True)
class StarReport:
    """Per-clause verdict of the wreath-product condition on K_{n,n}."""

    clause_i: StarClause
    clause_ii: StarClause
    clause_iii: StarClause
    satisfied: bool

    def to_dict(self):
        return asdict(self)


def _bipart_kernel(G, n):
    """The subgroup of G preserving each side of K_{n,n}.  ``restrict``
    checks that the sides are blocks; the kernel of G's action on them is
    generated by the Schreier generators u p v^-1, for p a generator of G
    and u, v in the transversal {1, tau}, where tau is a side-swapping
    generator (1 when none swaps)."""
    sides = (tuple(range(n)), tuple(range(n, 2 * n)))
    try:
        G.restrict(sides)
    except GroupError:
        raise GroupError("group does not preserve the bipartition structure") from None
    ident = Permutation.identity(G.degree)
    tau = next((p for p in G.generators if p.images[0] >= n), ident)
    transversal = (ident, tau)  # indexed by "maps side 1 to side 2"
    return PermGroup(
        G.degree,
        [
            u * p * transversal[(u * p).images[0] >= n].inverse()
            for u in transversal
            for p in G.generators
        ],
    )


def condition_star(G, n, representative=0):
    """The three-clause condition on subgroups of the wreath-type
    automorphism group of K_{n,n}.

    (i)   the bipart-preserving component is 2-transitive on each side;
    (ii)  the stabilizer of u1 in side 1 is transitive on
          (side1 - {u1}) x side2;
    (iii) the setwise stabilizer of {u1, u2} swaps u1 and u2 and is
          transitive on the pairs avoiding both.  It is obtained as the
          point stabilizer of the corresponding edge vertex in the lifted
          subdivision action, never by backtracking.
    """
    if n < 2:
        raise GroupError("condition needs n >= 2")
    if G.degree != 2 * n:
        raise GroupError(f"group degree {G.degree}, expected {2 * n}")
    kernel = _bipart_kernel(G, n)

    side1 = list(range(n))
    side2 = list(range(n, 2 * n))
    comp1 = kernel.restrict(side1)
    comp2 = kernel.restrict(side2)
    two_trans1 = comp1.is_k_transitive(2)
    two_trans2 = comp2.is_k_transitive(2)
    clause_i = StarClause(
        two_trans1 and two_trans2,
        f"component orders {comp1.order()} and {comp2.order()}, "
        f"2-transitive: {two_trans1}/{two_trans2}",
    )

    u1 = side1[representative]
    stab_u1 = G.stabilizer(u1)
    pair_target = (n - 1) * n
    start = (next(v for v in side1 if v != u1), side2[0])
    pairs = set(product(set(side1) - {u1}, side2))
    pairs_seen = len(
        orbit_closure(stab_u1.raw_generators, [start], on_tuples, within=pairs)
    )
    clause_ii = StarClause(
        pairs_seen == pair_target,
        f"stabilizer of {u1} reaches {pairs_seen} of {pair_target} ordered pairs",
    )

    kg = complete_bipartite(n, n)
    sub, smap = subdivision(kg)
    Glift = lift_group(G, smap)
    u2 = side2[representative]
    e0 = smap.edge_vertex(u1, u2)
    stab_e = Glift.stabilizer(e0)
    orb_u1 = set(stab_e.orbit(u1))
    interchange = orb_u1 == {u1, u2}
    others = [
        smap.edge_vertex(v1, v2)
        for v1 in side1
        if v1 != u1
        for v2 in side2
        if v2 != u2
    ]
    try:
        sizes = orbit_sizes_within(stab_e, others)
        pair_trans = sizes == [(n - 1) * (n - 1)]
    except GroupError:
        pair_trans = False
        sizes = None
    clause_iii = StarClause(
        interchange and pair_trans,
        f"interchange: {interchange}, avoiding-pair orbit sizes: {sizes}",
    )
    return StarReport(
        clause_i,
        clause_ii,
        clause_iii,
        clause_i.holds and clause_ii.holds and clause_iii.holds,
    )


@dataclass(frozen=True)
class CageReport:
    regular: bool
    valency: int
    girth: int
    moore: int
    is_cage: bool
    girth_in_spectrum: bool

    def to_dict(self):
        return {
            "regular": self.regular,
            "valency": self.valency,
            "girth": None if self.girth == INF else self.girth,
            "moore_bound": self.moore,
            "is_cage": self.is_cage,
            "girth_in_spectrum": self.girth_in_spectrum,
        }


def cage_certificate(g):
    """Regularity, girth, Moore bound and the cage verdict, plus whether
    the girth lies in the admissible spectrum {3,4,5,6,8,12}."""
    gi = girth(g)
    mb, cage = moore_and_cage(g, gi)
    return CageReport(
        regular=g.is_regular(),
        valency=g.degree_range()[1],
        girth=gi,
        moore=mb,
        is_cage=cage,
        girth_in_spectrum=gi in CAGE_GIRTHS,
    )


@dataclass(frozen=True)
class CompleteGraphReport:
    """Both sides of the complete-graph equivalences, computed
    independently: the subdivision checks versus the transitivity-degree
    conditions."""

    n: int
    group_order: int
    ldt_half: bool  # locally (G,2)-distance transitive on S(K_n)
    three_transitive: bool
    ldt_full: bool  # locally G-distance transitive on S(K_n)
    four_transitive: bool
    exceptional_pair: bool  # n=9 with the order-1512 3-transitive group
    half_agrees: bool
    full_agrees: bool

    def to_dict(self):
        return {
            "n": self.n,
            "group_order": self.group_order,
            "ldt_depth2": self.ldt_half,
            "three_transitive": self.three_transitive,
            "ldt_full_depth": self.ldt_full,
            "four_transitive": self.four_transitive,
            "exceptional_pair": self.exceptional_pair,
            "depth2_equivalence_holds": self.half_agrees,
            "full_depth_equivalence_holds": self.full_agrees,
        }


def complete_graph_criteria(n, G):
    """Check the two complete-graph equivalences instance-wise.

    (A) S(K_n) locally (G,2)-distance transitive  <=>  G 3-transitive;
    (B) S(K_n) locally G-distance transitive      <=>  G 4-transitive, or
        n = 9 and G is the 3-transitive group of order 1512.

    (B) as stated has the counterexample (5, A5): A5 is not 4-transitive,
    yet S(K5) is locally A5-distance transitive.  The exact criterion is
    that G is 3-transitive and the setwise stabilizer G_{a,b} is
    transitive on the 2-subsets of the other n-2 points; for n = 5 those
    are the complements of single points, so 3-transitivity suffices.
    ``full_agrees`` reports agreement with (B) as stated, so it is False
    for (5, A5).
    """
    if n < 4:
        raise GroupError("complete-graph check needs n >= 4")
    if G.degree != n:
        raise GroupError(f"group degree {G.degree}, expected {n}")
    kn = complete(n)
    sub, smap = subdivision(kn)
    Glift = lift_group(G, smap)
    ldt = check_local_sdt(sub, Glift, analyze(kn).subdivision_diameter)
    ldt_half = ldt.at_depth(2).verdict
    ldt_full = ldt.verdict
    three = G.is_k_transitive(3)
    four = G.is_k_transitive(4)
    exceptional = n == 9 and G.order() == 1512 and three
    return CompleteGraphReport(
        n=n,
        group_order=G.order(),
        ldt_half=ldt_half,
        three_transitive=three,
        ldt_full=ldt_full,
        four_transitive=four,
        exceptional_pair=exceptional,
        half_agrees=ldt_half == three,
        full_agrees=ldt_full == (four or exceptional),
    )


def diameter_bounds_check(reports):
    """Every positive valency->=3 case must have d <= 6 and D <= 12.

    ``reports`` are row-report dicts from the verification harness; rows
    with valency 2 (cycles) are excluded by the valency filter.  An empty
    input passes vacuously.
    """
    failures = []
    checked = 0
    for rep in reports:
        graph = rep["graph"]
        if graph["valency_max"] < 3 or not rep["passed"]:
            continue
        checked += 1
        if graph["diameter"] > 6 or graph["subdivision_diameter"] > 12:
            failures.append(rep["row"])
    return {
        "checked": checked,
        "holds": not failures,
        "violations": failures,
    }
