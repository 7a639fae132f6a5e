import hashlib
import random
from itertools import combinations, cycle, permutations, repeat

import pytest

from locdt import perms
from locdt.geometry import (
    chamber_model_w32,
    complete_bipartite,
    hoffman_singleton,
    incidence_hexagon,
    incidence_pg2,
    incidence_w3,
    mobius_subgroups,
)
from locdt.autgrp import automorphism_group
from locdt.graphs import Graph, bfs_distances, lift_group, subdivision
from locdt.perms import (
    GroupError,
    PermGroup,
    Permutation,
    _Transversal,
    alternating_group,
    build_chain,
    cyclic_group,
    dihedral_group,
    on_sets,
    on_tuples,
    orbit_closure,
    orbit_partition,
    orbit_sizes_within,
    read_generators,
    symmetric_group,
    write_generators,
)


def test_permutation_validation():
    with pytest.raises(GroupError):
        Permutation([0, 0, 1])
    p = Permutation([1, 2, 0])
    assert p(0) == 1
    assert (p * p.inverse()).is_identity()


def test_composition_order():
    p = Permutation([1, 0, 2])
    q = Permutation([0, 2, 1])
    # p then q: 0 -> 1 -> 2
    assert (p * q)(0) == 2


def test_from_cycles():
    p = Permutation.from_cycles(5, [(0, 1, 2)])
    assert p.images == (1, 2, 0, 3, 4)
    assert p.cycles() == ((0, 1, 2),)


def test_group_orders_standard():
    assert symmetric_group(5).order() == 120
    assert alternating_group(5).order() == 60
    assert alternating_group(6).order() == 360
    assert cyclic_group(8).order() == 8
    assert dihedral_group(7).order() == 14
    assert PermGroup.trivial(4).order() == 1


def test_orbit_basics():
    triv = PermGroup.trivial(5)
    assert triv.orbit(3) == (3,)
    g = PermGroup(4, [Permutation.from_cycles(4, [(0, 1), (2, 3)])])
    assert g.orbit(0) == (0, 1)
    assert cyclic_group(8).orbit(2) == tuple(range(8))
    from locdt.geometry import petersen_s5

    _, s5 = petersen_s5()
    for x in range(10):
        assert s5.orbit(x) == tuple(range(10))


def test_orbits_partition():
    triv = PermGroup.trivial(5)
    assert tuple(map(len, triv.orbits())) == (1, 1, 1, 1, 1)
    part = dihedral_group(6).orbits()
    assert tuple(map(len, part)) == (6,)


def test_orbits_are_ascending_tuples_by_least_point():
    G = PermGroup(6, [Permutation.from_cycles(6, [(4, 1), (5, 0, 3)])])
    assert G.orbits() == ((0, 3, 5), (1, 4), (2,))


def test_fixed_point_stabilizer_is_a_chain_tail():
    # a forced base point that nothing moves keeps its level, of orbit {4}
    s3 = [Permutation.from_cycles(5, [(0, 1, 2)]), Permutation.from_cycles(5, [(0, 1)])]
    chain = build_chain(5, [p.images for p in s3], base_prefix=(4,))
    assert chain.base[0] == 4 and list(chain.trans[0]) == [4]
    assert chain.order() == 6
    assert PermGroup(5, s3).stabilizer(4).order() == 6


def _explicit_transversal(deg, gens, root):
    """The oracle: every coset representative formed up front by BFS."""
    trans = {root: tuple(range(deg))}
    todo = [root]
    for a in todo:
        for s in gens:
            b = s[a]
            if b not in trans:
                trans[b] = tuple(map(s.__getitem__, trans[a]))
                todo.append(b)
    return trans


def _assert_transversal_matches(deg, gens, root, rng):
    oracle = _explicit_transversal(deg, gens, root)
    t = _Transversal(deg, gens, root)
    assert len(t) == len(oracle)
    assert list(t) == list(oracle)
    outside = [p for p in range(deg) if p not in oracle]
    assert all(p not in t and t.inverse(p) is None for p in outside)
    # memoised ancestors are met in any read order
    points = list(oracle)
    rng.shuffle(points)
    assert all(t[p] == oracle[p] for p in points)
    assert [(p, t[p]) for p in t] == list(oracle.items())
    # the inverse is memoised on first read, and only for orbit points
    rng.shuffle(points)
    assert all(t.inverse(p) == perms._inv(oracle[p]) for p in points)
    assert t.invs == {p: perms._inv(oracle[p]) for p in oracle}


def test_schreier_vector_transversal_matches_explicit_bfs():
    rng = random.Random(20111103)
    for _ in range(200):
        deg = rng.randint(1, 30)
        gens = []
        for _ in range(rng.randint(0, 3)):
            g = list(range(deg))
            rng.shuffle(g)
            gens.append(tuple(g))
        _assert_transversal_matches(deg, gens, rng.randrange(deg), rng)


def test_schreier_vector_of_a_long_cycle_is_read_without_recursion():
    # the Schreier tree of one 2000-cycle is a path of depth 1999
    deg = 2000
    cycle = tuple(range(1, deg)) + (0,)
    t = _Transversal(deg, [cycle], 0)
    assert t[deg - 1] == tuple(range(deg - 1, deg)) + tuple(range(deg - 1))
    _assert_transversal_matches(deg, [cycle], 0, random.Random(1))
    assert cyclic_group(deg).order() == deg


def test_extended_schreier_vector_keeps_its_memoised_representatives():
    rng = random.Random(5)
    for _ in range(100):
        deg = rng.randint(2, 20)
        gens = [tuple(rng.sample(range(deg), deg)) for _ in range(3)]
        root = rng.randrange(deg)
        t = _Transversal(deg, gens[:1], root)
        old = {p: t[p] for p in t}
        inverses = {p: t.inverse(p) for p in t}
        for k in (2, 3):
            t.extend(gens[:k], gens[k - 1])
            assert set(t) == orbit_closure(gens[:k], [root])
        assert list(t)[: len(old)] == list(old)
        assert all(t.reps[p] is u and t.invs[p] is inverses[p] for p, u in old.items())
        for p in t:
            u = t[p]
            assert u[root] == p and perms._mul(u, t.inverse(p)) == tuple(range(deg))


def test_products_and_inverses_on_degrees_below_three():
    # itemgetter gives a scalar for one index and raises for none, so these
    # degrees take the other branch of the product kernel
    for deg in (0, 1, 2):
        elements = [Permutation(images) for images in permutations(range(deg))]
        for p in elements:
            assert p.inverse() * p == p * p.inverse() == Permutation.identity(deg)
            assert type(p.inverse().images) is tuple
            for q in elements:
                pq = p * q
                assert type(pq.images) is tuple
                assert pq.images == tuple(q.images[i] for i in p.images)
    assert perms._mul((), ()) == () and perms._mul((0,), (0,)) == (0,)
    assert perms._mul((1, 0), (1, 0)) == (0, 1)


def test_trivial_group_of_degree_one():
    G = PermGroup.trivial(1)
    assert G.order() == 1
    assert [p.images for p in G.elements()] == [(0,)]
    assert G.stabilizer(0).order() == 1 and G.orbits() == ((0,),)


def _relabeled(g, seed):
    """g with its vertices renamed by a permutation drawn from ``random()``
    only, whose stream a seed fixes on every Python version."""
    rng = random.Random(seed)
    perm = sorted(range(g.n), key=lambda _: rng.random())
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _lifted_aut(g):
    _, smap = subdivision(g)
    return lift_group(automorphism_group(g), smap)


# The stabilizer of an edge vertex of S(HoSi), relabeled by seed 1.  Its
# first strong generators fix both ends of the edge: built by the pair scan
# alone, the chain completes that index-2 subgroup first, in 124 sifts and
# 442 products, before a level-0 Schreier generator reverses the edge.
HOSI_EDGE_STABILIZER_PRODUCTS = 131
HOSI_EDGE_STABILIZER_SHA256 = (
    "39dad9a55d2181137f1c98ee805fbaf20776ab7141f0abbf44906d246c0a3ca0"
)


def _hosi_edge_stabilizer():
    lifted = _lifted_aut(_relabeled(hoffman_singleton(), 1))
    assert lifted.orbits()[1][0] == 50
    return lifted, 50


def test_seeded_edge_stabilizer_product_count_is_pinned(monkeypatch):
    lifted, x = _hosi_edge_stabilizer()
    products = []
    real = perms._mul

    def counted(p, q):
        products.append(None)
        return real(p, q)

    monkeypatch.setattr(perms, "_mul", counted)
    stab = lifted.stabilizer(x)
    assert len(products) == HOSI_EDGE_STABILIZER_PRODUCTS
    assert stab.order() == 252000 // 175


def test_seeded_stabilizer_chain_is_pinned_and_ignores_the_global_rng(monkeypatch):
    lifted, x = _hosi_edge_stabilizer()

    def digest():
        chain = lifted.stabilizer(x).chain()
        return hashlib.sha256(repr((chain.base, chain.sgd)).encode()).hexdigest()

    state = random.getstate()
    first = digest()
    assert random.getstate() == state
    for seed in (0, 20111103):
        random.seed(seed)
        assert digest() == first
    random.setstate(state)
    assert first == HOSI_EDGE_STABILIZER_SHA256
    # the pin does see the local stream: another seed gives another chain
    monkeypatch.setattr(perms, "_SEED", 1)
    assert digest() != first


def test_seeded_build_falls_back_to_the_pair_scan_on_an_unreachable_order(
    monkeypatch,
):
    """Random elements never reach twice the true order; after a run of
    identity residues the pair scan completes the chain and the build
    raises with the true order."""
    lifted, x = _hosi_edge_stabilizer()
    draws = []
    real = perms._random_elements

    def counted(gens, rng):
        for r in real(gens, rng):
            draws.append(None)
            yield r

    monkeypatch.setattr(perms, "_random_elements", counted)
    with pytest.raises(GroupError, match="chain has order 252000,"):
        build_chain(
            lifted.degree, lifted.raw_generators, base_prefix=(x,),
            known_order=2 * 252000,
        )
    assert len(draws) >= perms._MISSES


@pytest.mark.parametrize(
    "stream",
    [lambda gens, rng: cycle(gens), lambda gens, rng: repeat(tuple(range(len(gens[0]))))],
    ids=["generators", "identity"],
)
def test_pair_scan_completes_a_chain_that_seeding_left_short(stream, monkeypatch):
    """Seeding with the generators themselves, in turn, adds a few strong
    generators and then only identity residues, and seeding with the
    identity adds none; either way the pair scan resumes, on the level it
    stopped at or the deepest one seeding changed, and reaches the known
    order."""
    monkeypatch.setattr(perms, "_random_elements", stream)
    for g in (hoffman_singleton(), incidence_pg2(4).graph):
        lifted = _lifted_aut(_relabeled(g, 1))
        for orbit in lifted.orbits():
            stab = lifted.stabilizer(orbit[0])
            assert stab.order() * len(orbit) == lifted.order()
            assert all(p[orbit[0]] == orbit[0] for p in stab.raw_generators)


@pytest.mark.parametrize(
    "make,seeded",
    [
        (hoffman_singleton, 1),
        (lambda: incidence_pg2(4).graph, 1),
        (lambda: complete_bipartite(4, 4), 0),
    ],
    ids=["hosi", "pg24", "k44"],
)
def test_stabilizers_of_lifted_groups_agree_with_sympy(make, seeded, monkeypatch):
    """Every orbit representative x of the lifted group: |G_x| |x^G| = |G|,
    every strong generator of G_x fixes x and lies in G, and G_x has the
    orbit sizes of sympy's stabilizer on every sphere around x.  On this
    relabeling one HoSi build and one PG(2,4) build seed; K_{4,4}'s never
    do."""
    pytest.importorskip("sympy")
    from sympy.combinatorics import Permutation as SPerm, PermutationGroup

    g = _relabeled(make(), 4)
    sub, _ = subdivision(g)
    lifted = _lifted_aut(g)
    ident = tuple(range(lifted.degree))
    oracle = PermutationGroup([SPerm(list(p)) for p in lifted.raw_generators])
    seeds = []
    real = perms._random_elements

    def counted(gens, rng):
        seeds.append(None)
        return real(gens, rng)

    monkeypatch.setattr(perms, "_random_elements", counted)
    for orbit in lifted.orbits():
        x = orbit[0]
        stab = lifted.stabilizer(x)
        assert stab.order() * len(orbit) == lifted.order()
        for level in stab.chain().sgd:
            for p in level:
                assert p[x] == x and lifted.chain().sift(p)[0] == ident
        dist = bfs_distances(sub, x)
        theirs = oracle.stabilizer(x).orbits()
        for depth in range(1, max(dist) + 1):
            sphere = {v for v in range(sub.n) if dist[v] == depth}
            want = sorted(len(o) for o in theirs if o <= sphere)
            assert orbit_sizes_within(stab, sorted(sphere)) == want, (x, depth)
    assert len(seeds) == seeded


def test_stabilizer_chain_forms_only_the_representatives_it_reads(monkeypatch):
    """The stabilizer chain of a point of S(H(2)), as ``stabilizer`` builds
    it: the known order ends the build before any sift from level 0, so
    that level forms only its root, and pairs whose u_beta s is a coset
    representative are skipped unformed.  The product counts and the
    representatives formed per level are pinned; with every representative
    formed up front the same builds take 113 and 213 products, and with
    every pair formed 73 and 34."""
    g = incidence_hexagon(2).graph
    G = automorphism_group(g)
    _, smap = subdivision(g)
    lifted = lift_group(G, smap)
    products = []
    real = perms._mul

    def counted(p, q):
        products.append(None)
        return real(p, q)

    monkeypatch.setattr(perms, "_mul", counted)
    for x, pinned, reps in ((0, 33, [1, 10, 4]), (g.n, 17, [1, 10, 2])):
        products.clear()
        chain = build_chain(
            lifted.degree, lifted.raw_generators, base_prefix=(x,),
            known_order=G.order(),
        )
        assert len(products) == pinned, x
        assert [len(t.reps) for t in chain.trans] == reps, x
        assert chain.order() == G.order() == 12096


@pytest.mark.parametrize(
    "make,ngens,order,level0",
    [
        (lambda: incidence_w3(2).graph, 7, 1440, 3),
        (lambda: incidence_w3(4).graph, 12, 3916800, 2),
        (lambda: incidence_hexagon(2).graph, 8, 12096, 3),
    ],
    ids=["w32", "w34", "h2"],
)
def test_blind_chain_level0_generators_are_pinned(make, ngens, order, level0):
    """Level-0 strong generators of the blind chain built from the search's
    generators: a blind build absorbs them in turn, shallowest search level
    first, and drops each that sifts to the identity."""
    g = make()
    gens = automorphism_group(g).raw_generators
    assert len(gens) == ngens
    chain = build_chain(g.n, gens)
    assert chain.order() == order
    assert len(chain.sgd[0]) == level0


def test_blind_chain_products_of_h3_are_pinned_within_budget(monkeypatch):
    """The blind chain of Aut(H(3)), as a generator file written by ``aut``
    gives it, forms 3 841 products from the search's 11 generators, handed
    out shallowest search level first.  In the order the search finds them,
    deepest first, the same build forms 55 295."""
    g = incidence_hexagon(3).graph
    gens = automorphism_group(g).raw_generators
    products = []
    real = perms._mul

    def counted(p, q):
        products.append(None)
        return real(p, q)

    monkeypatch.setattr(perms, "_mul", counted)
    assert build_chain(g.n, gens).order() == 8491392
    assert len(gens) == 11 and len(products) <= 6000


def test_schreier_sims_identity_and_s5():
    from locdt.geometry import petersen_s5

    _, s5 = petersen_s5()
    assert s5.order() == 120
    assert PermGroup(10, []).order() == 1


def test_chain_order_invariant_under_generator_shuffle():
    from locdt.geometry import petersen_s5

    _, s5 = petersen_s5()
    gens = list(s5.generators)
    rng = random.Random(7)
    for _ in range(5):
        rng.shuffle(gens)
        assert PermGroup(10, gens).order() == 120


def test_sift_membership():
    s5 = symmetric_group(5)
    for p in s5.generators:
        assert p in s5
    a5 = alternating_group(5)
    transposition = Permutation.from_cycles(5, [(0, 1)])
    assert transposition not in a5
    with pytest.raises(GroupError):
        s5.sift(Permutation([0, 1, 2]))


def test_sift_frobenius_not_in_pgl():
    mg = mobius_subgroups()
    from locdt.geometry import pair_action

    pgl45 = pair_action(mg.pgl, 10)
    frob45 = pair_action(PermGroup(10, [mg.psigmal.generators[-1]]), 10)
    frob = frob45.generators[0]
    assert frob not in pgl45
    joined = PermGroup(45, list(pgl45.generators) + [frob])
    assert joined.order() == 1440


def test_orbit_stabilizer_identity():
    groups = [
        symmetric_group(6),
        alternating_group(5),
        dihedral_group(9),
        mobius_subgroups().m10,
    ]
    for G in groups:
        for x in (0, G.degree // 2):
            assert G.order() == len(G.orbit(x)) * G.stabilizer(x).order()


def test_stabilizer_pair_orders():
    cm = chamber_model_w32()
    assert cm.pgl.stabilizer(0).order() == 16
    assert cm.psl.stabilizer(0).order() == 8
    assert cyclic_group(6).stabilizer(2).order() == 1


def test_stabilizer_orbits_on_opposition():
    cm = chamber_model_w32()
    opp = cm.graph.adjacency[0]
    assert orbit_sizes_within(cm.pgl.stabilizer(0), opp) == [8, 8]
    assert orbit_sizes_within(cm.psl.stabilizer(0), opp) == [8, 8]
    assert orbit_sizes_within(cm.m10.stabilizer(0), opp) == [16]


def test_stabilizer_orbits_rejects_noninvariant_set():
    s5 = symmetric_group(5)
    with pytest.raises(GroupError):
        orbit_sizes_within(s5.stabilizer(0), [1, 2])  # {1,2} not closed under stab(0)


def test_derived_subgroups():
    assert symmetric_group(5).derived_subgroup().order() == 60
    abelian = cyclic_group(6)
    assert abelian.derived_subgroup().order() == 1
    cm = chamber_model_w32()
    assert cm.pgammal.derived_subgroup().order() == 360


def test_derived_subgroup_grows_one_chain(monkeypatch):
    """Each new commutator or conjugate is absorbed into the one chain of
    the subgroup; no chain is built from scratch."""
    groups = [
        (symmetric_group(5), 60),
        (automorphism_group(incidence_w3(2).graph), 360),
        (chamber_model_w32().pgammal, 360),  # PGammaL(2,9) on pairs
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("build_chain called")

    monkeypatch.setattr(perms, "build_chain", refuse)
    for G, order in groups:
        assert G.derived_subgroup().order() == order


def test_derived_subgroup_is_normal():
    G = symmetric_group(5)
    D = G.derived_subgroup()
    for g in G.generators:
        ginv = g.inverse()
        for d in D.generators:
            assert (ginv * d * g) in D


def test_elements_enumeration():
    s3 = symmetric_group(3)
    elems = list(s3.elements())
    assert len(elems) == 6
    assert len({e.images for e in elems}) == 6
    for e in elems:
        assert e in s3
    # deterministic order
    again = list(s3.elements())
    assert [e.images for e in elems] == [a.images for a in again]


def test_elements_cap():
    with pytest.raises(GroupError):
        list(symmetric_group(6).elements(cap=100))


def test_elements_pgammal_count():
    cm = chamber_model_w32()
    count = sum(1 for _ in cm.pgammal.elements())
    assert count == 1440


def test_index2_subgroups():
    cm = chamber_model_w32()
    subs = cm.pgammal.index2_subgroups_over_derived()
    assert sorted(H.order() for H in subs) == [720, 720, 720]
    # exactly one equals the constructed M10 as an element set
    matches = []
    for H in subs:
        if H.order() == cm.m10.order() and all(p in cm.m10 for p in H.generators):
            matches.append(H)
    assert len(matches) == 1


def test_index2_rejects_wrong_quotient():
    s5 = symmetric_group(5)  # S5/A5 has order 2
    with pytest.raises(GroupError):
        s5.index2_subgroups_over_derived()
    # C4 from one generator, and from it and its square
    for cycles in ([[(0, 1, 2, 3)]], [[(0, 1, 2, 3)], [(0, 2), (1, 3)]]):
        c4 = PermGroup(4, [Permutation.from_cycles(4, c) for c in cycles])
        with pytest.raises(GroupError, match="not elementary abelian"):
            c4.index2_subgroups_over_derived()


def test_index2_subgroups_do_not_depend_on_the_chain():
    gens = automorphism_group(incidence_w3(2).graph).raw_generators
    other = build_chain(30, gens, base_prefix=(29, 17), known_order=1440)
    default = PermGroup(30, gens)
    rebased = PermGroup._with_chain(30, [Permutation(g) for g in gens], other)
    assert default.chain().base != rebased.chain().base
    assert [H.raw_generators for H in default.index2_subgroups_over_derived()] == [
        H.raw_generators for H in rebased.index2_subgroups_over_derived()
    ]


def test_index2_subgroups_come_in_generator_coset_order():
    a = Permutation.from_cycles(4, [(0, 1)])
    b = Permutation.from_cycles(4, [(2, 3)])
    subs = PermGroup(4, [a, b]).index2_subgroups_over_derived()
    assert [H.generators for H in subs] == [(a,), (b,), (a * b,)]


def test_transitivity_degrees():
    assert symmetric_group(4).is_k_transitive(4)
    a5 = alternating_group(5)
    assert a5.is_k_transitive(3)
    assert not a5.is_k_transitive(4)
    mg = mobius_subgroups()
    assert mg.psl.is_k_transitive(2)
    assert not mg.psl.is_k_transitive(3)
    assert mg.pgl.is_k_transitive(3)
    from locdt.geometry import pgammal2

    assert pgammal2(8).is_k_transitive(3)


def test_heawood_aut_via_bruteforce_matcher():
    g = incidence_pg2(2).graph
    assert automorphism_group(g).order() == _count_automorphisms(g)


def _count_automorphisms(g):
    # adjacency-constrained DFS over partial vertex maps; independent of
    # the refinement search and the chain machinery
    n = g.n
    adj = [set(a) for a in g.adjacency]
    deg = g.degrees
    count = 0

    def extend(mapping, used):
        nonlocal count
        u = len(mapping)
        if u == n:
            count += 1
            return
        for c in range(n):
            if used[c] or deg[c] != deg[u]:
                continue
            ok = True
            for w in range(u):
                if (w in adj[u]) != (mapping[w] in adj[c]):
                    ok = False
                    break
            if ok:
                mapping.append(c)
                used[c] = True
                extend(mapping, used)
                mapping.pop()
                used[c] = False

    extend([], [False] * n)
    return count


def _closure(gens, deg):
    # brute-force multiply-out of the generated group
    ident = tuple(range(deg))
    seen = {ident}
    frontier = [ident]
    raw = [p.images for p in gens]
    while frontier:
        nxt = []
        for a in frontier:
            for g in raw:
                b = tuple(g[x] for x in a)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


def test_chain_order_matches_bruteforce_closure_random():
    rng = random.Random(1234)
    for _ in range(60):
        deg = rng.randint(2, 8)
        gens = []
        for _ in range(rng.randint(1, 3)):
            imgs = list(range(deg))
            rng.shuffle(imgs)
            gens.append(Permutation(imgs))
        G = PermGroup(deg, gens)
        elems = _closure(gens, deg)
        assert G.order() == len(elems)
        # membership agrees with the closure
        probe = list(range(deg))
        rng.shuffle(probe)
        assert (Permutation(probe) in G) == (tuple(probe) in elems)


def test_stabilizer_matches_bruteforce_random():
    rng = random.Random(77)
    for _ in range(30):
        deg = rng.randint(2, 7)
        gens = []
        for _ in range(rng.randint(1, 3)):
            imgs = list(range(deg))
            rng.shuffle(imgs)
            gens.append(Permutation(imgs))
        G = PermGroup(deg, gens)
        elems = _closure(gens, deg)
        x = rng.randrange(deg)
        fixing = [e for e in elems if e[x] == x]
        stab = G.stabilizer(x)
        assert stab.order() == len(fixing)
        for p in stab.generators:
            assert p.images in elems and p.images[x] == x
        # membership sifts through the base-changed chain's tail
        for e in elems:
            assert (Permutation(e) in stab) == (e[x] == x)


def test_derived_matches_bruteforce_random():
    rng = random.Random(5)
    for _ in range(20):
        deg = rng.randint(2, 6)
        gens = []
        for _ in range(rng.randint(1, 3)):
            imgs = list(range(deg))
            rng.shuffle(imgs)
            gens.append(Permutation(imgs))
        G = PermGroup(deg, gens)
        elems = sorted(_closure(gens, deg))
        index = {e: i for i, e in enumerate(elems)}

        def inv(p):
            out = [0] * deg
            for i, j in enumerate(p):
                out[j] = i
            return tuple(out)

        def mul(a, b):
            return tuple(b[x] for x in a)

        comms = {
            mul(mul(inv(a), inv(b)), mul(a, b)) for a in elems for b in elems
        }
        # normal closure by multiply-out
        closure = _closure([Permutation(c) for c in comms] or
                           [Permutation(range(deg))], deg)
        assert G.derived_subgroup().order() == len(closure)


def test_stabilizer_orbits_on_singleton():
    s5 = symmetric_group(5)
    assert orbit_sizes_within(s5.stabilizer(0), [0]) == [1]


def test_generator_file_roundtrip(tmp_path):
    G = dihedral_group(5)
    path = tmp_path / "gens.txt"
    write_generators(G, path)
    back = read_generators(path)
    assert back.degree == 5
    assert back.order() == 10
    assert [p.images for p in back.generators] == [p.images for p in G.generators]


def test_restrict_action():
    d6 = dihedral_group(6)
    with pytest.raises(GroupError):
        d6.restrict([0, 2, 4])  # rotation leaves the even points
    rot2 = PermGroup(6, [Permutation.from_cycles(6, [(0, 2, 4), (1, 3, 5)])])
    r = rot2.restrict([0, 2, 4])
    assert r.degree == 3 and r.order() == 3


def test_restrict_and_orbit_partition_match_brute_force():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    def group_on(n):
        perm = st.permutations(range(n)).map(tuple)
        return st.tuples(st.just(n), st.lists(perm, min_size=1, max_size=3))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6).flatmap(group_on), st.data())
    def check(group, data):
        n, gens = group
        G = PermGroup(n, gens)
        elements = [p.images for p in G.elements()]

        def brute_orbits(items, act):
            return {frozenset(act(g, x) for g in elements) for x in items}

        for k in (2, 3):
            family = list(combinations(range(n), k))
            R = G.restrict(family)
            got = {frozenset(family[i] for i in c) for c in R.orbits()}
            assert got == brute_orbits(family, on_sets)
            actions = {tuple(on_sets(g, t) for t in family) for g in elements}
            assert R.order() == len(actions)

        arcs = list(permutations(range(n), 2))
        parts = orbit_partition(G.raw_generators, arcs, on_tuples)
        assert set(map(frozenset, parts)) == brute_orbits(arcs, on_tuples)
        firsts = [arcs.index(next(t for t in arcs if t in o)) for o in parts]
        assert firsts == sorted(firsts)

        if n >= 2:
            pairs = list(combinations(range(n), 2))
            chosen = sorted(data.draw(st.sets(st.sampled_from(pairs), min_size=1)))
            if all(on_sets(g, t) in chosen for g in gens for t in chosen):
                assert G.restrict(chosen).degree == len(chosen)
            else:
                with pytest.raises(GroupError):
                    G.restrict(chosen)

    check()


def test_orbit_closure_points_tuples_and_invariance():
    rot = (1, 2, 3, 0)
    assert orbit_closure([rot], [0]) == {0, 1, 2, 3}
    assert orbit_closure([], [2, 3]) == {2, 3}
    assert orbit_closure([rot], [(0, 2)], on_tuples) == {(0, 2), (1, 3), (2, 0), (3, 1)}
    assert orbit_closure([rot], [0], within={0, 1, 2, 3}) == {0, 1, 2, 3}
    with pytest.raises(GroupError):
        orbit_closure([rot], [0], within={0, 1})


def test_orbit_primitives_agree_with_sympy():
    pytest.importorskip("sympy")
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st
    from sympy.combinatorics import Permutation as SPerm, PermutationGroup

    def group_on(n):
        perm = st.permutations(range(n)).map(tuple)
        return st.tuples(st.just(n), st.lists(perm, min_size=1, max_size=3))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 7).flatmap(group_on), st.data())
    def check(group, data):
        n, gens = group
        G = PermGroup(n, [Permutation(g) for g in gens])
        S = PermutationGroup([SPerm(list(g)) for g in gens])
        sym_orbits = sorted(tuple(sorted(o)) for o in S.orbits())
        assert sorted(G.orbits()) == sym_orbits

        # a union of orbits gives their sizes; any other set is not invariant
        subset = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        inside = [o for o in sym_orbits if set(o) <= subset]
        if sum(len(o) for o in inside) == len(subset):
            assert orbit_sizes_within(G, subset) == sorted(len(o) for o in inside)
        else:
            with pytest.raises(GroupError):
                orbit_sizes_within(G, subset)

        degree = S.transitivity_degree
        for k in range(1, min(3, n) + 1):
            assert G.is_k_transitive(k) == (degree >= k)

        assert G.order() == S.order()
        probe = data.draw(st.permutations(range(n)))
        assert (Permutation(probe) in G) == S.contains(SPerm(probe))
        x = data.draw(st.integers(0, n - 1))
        assert G.stabilizer(x).order() == S.stabilizer(x).order()
        assert G.derived_subgroup().order() == S.derived_subgroup().order()

        # a chain built with the true order and the blind chain, which
        # drops generators, have one order and sift each other's strong
        # generators to the identity
        known = PermGroup(n, G.generators, order=S.order()).chain()
        blind = build_chain(n, G.raw_generators)
        assert known.order() == blind.order()
        for one, other in ((known, blind), (blind, known)):
            for p in (p for level in one.sgd for p in level):
                assert other.sift(p)[0] == tuple(range(n))

    check()
