import random

import pytest

from locdt.geometry import chamber_model_w32, incidence_pg2, mobius_subgroups
from locdt.autgrp import automorphism_group
from locdt.perms import (
    GroupError,
    PermGroup,
    Permutation,
    alternating_group,
    cyclic_group,
    dihedral_group,
    on_tuples,
    orbit_closure,
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
    assert triv.orbits().sizes() == (1, 1, 1, 1, 1)
    part = dihedral_group(6).orbits()
    assert part.sizes() == (6,)


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
    assert cm.pgl.stabilizer_orbits_on(0, opp) == [8, 8]
    assert cm.psl.stabilizer_orbits_on(0, opp) == [8, 8]
    assert cm.m10.stabilizer_orbits_on(0, opp) == [16]


def test_stabilizer_orbits_rejects_noninvariant_set():
    s5 = symmetric_group(5)
    with pytest.raises(GroupError):
        s5.stabilizer_orbits_on(0, [1, 2])  # {1,2} not closed under stab(0)


def test_derived_subgroups():
    assert symmetric_group(5).derived_subgroup().order() == 60
    abelian = cyclic_group(6)
    assert abelian.derived_subgroup().order() == 1
    cm = chamber_model_w32()
    assert cm.pgammal.derived_subgroup().order() == 360


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
    assert s5.stabilizer_orbits_on(0, [0]) == [1]


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
        assert sorted(G.orbits().classes) == sym_orbits

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

    check()
