"""Permutations and finitely generated permutation groups.

The engine is a deterministic Schreier-Sims construction (``build_chain``)
whose transversals are Schreier vectors: coset representatives and their
inverses are formed when first read and memoised.  Products are C-level
``operator.itemgetter`` calls.  Every chain grows through one
add-and-complete routine (``_Chain``); blind builds and ``derived_subgroup``
absorb elements one at a time and drop those that sift to the identity.
Base points are the smallest point with nontrivial action; together with
sorted orbit scans and the fixed-seed stream that stabilizer builds sift,
this makes chains, orders and element streams reproducible across runs.
Orders are plain Python integers, so arbitrary precision comes for free.

Derived actions come from two primitives.  ``PermGroup.restrict`` gives the
induced action on an invariant family of points or point sets (sorted
tuples: edges, pairs, the sides of K_{n,n}, vertex stars);
``orbit_partition`` splits an invariant list into orbits under any action,
and ``PermGroup.orbits`` returns them as ascending tuples.
"""

import random
from functools import cache
from itertools import count, islice, product
from math import prod
from operator import itemgetter


class GroupError(ValueError):
    """Degree mismatches, invalid permutations, broken group contracts."""


def _mul(p, q):
    # apply p first, then q; itemgetter returns a scalar for one index and
    # raises for none, so degrees below 2 take the map form
    if len(p) > 1:
        return itemgetter(*p)(q)
    return tuple(map(q.__getitem__, p))


def _inv(p):
    # a list: _mul indexes it as fast, and the memo saves the tuple copy;
    # its ints are the cached identity's, so it costs only its pointers
    ident = _identity(len(p))
    out = list(ident)
    for i, j in zip(ident, p):
        out[j] = i
    return out


@cache
def _identity(deg):
    # one shared tuple per degree: _inv and the root representatives take
    # their ints from it instead of making new ones above 256
    return tuple(range(deg))


class Permutation:
    """A permutation of 0..deg-1 stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise GroupError("images are not a bijection of 0..deg-1")
        self.images = images

    @classmethod
    def _wrap(cls, images):
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, deg):
        return cls._wrap(_identity(deg))

    @classmethod
    def from_cycles(cls, deg, cycles):
        imgs = list(range(deg))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:]):
                imgs[a] = b
            if cyc:
                imgs[cyc[-1]] = cyc[0]
        return cls(imgs)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, x):
        return self.images[x]

    def __mul__(self, other):
        # self first, then other
        if len(self.images) != len(other.images):
            raise GroupError("degree mismatch in product")
        return Permutation._wrap(_mul(self.images, other.images))

    def inverse(self):
        return Permutation._wrap(tuple(_inv(self.images)))

    def is_identity(self):
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self):
        seen = [False] * len(self.images)
        out = []
        for i in range(len(self.images)):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return "Permutation(id)"
        return "Permutation(" + "".join(str(c) for c in cyc) + ")"


class _Transversal:
    """Orbit of ``root`` under ``gens`` as a Schreier vector: each point
    other than the root maps to its BFS parent and the generator that
    reaches it.  The coset representative u[p], mapping root -> p, is
    formed when first read, as u[parent] * s, and memoised, and so is its
    inverse when ``inverse`` first reads it; iteration follows BFS order.
    ``extend`` grows the orbit in place and keeps every parent, so the
    memoised representatives stay valid."""

    __slots__ = ("tree", "reps", "invs")

    def __init__(self, deg, gens, root):
        self.tree = {root: None}
        self.reps = {root: _identity(deg)}
        self.invs = {}
        self._close([root], gens)

    def _close(self, todo, gens):
        tree = self.tree
        for a in todo:  # grows while scanned
            for s in gens:
                b = s[a]
                if b not in tree:
                    tree[b] = (a, s)
                    todo.append(b)

    def extend(self, gens, s):
        """Close the orbit under ``gens``, the old generators plus ``s``;
        new points follow the old ones in BFS order."""
        tree = self.tree
        todo = []
        for a in list(tree):
            b = s[a]
            if b not in tree:
                tree[b] = (a, s)
                todo.append(b)
        self._close(todo, gens)

    def inverse(self, p):
        """u[p]^-1, memoised; None when p is outside the orbit."""
        v = self.invs.get(p)
        if v is None and p in self.tree:
            v = self.invs[p] = _inv(self[p])
        return v

    def __getitem__(self, p):
        reps = self.reps
        u = reps.get(p)
        if u is not None:
            return u
        path = []
        while u is None:  # climb to the first memoised ancestor
            a, s = self.tree[p]
            path.append((p, s))
            p = a
            u = reps.get(p)
        for b, s in reversed(path):
            u = reps[b] = _mul(u, s)
        return u

    def __len__(self):
        return len(self.tree)

    def __iter__(self):
        return iter(self.tree)

    def __contains__(self, p):
        return p in self.tree


class _Chain:
    """Stabilizer chain: base points, per-level strong generators and
    Schreier-vector transversals.  ``sift`` reads each coset
    representative's inverse from its level's memo.  ``scanned`` counts,
    per level, the pairs of the pair scan known to sift to the identity."""

    __slots__ = ("degree", "base", "sgd", "trans", "scanned")

    def __init__(self, degree, base, sgd, trans):
        self.degree = degree
        self.base = base
        self.sgd = sgd
        self.trans = trans
        self.scanned = [0] * len(base)

    def order(self):
        return prod(map(len, self.trans))

    def sift(self, p, start=0):
        """Strip p through levels >= start; returns (residue, drop_level)."""
        for lvl in range(start, len(self.base)):
            b = self.base[lvl]
            x = p[b]
            if x == b:  # the coset representative is the identity
                continue
            v = self.trans[lvl].inverse(x)
            if v is None:
                return p, lvl
            p = _mul(p, v)
        return p, len(self.base)

    def tail(self):
        """Chain for the stabilizer of the first base point."""
        return _Chain(self.degree, self.base[1:], self.sgd[1:], self.trans[1:])

    def add(self, h, lo, hi):
        """Make h, which fixes base[:lo], a strong generator of levels lo..hi
        and extend their Schreier vectors in place; their pair scans start
        over.  ``hi == len(base)`` opens a level at h's smallest moved point."""
        if hi == len(self.base):
            self.base.append(_smallest_moved(h))
            self.sgd.append([])
            self.trans.append(_Transversal(self.degree, (), self.base[hi]))
            self.scanned.append(0)
        for lvl in range(lo, hi + 1):
            self.sgd[lvl].append(h)
            self.trans[lvl].extend(self.sgd[lvl], h)
            self.scanned[lvl] = 0

    def absorb(self, g):
        """Sift g; add a non-identity residue on the levels it reaches and
        complete the chain again.  Returns whether g was new to the group."""
        h, j = self.sift(g)
        if h == _identity(self.degree):
            return False
        self.add(h, 0, j)
        self.complete(j)
        return True

    def complete(self, i, known_order=None, seeding=False):
        """Run the Schreier pair scan from level i down to 0, the levels
        below i being complete; stop once the order reaches ``known_order``.
        The Schreier generator u_beta s u_{beta^s}^-1 is not formed: ``sift``
        of u_beta s from level i reaches it at its first step.  A pair whose
        u_beta s is a coset representative (a tree edge beta -> beta^s, or
        the reverse of one when s is an involution) would sift to the
        identity and is skipped unformed.  Each level resumes its scan after
        the pair that last gave a strong generator and starts over when
        ``add`` changes its generators: the earlier pairs sifted to the
        identity through a complete chain of a subgroup of the one below it.

        With ``seeding``, the scan stops once it has sifted more Schreier
        generators than level 0 has generators, since the deeper levels may
        be completing a proper subgroup of the stabilizer (the pointwise
        stabilizer of an edge's ends, say, when only a level-0 Schreier
        generator reverses the edge).  It then sifts pseudo-random elements
        from level 0 and adds each non-identity residue below level 0, until
        the order reaches the known order, which proves the chain complete
        (Las Vegas; Seress 2003, section 4.3), or a run of identity residues
        hands back to the pair scan."""
        ident = _identity(self.degree)
        sgd, trans, scanned = self.sgd, self.trans, self.scanned
        involution = {}  # id(generator) -> s^2 == 1
        sifts = 0
        # the sift count at which the pair scan stops for seeding
        seed_at = len(sgd[0]) + 1 if seeding else None

        def is_involution(s):
            # s^2 by _mul's kernel, inlined: s moves a point, so degree >= 2
            known = involution.get(id(s))
            if known is None:
                known = involution[id(s)] = itemgetter(*s)(s) == ident
            return known

        def seed():  # returns the deepest level changed
            deepest = misses = 0
            for r in _random_elements(sgd[0], random.Random(_SEED)):
                h, j = self.sift(r)
                if h == ident:
                    misses += 1
                    if misses == _MISSES:
                        break
                    continue
                misses = 0
                self.add(h, 1, j)  # level 0 holds every generator
                deepest = max(deepest, j)
                if self.order() == known_order:
                    break
            return deepest

        while i >= 0 and (known_order is None or self.order() != known_order):
            if sifts == seed_at:
                seed_at = None
                i = max(i, seed())
                continue
            tree = trans[i].tree
            pairs = islice(product(sorted(tree), sgd[i]), scanned[i], None)
            for c, (beta, s) in enumerate(pairs, scanned[i] + 1):
                gamma = s[beta]
                edge, back = tree[gamma], tree[beta]
                if (edge is not None and edge[1] is s and edge[0] == beta) or (
                    back is not None
                    and back[1] is s
                    and back[0] == gamma
                    and is_involution(s)
                ):
                    continue
                sifts += 1
                h, j = self.sift(_mul(trans[i][beta], s), i)
                if h != ident or sifts == seed_at:
                    scanned[i] = c
                    break
            else:  # level i is complete
                i -= 1
                continue
            if h != ident:  # else stopped to seed
                self.add(h, i + 1, j)
                i = j


def _smallest_moved(p):
    return next(i for i, j in enumerate(p) if i != j)


# product replacement: RNG seed, state size, steps before the first element
_SEED = 20111103
_STATE = 10
_WARMUP = 10
# identity residues in a row that end seeding
_MISSES = 10


def _random_elements(gens, rng):
    """Endless pseudo-random elements of the group generated by ``gens``
    (at least one), by product replacement (Celler et al. 1995) with an
    accumulator that multiplies in each replaced element.  Draws use
    ``rng.random()`` only, whose stream a seed fixes on every Python."""
    state = [gens[k % len(gens)] for k in range(max(_STATE, len(gens)))]
    n = len(state)
    acc = _identity(len(gens[0]))
    for step in count(1):
        a = int(rng.random() * n)
        b = (a + 1 + int(rng.random() * (n - 1))) % n
        if rng.random() < 0.5:
            state[a] = _mul(state[a], state[b])
        else:
            state[a] = _mul(state[b], state[a])
        acc = _mul(acc, state[a])
        if step > _WARMUP:
            yield acc


def build_chain(degree, gens, base_prefix=(), known_order=None):
    """Schreier-Sims, deterministic for given arguments.

    ``base_prefix`` forces the first base points (used for stabilizers),
    each kept even when no generator moves it: its level then has orbit
    {b} and multiplies the order by 1.  Further base points are the
    smallest point moved by the element that needs them.

    A blind build (no known order) starts from the prefix levels alone and
    absorbs the generators in turn, dropping each that sifts to the
    identity through the chain of those before it.  A build with
    ``known_order`` sets up every generator at once, on each level whose
    base points it fixes, with breadth-first transversals, and completes
    that chain; it exits once the transversal product reaches the order,
    so a stabilizer build that ends before level 0 forms only that level's
    root.  The order must be exact.  The product reaches the true order
    only on a complete chain, so the exit leaves the chain unchanged.  A
    wrong order raises GroupError only when the chain never reaches it: a
    smaller order that the product hits on the way up stops the build
    early, unnoticed, with an incomplete chain.  Only builds with both a
    base prefix and a known order seed (see ``_Chain.complete``).
    """
    ident = _identity(degree)
    gens = [g for g in gens if g != ident]
    known = gens if known_order is not None else ()
    base = list(base_prefix)
    for g in known:
        if all(g[b] == b for b in base):
            base.append(_smallest_moved(g))
    sgd = [
        [g for g in known if all(g[b] == b for b in base[:i])]
        for i in range(len(base))
    ]
    trans = [_Transversal(degree, sgd[i], base[i]) for i in range(len(base))]
    chain = _Chain(degree, base, sgd, trans)
    if known_order is None:
        for g in gens:
            chain.absorb(g)
        return chain
    chain.complete(len(base) - 1, known_order, bool(base_prefix))
    if chain.order() != known_order:
        raise GroupError(
            f"chain has order {chain.order()}, known order is {known_order}"
        )
    return chain


class PermGroup:
    """Finitely generated permutation group on 0..degree-1; its ``order``,
    when known, is the ``known_order`` of its chain.  ``automorphisms_of``
    is a graph every generator is proven an automorphism of, or None."""

    def __init__(self, degree, generators, order=None):
        gens = []
        seen = set()
        for p in generators:
            if not isinstance(p, Permutation):
                p = Permutation(p)
            if p.degree != degree:
                raise GroupError(
                    f"generator degree {p.degree} does not match {degree}"
                )
            if p.is_identity() or p.images in seen:
                continue
            seen.add(p.images)
            gens.append(p)
        self.degree = degree
        self.generators = tuple(gens)
        self._order = order
        self._chain = None
        self.automorphisms_of = None

    @classmethod
    def trivial(cls, degree):
        return cls(degree, [])

    @classmethod
    def _with_chain(cls, degree, generators, chain):
        G = cls(degree, generators, order=chain.order())
        G._chain = chain
        return G

    @property
    def raw_generators(self):
        return [p.images for p in self.generators]

    def chain(self):
        if self._chain is None:
            self._chain = build_chain(
                self.degree, self.raw_generators, known_order=self._order
            )
        return self._chain

    def order(self):
        return self.chain().order()

    def sift(self, p):
        """Membership verdict plus the sift residue."""
        if not isinstance(p, Permutation):
            p = Permutation(p)
        if p.degree != self.degree:
            raise GroupError("degree mismatch in sift")
        residue, _ = self.chain().sift(p.images)
        return residue == _identity(self.degree), Permutation._wrap(residue)

    def __contains__(self, p):
        return self.sift(p)[0]

    def orbit(self, x):
        """Smallest generator-closed set containing ``x``, ascending."""
        if not 0 <= x < self.degree:
            raise GroupError(f"point {x} out of range")
        return tuple(sorted(orbit_closure(self.raw_generators, [x])))

    def orbits(self):
        """Orbits as ascending tuples, ordered by least point."""
        return tuple(
            tuple(sorted(o))
            for o in orbit_partition(self.raw_generators, range(self.degree))
        )

    def stabilizer(self, x):
        """Point stabilizer: the tail of the chain built from the group's
        generators with x as its first base point, ended by the known
        order; a group whose order is known builds no chain of its own.
        The build seeds with random elements once its pair scan runs long
        (see ``_Chain.complete``); the known order proves the tail complete.
        An order that is too small can still stop the build early with a
        subgroup, as without seeding."""
        if not 0 <= x < self.degree:
            raise GroupError(f"point {x} out of range")
        order = self._order if self._order is not None else self.order()
        tail = build_chain(
            self.degree, self.raw_generators, base_prefix=(x,), known_order=order
        ).tail()
        gens = [Permutation._wrap(g) for level in tail.sgd for g in level]
        return PermGroup._with_chain(self.degree, gens, tail)

    def derived_subgroup(self):
        """Normal closure of the generator commutators, with chain: each
        commutator or conjugate that the chain does not hold yet is
        absorbed into it, and only those become generators."""
        gens = self.raw_generators
        sub = []
        chain = _Chain(self.degree, [], [], [])
        todo = [_mul(_mul(_inv(a), _inv(b)), _mul(a, b)) for a in gens for b in gens]
        for p in todo:  # grows while scanned
            if chain.absorb(p):
                sub.append(p)
                todo.extend(_mul(_mul(_inv(g), p), g) for g in gens)
        return PermGroup._with_chain(
            self.degree, [Permutation._wrap(p) for p in sub], chain
        )

    def elements(self, cap=10**7):
        """Stream every element exactly once via chain traversal."""
        order = self.order()
        if order > cap:
            raise GroupError(f"order {order} exceeds enumeration cap {cap}")
        chain = self.chain()
        levels = len(chain.base)

        def rec(level):
            if level == levels:
                yield _identity(self.degree)
                return
            for beta in sorted(chain.trans[level]):
                u = chain.trans[level][beta]
                for h in rec(level + 1):
                    yield _mul(h, u)

        for raw in rec(0):
            yield Permutation._wrap(raw)

    def index2_subgroups_over_derived(self):
        """The three index-2 subgroups containing the derived subgroup D.

        Requires G/D to be elementary abelian of order 4.  The generators'
        cosets generate G/D: with a the first generator outside D, and b the
        first outside D and aD, the subgroups are <D, a>, <D, b> and
        <D, ab>, in that order, whatever chain G was built on.
        """
        D = self.derived_subgroup()
        order = self.order()
        dorder = D.order()
        if dorder * 4 != order:
            raise GroupError(
                f"quotient by derived subgroup has order {order // dorder}, not 4"
            )
        dchain = D.chain()
        ident = _identity(self.degree)

        def in_derived(p):
            return dchain.sift(p)[0] == ident

        a = b = None
        for g in self.raw_generators:
            if in_derived(g):
                continue
            if a is None:
                a = g
            elif not in_derived(_mul(_inv(a), g)):
                b = g
                break
        # fewer than two cosets: G/D is cyclic
        reps = [] if b is None else [a, b, _mul(a, b)]
        if not reps or not all(in_derived(_mul(r, r)) for r in reps):
            raise GroupError("quotient by derived subgroup is not elementary abelian")
        out = [
            PermGroup(self.degree, [*D.generators, Permutation._wrap(r)]) for r in reps
        ]
        if any(H.order() != 2 * dorder for H in out):
            raise GroupError("index-2 candidate has wrong order")
        return out

    def is_k_transitive(self, k):
        """Orbit test on ordered k-tuples of distinct points."""
        n = self.degree
        if k < 1 or k > n:
            raise GroupError(f"k={k} out of range for degree {n}")
        target = 1
        for i in range(k):
            target *= n - i
        start = tuple(range(k))
        return len(orbit_closure(self.raw_generators, [start], on_tuples)) == target

    def restrict(self, items):
        """Induced action on an invariant family of points, or of point sets
        given as sorted tuples, relabeled to 0..len-1 in the given order.
        An image outside the family raises GroupError."""
        items = list(items)
        act = on_sets if items and isinstance(items[0], tuple) else on_points
        pos = {x: i for i, x in enumerate(items)}
        try:
            gens = [[pos[act(g, x)] for x in items] for g in self.raw_generators]
        except KeyError as exc:
            raise GroupError(f"family not invariant: {exc.args[0]} leaves it") from None
        return PermGroup(len(items), gens)

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


def on_points(g, x):
    return g[x]


def on_tuples(g, t):
    """Componentwise action on a tuple of points."""
    return tuple(map(g.__getitem__, t))


def on_sets(g, t):
    """Action on a set of points held as a sorted tuple."""
    return tuple(sorted(map(g.__getitem__, t)))


def orbit_closure(gens, seeds, act=on_points, within=None):
    """Smallest set containing ``seeds`` and closed under ``act(g, x)`` for
    every raw generator ``g``.  An image outside ``within`` (when given)
    means the set is not invariant and raises GroupError."""
    seen = set(seeds)
    todo = list(seen)
    for x in todo:  # grows while scanned
        for g in gens:
            y = act(g, x)
            if y not in seen:
                if within is not None and y not in within:
                    raise GroupError(f"set not invariant under group: {x} -> {y}")
                seen.add(y)
                todo.append(y)
    return seen


def orbit_partition(gens, points, act=on_points):
    """Orbits of the group generated by ``gens`` on the invariant list
    ``points``, each a set, in order of their first point.  An image
    outside ``points`` raises GroupError."""
    within = set(points)
    seen = set()
    orbits = []
    for x in points:
        if x not in seen:
            orb = orbit_closure(gens, [x], act, within)
            seen |= orb
            orbits.append(orb)
    return orbits


def orbit_sizes_within(G, points):
    """Sorted orbit sizes of ``G`` restricted to ``points`` (must be
    invariant)."""
    return sorted(map(len, orbit_partition(G.raw_generators, points)))


def symmetric_group(n):
    if n < 1:
        raise GroupError("degree must be positive")
    if n == 1:
        return PermGroup.trivial(1)
    gens = [Permutation.from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [tuple(range(n))]))
    return PermGroup(n, gens)


def alternating_group(n):
    if n < 3:
        return PermGroup.trivial(max(n, 1))
    three = Permutation.from_cycles(n, [(0, 1, 2)])
    if n % 2 == 1:
        big = Permutation.from_cycles(n, [tuple(range(n))])
    else:
        big = Permutation.from_cycles(n, [tuple(range(1, n))])
    return PermGroup(n, [three, big])


def cyclic_group(n):
    return PermGroup(n, [Permutation.from_cycles(n, [tuple(range(n))])])


def dihedral_group(n):
    """Symmetries of an n-cycle on points 0..n-1, order 2n."""
    rot = Permutation.from_cycles(n, [tuple(range(n))])
    refl = Permutation([(-i) % n for i in range(n)])
    return PermGroup(n, [rot, refl])


def write_generators(G, path):
    """Generator file: first line "deg k", then k image rows."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{G.degree} {len(G.generators)}\n")
        for p in G.generators:
            fh.write(" ".join(map(str, p.images)) + "\n")


def read_generators(path):
    """Parse a generator file; every malformed file raises GroupError."""
    with open(path) as fh:
        try:
            header = [int(x) for x in fh.readline().split()]
            rows = [[int(x) for x in line.split()] for line in fh if line.strip()]
        except ValueError as exc:
            raise GroupError(f"generator file holds a non-integer: {exc}") from None
    if len(header) != 2:
        raise GroupError("generator file header must be 'deg k'")
    deg, k = header
    if any(len(row) != deg for row in rows):
        raise GroupError("generator row length does not match degree")
    if len(rows) != k:
        raise GroupError(f"expected {k} generators, found {len(rows)}")
    return PermGroup(deg, rows)
