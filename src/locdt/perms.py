"""Permutations and finitely generated permutation groups.

The engine is a deterministic (non-randomised) Schreier-Sims construction
with explicit transversals.  Base points are chosen as the smallest point
with nontrivial action; together with sorted orbit scans this makes chains,
orders and element streams reproducible across runs.  Orders are plain
Python integers, so arbitrary precision comes for free.
"""

from collections import deque
from dataclasses import dataclass


class GroupError(ValueError):
    """Degree mismatches, invalid permutations, broken group contracts."""


def _mul(p, q):
    # apply p first, then q
    return tuple(map(q.__getitem__, p))


def _inv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def _identity(deg):
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
        return Permutation._wrap(_inv(self.images))

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


@dataclass(frozen=True)
class OrbitPartition:
    representatives: tuple
    class_of: tuple

    @property
    def classes(self):
        buckets = {r: [] for r in self.representatives}
        for v, c in enumerate(self.class_of):
            buckets[self.representatives[c]].append(v)
        return tuple(tuple(b) for b in buckets.values())

    def sizes(self):
        return tuple(len(c) for c in self.classes)


def _orbit_transversal(deg, gens, root):
    """BFS orbit with transversal u[p] mapping root -> p, plus inverses."""
    trans = {root: _identity(deg)}
    inv = {root: _identity(deg)}
    queue = deque([root])
    while queue:
        a = queue.popleft()
        ua = trans[a]
        for s in gens:
            b = s[a]
            if b not in trans:
                ub = _mul(ua, s)
                trans[b] = ub
                inv[b] = _inv(ub)
                queue.append(b)
    return trans, inv


class _Chain:
    """Stabilizer chain: base points, per-level strong generators, explicit
    transversals and their inverses."""

    __slots__ = ("degree", "base", "sgd", "trans", "inv")

    def __init__(self, degree, base, sgd, trans, inv):
        self.degree = degree
        self.base = base
        self.sgd = sgd
        self.trans = trans
        self.inv = inv

    def order(self):
        n = 1
        for t in self.trans:
            n *= len(t)
        return n

    def sift(self, p, start=0):
        """Strip p through levels >= start; returns (residue, drop_level)."""
        for lvl in range(start, len(self.base)):
            x = p[self.base[lvl]]
            u_inv = self.inv[lvl].get(x)
            if u_inv is None:
                return p, lvl
            p = _mul(p, u_inv)
        return p, len(self.base)

    def tail(self):
        """Chain for the stabilizer of the first base point."""
        return _Chain(
            self.degree, self.base[1:], self.sgd[1:], self.trans[1:], self.inv[1:]
        )


def _smallest_moved(p):
    for i, j in enumerate(p):
        if i != j:
            return i
    return None


def build_chain(degree, gens, base_prefix=(), known_order=None):
    """Deterministic incremental Schreier-Sims.

    ``base_prefix`` forces the first base points (used for stabilizers);
    further base points are the smallest point moved by the generator that
    needs them.  ``known_order`` allows an early exit once the transversal
    product reaches the target, which makes base changes cheap.
    """
    ident = _identity(degree)
    gens = [g for g in gens if g != ident]
    base = [b for b in base_prefix]
    for g in gens:
        if all(g[b] == b for b in base):
            base.append(_smallest_moved(g))
    # drop prefix points nothing moves (keeps chains minimal and orders exact)
    base = [b for b in base if any(g[b] != b for g in gens)]
    if not gens:
        return _Chain(degree, [], [], [], [])

    sgd = [
        [g for g in gens if all(g[b] == b for b in base[:i])]
        for i in range(len(base))
    ]
    trans = []
    inv = []
    for i in range(len(base)):
        t, v = _orbit_transversal(degree, sgd[i], base[i])
        trans.append(t)
        inv.append(v)

    chain = _Chain(degree, base, sgd, trans, inv)

    def complete():
        if known_order is None:
            return False
        return chain.order() == known_order

    i = len(base) - 1
    while i >= 0:
        if complete():
            break
        restart = False
        for beta in sorted(trans[i]):
            u_beta = trans[i][beta]
            for s in sgd[i]:
                gb = s[beta]
                g1 = _mul(u_beta, s)
                if g1 == trans[i][gb]:
                    continue
                schreier = _mul(g1, inv[i][gb])
                h, j = chain.sift(schreier, i + 1)
                if h == ident:
                    continue
                if j == len(base):
                    base.append(_smallest_moved(h))
                    sgd.append([])
                    trans.append({})
                    inv.append({})
                for lvl in range(i + 1, j + 1):
                    sgd[lvl].append(h)
                    t, v = _orbit_transversal(degree, sgd[lvl], base[lvl])
                    trans[lvl] = t
                    inv[lvl] = v
                i = j
                restart = True
                break
            if restart:
                break
        if not restart:
            i -= 1
    return chain


class PermGroup:
    """Finitely generated permutation group on 0..degree-1."""

    def __init__(self, degree, generators):
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
        self._chain = None

    @classmethod
    def trivial(cls, degree):
        return cls(degree, [])

    @classmethod
    def _with_chain(cls, degree, generators, chain):
        G = cls(degree, generators)
        G._chain = chain
        return G

    @property
    def raw_generators(self):
        return [p.images for p in self.generators]

    def chain(self, known_order=None):
        if self._chain is None:
            self._chain = build_chain(
                self.degree, self.raw_generators, known_order=known_order
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

    def orbit_transversal(self, x):
        """Orbit of x with one group element per point mapping x there."""
        trans, _ = _orbit_transversal(self.degree, self.raw_generators, x)
        return {p: Permutation._wrap(u) for p, u in trans.items()}

    def orbits(self):
        """Full orbit partition, representatives in ascending order."""
        gens = self.raw_generators
        reps = []
        class_of = [-1] * self.degree
        for v in range(self.degree):
            if class_of[v] >= 0:
                continue
            idx = len(reps)
            reps.append(v)
            for w in orbit_closure(gens, [v]):
                class_of[w] = idx
        return OrbitPartition(tuple(reps), tuple(class_of))

    def stabilizer(self, x):
        """Point stabilizer, built by a base change that puts x first."""
        if not 0 <= x < self.degree:
            raise GroupError(f"point {x} out of range")
        order = self.order()
        chain = build_chain(
            self.degree,
            self._strong_generators(),
            base_prefix=(x,),
            known_order=order,
        )
        if chain.base and chain.base[0] == x:
            tail = chain.tail()
        else:
            # x is fixed by the whole group
            tail = chain
        gens = [Permutation._wrap(g) for level in tail.sgd for g in level]
        # dedupe, preserving order
        uniq = []
        seen = set()
        for p in gens:
            if p.images not in seen:
                seen.add(p.images)
                uniq.append(p)
        return PermGroup._with_chain(self.degree, uniq, tail)

    def _strong_generators(self):
        chain = self.chain()
        out = []
        seen = set()
        for level in chain.sgd:
            for g in level:
                if g not in seen:
                    seen.add(g)
                    out.append(g)
        if not out:
            return self.raw_generators
        return out

    def stabilizer_orbits_on(self, x, points):
        """Sorted orbit sizes of the stabilizer of ``x`` on ``points``.

        ``points`` must be invariant under the stabilizer; an image escaping
        the set is an error.
        """
        stab = self.stabilizer(x)
        return orbit_sizes_within(stab, points)

    def derived_subgroup(self):
        """Normal closure of the generator commutators, with chain."""
        gens = self.raw_generators
        ident = _identity(self.degree)
        sub = []
        chain = _Chain(self.degree, [], [], [], [])

        def try_add(p):
            nonlocal chain
            residue, _ = chain.sift(p)
            if residue == ident:
                return False
            sub.append(p)
            chain = build_chain(self.degree, sub)
            return True

        queue = deque()
        for a in gens:
            for b in gens:
                comm = _mul(_mul(_inv(a), _inv(b)), _mul(a, b))
                if try_add(comm):
                    queue.append(comm)
        while queue:
            d = queue.popleft()
            for g in gens:
                conj = _mul(_mul(_inv(g), d), g)
                if try_add(conj):
                    queue.append(conj)
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
        """The three index-2 subgroups containing the derived subgroup.

        Requires the quotient by the derived subgroup to be elementary
        abelian of order 4; cosets are classified by enumerating elements
        and sifting against the derived subgroup.
        """
        D = self.derived_subgroup()
        order = self.order()
        dorder = D.order()
        if dorder * 4 != order:
            raise GroupError(
                f"quotient by derived subgroup has order {order // dorder}, not 4"
            )
        reps = []  # non-identity coset representatives
        dchain = D.chain()
        ident = _identity(self.degree)
        for p in self.elements():
            raw = p.images
            residue, _ = dchain.sift(raw)
            if residue == ident:
                continue
            new = True
            for r in reps:
                residue, _ = dchain.sift(_mul(_inv(r), raw))
                if residue == ident:
                    new = False
                    break
            if new:
                reps.append(raw)
                if len(reps) == 3:
                    break
        if len(reps) != 3:
            raise GroupError("could not find three cosets over derived subgroup")
        for r in reps:
            residue, _ = dchain.sift(_mul(r, r))
            if residue != ident:
                raise GroupError("quotient by derived subgroup is not elementary abelian")
        out = []
        for r in reps:
            H = PermGroup(
                self.degree,
                list(D.generators) + [Permutation._wrap(r)],
            )
            if H.order() != 2 * dorder:
                raise GroupError("index-2 candidate has wrong order")
            out.append(H)
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

    def restrict(self, points):
        """Action on an invariant point set, relabeled to 0..len-1 in the
        given order."""
        pos = {v: i for i, v in enumerate(points)}
        gens = []
        for p in self.generators:
            imgs = []
            for v in points:
                w = p.images[v]
                if w not in pos:
                    raise GroupError(f"point set not invariant: {v} -> {w}")
                imgs.append(pos[w])
            gens.append(Permutation(imgs))
        return PermGroup(len(points), gens)

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


def on_points(g, x):
    return g[x]


def on_tuples(g, t):
    """Componentwise action on a tuple of points."""
    return tuple(map(g.__getitem__, t))


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


def orbit_sizes_within(G, points):
    """Sorted orbit sizes of ``G`` restricted to ``points`` (must be
    invariant)."""
    gens = G.raw_generators
    pts = set(points)
    left = set(pts)
    sizes = []
    while left:
        orb = orbit_closure(gens, [next(iter(left))], within=pts)
        left -= orb
        sizes.append(len(orb))
    return sorted(sizes)


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
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise GroupError("generator file header must be 'deg k'")
        deg, k = int(header[0]), int(header[1])
        gens = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            imgs = [int(x) for x in line.split()]
            if len(imgs) != deg:
                raise GroupError("generator row length does not match degree")
            gens.append(Permutation(imgs))
    if len(gens) != k:
        raise GroupError(f"expected {k} generators, found {len(gens)}")
    return PermGroup(deg, gens)
