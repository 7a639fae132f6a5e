"""GF(q) arithmetic and the graph/group families under study: standard
graphs, the Hoffman-Singleton graph, incidence graphs of the Desarguesian
plane PG(2,q), the symplectic quadrangle W(3,q) and the split Cayley hexagon
H(q), plus the Moebius groups on PG(1,9) and the 45-pair chamber model.

Conventions fixed for reproducibility:
  * one irreducible polynomial per prime power (GF(9) = GF(3)[t]/(t^2+1));
  * the primitive element is the smallest field index of multiplicative
    order q-1 (for GF(9) that is t+1, index 4);
  * projective points are normalised so the first nonzero coordinate is 1
    and ordered lexicographically by field-element index; vertex numbering
    follows that order, points before lines.
"""

from dataclasses import dataclass
from itertools import combinations, product

from .graphs import Graph, GraphError
from .perms import Permutation, PermGroup

# irreducible polynomials, coefficients lowest degree first, monic
_IRREDUCIBLE = {
    4: (1, 1, 1),  # t^2+t+1 over GF(2)
    8: (1, 1, 0, 1),  # t^3+t+1 over GF(2)
    9: (1, 0, 1),  # t^2+1 over GF(3)
    16: (1, 1, 0, 0, 1),  # t^4+t+1 over GF(2)
}

_SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9, 16)


def _factor_prime_power(q):
    for p in (2, 3, 5, 7, 11, 13):
        if q % p == 0:
            e = 0
            n = q
            while n % p == 0:
                n //= p
                e += 1
            if n == 1:
                return p, e
            return None
    return None


class GField:
    """Arithmetic tables for GF(q), q = p^e <= 16.

    Elements are integers 0..q-1 encoding polynomial coefficient vectors in
    base p, constant coefficient first.  Field axioms are verified
    exhaustively at construction.
    """

    def __init__(self, q):
        if q not in _SUPPORTED_Q:
            raise GraphError(f"unsupported field order {q}")
        pe = _factor_prime_power(q)
        p, e = pe
        self.q = q
        self.p = p
        self.e = e
        self.add = tuple(
            tuple(self._poly_add(a, b) for b in range(q)) for a in range(q)
        )
        self.mul = tuple(
            tuple(self._poly_mul(a, b) for b in range(q)) for a in range(q)
        )
        self.neg = tuple(self._poly_neg(a) for a in range(q))
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self.mul[a][b] == 1:
                    inv[a] = b
                    break
            else:
                raise GraphError(f"no inverse for {a} in GF({q})")
        self.inv = tuple(inv)
        self.primitive = self._find_primitive()
        self._check_axioms()

    def _digits(self, a):
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def _undigits(self, coeffs):
        a = 0
        for c in reversed(coeffs):
            a = a * self.p + (c % self.p)
        return a

    def _poly_add(self, a, b):
        da, db = self._digits(a), self._digits(b)
        return self._undigits([(x + y) % self.p for x, y in zip(da, db)])

    def _poly_neg(self, a):
        return self._undigits([(-x) % self.p for x in self._digits(a)])

    def _poly_mul(self, a, b):
        da, db = self._digits(a), self._digits(b)
        prod_coeffs = [0] * (2 * self.e - 1)
        for i, x in enumerate(da):
            if x == 0:
                continue
            for j, y in enumerate(db):
                prod_coeffs[i + j] = (prod_coeffs[i + j] + x * y) % self.p
        if self.e == 1:
            return prod_coeffs[0]
        irr = _IRREDUCIBLE[self.q]
        # reduce modulo the irreducible polynomial (monic, degree e)
        for d in range(len(prod_coeffs) - 1, self.e - 1, -1):
            c = prod_coeffs[d]
            if c == 0:
                continue
            prod_coeffs[d] = 0
            for k in range(self.e):
                prod_coeffs[d - self.e + k] = (
                    prod_coeffs[d - self.e + k] - c * irr[k]
                ) % self.p
        return self._undigits(prod_coeffs[: self.e])

    def _find_primitive(self):
        for g in range(2, self.q):
            x = g
            order = 1
            while x != 1:
                x = self.mul[x][g]
                order += 1
            if order == self.q - 1:
                return g
        return 1  # GF(2)

    def sub(self, a, b):
        return self.add[a][self.neg[b]]

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero field element")
        return self.mul[a][self.inv[b]]

    def pow(self, a, k):
        out = 1
        for _ in range(k):
            out = self.mul[out][a]
        return out

    def squares(self):
        return sorted({self.mul[a][a] for a in range(1, self.q)})

    def _check_axioms(self):
        q = self.q
        rng = range(q)
        for a in rng:
            if self.add[a][0] != a or self.mul[a][1] != a:
                raise GraphError("identity axiom failed")
            if self.add[a][self.neg[a]] != 0:
                raise GraphError("negation axiom failed")
        for a in rng:
            for b in rng:
                if self.add[a][b] != self.add[b][a] or self.mul[a][b] != self.mul[b][a]:
                    raise GraphError("commutativity failed")
        for a in rng:
            for b in rng:
                for c in rng:
                    if self.add[self.add[a][b]][c] != self.add[a][self.add[b][c]]:
                        raise GraphError("additive associativity failed")
                    if self.mul[self.mul[a][b]][c] != self.mul[a][self.mul[b][c]]:
                        raise GraphError("multiplicative associativity failed")
                    if self.mul[a][self.add[b][c]] != self.add[self.mul[a][b]][self.mul[a][c]]:
                        raise GraphError("distributivity failed")

    def __repr__(self):
        return f"GField(q={self.q}, primitive={self.primitive})"


_FIELD_CACHE = {}


def gf(q):
    """Verified field tables for GF(q); unsupported q is an error."""
    if q not in _FIELD_CACHE:
        _FIELD_CACHE[q] = GField(q)
    return _FIELD_CACHE[q]


# ---------------------------------------------------------------------------
# standard graphs


def complete(n):
    if n < 1:
        raise GraphError("complete graph needs at least one vertex")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a, b):
    if a < 1 or b < 1:
        raise GraphError("bipartition sides must be nonempty")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def cycle(n):
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen():
    """Kneser graph on the 2-subsets of {0..4}: pairs adjacent when
    disjoint.  Vertex order is the lexicographic pair order."""
    pairs = list(combinations(range(5), 2))
    edges = []
    for i, p in enumerate(pairs):
        for j in range(i + 1, len(pairs)):
            if not set(p) & set(pairs[j]):
                edges.append((i, j))
    labels = [f"{{{a},{b}}}" for a, b in pairs]
    return Graph(10, edges, labels)


def petersen_s5():
    """The Petersen graph together with the natural S5 action on it."""
    gens5 = [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]
    return petersen(), pair_action(PermGroup(5, gens5), 5)


def hoffman_singleton():
    """Fifty vertices from five pentagons P_h and five pentagrams Q_i;
    vertex j of P_h is joined to vertex (h*i + j) mod 5 of Q_i."""
    edges = []
    for h in range(5):
        for j in range(5):
            edges.append((5 * h + j, 5 * h + (j + 1) % 5))
    for i in range(5):
        for j in range(5):
            edges.append((25 + 5 * i + j, 25 + 5 * i + (j + 2) % 5))
    for h in range(5):
        for i in range(5):
            for j in range(5):
                edges.append((5 * h + j, 25 + 5 * i + (h * i + j) % 5))
    labels = [f"P{h}({j})" for h in range(5) for j in range(5)]
    labels += [f"Q{i}({j})" for i in range(5) for j in range(5)]
    return Graph(50, sorted(set(edges)), labels)


# ---------------------------------------------------------------------------
# projective geometry


def projective_points(field, dim):
    """Points of PG(dim, q): normalised nonzero coordinate vectors,
    first nonzero coordinate 1, sorted lexicographically."""
    # the later the leading 1, the earlier the point
    return [(0,) * lead + (1,) + tail
            for lead in reversed(range(dim + 1))
            for tail in product(range(field.q), repeat=dim - lead)]


@dataclass(frozen=True)
class GeometryGraph:
    """Bipartite point/line incidence graph with coordinate labels."""

    graph: Graph
    points: tuple
    lines: tuple

    @property
    def n_points(self):
        return len(self.points)

    @property
    def n_lines(self):
        return len(self.lines)


def _incidence_graph(pts, lines, names):
    """Point/line incidence graph: the points, then one vertex per line
    (a tuple of point indices), labelled by coordinates and ``names``."""
    np_ = len(pts)
    edges = [(i, np_ + j) for j, line in enumerate(lines) for i in line]
    labels = [f"P{p}" for p in pts] + [f"L{name}" for name in names]
    g = Graph(np_ + len(lines), edges, labels)
    return GeometryGraph(g, tuple(pts), tuple(names))


def incidence_pg2(q):
    """Incidence graph of the Desarguesian plane PG(2,q): points, then
    lines (as dual coordinate triples), incident when the dot product
    vanishes."""
    field = gf(q)
    pts = projective_points(field, 2)
    rank = {p: i for i, p in enumerate(pts)}
    lines = [sorted(rank[p] for p in _null_points(field, [a], 3)) for a in pts]
    return _incidence_graph(pts, lines, pts)


def _span_points(field, x, y):
    """The points on the line through two points whose leading 1s lie in
    different columns: v, the one that leads later, and u + c v for the
    other, u, and each c in GF(q), all led by u's 1."""
    (v, u), add, mul = sorted((x, y)), field.add, field.mul
    span = [tuple(add[a][mul[c][b]] for a, b in zip(u, v)) for c in range(field.q)]
    return tuple(sorted([v, *span]))


def _null_points(field, rows, n):
    """Normalised points of PG(n-1, q) on the solutions of ``rows`` . y = 0.
    Pivots are taken in the last column they can be, so the basis solution
    of each free column leads with a 1 there, where the others are 0: a
    combination whose first nonzero coefficient is 1 is normalised."""
    add, mul, neg = field.add, field.mul, field.neg
    rows, red = [list(r) for r in rows if any(r)], {}
    for col in reversed(range(n)):
        piv = next((r for r in rows if r[col]), None)
        if piv is None:
            continue
        rows.remove(piv)
        s = field.inv[piv[col]]
        piv = [mul[s][a] for a in piv]
        for r in rows + list(red.values()):
            if c := neg[r[col]]:
                r[:] = [add[a][mul[c][b]] for a, b in zip(r, piv)]
        red[col] = piv
    basis = [[neg[red[g][f]] if g in red else int(g == f) for g in range(n)]
             for f in range(n) if f not in red]
    points = []
    for coeffs in projective_points(field, len(basis) - 1):
        y = (0,) * n
        for c, b in zip(coeffs, basis):
            y = tuple(add[a][mul[c][u]] for a, u in zip(y, b))
        points.append(y)
    return points


def _lines_per_point(field, pts, equations):
    """Incidence graph of the lines joining each point x of ``pts`` to the
    points y of ``pts`` with ``equations(x)`` . y = 0, a symmetric relation
    that x satisfies; the line xy lies in ``pts`` when y does, else meets
    it in x alone.  Lines are named by their sorted point indices.

    Each line through x in the solution space meets y_t = 0, t the column
    of x's leading 1, in one point y.  x is the line's least point, the
    one that leads last, exactly when y leads before it, that is y > x: so
    each line is spanned once, from its least point."""
    rank = {p: i for i, p in enumerate(pts)}
    lines = []
    for x in pts:
        lead = [int(k == x.index(1)) for k in range(len(x))]
        for y in _null_points(field, [*equations(x), lead], len(x)):
            if y > x and y in rank:
                lines.append(tuple(sorted(rank[p] for p in _span_points(field, x, y))))
    lines.sort()
    return _incidence_graph(pts, lines, lines)


def incidence_w3(q):
    """Incidence graph of the symplectic quadrangle W(3,q): all points of
    PG(3,q) and the totally isotropic lines of the alternating form
    x0*y1 - x1*y0 + x2*y3 - x3*y2.  The points collinear with x are the
    solutions of that one equation, linear in y: x's perp, a plane."""
    field = gf(q)
    neg = field.neg
    return _lines_per_point(field, projective_points(field, 3),
                            lambda x: [(neg[x[1]], x[0], neg[x[3]], x[2])])


def incidence_hexagon(q):
    """Incidence graph of the split Cayley hexagon H(q), q in {2, 3}.

    Points are the points of the parabolic quadric Q(6,q):
    x0*x4 + x1*x5 + x2*x6 = x3^2.  Lines are the quadric lines whose
    Grassmann coordinates p_ij = x_i*y_j - x_j*y_i satisfy the six linear
    relations of the standard model:
        p12 = p34, p20 = p35, p01 = p36,
        p30 = p65, p31 = p46, p32 = p54.
    For a fixed x the relations are linear in y, and so is the quadric's
    polar form B(x, y): x and y on the quadric span a quadric line exactly
    when B(x, y) = 0, as then Q(x + ty) = t B(x, y).  So the points on the
    lines through x are the quadric points among the solutions of seven
    linear equations.  Correctness is accepted behaviourally (counts,
    girth 12, diameter 6, cage certificate) rather than symbolically.
    """
    if q not in (2, 3):
        raise GraphError(f"hexagon supported for q in {{2,3}}, got {q}")
    field = gf(q)
    add, neg = field.add, field.neg

    def quadric(x):
        s = field.mul[x[0]][x[4]]
        s = field.add[s][field.mul[x[1]][x[5]]]
        s = field.add[s][field.mul[x[2]][x[6]]]
        return field.sub(s, field.mul[x[3]][x[3]])

    relations = ((1, 2, 3, 4), (2, 0, 3, 5), (0, 1, 3, 6),
                 (3, 0, 6, 5), (3, 1, 4, 6), (3, 2, 5, 4))

    def equations(x):  # each p_ij - p_kl, then B(x, y), as a row in y
        rows = [[0] * 7 for _ in relations]
        for r, (i, j, k, l) in zip(rows, relations):
            r[i], r[j], r[k], r[l] = neg[x[j]], x[i], x[l], neg[x[k]]
        return [*rows, (x[4], x[5], x[6], neg[add[x[3]][x[3]]], *x[:3])]

    pts = [p for p in projective_points(field, 6) if quadric(p) == 0]
    return _lines_per_point(field, pts, equations)


# ---------------------------------------------------------------------------
# Moebius groups on PG(1,q) and the chamber model of W(3,2)

INFTY = "inf"


def projective_line(field):
    """Points of PG(1,q) in vertex order: (0,1) first (the point at
    infinity), then (1,a) for a = 0..q-1."""
    return [INFTY] + list(range(field.q))


def _moebius_perm(field, fn):
    """Permutation of PG(1,q) induced by a function on GF(q) + infinity."""
    pts = projective_line(field)
    pos = {p: i for i, p in enumerate(pts)}
    return Permutation([pos[fn(p)] for p in pts])


def _mobius_generators(field):
    """Named generators of the Moebius-type groups over GF(q)."""
    nu = field.primitive
    nu2 = field.mul[nu][nu]

    def shift(z):
        return z if z == INFTY else field.add[z][1]

    def mul_by(c):
        def f(z):
            return z if z == INFTY else field.mul[c][z]

        return f

    def neg_inverse(z):
        # z -> -1/z with 0 and infinity swapped
        if z == INFTY:
            return 0
        if z == 0:
            return INFTY
        return field.neg[field.inv[z]]

    def frobenius(z):
        return z if z == INFTY else field.pow(z, field.p)

    def nu_frobenius(z):
        return z if z == INFTY else field.mul[nu][field.pow(z, field.p)]

    return {
        "shift": _moebius_perm(field, shift),
        "mul_sq": _moebius_perm(field, mul_by(nu2)),
        "neg_inv": _moebius_perm(field, neg_inverse),
        "mul_prim": _moebius_perm(field, mul_by(nu)),
        "frobenius": _moebius_perm(field, frobenius),
        "nu_frobenius": _moebius_perm(field, nu_frobenius),
    }


@dataclass(frozen=True)
class MobiusGroups:
    """The subgroup ladder over PSL(2,9) acting on the 10 points of
    PG(1,9): vertex 0 is the point at infinity, vertex 1+a is the field
    element a."""

    field: GField
    psl: PermGroup
    pgl: PermGroup
    psigmal: PermGroup
    m10: PermGroup
    pgammal: PermGroup


def mobius_subgroups():
    """PSL(2,9), PGL(2,9), PSigmaL(2,9), M10 and the ambient PGammaL(2,9)
    on the 10 points of PG(1,9), with verified orders."""
    field = gf(9)
    gens = _mobius_generators(field)
    psl_gens = [gens["shift"], gens["mul_sq"], gens["neg_inv"]]
    psl = PermGroup(10, psl_gens)
    pgl = PermGroup(10, psl_gens + [gens["mul_prim"]])
    psigmal = PermGroup(10, psl_gens + [gens["frobenius"]])
    m10 = PermGroup(10, psl_gens + [gens["nu_frobenius"]])
    pgammal = PermGroup(10, psl_gens + [gens["mul_prim"], gens["frobenius"]])
    expected = ((psl, 360), (pgl, 720), (psigmal, 720), (m10, 720), (pgammal, 1440))
    for group, order in expected:
        if group.order() != order:
            raise GraphError(
                f"Moebius subgroup has order {group.order()}, expected {order}"
            )
    return MobiusGroups(field, psl, pgl, psigmal, m10, pgammal)


def pgammal2(q):
    """PGammaL(2,q) acting on the q+1 points of PG(1,q)."""
    field = gf(q)
    gens = _mobius_generators(field)
    named = [gens["shift"], gens["mul_prim"], gens["neg_inv"]]
    if field.e > 1:
        named.append(gens["frobenius"])
    return PermGroup(field.q + 1, named)


def cross_ratio(field, a, b, c, d):
    """(a,b;c,d) = ((a-c)(b-d)) / ((a-d)(b-c)) on GF(q) + infinity.

    The factors containing the point at infinity cancel formally
    ((inf-c)/(inf-d) = 1), which leaves one degenerate formula per slot:
      * a = inf:  (b-d)/(b-c)
      * b = inf:  (a-c)/(a-d)
      * c = inf:  (b-d)/(a-d)
      * d = inf:  (a-c)/(b-c)
    Distinct points admit at most one infinity, so the branches are
    exclusive; Moebius invariance of the exact value is unit-tested.
    """
    if a == INFTY:
        return field.div(field.sub(b, d), field.sub(b, c))
    if b == INFTY:
        return field.div(field.sub(a, c), field.sub(a, d))
    if c == INFTY:
        return field.div(field.sub(b, d), field.sub(a, d))
    if d == INFTY:
        return field.div(field.sub(a, c), field.sub(b, c))
    num = field.mul[field.sub(a, c)][field.sub(b, d)]
    den = field.mul[field.sub(a, d)][field.sub(b, c)]
    return field.div(num, den)


@dataclass(frozen=True)
class ChamberModel:
    """Opposition graph on the 45 unordered pairs of PG(1,9) plus the
    induced pair actions of the Moebius groups."""

    graph: Graph
    pairs: tuple
    psl: PermGroup
    pgl: PermGroup
    psigmal: PermGroup
    m10: PermGroup
    pgammal: PermGroup


def pair_action(G, n_points):
    """Induced action on unordered pairs, ordered lexicographically."""
    return G.restrict(list(combinations(range(n_points), 2)))


def chamber_model_w32():
    """Chambers of W(3,2) as the 45 unordered point pairs of PG(1,9);
    two disjoint pairs are opposite when their cross-ratio is a
    non-square."""
    groups = mobius_subgroups()
    field = groups.field
    pts = projective_line(field)
    pairs = list(combinations(range(10), 2))
    squares = set(field.squares())
    edges = []
    for i, (a, b) in enumerate(pairs):
        for j in range(i + 1, len(pairs)):
            c, d = pairs[j]
            if {a, b} & {c, d}:
                continue
            cr = cross_ratio(field, pts[a], pts[b], pts[c], pts[d])
            if cr != 0 and cr not in squares:
                edges.append((i, j))
    labels = [f"{{{pts[a]},{pts[b]}}}" for a, b in pairs]
    graph = Graph(45, edges, labels)
    return ChamberModel(
        graph,
        tuple(pairs),
        pair_action(groups.psl, 10),
        pair_action(groups.pgl, 10),
        pair_action(groups.psigmal, 10),
        pair_action(groups.m10, 10),
        pair_action(groups.pgammal, 10),
    )
