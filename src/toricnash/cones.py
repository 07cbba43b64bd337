"""Strictly convex rational polyhedral cones with exact integer arithmetic.

A Cone is stored canonically: primitive extreme rays sorted lexicographically,
a Hermite-form basis of the lineality lattice (empty when pointed), plus
facet normals and span equations obtained from the dual description.  All
derived data (faces and the singular ones, triangulation cells, Hilbert
basis, grading functional, multiplicity) is computed lazily and cached
idempotently, so concurrent readers are safe.

Duality is computed with an exact double description method, except for
full-dimensional simplicial cones, whose facet normals are the columns of one
fraction-free adjugate of the ray matrix (see _cone_from_generators).  A cone
given by equations and inequalities is built by cone_from_inequalities, the
one H-to-V entry point: a single double-description pass to its rays, then
the V-side constructor.
Supported ambient dimension is small (the library targets desk-scale instances
of dimension <= 6).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from . import intlinalg as la
from .errors import (
    NonPointed,
    NotInCone,
    NotSimplicial,
    ValidationError,
    ZeroVector,
)

Vec = la.Vec


# ---------------------------------------------------------------------------
# double description
# ---------------------------------------------------------------------------

def _extreme_rays(dim, eqs, ineqs):
    """V-representation (lines, rays) of {x : e.x = 0 for e in eqs, a.x >= 0}.

    Classic incremental double description with exact integers.  Lines span
    the lineality space; rays are the extreme rays modulo that space.
    """
    lines = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    rays: list[Vec] = []
    processed: list[Vec] = []

    def adjacent(r1, r2):
        zs = [c for c in processed if la.dot(c, r1) == 0 and la.dot(c, r2) == 0]
        want = dim - len(lines) - 2
        return la.rank(zs) == want if zs else want == 0

    constraints = [(la.vec(e), True) for e in eqs] + [(la.vec(a), False) for a in ineqs]
    for a, is_eq in constraints:
        if la.is_zero(a):
            continue
        l0 = next((l for l in lines if la.dot(a, l) != 0), None)
        if l0 is not None:
            if la.dot(a, l0) < 0:
                l0 = la.vneg(l0)
            p0 = la.dot(a, l0)
            new_lines = []
            for l in lines:
                if l is l0 or l == l0 or l == la.vneg(l0):
                    continue
                p = la.dot(a, l)
                new_lines.append(l if p == 0 else
                                 la.primitive_part(la.vsub(la.vscale(p0, l), la.vscale(p, l0))))
            new_rays = []
            for r in rays:
                p = la.dot(a, r)
                new_rays.append(r if p == 0 else
                                la.primitive_part(la.vsub(la.vscale(p0, r), la.vscale(p, l0))))
            lines = new_lines
            rays = new_rays
            if not is_eq:
                rays.append(la.primitive_part(l0))
        else:
            paired = [(la.dot(a, r), r) for r in rays]
            plus = [(p, r) for p, r in paired if p > 0]
            minus = [(p, r) for p, r in paired if p < 0]
            if minus or (is_eq and plus):
                combos = []
                seen = set()
                for pp, rp in plus:
                    for pm, rm in minus:
                        if not adjacent(rp, rm):
                            continue
                        c = la.primitive_part(
                            la.vsub(la.vscale(pp, rm), la.vscale(pm, rp)))
                        if c not in seen:
                            seen.add(c)
                            combos.append(c)
                rays = ([] if is_eq else [r for _, r in plus]) + \
                    [r for p, r in paired if p == 0] + combos
        processed.append(a)
    return tuple(lines), tuple(rays)


def _canonical_lines_rays(dim, lines, rays):
    """Canonicalize a (lines, rays) pair: HNF lineality basis, rays reduced to
    canonical lifts of their primitive quotient images, sorted and deduped.

    The quotient by the lines and the lift back are those of
    la.lattice_frame(lines, dim): the lift of q is (0, q) P.
    """
    lines = tuple(l for l in lines if not la.is_zero(l))
    if not lines:
        out = sorted({la.primitive_part(r) for r in rays if not la.is_zero(r)})
        return (), tuple(out)
    P, Q, k = la.lattice_frame(lines, dim)
    out = set()
    for r in rays:
        q = la.vec_mat(r, Q)[k:]
        if not la.is_zero(q):
            out.add(la.vec_mat(la.zero_vec(k) + la.primitive_part(q), P))
    return P[:k], tuple(sorted(out))


# ---------------------------------------------------------------------------
# Cone
# ---------------------------------------------------------------------------

class Cone:
    """A rational polyhedral cone in Z^d, canonical and immutable.

    Pointed unless `lines` is nonempty; every operation except duality and
    membership rejects non-pointed cones.
    """

    __slots__ = ("_ambient", "_rays", "_lines", "_normals", "_span_eqs",
                 "_faces", "_singular", "_cells", "_hb", "_ell", "_mult",
                 "_levels", "_key", "_hash")

    def __init__(self, ambient, rays, lines, normals, span_eqs):
        self._ambient = ambient
        self._rays = rays
        self._lines = lines
        self._normals = normals
        self._span_eqs = span_eqs
        self._faces = None
        self._singular = None
        self._cells = None
        self._hb = None
        self._ell = None
        self._mult = None
        self._levels = None
        self._key = (ambient, rays, lines)
        self._hash = hash(self._key)

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_rays(rays, ambient_dim=None):
        rays = [la.vec(r) for r in rays]
        if ambient_dim is None:
            if not rays:
                raise ValueError("ambient_dim is required for a cone with no rays")
            ambient_dim = len(rays[0])
        return _cone_from_generators(ambient_dim, tuple(sorted(
            {la.primitive_part(r) for r in rays if not la.is_zero(r)})), ())

    @staticmethod
    def from_generators(ambient_dim, rays=(), lines=()):
        rays = tuple(sorted({la.primitive_part(la.vec(r)) for r in rays
                             if not la.is_zero(la.vec(r))}))
        lines = la.saturation_basis([la.vec(l) for l in lines])
        return _cone_from_generators(ambient_dim, rays, lines)

    # -- basic data ----------------------------------------------------------

    @property
    def ambient_dim(self):
        return self._ambient

    @property
    def rays(self):
        return self._rays

    @property
    def lines(self):
        return self._lines

    @property
    def facet_normals(self):
        return self._normals

    @property
    def span_equations(self):
        return self._span_eqs

    @property
    def dim(self):
        """Dimension of the cone (rank of its linear span)."""
        return self._ambient - len(self._span_eqs)

    @property
    def is_pointed(self):
        return not self._lines

    @property
    def is_simplicial(self):
        return self.is_pointed and len(self._rays) == self.dim

    def __eq__(self, other):
        return isinstance(other, Cone) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self._lines:
            return f"Cone(rays={list(self._rays)}, lines={list(self._lines)})"
        return f"Cone{list(self._rays)}"

    # -- membership ----------------------------------------------------------

    def contains(self, v):
        v = la.vec(v)
        return (all(la.dot(e, v) == 0 for e in self._span_eqs)
                and all(la.dot(u, v) >= 0 for u in self._normals))

    def __contains__(self, v):
        return self.contains(v)

    def relint_contains(self, v):
        """True iff v lies in the relative interior of the cone."""
        v = la.vec(v)
        return (all(la.dot(e, v) == 0 for e in self._span_eqs)
                and all(la.dot(u, v) > 0 for u in self._normals))

    def _require_pointed(self):
        if self._lines:
            raise NonPointed(f"operation requires a pointed cone, got {self!r}")


@lru_cache(maxsize=None)
def _cone_from_generators(ambient, rays, lines):
    """The canonical cone generated by primitive sorted rays and an HNF
    lineality basis.

    A full-dimensional simplicial cone needs no double description.  With the
    rays r_i as the rows of R and det R != 0, R adj(R) = det(R) I: column i
    of adj(R) pairs to zero with every ray but r_i and to det(R) with r_i.
    So sign(det) times that column, made primitive, is the inward normal of
    the facet opposite r_i; every ray is extreme, there are no span
    equations, and the multiplicity is |det R|.  Every other input (lines,
    fewer or more rays than the dimension, dependent rays) takes the double
    description.
    """
    if not lines and len(rays) == ambient:
        det, adj = la.adjugate(rays)
        if det:
            sign = 1 if det > 0 else -1
            normals = sorted(la.primitive_part(tuple(sign * row[i] for row in adj))
                             for i in range(ambient))
            cone = Cone(ambient, rays, (), tuple(normals), ())
            cone._mult = abs(det)
            return cone
    return _double_description(ambient, rays, lines)


def _double_description(ambient, rays, lines):
    """The cone of _cone_from_generators for any input, by double
    description: the dual description, then the primal back from it."""
    # dual description: {u : u.r >= 0 for rays, u.l = 0 for lines}
    dlines, drays = _extreme_rays(ambient, eqs=lines, ineqs=rays)
    span_eqs, normals = _canonical_lines_rays(ambient, dlines, drays)
    # primal from the dual: certifies extreme rays and the lineality lattice
    plines, prays = _extreme_rays(ambient, eqs=span_eqs, ineqs=normals)
    can_lines, can_rays = _canonical_lines_rays(ambient, plines, prays)
    return Cone(ambient, can_rays, can_lines, normals, span_eqs)


def dual_cone(c: Cone) -> Cone:
    """{u in M_R : <u, v> >= 0 for all v in c}, with primitive extreme rays."""
    return Cone.from_generators(c.ambient_dim, rays=c.facet_normals,
                                lines=c.span_equations)


def span_chart(c: Cone):
    """(coords, lift_dual, chart): the dual of c in the lattice of its span.

    In the frame la.lattice_frame(c.rays, d), coords gives a vector's
    coordinates on la.saturation_basis(c.rays) and raises ValidationError
    outside the span; chart is the dual of the cone of c's ray coordinates;
    lift_dual extends a functional on the span lattice by zero on the
    frame's complement, so <lift_dual(u), v> = <u, coords(v)>.
    """
    _, Q, k = la.lattice_frame(c.rays, c.ambient_dim)

    def coords(v):
        y = la.vec_mat(v, Q)
        if not la.is_zero(y[k:]):
            raise ValidationError(f"{v} is outside the span lattice")
        return y[:k]

    def lift_dual(u):
        return la.mat_vec(Q, la.vec(u) + la.zero_vec(c.ambient_dim - k))

    return coords, lift_dual, dual_cone(
        Cone.from_rays([coords(r) for r in c.rays], k))


def cone_from_inequalities(ambient_dim, eqs=(), ineqs=()) -> Cone:
    """The cone {x : <e, x> = 0 for e in eqs, <a, x> >= 0 for a in ineqs}.

    One double-description pass gives its lines and rays; Cone.from_generators
    canonicalizes them, so a full-dimensional simplicial result takes the
    adjugate path.
    """
    lines, rays = _extreme_rays(ambient_dim, eqs=eqs, ineqs=ineqs)
    return Cone.from_generators(ambient_dim, rays=rays, lines=lines)


def intersect(c1: Cone, c2: Cone) -> Cone:
    """Intersection cone, from the combined inequality/equality descriptions."""
    if c1.ambient_dim != c2.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return cone_from_inequalities(c1.ambient_dim,
                                  eqs=c1.span_equations + c2.span_equations,
                                  ineqs=c1.facet_normals + c2.facet_normals)


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------

class Face:
    """A face of a pointed cone, identified by its extreme-ray subset.

    `zero_normals` is the maximal set of parent facet normals vanishing on the
    face; the relative interior is cut out by making exactly those pairings
    zero and all others strictly positive.
    """

    __slots__ = ("parent", "rays", "zero_normals", "_cone", "_dim", "_hash")

    def __init__(self, parent, rays, zero_normals):
        self.parent = parent
        self.rays = tuple(sorted(rays))
        self.zero_normals = tuple(sorted(zero_normals))
        self._cone = None
        self._dim = None
        self._hash = hash((parent, self.rays))

    def __eq__(self, other):
        return (isinstance(other, Face) and self.parent == other.parent
                and self.rays == other.rays)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Face{list(self.rays)}"

    @property
    def dim(self):
        # a face of a pointed cone is spanned by its extreme rays, so this
        # needs no double description
        if self._dim is None:
            self._dim = la.rank(self.rays)
        return self._dim

    def as_cone(self) -> Cone:
        if self._cone is None:
            self._cone = Cone.from_rays(self.rays, self.parent.ambient_dim)
        return self._cone

    def is_face_of(self, other: "Face") -> bool:
        return self.parent == other.parent and set(self.rays) <= set(other.rays)


def _face_from_rays(c: Cone, rays) -> Face:
    rayset = tuple(sorted(rays))
    zero = [u for u in c.facet_normals
            if all(la.dot(u, r) == 0 for r in rayset)]
    return Face(c, rayset, zero)


def enumerate_faces(c: Cone):
    """All faces of a pointed cone, each once, ordered by (dim, rays)."""
    c._require_pointed()
    if c._faces is not None:
        return c._faces
    facet_sets = []
    for u in c.facet_normals:
        facet_sets.append(frozenset(r for r in c.rays if la.dot(u, r) == 0))
    sets = {frozenset(c.rays)}
    frontier = set(facet_sets)
    while frontier:
        sets |= frontier
        nxt = set()
        for s in frontier:
            for f in facet_sets:
                t = s & f
                if t not in sets:
                    nxt.add(t)
        frontier = nxt - sets
    faces = [_face_from_rays(c, sorted(s)) for s in sets]
    faces.sort(key=lambda f: (f.dim, f.rays))
    c._faces = tuple(faces)
    return c._faces


def facets(c: Cone):
    d = c.dim
    return tuple(f for f in enumerate_faces(c) if f.dim == d - 1)


def face_spanned_by(c: Cone, vectors) -> Face:
    """Smallest face of c containing all the given vectors (assumed in c)."""
    zero = [u for u in c.facet_normals
            if all(la.dot(u, v) == 0 for v in vectors)]
    rays = [r for r in c.rays if all(la.dot(u, r) == 0 for u in zero)]
    return _face_from_rays(c, rays)


def smallest_containing_face(c: Cone, v) -> Face:
    """The unique face whose relative interior contains v."""
    v = la.vec(v)
    if v not in c:
        raise NotInCone(f"{v} is not in the cone")
    return face_spanned_by(c, (v,))


def relint_contains(f: Face, v) -> bool:
    """True iff v lies in the relative interior of the face."""
    v = la.vec(v)
    c = f.parent
    if v not in c:
        return False
    zero = set(f.zero_normals)
    for u in c.facet_normals:
        p = la.dot(u, v)
        if u in zero:
            if p != 0:
                return False
        elif p <= 0:
            return False
    return True


# ---------------------------------------------------------------------------
# smoothness, multiplicity, Hilbert basis
# ---------------------------------------------------------------------------

def multiplicity(c: Cone) -> int:
    """Index of the ray-generated sublattice in its saturation; 1 iff smooth.

    A full-dimensional simplicial cone carries it from construction, as
    |det| of its rays; any other simplicial cone takes a Smith form on first
    request.  Only pointed simplicial cones ever hold it."""
    if c._mult is None:
        c._require_pointed()
        if not c.is_simplicial:
            raise NotSimplicial(f"{c!r} is not simplicial")
        c._mult = la.sublattice_index(c.rays) if c.rays else 1
    return c._mult


def is_smooth(c: Cone) -> bool:
    """True iff the primitive rays extend to a basis of the ambient lattice."""
    c._require_pointed()
    return c.is_simplicial and multiplicity(c) == 1


def triangulate(c: Cone):
    """Pulling triangulation: simplicial subcones spanned by subsets of rays."""
    c._require_pointed()
    if len(c.rays) == c.dim:
        return (c.rays,)
    v = c.rays[0]
    out = []
    for f in facets(c):
        if v in f.rays:
            continue
        for simplex in triangulate(f.as_cone()):
            out.append(simplex + (v,))
    return tuple(out)


def parallelepiped_points(gens, ambient_dim):
    """Lattice points of {sum t_i g_i : 0 <= t_i < 1} for independent gens.

    Enumerated group-theoretically (one point per coset of the generated
    sublattice in its saturation), so the cost is exactly the multiplicity.
    In the saturation's basis the gens are the columns of A, with Smith form
    D = U A V.  The coset of U^-1 t has coefficients A^-1 U^-1 t = V D^-1 t on
    the gens.  Scaled by N, the last invariant factor (every d_j divides it),
    they are the integers V (N/d_j t_j); reduced mod N they are N times the
    fractional parts, so the point is their combination of the gens divided
    exactly by N.
    """
    gens = [la.vec(g) for g in gens]
    if not gens:
        return (la.zero_vec(ambient_dim),)
    _, Q, k = la.lattice_frame(gens, ambient_dim)
    assert k == len(gens), "generators must be linearly independent"
    # columns are the coordinates of the gens on the saturation's basis
    A = la.transpose([la.vec_mat(g, Q)[:k] for g in gens])
    D, _, V = la.smith_normal_form(A)
    d = la.diagonal(D)
    N = d[-1]
    # column j of V scaled by N / d_j: the step of N * coefficients per t_j
    steps = [tuple(V[i][j] * (N // d[j]) for i in range(k)) for j in range(k)]
    points = []
    for t in itertools.product(*(range(x) for x in d)):
        mu = [sum(s[i] * tj for s, tj in zip(steps, t)) % N for i in range(k)]
        points.append(tuple(sum(m * g[c] for m, g in zip(mu, gens)) // N
                            for c in range(ambient_dim)))
    return tuple(sorted(points))


def simplex_cells(c: Cone):
    """((simplex rays, parallelepiped points), ...) over triangulate(c).

    Computed once per cone: the Hilbert basis, the region minima and the star
    centres of a simplicial cone all read these cells.
    """
    c._require_pointed()
    if c._cells is None:
        c._cells = tuple((s, parallelepiped_points(s, c.ambient_dim))
                         for s in triangulate(c))
    return c._cells


def hilbert_basis(c: Cone):
    """Unique minimal generating set of the monoid c intersect Z^d, sorted.

    The candidates are the rays and the nonzero lattice points of the
    half-open parallelepipeds of triangulate(c); they hold the basis.  They
    are reduced in order of grading level (Bruns and Ichim, "Normaliz:
    algorithms for affine monoids and rational cones", J. Algebra 2010).  The
    grading positive_functional(c) is at least 1 on every nonzero lattice
    point of c, so a reducible g = a + b has summands of lower level, and
    splitting a further ends at an irreducible h with g - h in c and
    level(h) < level(g).  So g needs testing only against the basis elements
    already kept at a lower level.
    """
    c._require_pointed()
    if c._hb is not None:
        return c._hb
    if not c.rays:
        c._hb = ()
        return c._hb
    gens = set(c.rays)
    for _, points in simplex_cells(c):
        gens.update(p for p in points if not la.is_zero(p))
    ell = positive_functional(c)
    kept = []  # (level, element) pairs, by nondecreasing level
    for level, g in sorted((la.dot(ell, g), g) for g in gens):
        lower = itertools.takewhile(lambda e: e[0] < level, kept)
        if not any(c.contains(la.vsub(g, h)) for _, h in lower):
            kept.append((level, g))
    c._hb = tuple(sorted(g for _, g in kept))
    return c._hb


def cone_leq(c: Cone, v, w) -> bool:
    """The cone partial order: v <= w iff w - v lies in c."""
    return c.contains(la.vsub(la.vec(w), la.vec(v)))


def positive_functional(c: Cone) -> Vec:
    """A primitive dual vector pairing >= 1 with every ray (grading for BFS).

    Chosen as the primitive part of the sum of the facet normals; for the zero
    cone any functional works and a fixed one is returned.
    """
    c._require_pointed()
    if c._ell is not None:
        return c._ell
    if not c.rays:
        c._ell = (1,) + la.zero_vec(c.ambient_dim - 1) if c.ambient_dim else ()
        return c._ell
    ell = la.primitive_part(la.vsum(c.facet_normals, c.ambient_dim))
    for r in c.rays:
        if la.dot(ell, r) < 1:
            raise ZeroVector(f"grading functional pairs nonpositively with ray {r}")
    c._ell = ell
    return ell


def level_points(c: Cone, level: int, ell: Vec | None = None):
    """Lattice points v of the cone with <ell, v> == level, sorted.

    The slice is a bounded polytope (the cone is pointed and ell is positive
    on it), enumerated through its exact bounding box.
    """
    if ell is None:
        ell = positive_functional(c)
    if level < 0:
        return ()
    if level == 0:
        return (la.zero_vec(c.ambient_dim),) if c.contains(la.zero_vec(c.ambient_dim)) else ()
    if not c.rays:
        return ()
    lo = []
    hi = []
    for i in range(c.ambient_dim):
        vals = [Fraction(level * r[i], la.dot(ell, r)) for r in c.rays]
        m, M = min(vals), max(vals)
        lo.append(-((-m.numerator) // m.denominator))  # ceil
        hi.append(M.numerator // M.denominator)        # floor
    out = []
    for v in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        if la.dot(ell, v) == level and c.contains(v):
            out.append(la.vec(v))
    return tuple(out)


def monoid_level_points(c: Cone, level: int):
    """Lattice points at the given grading level, generated monoidally.

    Same set as level_points, but built by adding Hilbert basis elements to
    lower levels, which avoids scanning boxes and is fast for repeated level
    sweeps.  Levels are cached on the cone.
    """
    c._require_pointed()
    if level < 0:
        return ()
    if c._levels is None:
        c._levels = {0: (la.zero_vec(c.ambient_dim),)}
    cache = c._levels
    if level in cache:
        return cache[level]
    ell = positive_functional(c)
    steps = [(h, la.dot(ell, h)) for h in hilbert_basis(c)]
    top = max(cache)
    for j in range(top + 1, level + 1):
        pts = set()
        for h, lh in steps:
            for p in cache[j - lh] if j >= lh else ():
                pts.add(la.vadd(p, h))
        cache[j] = tuple(sorted(pts))
    return cache[level]


def points_up_to_level(c: Cone, cap: int):
    """All lattice points of the cone with grading level 1..cap, by level."""
    out = []
    for k in range(1, cap + 1):
        out.extend(monoid_level_points(c, k))
    return tuple(out)
