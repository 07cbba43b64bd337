"""Fans, refinements, star subdivisions, smooth resolution, and the locus
resolutions with the ray-avoidance construction.

A star subdivision at v replaces each cone c containing v by the joins of v
with the facets of c that avoid v, the facets whose normal pairs positively
with v (Fulton, Introduction to Toric Varieties, section 2.6).  Every face of
c avoiding v lies in such a facet, so these joins are the maximal pieces;
they have disjoint interiors and full dimension in c, and are built without
the pairwise containment pruning of the public Fan constructor.  Where the
caller knows the cone of the fan holding v in its relative interior, the
cones containing v are the maximal cones having all its rays, found without
a membership test; and a full-dimensional simplicial piece gets its facet
normals from one adjugate, not a double description.  Pulling at
an existing ray is the same operation; pulling every ray once, in one global
order, triangulates any fan without new rays (De Loera, Rambau and Santos,
Triangulations, ch. 4), which is how simplicialize works.

Star centers come from finite candidate sets given by proofs, never from a
level scan: parallelepiped points, relative-interior points of smooth cones,
and the region minima that the locus caches.

Subdivision.validate certifies a refinement base cone by base cone with a
facet pairing (De Loera, Rambau and Santos, Triangulations, ch. 4).  Each
facet of a piece of the base cone's dimension is keyed by its rays, read off
the piece's facet normals, so no face cone and no double description is
built.  A facet in the base cone's boundary must bound one piece and any other
facet two, from opposite sides; the ray sum of the first piece must lie in no
other.  Then the number of pieces over a generic point does not change across
a facet, so it is constant on the base cone, and it is 1 near that ray sum:
the pieces cover the base cone with disjoint interiors.  Simplicial pieces of
the base cone's dimension that cover it once and share whole facets meet in
common faces, so when the base is one cone and every piece is such, as in
every locus resolution and avoidance witness, the certificate is complete.
Any other subdivision also runs the pairwise validate_fan, which stays the
CLI's fan check: the pieces of two base cones, say, may cut their common
face in two different ways.  One pass over the facets costs less than the double
descriptions it replaces, so validate keeps no cache.

avoidance_resolution is the construction for one given ray w; it takes
primitive w only, since rays are primitive and no resolution could carry a
multiple.

All subdivision routines are deterministic; an optional random.Random instance
varies the admissible tie-breaks, which is how seed-varied sample resolutions
are produced.  Every construction re-checks its own output instead of trusting
the recipe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cmp_to_key

from . import intlinalg as la
from .cones import (
    Cone,
    enumerate_faces,
    face_spanned_by,
    hilbert_basis,
    intersect,
    is_smooth,
    multiplicity,
    positive_functional,
    simplex_cells,
)
from .errors import (
    ConstructionFailed,
    ForbiddenBlocksResolution,
    InternalError,
    MinimalPoint,
    NonPointed,
    NotInRegion,
    NotInSupport,
    NotPrimitive,
    SupportMismatch,
    WrongDimension,
)
from .locus import (
    FaceLocus,
    _region_minima,
    is_minimal_in_region,
    marks_cone,
    region_contains,
)

Vec = la.Vec

_MAX_RESOLUTION_ROUNDS = 500


class Fan:
    """A finite face-closed fan, stored by its maximal cones.

    Construction normalizes: cones contained in another are dropped, and all
    cones must be pointed.  The face closure is generated on demand.
    """

    __slots__ = ("_dim", "_max", "_all", "_rays", "_key", "_hash")

    def __init__(self, ambient_dim, cones):
        cones = list(cones)
        for c in cones:
            if not isinstance(c, Cone):
                raise TypeError("Fan takes Cone values")
            if not c.is_pointed:
                raise NonPointed("fans contain pointed cones only")
            if c.ambient_dim != ambient_dim:
                raise WrongDimension("cone/fan ambient dimension mismatch")
        keep = []
        for c in cones:
            if any(c is not d and _cone_subset(c, d) and not _cone_subset(d, c)
                   for d in cones):
                continue
            keep.append(c)
        self._set(ambient_dim, set(keep))

    @classmethod
    def _of_maximal(cls, ambient_dim, cones) -> "Fan":
        """A fan from pointed cones already known to be maximal and distinct,
        as star subdivisions produce them: no pruning, no checks."""
        fan = object.__new__(cls)
        fan._set(ambient_dim, cones)
        return fan

    def _set(self, ambient_dim, cones):
        self._dim = ambient_dim
        self._max = tuple(sorted(cones, key=lambda c: c.rays))
        self._all = None
        self._rays = None
        self._key = (ambient_dim, tuple(c._key for c in self._max))
        self._hash = hash(self._key)

    @staticmethod
    def of_cone(c: Cone) -> "Fan":
        return Fan(c.ambient_dim, [c])

    @property
    def ambient_dim(self):
        return self._dim

    @property
    def max_cones(self):
        return self._max

    def all_cones(self):
        """Every cone of the fan (the generated face closure), each once."""
        if self._all is None:
            seen = {}
            for c in self._max:
                for f in enumerate_faces(c):
                    fc = f.as_cone()
                    seen.setdefault(fc._key, fc)
            self._all = tuple(sorted(seen.values(), key=lambda c: (c.dim, c.rays)))
        return self._all

    def rays(self):
        if self._rays is None:
            out = set()
            for c in self._max:
                out.update(c.rays)
            self._rays = tuple(sorted(out))
        return self._rays

    def supports(self, v) -> bool:
        return any(c.contains(v) for c in self._max)

    def __eq__(self, other):
        return isinstance(other, Fan) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Fan({[list(c.rays) for c in self._max]})"


def _cone_subset(c: Cone, d: Cone) -> bool:
    return all(d.contains(r) for r in c.rays)


def _is_face_of_cone(sub: Cone, c: Cone) -> bool:
    """True iff sub equals a face of c."""
    if not all(c.contains(r) for r in sub.rays):
        return False
    return set(face_spanned_by(c, sub.rays).rays) == set(sub.rays)


def validate_fan(f: Fan):
    """Check face-closure compatibility; returns (ok, diagnostics)."""
    problems = []
    cones = f.max_cones
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            meet = intersect(cones[i], cones[j])
            if not meet.is_pointed:
                problems.append(f"cones {i} and {j} overlap in a non-pointed set")
                continue
            if not _is_face_of_cone(meet, cones[i]) or \
               not _is_face_of_cone(meet, cones[j]):
                problems.append(
                    f"cones {i} and {j} meet in {list(meet.rays)}, "
                    "which is not a common face")
    return not problems, problems


@dataclass(frozen=True)
class Subdivision:
    """A refinement of a base fan: same support, every refined cone inside a
    base cone, rays only added."""

    base: Fan
    refined: Fan
    added_rays: tuple

    def is_identity(self):
        return self.base == self.refined

    def validate(self):
        """Exact structural check; returns (ok, diagnostics).

        The facet certificate of _facet_problems runs in every base cone;
        validate_fan runs too unless the base is one cone and every refined
        cone is simplicial of its dimension, where the certificate is
        complete (see the module docstring)."""
        base = self.base.max_cones
        pieces = self.refined.max_cones
        problems = []
        if len(base) != 1 or not all(c.is_simplicial and c.dim == base[0].dim
                                     for c in pieces):
            problems.extend(validate_fan(self.refined)[1])
        if not set(self.base.rays()) <= set(self.refined.rays()):
            problems.append("base rays are not all rays of the refinement")
        for c in pieces:
            if not any(_cone_subset(c, b) for b in base):
                problems.append(f"refined cone {list(c.rays)} lies in no base cone")
        for b in base:
            problems.extend(_facet_problems(b, [
                c for c in pieces if c.dim == b.dim and _cone_subset(c, b)]))
        return not problems, problems


def _facet_problems(b: Cone, members):
    """Facet-pairing certificate that members, the refined cones of b's
    dimension inside b, cover b with disjoint interiors.

    A facet of a member is keyed by its rays, those on which one of the
    member's facet normals vanishes.  A facet in b's boundary, where a facet
    normal of b vanishes on its rays, must bound one member; any other must
    bound two, from opposite sides: their inward normals are negatives (both
    pieces span b's span, so their canonical normals share one lattice
    frame).  And the ray sum of the first member, interior to it, must lie
    in no other member."""
    if not members:
        return [f"base cone {list(b.rays)} is not covered"]
    if b.dim == 0:
        return []
    sides = {}
    for c in members:
        for u in c.facet_normals:
            sides.setdefault(tuple(r for r in c.rays if la.dot(u, r) == 0),
                             []).append(u)
    problems = []
    for rays, normals in sides.items():
        outer = any(all(la.dot(v, r) == 0 for r in rays) for v in b.facet_normals)
        if len(normals) == 1 and not outer:
            problems.append(f"facet {list(rays)} inside {list(b.rays)} is uncovered")
        elif len(normals) > 1 + (not outer):
            problems.append(f"facet {list(rays)} is shared by {len(normals)} cones")
        elif len(normals) == 2 and normals[0] != la.vneg(normals[1]):
            problems.append(f"facet {list(rays)} has both cones on one side")
    inner = la.vsum(members[0].rays, b.ambient_dim)
    problems.extend(f"cones {list(members[0].rays)} and {list(c.rays)} overlap"
                    for c in members[1:] if c.contains(inner))
    return problems


# ---------------------------------------------------------------------------
# star subdivision
# ---------------------------------------------------------------------------

def _star_refine(fan: Fan, v: Vec, face=None) -> Fan:
    """Join every cone containing v with its facets avoiding v (pull at v).

    face, when given, is the ray tuple of a cone F of the fan holding v in
    its relative interior.  Then the maximal cones holding v are exactly
    those whose rays include face's, and no membership test is needed.  If a
    maximal cone c holds v, v lies in the relative interior of a face of c,
    which is a cone of the fan; the relative interiors of a fan's cones
    partition its support, so that face is F, and F's rays are rays of c.
    Conversely, rays of c span a subcone of c, which then holds v.
    """
    dim = fan.ambient_dim
    new_max = []
    for c in fan.max_cones:
        if face is None:
            holds = c.contains(v)
        else:  # most cones lack face[0]; test that alone first
            holds = face[0] in c.rays and all(r in c.rays for r in face[1:])
        if not holds:
            new_max.append(c)
            continue
        for u in c.facet_normals:
            if la.dot(u, v) > 0:
                new_max.append(Cone.from_rays(
                    [r for r in c.rays if la.dot(u, r) == 0] + [v], dim))
    return Fan._of_maximal(dim, new_max)


def star_subdivide(fan: Fan, v) -> Subdivision:
    """Star subdivision at a primitive lattice point of the support.

    A point already spanning a ray of the fan yields the identity subdivision.
    """
    v = la.vec(v)
    if la.is_zero(v) or la.primitive_part(v) != v:
        raise NotPrimitive(f"{v} is not a primitive lattice vector")
    if not fan.supports(v):
        raise NotInSupport(f"{v} is outside the fan support")
    if v in fan.rays():
        return Subdivision(fan, fan, ())
    refined = _star_refine(fan, v)
    return Subdivision(fan, refined, (v,))


# ---------------------------------------------------------------------------
# two-dimensional minimal regular subdivision
# ---------------------------------------------------------------------------

def minimal_regular_subdivision_2d(c: Cone) -> Subdivision:
    """The unique coarsest smooth subdivision of a two-dimensional cone.

    The added rays are exactly the non-extreme Hilbert basis elements, in
    angular order; consecutive pairs span unimodular cones.
    """
    c._require_pointed()
    if c.dim != 2 or len(c.rays) != 2:
        raise WrongDimension("minimal regular subdivision needs a 2-dimensional cone")
    _, Q, _ = la.lattice_frame(c.rays, c.ambient_dim)
    coords = {h: la.vec_mat(h, Q)[:2] for h in hilbert_basis(c)}

    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    r0 = coords[c.rays[0]]
    r1 = coords[c.rays[1]]
    orient = 1 if cross(r0, r1) > 0 else -1

    ordered = sorted(coords, key=cmp_to_key(
        lambda a, b: -orient * cross(coords[a], coords[b])))
    assert ordered[0] in c.rays and ordered[-1] in c.rays
    pieces = []
    for a, b in zip(ordered, ordered[1:]):
        piece = Cone.from_rays([a, b], c.ambient_dim)
        assert multiplicity(piece) == 1
        pieces.append(piece)
    base = Fan.of_cone(c)
    refined = Fan(c.ambient_dim, pieces)
    added = tuple(h for h in ordered if h not in c.rays)
    return Subdivision(base, refined, added)


# ---------------------------------------------------------------------------
# simplicialization and smooth resolution
# ---------------------------------------------------------------------------

def simplicialize(fan: Fan, rng=None) -> Subdivision:
    """Make every cone simplicial by pulling at existing rays (no new rays).

    A simplicial fan is returned as it is.  Otherwise every ray of the fan is
    pulled once, in sorted order or in an order shuffled by rng.  One pass
    suffices: pulling v makes it an apex of every piece containing v, outside
    the span of the piece's other rays, and later pulls only cut such a piece
    into joins of v with pieces of its base, so v stays an apex.  Once every
    ray is an apex of every piece holding it, each piece's rays are linearly
    independent.
    """
    if all(c.is_simplicial for c in fan.max_cones):
        return Subdivision(fan, fan, ())
    order = list(fan.rays())
    if rng is not None:
        rng.shuffle(order)
    current = fan
    for ray in order:
        current = _star_refine(current, ray, (ray,))
    if not all(c.is_simplicial for c in current.max_cones):
        raise InternalError("pulling every ray left a non-simplicial cone")
    return Subdivision(fan, current, ())


def _subdivision_candidates(c: Cone):
    """Candidate star centers for reducing the multiplicity of a simplicial
    cone: nonzero points of the half-open generator parallelepiped (none lie
    on an edge), ordered by grading level then lexicographically."""
    ell = positive_functional(c)
    (_, points), = simplex_cells(c)
    pts = [p for p in points if not la.is_zero(p)]
    pts.sort(key=lambda p: (la.dot(ell, p), p))
    return pts


def resolve_smooth(fan: Fan, forbidden=(), rng=None) -> Subdivision:
    """Refine until every cone is smooth.

    Loop: simplicialize, then repeatedly star-subdivide a cone of maximal
    multiplicity at an admissible parallelepiped point.  Centers whose
    primitive part is forbidden are skipped; if none is left, the error says
    so.  No other center could help: an interior Hilbert basis element h of a
    simplicial cone has every coefficient below 1 (else h - r is in the cone
    for a ray r), so h is a primitive parallelepiped point already offered.

    The loop terminates.  Let the center v be the primitive part of a nonzero
    parallelepiped point of the target; its coefficients on the target's rays
    lie in [0, 1).  A cone c holding v meets the target in a common face that
    holds v, so v has the same coefficients on c's rays.  The star replaces c
    by the joins of v with the facets of c opposite a ray r with coefficient
    t_r > 0, of multiplicity t_r * mult(c) < mult(c).  So no new cone reaches
    the worst multiplicity, and the target leaves: the pair (worst
    multiplicity, number of cones attaining it) falls lexicographically.
    """
    forbidden = frozenset(la.vec(w) for w in forbidden)
    current = simplicialize(fan, rng).refined
    while True:
        mults = {c: multiplicity(c) for c in current.max_cones}
        worst = max(mults.values(), default=1)
        if worst == 1:
            fan_rays = set(fan.rays())
            return Subdivision(fan, current,
                               tuple(r for r in current.rays() if r not in fan_rays))
        ties = sorted((c for c, m in mults.items() if m == worst),
                      key=lambda c: c.rays)
        target = ties[0] if rng is None else rng.choice(ties)
        cands = [p for p in _subdivision_candidates(target)
                 if la.primitive_part(p) not in forbidden]
        if not cands:
            raise ForbiddenBlocksResolution(
                f"every admissible center of {list(target.rays)} is forbidden",
                cone=target, forbidden=forbidden)
        pick = cands[0] if rng is None else rng.choice(cands)
        v = la.primitive_part(pick)
        current = _star_refine(current, v, face_spanned_by(target, (v,)).rays)


# ---------------------------------------------------------------------------
# locus resolutions
# ---------------------------------------------------------------------------

def _locus_offenders(fan: Fan, locus: FaceLocus):
    """Ray sets of the cones violating the divisor condition: the relative
    interior maps into the marked region, but no ray of the cone does.

    The fan must be simplicial.  Then every subset of a maximal cone's rays
    spans a face, so the offenders are the marking subsets of each maximal
    cone's unmarked rays.  Those depend on the cone and the locus only, so
    they are kept per cone in the locus's _offenders cache: a round of
    make_locus_resolution scans only the pieces its last stars created.
    Sorted by (dimension, rays).
    """
    cache = locus._offenders
    out = set()
    for c in fan.max_cones:
        found = cache.get(c)
        if found is None:
            free = [r for r in c.rays if not marks_cone(locus, (r,))]
            found = cache[c] = tuple(
                rays for k in range(2, len(free) + 1)
                for rays in itertools.combinations(free, k)
                if marks_cone(locus, rays))
        if found:
            out.update(found)
    return sorted(out, key=lambda rays: (len(rays), rays))


def is_locus_resolution(sub: Subdivision, locus: FaceLocus) -> bool:
    """True iff the refinement is smooth and the marked-locus preimage is a
    divisor: every refined cone interior to the region carries a region ray.

    Raises SupportMismatch unless the base is the marked cone's fan and every
    refined cone lies in that cone.  The cone is convex, so a refined cone
    lies in it iff its rays do: each distinct ray of the refinement is tested
    once, not once per cone holding it."""
    sigma = locus.cone
    if sub.base != Fan.of_cone(sigma):
        raise SupportMismatch("subdivision base is not the marked cone")
    if not all(sigma.contains(r) for r in sub.refined.rays()):
        raise SupportMismatch("refined cone leaves the marked cone")
    if any(not is_smooth(c) for c in sub.refined.max_cones):
        return False
    return not _locus_offenders(sub.refined, locus)


def _relint_point_candidates(rays, forbidden):
    """Relative-interior lattice points of cone(rays) at the lowest grading
    level that has one whose primitive part is not forbidden: those points,
    sorted.

    rays are those of an offender of a smooth fan, so of a smooth cone c with
    at least two rays.  They extend to a lattice basis, so they are a basis
    of the saturated lattice of their span, and c's canonical facet normals
    restrict to the dual basis: the normal opposite r_i pairs to 1 with r_i
    and to 0 with every other ray.  Their sum pairs to exactly 1 with every
    ray, so it is primitive, and it is c's grading positive_functional(c),
    of level 1 on every ray.  No cone is needed to read it.

    The relative-interior lattice points of c are then s + sum b_i r_i, for
    s the ray sum and b >= 0, at extra level sum b_i above s.  The points
    s + t r_1, t = 0..|forbidden|, are distinct and primitive (another ray
    has coefficient 1), so one is admissible, at extra level at most
    |forbidden|.  Every point up to that extra level is listed, so the lowest
    admissible level is found whole.
    """
    cap = len(forbidden)
    dim = len(rays[0])
    by_extra = {}
    for b in itertools.product(range(cap + 1), repeat=len(rays)):
        extra = sum(b)
        if extra > cap:
            continue
        p = la.vsum([la.vscale(1 + k, r) for k, r in zip(b, rays)], dim)
        if la.primitive_part(p) not in forbidden:
            by_extra.setdefault(extra, []).append(p)
    return sorted(by_extra[min(by_extra)])


def make_locus_resolution(sigma: Cone, locus: FaceLocus, forbidden=(),
                          start: Fan | None = None, rng=None) -> Subdivision:
    """Construct a smooth subdivision whose marked-locus preimage is a divisor.

    Resolve to smooth cones, then repair: while some cone interior to the
    region has no region ray, star-subdivide a maximal offender at its lowest
    admissible interior point and re-resolve.  Each repair adds a ray interior
    to the region.
    """
    if locus.cone != sigma:
        raise SupportMismatch("locus is not attached to the given cone")
    forbidden = frozenset(la.vec(w) for w in forbidden)
    base = Fan.of_cone(sigma)
    current = resolve_smooth(base if start is None else start, forbidden, rng).refined
    sigma_rays = set(sigma.rays)
    for _ in range(_MAX_RESOLUTION_ROUNDS):
        offenders = _locus_offenders(current, locus)
        if not offenders:
            sub = Subdivision(base, current,
                              tuple(r for r in current.rays()
                                    if r not in sigma_rays))
            if not is_locus_resolution(sub, locus):
                raise InternalError("constructed subdivision failed its own check")
            return sub
        top = len(offenders[-1])
        ties = [rays for rays in offenders if len(rays) == top]
        target = ties[0] if rng is None else rng.choice(ties)
        pts = _relint_point_candidates(target, forbidden)
        pick = pts[0] if rng is None else rng.choice(pts)
        current = _star_refine(current, la.primitive_part(pick), target)
        current = resolve_smooth(current, forbidden, rng).refined
    raise InternalError("locus resolution did not terminate")


# ---------------------------------------------------------------------------
# avoidance construction
# ---------------------------------------------------------------------------

def _decompositions(sigma: Cone, locus: FaceLocus, w: Vec):
    """Candidate splittings w = n1 + n2 with n1 region-minimal and n2 a
    nonzero cone point: the region minima m with w - m in sigma minus 0, by
    (grading level, m).

    This is the order of a scan of the region points u below w by (level, u)
    that reduces each u to a minimum below it and drops repeats.  A minimum m
    first appears at u = m: any other u reducing to m lies above m, at a
    higher level.  And a u that is not minimal reduces to a minimum at a lower
    level, which appeared before.
    """
    ell = positive_functional(sigma)
    for m in sorted(_region_minima(locus), key=lambda m: (la.dot(ell, m), m)):
        rest = la.vsub(w, m)
        if not la.is_zero(rest) and sigma.contains(rest):
            yield m, rest


def avoidance_resolution(sigma: Cone, locus: FaceLocus, w) -> Subdivision:
    """A locus resolution whose rays avoid the primitive, non-minimal region
    point w.

    Split w = n1 + n2 with n1 region-minimal, take the minimal regular
    subdivision of the two-dimensional cone they span, star-subdivide at the
    rays of the subcone holding w in its relative interior, and complete to a
    locus resolution with w forbidden as a center.  The result is re-checked:
    w must not appear among the rays.  A non-primitive w is rejected: no
    resolution has it as a ray, so avoiding it would prove nothing.
    """
    w = la.vec(w)
    if la.is_zero(w) or la.primitive_part(w) != w:
        raise NotPrimitive(f"{w} is not a primitive lattice vector")
    if not region_contains(locus, w):
        raise NotInRegion(f"{w} is not in the marked region")
    if is_minimal_in_region(locus, w):
        raise MinimalPoint(f"{w} is minimal; every resolution contains it")
    attempts = []
    for n1, n2 in _decompositions(sigma, locus, w):
        try:
            return _avoid_with(sigma, locus, w, n1, n2)
        except (ConstructionFailed, ForbiddenBlocksResolution, InternalError) as exc:
            attempts.append((n1, n2, exc))
    tried = "; ".join(f"{n1} + {n2}: {exc}" for n1, n2, exc in attempts)
    raise ConstructionFailed(
        f"all {len(attempts)} decompositions of {w} failed"
        + (f": {tried}" if tried else ""), point=w, attempts=attempts)


def _avoid_with(sigma: Cone, locus: FaceLocus, w, n1, n2) -> Subdivision:
    """Star at the rays of the cone of the minimal regular subdivision of
    cone(n1, n2) that holds w in its relative interior, then complete.

    That cone exists: w = n1 + n2 lies in the relative interior of cone(n1,
    n2), and the relative interiors of a fan's cones partition its support.
    It is a piece spanned by two rays: w is primitive, so n1 and n2 are not
    collinear, and w is reducible in cone(n1, n2), so no Hilbert basis
    element, while a primitive point on a ray of the subdivision would be
    that ray's Hilbert basis generator.
    """
    fan = Fan.of_cone(sigma)
    span = Cone.from_rays([n1, n2], sigma.ambient_dim)
    pieces = minimal_regular_subdivision_2d(span).refined.all_cones()
    holder = next(c for c in pieces if c.relint_contains(w))
    for center in holder.rays:
        fan = _star_refine(fan, center)
    result = make_locus_resolution(sigma, locus, forbidden=(w,), start=fan)
    if w in result.refined.rays():
        raise ConstructionFailed(f"completion re-introduced the ray {w}",
                                 point=w)
    return result
