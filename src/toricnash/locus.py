"""Marked invariant loci on an affine toric chart.

A toric pair consists of a pointed cone together with a proper closed
invariant subset containing the singular locus.  Combinatorially the subset is
an upward-closed family of faces (a face is marked when its orbit lies in the
subset); the lattice points whose arcs land in the subset form the union of
the relative interiors of the marked faces.

Region tests work on facet-normal bitmasks: bit i of a point's mask is set iff
the i-th facet normal of the cone vanishes on it.  The normals vanishing on a
face are those vanishing on any relative-interior point of it, so points of
the cone span the face whose mask is the AND of their masks, and a face is
marked iff its mask is among the marked masks.

The minimal points of a region come from a finite candidate set (see
minimal_region_points) and are cached on the locus, where the certificates of
the nash module and the avoidance construction of the fans module read them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import intlinalg as la
from .cones import (
    Cone,
    Face,
    enumerate_faces,
    face_spanned_by,
    hilbert_basis,
    simplex_cells,
)
from .errors import EmptyLocus, NotInRegion, NotProper, ValidationError


def singular_faces(sigma: Cone):
    """Faces whose charts are singular; always an upward-closed family.

    A face is singular iff it has more than one ray and its rays are
    dependent (more of them than its dimension) or generate a sublattice of
    index above 1 in their saturation: that is is_smooth of the face's cone,
    read off the rays by a rank and an index, with no cone and no double
    description.  Computed once per cone and kept on it.
    """
    sigma._require_pointed()
    if sigma._singular is None:
        sigma._singular = frozenset(
            f for f in enumerate_faces(sigma) if len(f.rays) > 1 and (
                len(f.rays) != f.dim or la.sublattice_index(f.rays) != 1))
    return sigma._singular


def _zero_mask(normals, v):
    """Bit i is set iff normals[i] vanishes on v; None if one is negative."""
    mask = 0
    for i, u in enumerate(normals):
        p = la.dot(u, v)
        if p < 0:
            return None
        if p == 0:
            mask |= 1 << i
    return mask


class _MaskLookup:
    """Per-locus caches: the masks of the vectors passed to marks_cone (rays
    of subdivisions and simplex points, not arbitrary region points), whether
    a face mask is marked, the region minima once computed, and, per maximal
    cone of the simplicial fans that locus resolutions pass through, the
    offending ray subsets that fans._locus_offenders found in it."""

    def _init_masks(self, marked):
        object.__setattr__(self, "_ray_masks", {})
        object.__setattr__(self, "_marked", marked)
        object.__setattr__(self, "_minima", None)
        object.__setattr__(self, "_offenders", {})

    def _ray_mask(self, r) -> int:
        m = self._ray_masks.get(r)
        if m is None:
            m = self._ray_masks[r] = _zero_mask(self.cone.facet_normals, r)
        return m


@dataclass(frozen=True)
class FaceLocus(_MaskLookup):
    """An upward-closed, nonempty family of faces of a pointed cone, never
    containing the zero face, and containing every singular face."""

    cone: Cone
    faces: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if not self.faces:
            raise EmptyLocus("a locus needs at least one marked face")
        all_faces = set(enumerate_faces(self.cone))
        for f in self.faces:
            if f not in all_faces:
                raise ValidationError(f"{f!r} is not a face of the cone")
            if not f.rays:
                raise NotProper("the zero face would mark the whole variety")
        for f in self.faces:
            for g in all_faces:
                if f.is_face_of(g) and g not in self.faces:
                    raise ValidationError("marked faces are not upward-closed")
        for f in singular_faces(self.cone):
            if f not in self.faces:
                raise ValidationError("locus does not contain a singular face")
        normals = self.cone.facet_normals
        self._init_masks(frozenset(
            sum(1 << i for i, u in enumerate(normals) if u in f.zero_normals)
            for f in self.faces))

    def __iter__(self):
        return iter(self.faces)

    def _marks_mask(self, mask) -> bool:
        return mask in self._marked

    def minimal_faces(self):
        return [f for f in self.faces
                if not any(g != f and g.is_face_of(f) for g in self.faces)]


@dataclass(frozen=True)
class MarkedFaces(_MaskLookup):
    """The faces of a pointed cone having, for each vector in `sums`, a ray
    that pairs positively with it.  Upward-closed by construction; unlike a
    FaceLocus it need not cover the singular faces (the ideal exponents of
    `nash.faces_to_ideal` are such a region on the dual cone)."""

    cone: Cone
    sums: tuple

    def __post_init__(self):
        self._init_masks({})

    def _marks_mask(self, mask) -> bool:
        marked = self._marked.get(mask)
        if marked is None:
            rays = [r for r in self.cone.rays
                    if self._ray_mask(r) & mask == mask]
            marked = self._marked[mask] = all(
                any(la.dot(r, s) > 0 for r in rays) for s in self.sums)
        return marked


def face_locus(sigma: Cone, seed=()) -> FaceLocus:
    """Upward closure of the seed faces together with all singular faces.

    Raises NotProper when the zero face is seeded and EmptyLocus when the cone
    is smooth and nothing was seeded.
    """
    sigma._require_pointed()
    seed = list(seed)
    for f in seed:
        if isinstance(f, Face):
            if not f.rays:
                raise NotProper("the zero face would mark the whole variety")
        else:
            raise ValidationError("seed entries must be Face objects")
    base = set(seed) | set(singular_faces(sigma))
    if not base:
        raise EmptyLocus("cone is smooth and no face was seeded")
    closure = {g for g in enumerate_faces(sigma)
               if any(f.is_face_of(g) for f in base)}
    return FaceLocus(sigma, frozenset(closure))


def region_contains(locus: FaceLocus | MarkedFaces, v) -> bool:
    """True iff v lies in the relative interior of some marked face."""
    v = la.vec(v)
    sigma = locus.cone
    if any(la.dot(e, v) for e in sigma.span_equations):
        return False
    mask = _zero_mask(sigma.facet_normals, v)
    return mask is not None and locus._marks_mask(mask)


def is_minimal_in_region(locus: FaceLocus | MarkedFaces, v) -> bool:
    """Exact minimality test for region points.

    One-step Hilbert-basis reduction is complete here because the region is
    stable under adding cone points (the smallest face of v+s contains the
    smallest face of v, and marked families are upward-closed).
    """
    v = la.vec(v)
    if not region_contains(locus, v):
        raise NotInRegion(f"{v} is not in the marked region")
    for h in hilbert_basis(locus.cone):
        if region_contains(locus, la.vsub(v, h)):
            return False
    return True


def marks_cone(locus: FaceLocus | MarkedFaces, subcone_rays) -> bool:
    """True iff the relative interior of cone(subcone_rays) lies in the region.

    The relative interior of a subcone lies inside the relative interior of
    exactly one face of the ambient cone: the smallest face containing it,
    whose mask is the AND of the rays' masks.  The rays must lie in the cone.
    """
    mask = (1 << len(locus.cone.facet_normals)) - 1
    for r in subcone_rays:
        mask &= locus._ray_mask(r)
    return locus._marks_mask(mask)


def minimal_region_points(locus: FaceLocus | MarkedFaces):
    """All minimal lattice points of the marked region under the cone order.

    The candidates are finite.  Fix one triangulation of the cone and let v be
    region-minimal.  Some simplex holds v, and v = sum of c_g g over a subset S
    of its rays with every c_g > 0, so v lies in the relative interior of
    cone(S); that relative interior sits inside the relative interior of one
    face of the cone, the one holding v, so cone(S) marks the region.  If some
    c_g > 1, then v - g still lies in the relative interior of cone(S), hence
    in the region, and below v: so every c_g is in (0, 1].  Hence v = p + (the
    sum of the rays of S outside the support of p), for p the point of the
    simplex's half-open parallelepiped with the fractional parts of the c_g.
    Every candidate lies in the region, and one exact minimality test on them
    leaves exactly the minima.  The result is cached on the locus.
    """
    return _region_minima(locus)


def _region_minima(locus: FaceLocus | MarkedFaces):
    """minimal_region_points, computed once per locus.  Library code reads
    the cache here, so each public call is one request from outside."""
    if locus._minima is None:
        sigma = locus.cone
        dim = sigma.ambient_dim
        candidates = set()
        for simplex, points in simplex_cells(sigma):
            cell = Cone.from_rays(simplex, dim)
            for p in points:
                support = face_spanned_by(cell, (p,)).rays
                rest = [g for g in simplex if g not in support]
                for k in range(len(rest) + 1):
                    for extra in itertools.combinations(rest, k):
                        if marks_cone(locus, support + extra):
                            candidates.add(la.vsum((p,) + extra, dim))
        object.__setattr__(locus, "_minima", tuple(sorted(
            v for v in candidates if is_minimal_in_region(locus, v))))
    return locus._minima
