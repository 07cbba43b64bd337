"""Marked invariant loci on an affine toric chart.

A toric pair consists of a pointed cone together with a proper closed
invariant subset containing the singular locus.  Combinatorially the subset is
an upward-closed family of faces (a face is marked when its orbit lies in the
subset); the lattice points whose arcs land in the subset form the union of
the relative interiors of the marked faces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import intlinalg as la
from .cones import (
    Cone,
    Face,
    enumerate_faces,
    face_spanned_by,
    hilbert_basis,
    is_smooth,
    smallest_containing_face,
)
from .errors import EmptyLocus, NotInRegion, NotProper, ValidationError

Vec = la.Vec


def singular_faces(sigma: Cone):
    """Faces whose charts are singular; always an upward-closed family."""
    sigma._require_pointed()
    return frozenset(f for f in enumerate_faces(sigma) if not is_smooth(f.as_cone()))


@dataclass(frozen=True)
class FaceLocus:
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

    def __iter__(self):
        return iter(self.faces)

    def marks(self, face) -> bool:
        return face in self.faces

    def minimal_faces(self):
        return [f for f in self.faces
                if not any(g != f and g.is_face_of(f) for g in self.faces)]


@dataclass(frozen=True)
class MarkedFaces:
    """The faces of a pointed cone having, for each vector in `sums`, a ray
    that pairs positively with it.  Upward-closed by construction; unlike a
    FaceLocus it need not cover the singular faces (the ideal exponents of
    `nash.faces_to_ideal` are such a region on the dual cone)."""

    cone: Cone
    sums: tuple

    def marks(self, face) -> bool:
        return all(any(la.dot(r, s) > 0 for r in face.rays) for s in self.sums)


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
    if not locus.cone.contains(v):
        return False
    return locus.marks(smallest_containing_face(locus.cone, v))


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


def reduce_to_minimal(locus: FaceLocus | MarkedFaces, v) -> Vec:
    """Walk v down by Hilbert basis elements while staying in the region."""
    v = la.vec(v)
    if not region_contains(locus, v):
        raise NotInRegion(f"{v} is not in the marked region")
    hb = hilbert_basis(locus.cone)
    while True:
        step = next((h for h in hb if region_contains(locus, la.vsub(v, h))), None)
        if step is None:
            return v
        v = la.vsub(v, step)


def marks_cone(locus: FaceLocus | MarkedFaces, subcone_rays) -> bool:
    """True iff the relative interior of cone(subcone_rays) lies in the region.

    The relative interior of a subcone lies inside the relative interior of
    exactly one face of the ambient cone: the smallest face containing it.
    """
    return locus.marks(face_spanned_by(locus.cone, subcone_rays))
