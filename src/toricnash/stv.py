"""Affine stable toric varieties as face-fitting complexes of cones.

Components are monomial cones (reference-map images) in one common lattice;
gluings identify faces of different components through unimodular lattice
maps, and the glued subvarieties are the charts of the faces themselves.
Distinct components may overlap as subsets of the ambient space without being
identified; only the gluing list carries identifications.

Each component becomes a toric pair on its own chart: the chart cone is the
dual of the monomial cone inside its intrinsic lattice, the marked locus
collects the singular faces together with the duals of all glued faces, and
the Nash data aggregates component by component.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intlinalg as la
from .cones import Cone, enumerate_faces, face_spanned_by, span_chart
from .errors import EmptyLocus, NotProper, ValidationError
from .locus import FaceLocus, face_locus
from .nash import certify_essential

Vec = la.Vec


@dataclass(frozen=True)
class Gluing:
    """Identification of a face of component i with a face of component j.

    Faces are given by their ray tuples (possibly empty for the zero face);
    the matrix acts on the ambient lattice, must be unimodular, and must carry
    the first face's rays onto the second's.
    """

    i: int
    j: int
    face_i: tuple
    face_j: tuple
    matrix: tuple

    def __post_init__(self):
        if type(self.i) is not int or type(self.j) is not int:
            raise ValidationError("gluing component indices must be ints")
        object.__setattr__(self, "face_i", tuple(sorted(
            la.strict_vec(r, "a gluing face ray") for r in self.face_i)))
        object.__setattr__(self, "face_j", tuple(sorted(
            la.strict_vec(r, "a gluing face ray") for r in self.face_j)))
        object.__setattr__(self, "matrix", tuple(
            la.strict_vec(row, "a gluing matrix row") for row in self.matrix))

    def transposed(self) -> "Gluing":
        return Gluing(self.j, self.i, self.face_j, self.face_i,
                      la.unimodular_inverse(self.matrix))


@dataclass(frozen=True)
class STVComplex:
    ambient_dim: int
    components: tuple
    gluings: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "gluings", tuple(self.gluings))


def validate_complex(c: STVComplex):
    """Check the complex invariants; returns (ok, diagnostics)."""
    problems = []
    for idx, comp in enumerate(c.components):
        if not isinstance(comp, Cone):
            problems.append(f"component {idx} is not a cone")
            continue
        if comp.ambient_dim != c.ambient_dim:
            problems.append(f"component {idx} has the wrong ambient dimension")
        if not comp.is_pointed:
            problems.append(
                f"component {idx} is not pointed; quotient by the common "
                "minimal face first")
        if not comp.rays:
            problems.append(f"component {idx} is the zero cone")
    if problems:
        return False, problems
    face_sets = [{f.rays for f in enumerate_faces(comp)}
                 for comp in c.components]
    for g_idx, g in enumerate(c.gluings):
        where = f"gluing {g_idx}"
        if not (0 <= g.i < len(c.components)) or not (0 <= g.j < len(c.components)):
            problems.append(f"{where}: component index out of range")
            continue
        if g.i == g.j:
            problems.append(f"{where}: self-gluings are not supported")
            continue
        if g.face_i not in face_sets[g.i]:
            problems.append(f"{where}: {list(g.face_i)} is not a face of "
                            f"component {g.i}")
            continue
        if g.face_j not in face_sets[g.j]:
            problems.append(f"{where}: {list(g.face_j)} is not a face of "
                            f"component {g.j}")
            continue
        if len(g.matrix) != c.ambient_dim or \
           any(len(row) != c.ambient_dim for row in g.matrix):
            problems.append(f"{where}: matrix is not square of ambient size")
            continue
        if abs(la.determinant(g.matrix)) != 1:
            problems.append(f"{where}: matrix is not unimodular")
            continue
        image = {la.mat_vec(g.matrix, r) for r in g.face_i}
        if image != set(g.face_j):
            problems.append(
                f"{where}: matrix does not carry the first face's rays onto "
                "the second's")
    return not problems, problems


@dataclass(frozen=True)
class ComponentPair:
    """The toric pair of one component, in intrinsic chart coordinates."""

    index: int
    monomial_cone: Cone
    chart_cone: Cone
    locus: FaceLocus | None    # None marks a Nash-trivial component
    glued_faces: tuple


def component_pairs(c: STVComplex):
    """The toric pair of every component.

    The marked locus of component i collects its singular faces and, for each
    glued monomial face, the chart face dual to it (the rays pairing to zero
    with the face's interior representative).  Components that end up with
    nothing marked are Nash-trivial.  Gluing a whole component away is
    rejected: its dual seed would be the zero face.
    """
    ok, diag = validate_complex(c)
    if not ok:
        raise ValidationError("; ".join(diag))
    out = []
    for idx, comp in enumerate(c.components):
        coords, _, chart = span_chart(comp)
        glued = []
        for g in c.gluings:
            if g.i == idx:
                glued.append(g.face_i)
            if g.j == idx:
                glued.append(g.face_j)
        seeds = []
        for face_rays in glued:
            rep = la.vsum([coords(r) for r in face_rays], comp.dim)
            star_rays = [r for r in chart.rays if la.dot(rep, r) == 0]
            if not star_rays:
                raise NotProper(
                    f"component {idx} is glued along its whole chart")
            seeds.append(face_spanned_by(chart, star_rays))
        try:
            locus = face_locus(chart, seeds)
        except EmptyLocus:
            locus = None
        out.append(ComponentPair(idx, comp, chart, locus, tuple(glued)))
    return tuple(out)


def is_equidimensional(c: STVComplex) -> bool:
    ok, diag = validate_complex(c)
    if not ok:
        raise ValidationError("; ".join(diag))
    dims = {comp.dim for comp in c.components}
    return len(dims) <= 1


@dataclass(frozen=True)
class STVNashReport:
    pairs: tuple
    reports: tuple            # NashPairReport or None per component
    good_components: int
    essential_divisors: int
    equidimensional: bool
    bijective: bool


def stv_nash_report(c: STVComplex, samples: int = 3,
                    seed: int = 0) -> STVNashReport:
    """Aggregate the per-component Nash certificates.

    Totals are disjoint-union sums over the components; a Nash-trivial
    component contributes zero.  The equidimensionality flag is attached but
    the computation runs either way.
    """
    pairs = component_pairs(c)
    reports = []
    for pair in pairs:
        if pair.locus is None:
            reports.append(None)
            continue
        reports.append(certify_essential(pair.locus, samples=samples,
                                         seed=seed))
    total = sum(len(r.minimal_points) for r in reports if r is not None)
    return STVNashReport(
        pairs=pairs,
        reports=tuple(reports),
        good_components=total,
        essential_divisors=total,
        equidimensional=is_equidimensional(c),
        bijective=all(r.bijective for r in reports if r is not None),
    )
