"""Nash data of a toric pair: essential-divisor certificates, monomial
ideals, contact-locus components, and the orbit-closure order on arc classes.

Region minima are computed in locus.minimal_region_points, from a finite
candidate set, and re-exported here as the same object.  The generators of the
ideal of a locus are the region minima of a marked-face family on the dual
cone.  Contact loci come from a finite candidate set too: on each chamber of
the cone where one generator attains the order, the order is linear, and the
candidates of a simplex of the chamber solve a bounded knapsack (see
contact_components).  The chambers belong to the ideal, not to the order: each
is cut out by its inequalities in one H-to-V pass
(cones.cone_from_inequalities) and kept on the ideal for every later order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import intlinalg as la
from .cones import (
    Cone,
    cone_from_inequalities,
    enumerate_faces,
    face_spanned_by,
    hilbert_basis,
    simplex_cells,
    smallest_containing_face,
    span_chart,
)
from .errors import EmptyLocus, ValidationError
from .fans import Fan, avoidance_resolution, make_locus_resolution
from .locus import (
    FaceLocus,
    MarkedFaces,
    face_locus,
    minimal_region_points,
    region_contains,
    singular_faces,
)

Vec = la.Vec


# ---------------------------------------------------------------------------
# monomial ideals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonomialIdeal:
    """An invariant monomial ideal on the chart of `sigma`, by its exponents."""

    sigma: Cone
    generators: tuple
    # ((u, C_u), ...) over the full-dimensional chambers, set by _chambers
    _chambers: tuple | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        gens = tuple(sorted(la.strict_vec(u, "an ideal generator")
                            for u in self.generators))
        object.__setattr__(self, "generators", gens)
        for u in gens:
            if len(u) != self.sigma.ambient_dim:
                raise ValidationError(
                    f"ideal generator {u} does not have length "
                    f"{self.sigma.ambient_dim}")
            if la.is_zero(u):
                raise ValidationError("ideal generators must be nonzero")
            if any(la.dot(u, r) < 0 for r in self.sigma.rays):
                raise ValidationError(
                    f"exponent {u} pairs negatively with a ray; not a monomial")
        if not gens:
            raise ValidationError("ideal needs at least one generator")

    def min_pairing(self, v) -> int:
        return min(la.dot(v, u) for u in self.generators)


def faces_to_ideal(locus: FaceLocus) -> MonomialIdeal:
    """The invariant ideal cutting out the marked locus.

    Its exponents are the dual lattice points pairing at least 1 with the ray
    sum of every minimal marked face.  A dual point in the relative interior
    of a dual face G pairs positively with such a sum iff some ray of G does,
    so the exponents are the region of the dual faces MarkedFaces marks, and
    the generators are its region minima.  They satisfy the bridge
    property: v is in the region iff every generator pairs >= 1 with v.
    """
    coords, lift_dual, dual = span_chart(locus.cone)
    reps = [la.vsum([coords(r) for r in f.rays], dual.ambient_dim)
            for f in locus.minimal_faces()]
    gens = minimal_region_points(MarkedFaces(dual, tuple(reps)))
    return MonomialIdeal(locus.cone, tuple(lift_dual(u) for u in gens))


# ---------------------------------------------------------------------------
# contact loci
# ---------------------------------------------------------------------------

def contact_components(ideal: MonomialIdeal, n: int):
    """Minimal lattice points v of {ord(v) == n}, where ord(v) is the least
    pairing of v against the ideal's generators.

    ord is monotone in the cone order (generators pair nonnegatively with the
    cone), so these are the minima of the upward-closed set {ord >= n} that
    have ord = n, and one-step reduction decides minimality there: if w < v
    with ord(w) >= n, write v - w as a sum of Hilbert basis elements and take
    one of them, h; then v - h >= w, so ord(v - h) >= n.

    The candidates are finite.  For a generator u, the chamber C_u, where u
    attains the minimum, is sigma cut by <., u' - u> >= 0 for every generator
    u', and ord = <., u> on it.  The chambers cover sigma, and so do the
    full-dimensional ones alone: the others lie in finitely many proper
    subspaces of sigma's span, the full-dimensional ones form a closed set,
    and sigma minus those subspaces is dense in sigma.  Let v be a component,
    in a simplex of the triangulation of a full-dimensional C_u, with rays g;
    write v = p + sum k_g g, with k_g integers and p the point of the simplex's
    half-open parallelepiped holding the fractional parts.  If k_g >= 1 for a
    g with <g, u> = 0, then v - g still lies in C_u with ord(v - g) = n, and
    below v: so k_g = 0 for those g, and <p, u> + sum k_g <g, u> = n, a
    bounded knapsack over the g with <g, u> >= 1.  Every solution lies in C_u
    and has ord exactly n, and the reduction test keeps exactly the minima.

    Only the knapsack depends on n: the full-dimensional chambers depend on
    the ideal alone, so they are built on its first query, each in one H-to-V
    pass from the inequalities above, and kept on the ideal (_chambers).
    """
    if n < 1:
        raise ValidationError("contact order must be a positive integer")
    sigma = ideal.sigma
    candidates = set()
    for u, chamber in _chambers(ideal):
        for simplex, points in simplex_cells(chamber):
            steps = [(g, la.dot(g, u)) for g in simplex if la.dot(g, u) > 0]
            for p in points:
                candidates.update(_knapsack(steps, n - la.dot(p, u), p))
    basis = hilbert_basis(sigma)
    return tuple(sorted(
        v for v in candidates
        if not any(sigma.contains(w) and ideal.min_pairing(w) >= n
                   for w in (la.vsub(v, h) for h in basis))))


def _chambers(ideal: MonomialIdeal):
    """((u, C_u), ...) for the generators u whose chamber C_u has the
    dimension of sigma, built once per ideal from the H-description
    sigma cut by <., u' - u> >= 0 for every generator u'."""
    if ideal._chambers is None:
        sigma = ideal.sigma
        out = []
        for u in ideal.generators:
            chamber = cone_from_inequalities(
                sigma.ambient_dim, eqs=sigma.span_equations,
                ineqs=sigma.facet_normals + tuple(
                    la.vsub(w, u) for w in ideal.generators))
            if chamber.dim == sigma.dim:
                out.append((u, chamber))
        object.__setattr__(ideal, "_chambers", tuple(out))
    return ideal._chambers


def _knapsack(steps, rest, base):
    """base + sum k_g g over k >= 0 with sum k_g w_g == rest, for the
    (g, w_g) in steps, every w_g >= 1."""
    if not steps:
        if rest == 0:
            yield base
        return
    (g, w), tail = steps[0], steps[1:]
    for _ in range(rest // w + 1 if rest >= 0 else 0):
        yield from _knapsack(tail, rest, base)
        rest -= w
        base = la.vadd(base, g)


# ---------------------------------------------------------------------------
# essential-divisor certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinimalityWitness:
    """Why v - h leaves the region, for one Hilbert basis element h."""

    element: Vec
    reason: str           # "outside-cone" | "unmarked-face"
    face_rays: tuple = ()


@dataclass(frozen=True)
class EssentialCertificate:
    point: Vec
    witnesses: tuple


@dataclass(frozen=True)
class NashPairReport:
    locus: FaceLocus
    minimal_points: tuple
    certificates: tuple
    samples: tuple
    avoided: tuple          # (ray, witness Subdivision omitting the ray) for
                            # sample rays outside the minima; rays may share
                            # one witness, often a sample itself
    missing: tuple          # (point, sample index) presence failures, normally empty
    bijective: bool


def _minimality_witnesses(locus: FaceLocus, v):
    sigma = locus.cone
    out = []
    for h in hilbert_basis(sigma):
        down = la.vsub(v, h)
        if not sigma.contains(down):
            out.append(MinimalityWitness(h, "outside-cone"))
        else:
            f = smallest_containing_face(sigma, down)
            assert f not in locus.faces
            out.append(MinimalityWitness(h, "unmarked-face", f.rays))
    return tuple(out)


def _sample_rng(seed: int, index: int):
    if seed == 0 and index == 0:
        return None
    return random.Random(seed * 1_000_003 + index)


def certify_essential(locus: FaceLocus, samples: int = 3,
                      seed: int = 0) -> NashPairReport:
    """Certify the good-components/essential-divisors bijection on a pair.

    Computes the region minima, builds `samples` seed-varied locus
    resolutions, and checks every minimum is a ray of every sample.  Then
    every sample ray interior to the region that is not a minimum is shown
    non-essential.  A divisor is essential iff it is a ray of every locus
    resolution, so any locus resolution that omits such a ray w is a witness:
    w takes the first sample, by index, whose rays omit it, and an avoidance
    resolution built for w alone only when every sample carries w.
    ConstructionFailed from that construction propagates with the offending
    ray.
    """
    if samples < 1:
        raise ValidationError("need at least one sample resolution")
    sigma = locus.cone
    minima = minimal_region_points(locus)
    subs = []
    for i in range(samples):
        subs.append(make_locus_resolution(sigma, locus, rng=_sample_rng(seed, i)))
    ray_sets = [set(sub.refined.rays()) for sub in subs]
    missing = [(w, i) for i, rays in enumerate(ray_sets)
               for w in minima if w not in rays]
    to_avoid = sorted({r for rays in ray_sets for r in rays
                       if r not in minima and region_contains(locus, r)})
    avoided = []
    for r in to_avoid:
        witness = next((sub for sub, rays in zip(subs, ray_sets)
                        if r not in rays), None)
        if witness is None:
            witness = avoidance_resolution(sigma, locus, r)
        avoided.append((r, witness))
    certs = tuple(
        EssentialCertificate(w, _minimality_witnesses(locus, w))
        for w in minima)
    return NashPairReport(
        locus=locus,
        minimal_points=minima,
        certificates=certs,
        samples=tuple(subs),
        avoided=tuple(avoided),
        missing=tuple(missing),
        bijective=not missing,
    )


# ---------------------------------------------------------------------------
# orbit-closure order on arc classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitComparison:
    """Truthy comparison result carrying the reason and witness cone."""

    holds: bool
    reason: str
    witness: Cone | None = None

    def __bool__(self):
        return self.holds


def _quotient_map(ambient_dim, face_rays):
    """Projection of the ambient lattice by the saturated span of the rays:
    the quotient coordinates of la.lattice_frame."""
    _, Q, k = la.lattice_frame(face_rays, ambient_dim)
    return (lambda v: la.vec_mat(v, Q)[k:]), ambient_dim - k


def orbit_closure_leq(fan: Fan, tau, v, tau2, v2) -> OrbitComparison:
    """Does the arc-orbit closure of (tau, v) contain the orbit of (tau2, v2)?

    Combinatorial criterion: tau must be a face of tau2, and some fan cone
    containing tau2 must hold both arc classes with the projected order
    satisfied in the quotient by tau2.
    """
    tau_c = tau.as_cone() if hasattr(tau, "as_cone") else tau
    tau2_c = tau2.as_cone() if hasattr(tau2, "as_cone") else tau2
    v = la.vec(v)
    v2 = la.vec(v2)
    all_cones = fan.all_cones()
    if tau_c not in all_cones or tau2_c not in all_cones:
        raise ValidationError("both strata must be cones of the fan")
    if not all(tau2_c.contains(r) for r in tau_c.rays) or \
       set(face_spanned_by(tau2_c, tau_c.rays).rays) != set(tau_c.rays):
        return OrbitComparison(False, "strata are incompatible: "
                               "the first is not a face of the second")
    q1, d1 = _quotient_map(fan.ambient_dim, tau_c.rays)
    q2, d2 = _quotient_map(fan.ambient_dim, tau2_c.rays)
    for gamma in all_cones:
        if not all(gamma.contains(r) for r in tau2_c.rays):
            continue
        if set(face_spanned_by(gamma, tau2_c.rays).rays) != set(tau2_c.rays):
            continue
        g1 = Cone.from_rays([q1(r) for r in gamma.rays], d1)
        g2 = Cone.from_rays([q2(r) for r in gamma.rays], d2)
        if not g1.contains(q1(v)):
            continue
        if not g2.contains(q2(v2)):
            continue
        if g2.contains(la.vsub(q2(v2), q2(v))):
            return OrbitComparison(True, "projected order holds", gamma)
    return OrbitComparison(False, "no fan cone witnesses the projected order")


# ---------------------------------------------------------------------------
# locus input forms
# ---------------------------------------------------------------------------

def locus_from_spec(sigma: Cone, spec, ray_order=None) -> FaceLocus:
    """Build a locus from one of the accepted forms: the string "sing", a list
    of faces given by ray-index subsets (indices into ray_order, defaulting to
    the canonical ray list), or a monomial ideal's exponents."""
    if ray_order is None:
        ray_order = sigma.rays
    if spec == "sing":
        return face_locus(sigma, [])
    if isinstance(spec, dict) and "faces" in spec:
        if not isinstance(spec["faces"], (list, tuple)):
            raise ValidationError(f"faces must be a list, got {spec['faces']!r}")
        faces = []
        all_faces = {f.rays: f for f in enumerate_faces(sigma)}
        for idxs in spec["faces"]:
            if not isinstance(idxs, (list, tuple)) or not all(
                    type(i) is int and 0 <= i < len(ray_order) for i in idxs):
                raise ValidationError(
                    f"bad ray index list {idxs!r}: indices must be ints in "
                    f"[0, {len(ray_order)})")
            rays = tuple(sorted(ray_order[i] for i in idxs))
            if rays not in all_faces:
                raise ValidationError(
                    f"ray indices {list(idxs)} do not span a face")
            faces.append(all_faces[rays])
        return face_locus(sigma, faces)
    if isinstance(spec, dict) and "ideal" in spec:
        if not isinstance(spec["ideal"], (list, tuple)):
            raise ValidationError(f"ideal must be a list, got {spec['ideal']!r}")
        ideal = MonomialIdeal(sigma, tuple(spec["ideal"]))
        marked = []
        for f in enumerate_faces(sigma):
            if not f.rays:
                continue
            if ideal.min_pairing(la.vsum(f.rays, sigma.ambient_dim)) >= 1:
                marked.append(f)
        if not marked:
            raise EmptyLocus("the ideal vanishes on no orbit closure")
        for f in singular_faces(sigma):
            if f not in marked:
                raise ValidationError(
                    "the ideal's vanishing locus misses a singular face; "
                    "a pair needs the marked set to cover the singular locus")
        return face_locus(sigma, marked)
    raise ValidationError(f"unrecognized locus specification {spec!r}")
