"""Seeded inputs for the three benchmark workloads.

`generate(workload, seed)` returns a list of JSON-able instance specs; the
same seed gives byte-identical specs (see `canonical_bytes`).  `build_locus`
and `build_complex` turn a spec into the library objects an operation
receives.  Instances are
deduplicated by canonical cone (sorted primitive rays) and canonical locus
(the full marked face set), so no instance repeats within a pass.

Every family is drawn from a finite pool, so the brute-force reference values
for all of them can be computed once and stored (see oracle.py).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random

from toricnash import intlinalg as la
from toricnash.cones import Cone, enumerate_faces
from toricnash.errors import ToricNashError
from toricnash.locus import FaceLocus, face_locus
from toricnash.stv import Gluing, STVComplex

WORKLOADS = ("nash-pairs", "stv-complexes", "ideal-contact")

# Claims made by a later change are confirmed on this seed, which is never
# used while tuning that change.
HELD_OUT_SEED = 7919

SIMPLEX_4D = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 7))
CUBE_4D = tuple((a, b, c, 1) for a in (0, 1) for b in (0, 1) for c in (0, 1))
QUADRIC = ((1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1))
E12 = ((1, 0, 0), (0, 1, 0))
IDEAL_3D_CONES = 110
IDEAL_3D_MAX_DET = 3

# Operations that raise in the library as this benchmark was written.  They
# stay in the draw, are counted in ops_failed_frac and are checked to raise
# exactly this error (or, once fixed, to give a correct result).
#  * the 4d cube at seed 0: simplicialize() without an rng pulls the same apex
#    until it runs out of rounds (InternalError after about 4 s);
#  * the quadric with one seeded ray: no avoidance resolution of (1,1,1) is
#    found (ConstructionFailed).
KNOWN_FAILURES = (
    (CUBE_4D, (), "InternalError"),
    (QUADRIC, ((1, 0, 0),), "ConstructionFailed"),
    (QUADRIC, ((0, 1, 1),), "ConstructionFailed"),
)


def _key_rays(rays):
    return [list(r) for r in sorted(la.primitive_part(tuple(r)) for r in rays)]


def _marked(locus: FaceLocus):
    return sorted([list(r) for r in f.rays] for f in locus.faces)


def _loci(cone: Cone):
    """Every locus reachable from the singular locus plus at most one seeded
    proper face, in a fixed order, deduplicated."""
    out = {}
    candidates = [[]] + [[f] for f in enumerate_faces(cone)
                         if f.rays and len(f.rays) < len(cone.rays)]
    for seed_faces in candidates:
        try:
            y = face_locus(cone, seed_faces)
        except ToricNashError:
            continue
        out.setdefault(json.dumps(_marked(y)), y)
    return list(out.values())


def _pair_spec(rng, rays):
    """The cone with a seeded locus; with rng None, the first locus (the
    singular one when the cone is singular)."""
    cone = Cone.from_rays(rays)
    loci = _loci(cone)
    return {"cone": _key_rays(cone.rays),
            "marked": _marked(loci[0] if rng is None else rng.choice(loci))}


def _known_failures():
    """Instance key -> error name of KNOWN_FAILURES."""
    out = {}
    for rays, seed_rays, error in KNOWN_FAILURES:
        cone = Cone.from_rays(rays)
        faces = {f.rays: f for f in enumerate_faces(cone)}
        locus = face_locus(cone, [faces[seed_rays]] if seed_rays else [])
        out[_instance_key(_key_rays(rays), _marked(locus))] = error
    return out


def _instance_key(cone, marked):
    return json.dumps([cone, marked])


def _cert_seed(rng):
    # a third of the operations use seed 0, the CLI default
    return 0 if rng.random() < 1 / 3 else rng.randrange(1, 1_000_000)


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------

def pool_2d(qmax):
    """(1,0),(p,q) for 2 <= p < q <= qmax, gcd 1 (p = 1 is the A_n family)."""
    return [((1, 0), (p, q)) for q in range(3, qmax + 1)
            for p in range(2, q) if math.gcd(p, q) == 1]


def pool_cyclic_3d(bmax):
    return [((1, 0, 0), (0, 1, 0), (1, a, b))
            for b in range(2, bmax + 1) for a in range(b)]


def pool_ideal_3d():
    """Full-dimensional 3d cones on 3 or 4 rays with entries in {0, 1, 2},
    simplicial and not, drawn once from a fixed stream.  No three rays span a
    parallelepiped of volume above IDEAL_3D_MAX_DET: the level caches of such
    cones make one operation take up to a second, and its time then swings
    with the machine's memory traffic far more than the rest of the deck."""
    rng = random.Random("ideal-contact-pool")
    seen, out = set(), []
    while len(out) < IDEAL_3D_CONES:
        rays = set()
        n = rng.randint(3, 4)
        while len(rays) < n:
            v = tuple(rng.randint(0, 2) for _ in range(3))
            if any(v):
                rays.add(la.primitive_part(v))
        rays = sorted(rays)
        volume = max(abs(la.determinant(t)) for t in itertools.combinations(rays, 3))
        if volume > IDEAL_3D_MAX_DET:
            continue
        cone = Cone.from_rays(rays, 3)
        if cone.dim != 3 or cone.rays in seen:
            continue
        seen.add(cone.rays)
        out.append(cone.rays)
    return out


def chart_multiplicity(a, b, c):
    """Multiplicity of the dual chart of cone(e1, e2, (a,b,c)), c > 0.

    Its facet normals are (0,0,1), (0,c,-b)/gcd(b,c) and (c,0,-a)/gcd(a,c),
    whose determinant is the product below.
    """
    return (c // math.gcd(a, c)) * (c // math.gcd(b, c))


def pool_stv_components():
    """Cyclic 3d cones e1, e2, (a,b,c), 0 <= a, b < c, whose dual chart has
    multiplicity 3..7; a chart of multiplicity 11 ran for over ten minutes."""
    return [(E12[0], E12[1], (a, b, c)) for c in range(2, 8)
            for a in range(c) for b in range(c)
            if math.gcd(math.gcd(a, b), c) == 1
            and 3 <= chart_multiplicity(a, b, c) <= 7]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _nash_pairs(rng):
    specs = [_pair_spec(rng, rays) for rays in pool_2d(13)]
    specs += [_pair_spec(rng, ((1, 0), (1, n + 1))) for n in (5, 9, 15)]
    specs.append(_pair_spec(rng, QUADRIC))
    simplex = Cone.from_rays(SIMPLEX_4D)
    specs.append({"cone": _key_rays(simplex.rays),
                  "marked": _marked(face_locus(simplex, []))})
    for s in specs:
        s["seed"] = _cert_seed(rng)
    # The 4d simplex is half of a pass and the 3d cyclic pairs set the tail;
    # their cost moves with the locus and the certification seed, so they
    # keep the singular locus (above for the simplex) and the cyclic pairs
    # run at seed 0, the CLI default.
    specs += [{**_pair_spec(None, rays), "seed": 0} for rays in pool_cyclic_3d(5)]
    # the cube fails at seed 0; at seed 2 it takes 28 s to fail differently
    specs.append({"cone": _key_rays(CUBE_4D),
                  "marked": _marked(face_locus(Cone.from_rays(CUBE_4D), [])),
                  "seed": 0})
    known = _known_failures()
    for s in specs:
        error = known.get(_instance_key(s["cone"], s["marked"]))
        if error:
            s["known_failure"] = error
    return specs


def _ideal_contact(rng):
    # The 3d pairs are the heavy end of the deck and their cost depends on
    # the locus, so they keep their first locus and every seed gets the same
    # heavy end; the seed draws the 2d loci and the order.
    specs = [_pair_spec(rng, rays) for rays in pool_2d(9)]
    specs += [_pair_spec(None, rays) for rays in pool_ideal_3d()]
    return specs


def _stv_complexes(rng):
    # Every component each time, so each seed certifies the same charts.  The
    # cost of a chart grows with max(a, b), then c; neighbours in that order
    # (ties broken by the seed) share a complex, so the spread of complex
    # sizes is the same for every seed: the 15 lightest make 5 triples, the
    # rest pairs.  The seed also picks the certification seeds and the order.
    comps = pool_stv_components()
    rng.shuffle(comps)
    comps.sort(key=lambda rays: (max(rays[2][:2]), rays[2][2]))
    specs = []
    for size in [3] * 5 + [2] * 11:
        group, comps = comps[:size], comps[size:]
        specs.append({"components": [[list(r) for r in rays] for rays in group],
                      "gluings": [[i, i + 1] for i in range(size - 1)],
                      "seed": _cert_seed(rng)})
    assert not comps
    return specs


_GENERATORS = {"nash-pairs": _nash_pairs, "stv-complexes": _stv_complexes,
               "ideal-contact": _ideal_contact}


def generate(workload, seed):
    """Seeded, deduplicated, ordered instance specs with stable ids."""
    rng = random.Random(f"{workload}:{seed}")
    seen, specs = set(), []
    for spec in _GENERATORS[workload](rng):
        key = json.dumps({k: spec[k] for k in ("cone", "marked", "components",
                                               "gluings") if k in spec},
                         sort_keys=True)
        if key not in seen:
            seen.add(key)
            specs.append(spec)
    rng.shuffle(specs)
    prefix = "".join(w[0] for w in workload.split("-"))
    for i, spec in enumerate(specs):
        spec["id"] = f"{prefix}{i:03d}"
    return specs


def canonical_bytes(specs):
    return json.dumps(specs, sort_keys=True, separators=(",", ":")).encode()


def digest(specs):
    return hashlib.sha256(canonical_bytes(specs)).hexdigest()


def build_locus(spec) -> FaceLocus:
    cone = Cone.from_rays([tuple(r) for r in spec["cone"]])
    faces = {f.rays: f for f in enumerate_faces(cone)}
    return FaceLocus(cone, frozenset(
        faces[tuple(sorted(tuple(r) for r in f))] for f in spec["marked"]))


def build_complex(spec) -> STVComplex:
    comps = [Cone.from_rays([tuple(r) for r in rays]) for rays in spec["components"]]
    gluings = [Gluing(i, j, E12, E12, la.identity(3)) for i, j in spec["gluings"]]
    return STVComplex(3, comps, gluings)
