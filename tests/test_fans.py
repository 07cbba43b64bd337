import itertools
import random

import pytest

from toricnash import cones as cg
from toricnash import fans as fs
from toricnash import intlinalg as la
from toricnash.cones import Cone
from toricnash.errors import (
    MinimalPoint,
    NotInRegion,
    NotInSupport,
    NotPrimitive,
    SupportMismatch,
    WrongDimension,
)
from toricnash.fans import Fan, Subdivision
from toricnash.locus import face_locus, region_contains

QUADRANT = Cone.from_rays([(1, 0), (0, 1)])
A1 = Cone.from_rays([(1, 0), (1, 2)])
QUADRIC = Cone.from_rays([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])


def quadrant_locus():
    full = cg.smallest_containing_face(QUADRANT, (1, 1))
    return face_locus(QUADRANT, [full])


def random_pointed_cone(rng, dim, bound=4):
    nrays = rng.randint(1, dim + 2)
    rays = []
    while len(rays) < nrays:
        v = tuple(rng.randint(0, bound) for _ in range(dim))
        if not la.is_zero(v):
            rays.append(v)
    return Cone.from_rays(rays, dim)


def test_validate_fan_quadrant():
    ok, diag = fs.validate_fan(Fan.of_cone(QUADRANT))
    assert ok and not diag


def test_validate_fan_overlapping():
    f = Fan(2, [Cone.from_rays([(1, 0), (0, 1)]),
                Cone.from_rays([(1, 1), (-1, 1)])])
    ok, diag = fs.validate_fan(f)
    assert not ok
    assert any("not a common face" in d for d in diag)


def test_validate_fan_blowup():
    f = Fan(2, [Cone.from_rays([(1, 0), (1, 1)]),
                Cone.from_rays([(1, 1), (0, 1)])])
    ok, diag = fs.validate_fan(f)
    assert ok, diag


def test_star_subdivide_quadrant():
    sub = fs.star_subdivide(Fan.of_cone(QUADRANT), (1, 1))
    got = {c.rays for c in sub.refined.max_cones}
    assert got == {((1, 0), (1, 1)), ((0, 1), (1, 1))}
    assert sub.added_rays == ((1, 1),)
    ok, diag = sub.validate()
    assert ok, diag


def test_star_subdivide_existing_ray_is_identity():
    sub = fs.star_subdivide(Fan.of_cone(QUADRANT), (1, 0))
    assert sub.is_identity()


def test_star_subdivide_errors():
    with pytest.raises(NotPrimitive):
        fs.star_subdivide(Fan.of_cone(QUADRANT), (2, 2))
    with pytest.raises(NotInSupport):
        fs.star_subdivide(Fan.of_cone(QUADRANT), (-1, 1))


def test_star_subdivide_relint_adds_one_ray():
    rng = random.Random(61)
    for _ in range(100):
        dim = rng.randint(2, 3)
        c = random_pointed_cone(rng, dim)
        if c.dim != dim:
            continue
        fan = Fan.of_cone(c)
        pts = [p for p in cg.level_points(c, rng.randint(1, 4))
               if c.relint_contains(p)]
        if not pts:
            continue
        v = la.primitive_part(rng.choice(pts))
        if v in fan.rays():
            continue
        sub = fs.star_subdivide(fan, v)
        assert len(sub.refined.rays()) == len(fan.rays()) + 1
        ok, diag = sub.validate()
        assert ok, diag


def test_minimal_regular_subdivision_2d():
    sub = fs.minimal_regular_subdivision_2d(A1)
    assert sub.added_rays == ((1, 1),)
    assert {c.rays for c in sub.refined.max_cones} == \
        {((1, 0), (1, 1)), ((1, 1), (1, 2))}
    smooth = fs.minimal_regular_subdivision_2d(QUADRANT)
    assert smooth.added_rays == ()
    sub2 = fs.minimal_regular_subdivision_2d(Cone.from_rays([(1, 0), (2, 3)]))
    assert sub2.added_rays == ((1, 1),)
    for c in sub2.refined.max_cones:
        assert cg.multiplicity(c) == 1
    with pytest.raises(WrongDimension):
        fs.minimal_regular_subdivision_2d(Cone.from_rays([(1, 0)], 2))


def test_minimal_regular_subdivision_adds_hilbert_interior():
    rng = random.Random(67)
    for _ in range(120):
        a = rng.randint(1, 7)
        b = rng.randint(-7, 7)
        c = Cone.from_rays([(1, 0), (b, a)] if (b, a) != (1, 0) else [(1, 0), (0, 1)])
        if c.dim != 2:
            continue
        sub = fs.minimal_regular_subdivision_2d(c)
        for piece in sub.refined.max_cones:
            assert cg.multiplicity(piece) == 1
        assert set(sub.added_rays) == set(cg.hilbert_basis(c)) - set(c.rays)
        ok, diag = sub.validate()
        assert ok, diag


def test_simplicialize_quadric():
    sub = fs.simplicialize(Fan.of_cone(QUADRIC))
    assert len(sub.refined.max_cones) == 2
    assert all(c.is_simplicial for c in sub.refined.max_cones)
    assert sub.added_rays == ()
    assert set(sub.refined.rays()) == set(QUADRIC.rays)
    ok, diag = sub.validate()
    assert ok, diag


def test_simplicialize_noop():
    assert fs.simplicialize(Fan.of_cone(QUADRANT)).is_identity()
    blow = fs.star_subdivide(Fan.of_cone(QUADRANT), (1, 1)).refined
    assert fs.simplicialize(blow).is_identity()


def test_resolve_smooth_a1():
    sub = fs.resolve_smooth(Fan.of_cone(A1))
    assert sub.refined.rays() == ((1, 0), (1, 1), (1, 2))
    assert all(cg.is_smooth(c) for c in sub.refined.max_cones)


def test_resolve_smooth_noop():
    assert fs.resolve_smooth(Fan.of_cone(QUADRANT)).is_identity()


def test_resolve_smooth_quadric():
    sub = fs.resolve_smooth(Fan.of_cone(QUADRIC))
    assert set(QUADRIC.rays) <= set(sub.refined.rays())
    for c in sub.refined.max_cones:
        assert cg.multiplicity(c) == 1
    ok, diag = sub.validate()
    assert ok, diag


def test_resolve_smooth_random_properties():
    rng = random.Random(71)
    for _ in range(60):
        dim = rng.randint(2, 3)
        c = random_pointed_cone(rng, dim, bound=3)
        sub = fs.resolve_smooth(Fan.of_cone(c))
        assert set(c.rays) <= set(sub.refined.rays())
        for piece in sub.refined.max_cones:
            assert cg.multiplicity(piece) == 1
        ok, diag = sub.validate()
        assert ok, diag


def test_is_locus_resolution_examples():
    yA = face_locus(A1, [])
    res = fs.resolve_smooth(Fan.of_cone(A1))
    assert fs.is_locus_resolution(res, yA)

    y = quadrant_locus()
    ident = Subdivision(Fan.of_cone(QUADRANT), Fan.of_cone(QUADRANT), ())
    assert not fs.is_locus_resolution(ident, y)  # preimage is a point, not a divisor

    rough = Subdivision(Fan.of_cone(A1), Fan.of_cone(A1), ())
    assert not fs.is_locus_resolution(rough, yA)  # not smooth


def test_is_locus_resolution_rejects_another_base():
    yA = face_locus(A1, [])
    res = fs.resolve_smooth(Fan.of_cone(QUADRANT))
    with pytest.raises(SupportMismatch, match="base is not the marked cone"):
        fs.is_locus_resolution(res, yA)
    blow = fs.star_subdivide(Fan.of_cone(A1), (1, 1))
    wider = Subdivision(blow.refined, blow.refined, ())
    with pytest.raises(SupportMismatch, match="base is not the marked cone"):
        fs.is_locus_resolution(wider, yA)


def test_is_locus_resolution_rejects_a_ray_outside_the_cone():
    """One piece of an otherwise valid resolution of A1 reaches (0, 1),
    outside A1; every other ray of the refinement lies in it."""
    yA = face_locus(A1, [])
    res = fs.resolve_smooth(Fan.of_cone(A1))
    outside = Fan(2, res.refined.max_cones
                  + (Cone.from_rays([(1, 2), (0, 1)]),))
    sub = Subdivision(Fan.of_cone(A1), outside, ((1, 1), (0, 1)))
    with pytest.raises(SupportMismatch, match="leaves the marked cone"):
        fs.is_locus_resolution(sub, yA)
    quadrant = Subdivision(Fan.of_cone(A1), Fan.of_cone(QUADRANT), ())
    with pytest.raises(SupportMismatch, match="leaves the marked cone"):
        fs.is_locus_resolution(quadrant, yA)


def test_make_locus_resolution_quadrant():
    y = quadrant_locus()
    sub = fs.make_locus_resolution(QUADRANT, y)
    assert sub.refined.rays() == ((0, 1), (1, 0), (1, 1))
    assert {c.rays for c in sub.refined.max_cones} == \
        {((1, 0), (1, 1)), ((0, 1), (1, 1))}


def test_make_locus_resolution_a1():
    yA = face_locus(A1, [])
    sub = fs.make_locus_resolution(A1, yA)
    assert sub.refined.rays() == ((1, 0), (1, 1), (1, 2))


def test_make_locus_resolution_already_resolved():
    # marking a boundary ray of a smooth cone: the identity already works
    xray = cg.smallest_containing_face(QUADRANT, (1, 0))
    y = face_locus(QUADRANT, [xray])
    sub = fs.make_locus_resolution(QUADRANT, y)
    assert sub.is_identity()


def test_make_locus_resolution_idempotent_property():
    rng = random.Random(73)
    for _ in range(50):
        dim = rng.randint(2, 3)
        c = random_pointed_cone(rng, dim, bound=3)
        faces = cg.enumerate_faces(c)
        proper = [f for f in faces if f.rays]
        seed = [rng.choice(proper)] if rng.random() < 0.7 else []
        try:
            y = face_locus(c, seed)
        except Exception:
            continue
        sub = fs.make_locus_resolution(c, y)
        assert fs.is_locus_resolution(sub, y)
        ok, diag = sub.validate()
        assert ok, diag


def test_avoidance_quadrant():
    y = quadrant_locus()
    sub = fs.avoidance_resolution(QUADRANT, y, (2, 1))
    assert sub.refined.rays() == ((0, 1), (1, 0), (1, 1))
    assert (2, 1) not in sub.refined.rays()
    assert fs.is_locus_resolution(sub, y)

    with pytest.raises(MinimalPoint):
        fs.avoidance_resolution(QUADRANT, y, (1, 1))
    with pytest.raises(NotInRegion):
        fs.avoidance_resolution(QUADRANT, y, (1, 0))


def test_avoidance_a1_nonprimitive():
    """(2, 2) is in the region but no resolution has it as a ray."""
    yA = face_locus(A1, [])
    assert region_contains(yA, (2, 2))
    with pytest.raises(NotPrimitive):
        fs.avoidance_resolution(A1, yA, (2, 2))


def test_avoidance_random_2d():
    rng = random.Random(79)
    hits = 0
    while hits < 40:
        a = rng.randint(1, 6)
        b = rng.randint(0, 6)
        c = Cone.from_rays([(1, 0), (b, a)])
        if c.dim != 2:
            continue
        try:
            y = face_locus(c, [cg.smallest_containing_face(c, la.vadd(c.rays[0], c.rays[1]))])
        except Exception:
            continue
        pts = [p for k in range(2, 7) for p in cg.level_points(c, k)
               if region_contains(y, p)]
        pts = [p for p in pts if la.primitive_part(p) == p]
        rng.shuffle(pts)
        for w in pts[:2]:
            from toricnash.locus import is_minimal_in_region
            if is_minimal_in_region(y, w):
                continue
            sub = fs.avoidance_resolution(c, y, w)
            assert w not in sub.refined.rays()
            assert fs.is_locus_resolution(sub, y)
            hits += 1


def test_subdivision_support_sampling():
    """Sampled lattice points of base and refinement cover each other."""
    rng = random.Random(83)
    for _ in range(40):
        dim = rng.randint(2, 3)
        c = random_pointed_cone(rng, dim, bound=3)
        sub = fs.resolve_smooth(Fan.of_cone(c))
        for pt in itertools.product(range(0, 4), repeat=dim):
            in_base = c.contains(pt)
            in_ref = sub.refined.supports(pt)
            assert in_base == in_ref


def test_seed_variation_is_deterministic():
    y = face_locus(QUADRIC, [])
    a = fs.make_locus_resolution(QUADRIC, y, rng=random.Random(5))
    b = fs.make_locus_resolution(QUADRIC, y, rng=random.Random(5))
    assert a.refined == b.refined
