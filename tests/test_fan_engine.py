"""The fan engine: facet-join star subdivisions, one-pass pulling
simplicialization, and certification of the 4d cube pair."""

import functools
import random

import pytest

from toricnash import cones as cg
from toricnash import fans as fs
from toricnash import intlinalg as la
from toricnash import nash, oracle
from toricnash.cones import Cone
from toricnash.errors import ConstructionFailed, ForbiddenBlocksResolution
from toricnash.fans import Fan
from toricnash.locus import face_locus

QUADRANT = Cone.from_rays([(1, 0), (0, 1)])
A1 = Cone.from_rays([(1, 0), (1, 2)])
QUADRIC = Cone.from_rays([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
CUBE = Cone.from_rays([(a, b, c, 1) for a in (0, 1) for b in (0, 1)
                       for c in (0, 1)])
SIMPLEX_4D = Cone.from_rays([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                             (1, 2, 3, 7)])
PENTAGON = Cone.from_rays([(1, 0, 1), (1, 1, 1), (0, 2, 1), (-1, 1, 1),
                           (-1, 0, 1)])


def face_join_star(fan, v):
    """The star subdivision as first written: every face avoiding v joined
    with v, pruned to the maximal pieces by the public Fan constructor."""
    pieces = []
    for c in fan.max_cones:
        if not c.contains(v):
            pieces.append(c)
            continue
        for f in cg.enumerate_faces(c):
            if not f.as_cone().contains(v):
                pieces.append(Cone.from_rays(f.rays + (v,), fan.ambient_dim))
    return Fan(fan.ambient_dim, pieces)


def star_centers(fan):
    """The fan's rays, and the primitive parts of the ray sum of every face
    and of the nonzero half-open parallelepiped points of a triangulation of
    each maximal cone."""
    out = set(fan.rays())
    for c in fan.max_cones:
        for f in cg.enumerate_faces(c)[1:]:
            out.add(la.primitive_part(functools.reduce(la.vadd, f.rays)))
        for simplex in cg.triangulate(c):
            for p in cg.parallelepiped_points(simplex, fan.ambient_dim):
                if any(p):
                    out.add(la.primitive_part(p))
    return sorted(out)


def blowups():
    return [fs.star_subdivide(Fan.of_cone(QUADRANT), (1, 1)).refined,
            fs.star_subdivide(Fan.of_cone(QUADRIC), (1, 1, 1)).refined,
            fs.star_subdivide(Fan.of_cone(CUBE), (1, 1, 1, 2)).refined]


@pytest.mark.parametrize("fan", [Fan.of_cone(QUADRIC), Fan.of_cone(CUBE),
                                 Fan.of_cone(SIMPLEX_4D)] + blowups(),
                         ids=["quadric", "cube", "simplex4d", "quadrant-blowup",
                              "quadric-blowup", "cube-blowup"])
def test_star_refine_matches_face_join(fan):
    centers = star_centers(fan)
    assert len(centers) > len(fan.rays())
    for v in centers:
        assert fs._star_refine(fan, v) == face_join_star(fan, v), v


@pytest.mark.parametrize("cone", [QUADRIC, CUBE, PENTAGON],
                         ids=["quadric", "cube", "pentagon"])
def test_simplicialize_pulls_without_new_rays(cone):
    fan = Fan.of_cone(cone)
    for seed in range(5):
        sub = fs.simplicialize(fan, random.Random(seed))
        assert sub.added_rays == ()
        assert set(sub.refined.rays()) == set(cone.rays)
        assert all(c.is_simplicial for c in sub.refined.max_cones)
        ok, diag = sub.validate()
        assert ok, diag


@pytest.fixture(scope="module")
def cube_locus():
    return face_locus(CUBE, [])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cube_pair_certifies(cube_locus, seed):
    y = cube_locus
    report = nash.certify_essential(y, samples=3, seed=seed)
    want = oracle.brute_minimal_region_points(y, oracle.default_region_cap(y))
    assert len(want) == 7
    assert report.minimal_points == want
    assert report.bijective and not report.missing
    for sub in report.samples:
        assert fs.is_locus_resolution(sub, y)
        if seed == 0:
            ok, diag = sub.validate()
            assert ok, diag
    assert report.avoided
    for ray, sub in report.avoided:
        assert ray not in sub.refined.rays()
        assert fs.is_locus_resolution(sub, y)


def test_construction_failed_carries_attempts(monkeypatch):
    y = face_locus(QUADRANT, [cg.smallest_containing_face(QUADRANT, (1, 1))])

    def refuse(sigma, locus, w, n1, n2):
        raise ForbiddenBlocksResolution(f"refused {n1} + {n2}", cone=sigma,
                                        forbidden=(w,))

    monkeypatch.setattr(fs, "_avoid_with", refuse)
    with pytest.raises(ConstructionFailed) as info:
        fs.avoidance_resolution(QUADRANT, y, (2, 1))
    exc = info.value
    assert exc.point == (2, 1)
    assert exc.attempts
    for n1, n2, error in exc.attempts:
        assert la.vadd(n1, n2) == (2, 1)
        assert isinstance(error, ForbiddenBlocksResolution)
        assert error.forbidden == ((2, 1),)
        assert f"refused {n1} + {n2}" in str(exc)
    assert "(2, 1)" in str(exc)


def test_forbidden_blocks_resolution_carries_cone():
    with pytest.raises(ForbiddenBlocksResolution) as info:
        fs.resolve_smooth(Fan.of_cone(A1), forbidden=[(1, 1)])
    assert info.value.cone == A1
    assert info.value.forbidden == ((1, 1),)
    assert "forbidden" in str(info.value)
