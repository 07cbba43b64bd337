"""The fan engine: facet-join star subdivisions, one-pass pulling
simplicialization, certification of the 4d cube pair, and the finite candidate
sets of the locus resolution and the avoidance construction."""

import functools
import random

import pytest

from toricnash import cones as cg
from toricnash import fans as fs
from toricnash import intlinalg as la
from toricnash import nash, oracle
from toricnash.cones import Cone
from toricnash.errors import (
    ConstructionFailed,
    ForbiddenBlocksResolution,
    NotPrimitive,
)
from toricnash.fans import Fan
from toricnash.locus import face_locus, region_contains

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


# -- candidate sets against independent references ----------------------------

def smooth_cone(rng, k, dim):
    """k rows of a random unimodular dim x dim matrix with small entries."""
    rows = [list(r) for r in la.identity(dim)]
    for _ in range(2 * dim):
        i, j = rng.sample(range(dim), 2)
        sign = rng.choice((-1, 1))
        rows[i] = [a + sign * b for a, b in zip(rows[i], rows[j])]
    return Cone.from_rays([tuple(r) for r in rows[:k]], dim)


def lowest_relint_points(c, forbidden, max_level=60):
    """Box scan: the relative-interior points of the lowest level holding
    one whose primitive part is not forbidden."""
    for level in range(1, max_level + 1):
        pts = [p for p in cg.level_points(c, level)
               if c.relint_contains(p) and la.primitive_part(p) not in forbidden]
        if pts:
            return sorted(pts)
    raise AssertionError(f"no admissible point in {c!r} up to {max_level}")


def test_relint_point_candidates_match_box_scan():
    rng = random.Random(2024)
    cones = []
    while len(cones) < 24:
        k = rng.randint(2, 4)
        c = smooth_cone(rng, k, rng.choice((k, k + 1)) if k < 4 else 4)
        assert cg.is_smooth(c)
        if max(map(abs, sum(c.rays, ()))) <= 3:
            cones.append(c)
    for c in cones:
        s = functools.reduce(la.vadd, c.rays)
        blocks = [frozenset(), frozenset({s}),
                  frozenset({s} | {la.vadd(s, r) for r in c.rays})]
        blocks += [frozenset({s, la.vadd(s, r)}) for r in c.rays]
        for forbidden in blocks:
            want = lowest_relint_points(c, forbidden)
            assert fs._relint_point_candidates(c, forbidden) == want, (c, forbidden)


def test_decompositions_are_the_minima_below(cube_locus):
    """The splittings of every avoided ray are the brute-force region minima m
    with w - m in the cone and nonzero, by (level, m)."""
    for y in (face_locus(QUADRIC, []), face_locus(SIMPLEX_4D, []), cube_locus):
        sigma = y.cone
        ell = cg.positive_functional(sigma)
        report = nash.certify_essential(y, samples=3, seed=0)
        assert report.avoided
        # a minimum below w lies below level l(w), so this cap misses none
        cap = max(la.dot(ell, w) for w, _ in report.avoided)
        minima = oracle.brute_minimal_region_points(y, cap)
        for w, _ in report.avoided:
            below = [m for m in minima if not la.is_zero(la.vsub(w, m))
                     and sigma.contains(la.vsub(w, m))]
            below.sort(key=lambda m: (la.dot(ell, m), m))
            assert below
            assert list(fs._decompositions(sigma, y, w)) == \
                [(m, la.vsub(w, m)) for m in below]


def test_avoidance_of_a_multiple_on_a_subdivision_ray():
    """w = (2, 4) = (1, 1) + (1, 3) lies on the ray (1, 2) of the minimal
    regular subdivision of cone((1, 1), (1, 3)).  No resolution has the
    multiple (2, 4) as a ray, so avoiding it proves nothing: it is rejected."""
    y = face_locus(QUADRANT, [cg.smallest_containing_face(QUADRANT, (1, 1))])
    assert list(fs._decompositions(QUADRANT, y, (2, 4))) == [((1, 1), (1, 3))]
    with pytest.raises(NotPrimitive):
        fs.avoidance_resolution(QUADRANT, y, (2, 4))


# -- non-essentiality witnesses ------------------------------------------------

@pytest.fixture
def constructions(monkeypatch):
    """Counts the avoidance constructions certify_essential builds."""
    calls = []

    def counted(sigma, locus, w):
        calls.append(w)
        return fs.avoidance_resolution(sigma, locus, w)

    monkeypatch.setattr(nash, "avoidance_resolution", counted)
    return calls


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("cone, most", [(CUBE, 10), (QUADRIC, 2),
                                        (SIMPLEX_4D, 2)],
                         ids=["cube", "quadric", "simplex4d"])
def test_witnesses_come_from_resolutions_at_hand(constructions, cone, most,
                                                 seed):
    y = face_locus(cone, [])
    report = nash.certify_essential(y, samples=3, seed=seed)
    assert report.avoided
    assert len(constructions) <= most
    assert len(report.samples) == 3
    # the samples are the seed-varied resolutions, and nothing else
    assert [s.refined for s in report.samples] == [
        fs.make_locus_resolution(cone, y, rng=nash._sample_rng(seed, i)).refined
        for i in range(3)]
    for ray, sub in report.avoided:
        assert ray not in sub.refined.rays()
        assert fs.is_locus_resolution(sub, y)
        omitting = [s for s in report.samples if ray not in s.refined.rays()]
        if omitting:
            assert sub is omitting[0]
        else:
            assert ray in constructions
            assert all(sub is not s for s in report.samples)


def test_witnesses_are_deterministic():
    first, second = (nash.certify_essential(face_locus(SIMPLEX_4D, []),
                                            samples=3, seed=1)
                     for _ in range(2))
    assert [(r, s.refined) for r, s in first.avoided] == \
        [(r, s.refined) for r, s in second.avoided]


def test_rays_of_every_sample_are_constructed(constructions):
    """With one sample every avoided ray is one of its rays, so each needs
    its own avoidance construction."""
    y = face_locus(QUADRIC, [])
    report = nash.certify_essential(y, samples=1)
    assert report.avoided
    assert constructions == [ray for ray, _ in report.avoided]
    for ray, sub in report.avoided:
        assert sub.refined == fs.avoidance_resolution(QUADRIC, y, ray).refined


def test_avoidance_on_the_cube(cube_locus):
    """The construction itself on a non-simplicial 4d cone, for rays of the
    seed-0 sample that samples alone may witness."""
    sample = fs.make_locus_resolution(CUBE, cube_locus)
    minima = set(nash.minimal_region_points(cube_locus))
    rays = [r for r in sample.refined.rays()
            if r not in minima and region_contains(cube_locus, r)]
    assert len(rays) >= 3
    for w in rays[:3]:
        sub = fs.avoidance_resolution(CUBE, cube_locus, w)
        assert w not in sub.refined.rays()
        assert fs.is_locus_resolution(sub, cube_locus)
        ok, diag = sub.validate()
        assert ok, diag


def test_validate_is_computed_once_per_subdivision(cube_locus):
    sample = fs.make_locus_resolution(CUBE, cube_locus)
    assert sample.validate() == (True, [])
    sample.validate()[1].append("tampered")
    assert sample.validate() == (True, [])
    dropped = fs.Subdivision(sample.base,
                             Fan(4, sample.refined.max_cones[1:]),
                             sample.added_rays)
    ok, problems = dropped.validate()
    assert not ok and problems
    kept = list(problems)
    problems.clear()
    assert dropped.validate() == (False, kept)
