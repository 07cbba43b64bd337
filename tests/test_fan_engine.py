"""The fan engine: facet-join star subdivisions, one-pass pulling
simplicialization, certification of the 4d cube pair, and the finite candidate
sets of the locus resolution and the avoidance construction."""

import collections
import functools
import hashlib
import itertools
import json
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
            assert fs._relint_point_candidates(c.rays, forbidden) == want, \
                (c, forbidden)


def test_grading_of_a_smooth_cone_is_one_on_every_ray():
    """The proof behind _relint_point_candidates: on a smooth cone the sum
    of the facet normals is the dual basis sum, of level 1 on every ray."""
    rng = random.Random(29)
    for _ in range(40):
        k = rng.randint(2, 4)
        c = smooth_cone(rng, k, rng.randint(k, 4))
        assert cg.is_smooth(c)
        ell = cg.positive_functional(c)
        assert [la.dot(ell, r) for r in c.rays] == [1] * k, c


def test_cube_certificate_double_descriptions(monkeypatch):
    """A work guard on the certificate path: the singular faces and the
    offender centres build no cone of their own, so certify_essential on a
    fresh 4d cube takes at most 42 double descriptions, as measured; building
    those cones made it 90."""
    cg._cone_from_generators.cache_clear()
    y = face_locus(Cone.from_rays(CUBE.rays), [])
    calls = []
    dd = cg._double_description

    def counted(*args):
        calls.append(args)
        return dd(*args)

    monkeypatch.setattr(cg, "_double_description", counted)
    report = nash.certify_essential(y, samples=3, seed=0)
    assert report.bijective and len(report.minimal_points) == 7
    assert len(calls) <= 42


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


# -- the facet certificate against the pairwise reference ---------------------

PLANE_IN_Z3 = Cone.from_rays([(1, 0, 1), (1, 3, 1)])
QUADRIC_IN_Z4 = Cone.from_rays([(1, 0, 0, 1), (0, 1, 0, 1), (1, 0, 1, 1),
                                (0, 1, 1, 1)])


def reference_validate(sub):
    """Subdivision.validate as it was before the facet certificate: the
    pairwise validate_fan, the base-ray and containment checks, and a
    support test that counts the facets of each base cone's pieces as Cones.
    Only the verdict is kept, and the pairwise test, the costly one, runs
    last."""
    base, pieces = sub.base.max_cones, sub.refined.max_cones
    if not set(sub.base.rays()) <= set(sub.refined.rays()):
        return False
    if not all(any(fs._cone_subset(c, b) for b in base) for c in pieces):
        return False
    for b in base:
        members = [c for c in pieces if fs._cone_subset(c, b) and c.dim == b.dim]
        if not members:
            return False
        if b.dim == 0:
            continue
        counts = collections.Counter(f.as_cone() for c in members
                                     for f in cg.facets(c))
        for fc, num in counts.items():
            if num > 2 or num == 1 and fc.dim == b.dim - 1 and \
               cg.face_spanned_by(b, fc.rays).rays == b.rays:
                return False
    return fs.validate_fan(sub.refined)[0]


def corruptions(sub):
    """Copies of a locus resolution, built with Fan._of_maximal so that
    nothing is pruned: one piece dropped, a simplicial piece on the base's
    rays laid over the others, and one piece with a ray replaced by its
    negative, outside the base."""
    (sigma,) = sub.base.max_cones
    pieces = list(sub.refined.max_cones)
    span = []
    for r in sigma.rays:
        if la.rank(span + [r]) > len(span):
            span.append(r)
    over = Cone.from_rays(span, sigma.ambient_dim)
    assert over.dim == sigma.dim and over not in pieces
    first = pieces[0]
    outside = Cone.from_rays((la.vneg(first.rays[0]),) + first.rays[1:],
                             sigma.ambient_dim)

    def copy(cones):
        return fs.Subdivision(sub.base, Fan._of_maximal(sigma.ambient_dim, cones),
                              sub.added_rays)

    mid = len(pieces) // 2
    return {"dropped": copy(pieces[:mid] + pieces[mid + 1:]),
            "overlap": copy(pieces + [over]),
            "outside": copy([outside] + pieces[1:])}


@pytest.mark.parametrize("cone, seed", [
    (c, seed) for c in (CUBE, QUADRIC, SIMPLEX_4D) for seed in (0, 1, 2)
] + [(PLANE_IN_Z3, 0), (QUADRIC_IN_Z4, 0)], ids=[
    f"{name}-{seed}" for name in ("cube", "quadric", "simplex4d")
    for seed in (0, 1, 2)] + ["plane-in-z3", "quadric-in-z4"])
def test_facet_certificate_matches_pairwise_reference(cone, seed):
    sub = fs.make_locus_resolution(cone, face_locus(cone, []),
                                   rng=random.Random(seed))
    assert sub.validate() == (True, [])
    assert reference_validate(sub)
    for name, bad in corruptions(sub).items():
        ok, problems = bad.validate()
        assert not ok and problems, name
        assert not reference_validate(bad), name


def test_both_triangulations_of_the_quadric_pass():
    a, b, c, d = (1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)  # a + d = b + c
    base = Fan.of_cone(QUADRIC)
    for diagonal, apexes in (((a, d), (b, c)), ((b, c), (a, d))):
        pieces = [Cone.from_rays(diagonal + (x,)) for x in apexes]
        sub = fs.Subdivision(base, Fan._of_maximal(3, pieces), ())
        assert sub.validate() == (True, [])
        assert reference_validate(sub)
    crossed = fs.Subdivision(base, Fan._of_maximal(3, [
        Cone.from_rays([a, d, b]), Cone.from_rays([b, c, a])]), ())
    assert not crossed.validate()[0] and not reference_validate(crossed)


def test_each_clause_of_the_certificate_is_needed():
    """Two covers that only one clause rejects each: a fold, whose interior
    facets pair up from one side, and two triangulations laid over each
    other with no facet in common, caught by the first piece's ray sum."""
    fold = fs.Subdivision(Fan.of_cone(QUADRANT), Fan._of_maximal(2, [
        Cone.from_rays(rays) for rays in
        ([(1, 0), (2, 3)], [(1, 1), (2, 3)], [(0, 1), (1, 1)])]), ())
    ok, problems = fold.validate()
    assert not ok and all("one side" in p for p in problems)
    assert not reference_validate(fold)
    octant = Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)])

    def triangulation(centers):
        fan = Fan.of_cone(octant)
        for v in centers:
            fan = fs._star_refine(fan, v)
        return fan.max_cones

    first = triangulation([(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    second = triangulation([(2, 1, 0), (0, 2, 1), (1, 0, 2)])
    twice = fs.Subdivision(Fan.of_cone(octant),
                           Fan._of_maximal(3, first + second), ())
    ok, problems = twice.validate()
    assert not ok and len(problems) == 1 and "overlap" in problems[0]
    assert not reference_validate(twice)


def test_base_cones_refined_apart_fail_the_pairwise_test():
    """Each base cone is triangulated, but the shared face cone(e1, e2) is
    cut in one of them only, so the pieces do not meet in common faces."""
    e1, e2, e3, down = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)
    base = Fan(3, [Cone.from_rays([e1, e2, e3]), Cone.from_rays([e1, e2, down])])
    refined = Fan._of_maximal(3, [
        Cone.from_rays([e1, (1, 1, 0), e3]), Cone.from_rays([(1, 1, 0), e2, e3]),
        Cone.from_rays([e1, e2, down])])
    apart = fs.Subdivision(base, refined, ((1, 1, 0),))
    ok, problems = apart.validate()
    assert not ok and problems == fs.validate_fan(refined)[1]
    assert not reference_validate(apart)


def test_a_duplicated_piece_is_rejected():
    sub = fs.make_locus_resolution(QUADRIC, face_locus(QUADRIC, []))
    pieces = sub.refined.max_cones
    doubled = fs.Subdivision(sub.base, Fan._of_maximal(3, pieces + pieces[:1]),
                             sub.added_rays)
    ok, problems = doubled.validate()
    assert not ok and problems
    # a smooth cone covered twice passes every count of the old support test
    # and the pairwise test; the boundary facets now bound two pieces
    twice = fs.Subdivision(Fan.of_cone(QUADRANT),
                           Fan._of_maximal(2, [QUADRANT, QUADRANT]), ())
    ok, problems = twice.validate()
    assert not ok and problems
    assert reference_validate(twice)


# -- the local star engine against its references ------------------------------

@pytest.fixture
def checked_stars(monkeypatch):
    """Holds every holder face the engine passes to its reference: the star
    at v over face must equal the star found by the membership scan."""
    faces = []
    refine = fs._star_refine

    def checked(fan, v, face=None):
        got = refine(fan, v, face)
        if face is not None:
            assert got == refine(fan, v), (fan, v, face)
            faces.append(face)
        return got

    monkeypatch.setattr(fs, "_star_refine", checked)
    return faces


@pytest.mark.parametrize("cone", [A1, QUADRIC, PENTAGON, SIMPLEX_4D, CUBE],
                         ids=["a1", "quadric", "pentagon", "simplex4d", "cube"])
def test_star_refine_over_a_face_matches_the_scan(checked_stars, cone):
    fan = Fan.of_cone(cone)
    for rng in (None, random.Random(1), random.Random(2)):
        fs.simplicialize(fan, rng)
        fs.resolve_smooth(fan, rng=rng)
    fs.make_locus_resolution(cone, face_locus(cone, []))
    assert any(len(face) > 1 for face in checked_stars)


def test_offenders_of_a_warm_locus_match_a_fresh_one(monkeypatch):
    """The per-cone offender cache changes no answer: on every fan that the
    cube's three samples pass through, the warm locus gives the offenders of
    a freshly built one."""
    seen = []
    offenders = fs._locus_offenders

    def recorded(fan, locus):
        got = offenders(fan, locus)
        seen.append((fan, got))
        return got

    monkeypatch.setattr(fs, "_locus_offenders", recorded)
    y = face_locus(CUBE, [])
    for i in range(3):
        fs.make_locus_resolution(CUBE, y, rng=nash._sample_rng(0, i))
    assert any(got for _, got in seen) and y._offenders
    for fan, got in seen:
        assert got == offenders(fan, y) == offenders(fan, face_locus(CUBE, []))


# -- locus resolutions pinned across changes of the engine ---------------------

def resolution_digest(sub):
    rays = sorted([list(r) for r in c.rays] for c in sub.refined.max_cones)
    return hashlib.sha256(json.dumps(rays).encode()).hexdigest()


# sha256 of the sorted max-cone ray lists of make_locus_resolution, recorded
# before the adjugate pieces, the holder faces and the offender cache landed
GOLDEN = {
    "cube": "217bf1c8bb42e703214047b285cf2a551463aec50b43760a49b5ea58221fe878",
    "cube-rng1": "67b4b67f4453c4407f3d92aa9cd73e034577650440461a24cc590c926bbc7132",
    "simplex": "baa85655c7615845bdcb66c055bee81871cc907e8d5fe5b11a39cb2d4d3a36b2",
}
# the same for the quadric under each of its 47 loci, keyed by the locus's
# minimal faces, each written as the indices of its rays in QUADRIC.rays
GOLDEN_QUADRIC = {
    "0": "14193e6f0532b2071380cbc1f8385592ebc117ff0866ba94e84789531312a90f",
    "01": "7e8369a038d124254c3270059861bef60d0238ca419c3eb01ffc2298579ad83f",
    "0123": "9a1dc558afc90c871727e5d9eb7ebe2b83389d6002cd4478e5bc081812f69478",
    "01|02": "6630e40de7108480f9781b979b971686250cbc230bec5bfea77672725fe2fa82",
    "01|02|13": "a2540d778e0a732df0808fcde002b2c3e4e4a1c3913e2d6a9164ebd4d5779212",
    "01|02|13|23": "0433564c601de2c26f9c3396a5a549e9286b4a28de80fd45d2cbb763e233494c",
    "01|02|23": "2f0f0a2ca76de2703af11759ab127d6859e83a0adb2ef5ecede55d56b383c42c",
    "01|02|3": "b99cd188b8a5b42a59a30233abfaf794cc8f4914beb023a939d16606ca3c7498",
    "01|13": "0dea6f1f32a79cdeb6c1100688fee4cf22526f9fa8b972b5ee5619f5772317a5",
    "01|13|2": "3fec2026f93ccce7c2eb61f2ec000d3382b376fedc2cfb1b832f0c070a508060",
    "01|13|23": "2de07db773f95c98cc70a25a89ee09bc63af92d2da787fbda7521d61a625f86e",
    "01|2": "75ce54fb0242a846c5787f52eeaeda3290f6df6a8b1e909876981d90e3adbc8b",
    "01|23": "cbe417a4aaaadee9f8ab0a76b1b279f4d8c4fcf259e414cbdcf770fe0f0e8bb8",
    "01|2|3": "85c4b4fdb45f1411221680f10bb95e1338ede4dc3278ea86eca2e8845276d4f6",
    "01|3": "85c4b4fdb45f1411221680f10bb95e1338ede4dc3278ea86eca2e8845276d4f6",
    "02": "575d2d7ddd1d2a679af5071fb2455c10956ece6fc7691b4a6122461647c397a8",
    "02|1": "0b67aa67ed99407e1505cf87a6425e112f8b041d6fee7ec059f90dba91d136a3",
    "02|13": "4da63d2810630f4c0e543f9ac98bc742b63304f86b051bbf01302d28b1cdaae9",
    "02|13|23": "52db203404645d8529bf897102ceca8347d8d63985a7a343348dd5425ecc8323",
    "02|1|23": "4896b322b05d8584553aa9172f6f69c268b022b931657c8175f1d90ba13b5f58",
    "02|1|3": "fb4ad429d38e41297d2ccca9d9197385255ac1ac119face5fe5b4646979a6274",
    "02|23": "fe929e1d81847f94dc5ddb125b8a4e23f451376962c1f45f152426673c4dce10",
    "02|3": "fb4ad429d38e41297d2ccca9d9197385255ac1ac119face5fe5b4646979a6274",
    "0|1": "14193e6f0532b2071380cbc1f8385592ebc117ff0866ba94e84789531312a90f",
    "0|13": "8925a5fcba29cf731faaff2594c4bd203f85372649dce4fd70a9fe82de2991a4",
    "0|13|2": "8925a5fcba29cf731faaff2594c4bd203f85372649dce4fd70a9fe82de2991a4",
    "0|13|23": "cc2f186b7c924d5faf534d6e1c4062eb281e48da614753cea563faa486f1a156",
    "0|1|2": "14193e6f0532b2071380cbc1f8385592ebc117ff0866ba94e84789531312a90f",
    "0|1|23": "2e55bd094e30fae743e810541a3d79498c5e2db40f5eb468f008076094455559",
    "0|1|2|3": "14193e6f0532b2071380cbc1f8385592ebc117ff0866ba94e84789531312a90f",
    "0|1|3": "14193e6f0532b2071380cbc1f8385592ebc117ff0866ba94e84789531312a90f",
    "0|2": "14193e6f0532b2071380cbc1f8385592ebc117ff0866ba94e84789531312a90f",
    "0|23": "2e55bd094e30fae743e810541a3d79498c5e2db40f5eb468f008076094455559",
    "0|2|3": "14193e6f0532b2071380cbc1f8385592ebc117ff0866ba94e84789531312a90f",
    "0|3": "14193e6f0532b2071380cbc1f8385592ebc117ff0866ba94e84789531312a90f",
    "1": "0cc53809798560cffcbd39e8d7c427f6d26af687cc56d837ca22922e726e2c91",
    "13": "a80ca6385acbe3087671a8c69f93e783f8e97dbbf252a838d91cfe7017d0a61a",
    "13|2": "d1e256c9a351acb8214d5b32a6fcf44692d786f3e38fa4f6588ea03972c0d7cc",
    "13|23": "a23c30c2c29f739dc2e321b2b2a57b4d48b076b4540b36c529c5e6a998e2659d",
    "1|2": "0866eb7ddb3a6d313c4c6ce1c14b603445bee0b742489c96d48194a885b20f98",
    "1|23": "e1a501cfcb48ac426d1b044b26d29269ac0f0808c86506fdeaca214c7a1030eb",
    "1|2|3": "14193e6f0532b2071380cbc1f8385592ebc117ff0866ba94e84789531312a90f",
    "1|3": "14193e6f0532b2071380cbc1f8385592ebc117ff0866ba94e84789531312a90f",
    "2": "524104a1a32e04ff503fe0143f3fa59be74e22402bbab63f097e0d583ffcb0b4",
    "23": "33892ef01e25813a789ca1857c78d86d638a57a07a92e1edac56e7349c8eb9d2",
    "2|3": "14193e6f0532b2071380cbc1f8385592ebc117ff0866ba94e84789531312a90f",
    "3": "14193e6f0532b2071380cbc1f8385592ebc117ff0866ba94e84789531312a90f",
}


def quadric_loci():
    faces = [f for f in cg.enumerate_faces(QUADRIC) if f.rays]
    loci = {}
    for k in range(len(faces) + 1):
        for seed in itertools.combinations(faces, k):
            y = face_locus(QUADRIC, seed)
            loci.setdefault(y.faces, y)
    return loci.values()


def test_locus_resolutions_match_golden_digests(cube_locus):
    simplex = face_locus(SIMPLEX_4D, [])
    got = {
        "cube": fs.make_locus_resolution(CUBE, cube_locus),
        "cube-rng1": fs.make_locus_resolution(CUBE, cube_locus,
                                              rng=random.Random(1)),
        "simplex": fs.make_locus_resolution(SIMPLEX_4D, simplex),
    }
    assert {k: resolution_digest(sub) for k, sub in got.items()} == GOLDEN
    quadric = {}
    for y in quadric_loci():
        label = "|".join(sorted("".join(str(QUADRIC.rays.index(r))
                                        for r in f.rays)
                                for f in y.minimal_faces()))
        quadric[label] = resolution_digest(fs.make_locus_resolution(QUADRIC, y))
    assert quadric == GOLDEN_QUADRIC
