import itertools
import random

import pytest

from toricnash import cones as cg
from toricnash import fans as fs
from toricnash import intlinalg as la
from toricnash import nash
from toricnash import oracle
from toricnash.cones import Cone
from toricnash.errors import (
    EmptyLocus,
    NotInRegion,
    NotProper,
    ValidationError,
)
from toricnash.locus import (
    face_locus,
    is_minimal_in_region,
    region_contains,
    singular_faces,
)

QUADRANT = Cone.from_rays([(1, 0), (0, 1)])
A1 = Cone.from_rays([(1, 0), (1, 2)])
QUADRIC = Cone.from_rays([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
SIMPLEX_4D = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 7))


def face_of(c, v):
    return cg.smallest_containing_face(c, v)


def quadrant_full_locus():
    return face_locus(QUADRANT, [face_of(QUADRANT, (1, 1))])


def quadrant_xray_locus():
    return face_locus(QUADRANT, [face_of(QUADRANT, (1, 0))])


def an_cone(n):
    return Cone.from_rays([(1, 0), (1, n + 1)])


def random_pointed_cone(rng, dim, bound=4):
    nrays = rng.randint(1, dim + 2)
    rays = []
    while len(rays) < nrays:
        v = tuple(rng.randint(0, bound) for _ in range(dim))
        if not la.is_zero(v):
            rays.append(v)
    return Cone.from_rays(rays, dim)


def random_locus(rng, c):
    faces = [f for f in cg.enumerate_faces(c) if f.rays]
    seed = [rng.choice(faces)] if faces and rng.random() < 0.8 else []
    return face_locus(c, seed)


def random_unimodular(rng, d, steps=5):
    M = [list(r) for r in la.identity(d)]
    for _ in range(steps):
        if d < 2:
            break
        i, j = rng.sample(range(d), 2)
        q = rng.randint(-2, 2)
        M[i] = [a + q * b for a, b in zip(M[i], M[j])]
    return la.mat(M)


# -- singular faces and locus construction -----------------------------------

def test_singular_faces():
    assert {f.rays for f in singular_faces(A1)} == {A1.rays}
    assert singular_faces(QUADRANT) == frozenset()
    assert {f.rays for f in singular_faces(QUADRIC)} == {QUADRIC.rays}


CUBE_4D = tuple((a, b, c, 1) for a in (0, 1) for b in (0, 1) for c in (0, 1))
CYCLIC_3D = [((1, 0, 0), (0, 1, 0), (1, a, b))
             for b in range(2, 6) for a in range(b)]


def singular_by_cones(sigma):
    return frozenset(f for f in cg.enumerate_faces(sigma)
                     if not cg.is_smooth(f.as_cone()))


@pytest.mark.parametrize("rays", [QUADRIC.rays, CUBE_4D, SIMPLEX_4D,
                                  ((1, 0, 1), (1, 2, 1))] + CYCLIC_3D,
                         ids=["quadric", "cube4d", "simplex4d", "plane-in-z3"]
                         + [f"cyclic-{r[2][1]}-{r[2][2]}" for r in CYCLIC_3D])
def test_singular_faces_match_is_smooth(rays):
    sigma = Cone.from_rays(rays, len(rays[0]))
    assert singular_faces(sigma) == singular_by_cones(sigma)


def test_singular_faces_are_computed_once_per_cone(monkeypatch):
    sigma = Cone.from_rays(SIMPLEX_4D)
    first = singular_faces(sigma)
    assert first
    calls = []
    index = la.sublattice_index

    def counted(generators):
        calls.append(generators)
        return index(generators)

    monkeypatch.setattr(la, "sublattice_index", counted)
    assert singular_faces(sigma) is first
    assert calls == []


def test_singular_faces_take_no_double_description(monkeypatch):
    """The cube's facets are not simplicial, so their cones would each take
    a double description; the ranks and indices of their rays take none."""
    cg._cone_from_generators.cache_clear()
    cube = Cone.from_rays(CUBE_4D)
    assert cube._faces is None and cube._singular is None

    def refuse(*args):
        raise AssertionError(f"double description of {args}")

    monkeypatch.setattr(cg, "_double_description", refuse)
    got = singular_faces(cube)
    monkeypatch.undo()
    assert got == singular_by_cones(cube)
    # the cone and its 6 facets over the squares; the 2d faces over the
    # cube's edges are smooth
    assert len(got) == 7


def test_face_locus_closure():
    y = quadrant_xray_locus()
    assert {f.rays for f in y.faces} == {((1, 0),), QUADRANT.rays}
    with pytest.raises(EmptyLocus):
        face_locus(QUADRANT, [])
    y2 = face_locus(A1, [])
    assert {f.rays for f in y2.faces} == {A1.rays}
    with pytest.raises(NotProper):
        face_locus(QUADRANT, [face_of(QUADRANT, (0, 0))])


def test_region_contains():
    y = quadrant_full_locus()
    assert region_contains(y, (1, 1))
    assert not region_contains(y, (1, 0))
    y2 = quadrant_xray_locus()
    assert region_contains(y2, (1, 0))
    assert not region_contains(y2, (0, 1))
    assert not region_contains(y2, (-1, 0))


def test_region_sigma_stability():
    """v in region and s in the cone imply v+s in region."""
    rng = random.Random(101)
    for _ in range(120):
        dim = rng.randint(2, 3)
        c = random_pointed_cone(rng, dim, bound=3)
        try:
            y = random_locus(rng, c)
        except EmptyLocus:
            continue
        pts = [p for k in range(1, 4) for p in cg.level_points(c, k)]
        region = [p for p in pts if region_contains(y, p)]
        for v in region[:6]:
            for s in pts[:6]:
                assert region_contains(y, la.vadd(v, s))


def test_is_minimal_in_region():
    y = quadrant_full_locus()
    assert is_minimal_in_region(y, (1, 1))
    assert not is_minimal_in_region(y, (2, 1))
    y2 = quadrant_xray_locus()
    assert not is_minimal_in_region(y2, (1, 1))
    with pytest.raises(NotInRegion):
        is_minimal_in_region(y, (1, 0))


# -- minimal region points ----------------------------------------------------

def test_minimal_region_points_examples():
    assert nash.minimal_region_points(quadrant_full_locus()) == ((1, 1),)
    assert nash.minimal_region_points(quadrant_xray_locus()) == ((1, 0),)


def test_minimal_region_points_an_family():
    for n in range(1, 6):
        c = an_cone(n)
        y = face_locus(c, [])
        got = nash.minimal_region_points(y)
        assert got == tuple((1, k) for k in range(1, n + 1))
        assert got == oracle.brute_minimal_region_points(y, 20)


def test_minimal_region_points_antichain_and_domination():
    rng = random.Random(103)
    for _ in range(60):
        dim = rng.randint(2, 3)
        c = random_pointed_cone(rng, dim, bound=3)
        try:
            y = random_locus(rng, c)
        except EmptyLocus:
            continue
        minima = nash.minimal_region_points(y)
        for a in minima:
            for b in minima:
                if a != b:
                    assert not cg.cone_leq(c, a, b)
        cap = oracle.default_region_cap(y) + 2
        for v in oracle.region_points_up_to(y, cap):
            assert any(cg.cone_leq(c, m, v) for m in minima)
        assert minima == oracle.brute_minimal_region_points(y, cap)


def test_minimal_region_points_unimodular_equivariance():
    rng = random.Random(107)
    for _ in range(25):
        dim = rng.randint(2, 3)
        c = random_pointed_cone(rng, dim, bound=2)
        try:
            y = random_locus(rng, c)
        except EmptyLocus:
            continue
        U = random_unimodular(rng, dim)
        moved_cone = Cone.from_rays([la.mat_vec(U, r) for r in c.rays], dim)
        moved_faces = []
        for f in y.faces:
            rays = [la.mat_vec(U, r) for r in f.rays]
            moved_faces.append(cg.face_spanned_by(moved_cone, rays))
        moved_locus = face_locus(moved_cone, moved_faces)
        got = set(nash.minimal_region_points(moved_locus))
        want = {la.mat_vec(U, v) for v in nash.minimal_region_points(y)}
        assert got == want


def test_minimal_region_points_4d_match_oracle():
    """4d simplicial cones, checked against the brute force below the proven
    level cap."""
    simplex = Cone.from_rays([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                              (1, 2, 3, 7)])
    orthant = Cone.from_rays(la.identity(4))
    # only the fixed point marked: the one minimum is the sum of all four rays
    cases = [face_locus(simplex, []),
             face_locus(orthant, [cg.enumerate_faces(orthant)[-1]])]
    rng = random.Random(131)
    while len(cases) < 7:
        rays = [tuple(rng.randint(0, 2) for _ in range(4)) for _ in range(4)]
        if la.rank(rays) < 4:
            continue
        try:
            cases.append(random_locus(rng, Cone.from_rays(rays, 4)))
        except EmptyLocus:
            continue
    for y in cases:
        want = oracle.brute_minimal_region_points(
            y, oracle.default_region_cap(y))
        assert nash.minimal_region_points(y) == want


# -- ideals and the bridge property -------------------------------------------

def test_faces_to_ideal_quadrant_full():
    ideal = nash.faces_to_ideal(quadrant_full_locus())
    assert ideal.generators == ((0, 1), (1, 0))


def test_faces_to_ideal_quadrant_xray():
    ideal = nash.faces_to_ideal(quadrant_xray_locus())
    assert ideal.generators == ((1, 0),)


def bridge_cases():
    rng = random.Random(109)
    cases = [quadrant_full_locus(), quadrant_xray_locus(), face_locus(A1, []),
             face_locus(QUADRIC, [])]
    for _ in range(30):
        c = random_pointed_cone(rng, rng.randint(2, 3), bound=3)
        try:
            cases.append(random_locus(rng, c))
        except EmptyLocus:
            pass
    return cases


def test_bridge_property():
    """Region membership == all generators pair >= 1 (checked on boxes)."""
    for y in bridge_cases():
        ideal = nash.faces_to_ideal(y)
        for v in cg.points_up_to_level(y.cone, 8):
            assert region_contains(y, v) == (ideal.min_pairing(v) >= 1)


def test_faces_to_ideal_generators_minimal():
    """The generators lie in the ideal, form an antichain under the dual-cone
    order, and every ideal exponent in a box lies above one of them."""
    for y in bridge_cases():
        c = y.cone
        sums = [tuple(map(sum, zip(*f.rays))) for f in y.minimal_faces()]

        def in_ideal(u):
            return (all(la.dot(u, r) >= 0 for r in c.rays)
                    and all(la.dot(u, s) >= 1 for s in sums))

        def below(u, w):
            return all(la.dot(la.vsub(w, u), r) >= 0 for r in c.rays)

        gens = nash.faces_to_ideal(y).generators
        assert all(in_ideal(u) for u in gens)
        for a in gens:
            for b in gens:
                assert a == b or not below(a, b)
        for u in itertools.product(range(-3, 4), repeat=c.ambient_dim):
            if in_ideal(u):
                assert any(below(g, u) for g in gens)


def test_contact_shadow_of_region():
    """v in region iff v has positive order against the locus ideal."""
    y = face_locus(A1, [])
    ideal = nash.faces_to_ideal(y)
    for v in cg.points_up_to_level(A1, 8):
        in_region = region_contains(y, v)
        assert in_region == (ideal.min_pairing(v) >= 1)


def test_monomial_ideal_validation():
    with pytest.raises(ValidationError):
        nash.MonomialIdeal(QUADRANT, ((0, 0),))
    with pytest.raises(ValidationError):
        nash.MonomialIdeal(QUADRANT, ((-1, 2),))
    with pytest.raises(ValidationError):
        nash.MonomialIdeal(QUADRANT, ())


# -- contact components ---------------------------------------------------------

def test_contact_components_examples():
    ideal = nash.MonomialIdeal(QUADRANT, ((1, 0), (0, 1)))
    assert nash.contact_components(ideal, 2) == ((2, 2),)
    ideal2 = nash.MonomialIdeal(QUADRANT, ((1, 0),))
    assert nash.contact_components(ideal2, 3) == ((3, 0),)
    with pytest.raises(ValidationError):
        nash.contact_components(ideal, 0)


def test_contact_components_empty_locus():
    ideal = nash.MonomialIdeal(QUADRANT, ((2, 0),))
    assert nash.contact_components(ideal, 3) == ()


def test_contact_components_match_oracle():
    rng = random.Random(113)
    done = 0
    while done < 25:
        dim = rng.randint(2, 3)
        c = random_pointed_cone(rng, dim, bound=3)
        gens = [u for u in (tuple(rng.randint(0, 3) for _ in range(dim))
                            for _ in range(rng.randint(1, 3)))
                if not la.is_zero(u) and all(la.dot(u, r) >= 0 for r in c.rays)]
        if not gens:
            continue
        ideal = nash.MonomialIdeal(c, tuple(gens))
        n = rng.randint(1, 4)
        cap = oracle.default_contact_cap(ideal, n)
        got = nash.contact_components(ideal, n)
        want = oracle.brute_contact_components(ideal, n, cap)
        assert got == want
        done += 1


CUBE_5D = tuple((a, b, c, d, 1) for a in (0, 1) for b in (0, 1)
                for c in (0, 1) for d in (0, 1))


def singular_locus_ideal(rays):
    return nash.faces_to_ideal(face_locus(Cone.from_rays(rays)))


def assert_contact_matches_oracle(ideal, orders):
    for n in orders:
        want = oracle.brute_contact_components(
            ideal, n, oracle.default_contact_cap(ideal, n))
        assert nash.contact_components(ideal, n) == want


NEWTON_POLYGON_CASES = [
    # (1, 1) is no vertex of the Newton polygon: its chamber is a ray
    (QUADRANT, ((2, 0), (1, 1), (0, 2))),
    # (2, 1) pairs at least as much as (1, 0) everywhere: its chamber is 0
    (QUADRANT, ((1, 0), (2, 1))),
    # a 2d cone in Z^3, so no chamber is full-dimensional in the ambient space
    (Cone.from_rays([(1, 0, 0), (1, 2, 0)]), ((0, 1, 0), (1, 0, 5), (2, -1, 1))),
]


@pytest.mark.parametrize("sigma, gens", NEWTON_POLYGON_CASES)
def test_contact_chambers_degenerate_match_oracle(sigma, gens):
    assert_contact_matches_oracle(nash.MonomialIdeal(sigma, gens), range(1, 5))


def small_chamber_ideals():
    ideals = [singular_locus_ideal(an_cone(n).rays) for n in range(1, 6)]
    ideals.append(singular_locus_ideal(QUADRIC.rays))
    return ideals + [nash.MonomialIdeal(sigma, gens)
                     for sigma, gens in NEWTON_POLYGON_CASES]


def double_dual_chambers(ideal):
    """The full-dimensional chambers by the earlier route: the dual of the
    cone generated by sigma's facet normals and the u' - u."""
    sigma = ideal.sigma
    out = []
    for u in ideal.generators:
        chamber = cg.dual_cone(Cone.from_generators(
            sigma.ambient_dim, rays=sigma.facet_normals + tuple(
                la.vsub(w, u) for w in ideal.generators),
            lines=sigma.span_equations))
        if chamber.dim == sigma.dim:
            out.append((u, chamber))
    return tuple(out)


def test_cached_chambers_match_double_dual():
    ideals = small_chamber_ideals() + [singular_locus_ideal(SIMPLEX_4D),
                                       singular_locus_ideal(CUBE_5D)]
    for ideal in ideals:
        assert nash._chambers(ideal) == double_dual_chambers(ideal)
        assert ideal._chambers is nash._chambers(ideal)


def test_contact_orders_in_any_order_match_fresh_ideals():
    for ideal in small_chamber_ideals():
        got = {n: nash.contact_components(ideal, n) for n in (3, 1, 2)}
        for n in (1, 2, 3):
            fresh = nash.MonomialIdeal(ideal.sigma, ideal.generators)
            assert got[n] == nash.contact_components(fresh, n)


def test_cached_chambers_keep_ideal_equality():
    ideal = singular_locus_ideal(QUADRIC.rays)
    nash.contact_components(ideal, 1)
    fresh = nash.MonomialIdeal(ideal.sigma, ideal.generators)
    assert ideal._chambers is not None and fresh._chambers is None
    assert ideal == fresh and hash(ideal) == hash(fresh)
    assert repr(ideal) == repr(fresh)


def test_contact_nonsimplicial_quadric_matches_oracle():
    assert_contact_matches_oracle(singular_locus_ideal(QUADRIC.rays),
                                  range(1, 6))


def test_contact_4d_simplex_matches_oracle():
    assert_contact_matches_oracle(singular_locus_ideal(SIMPLEX_4D), (1,))


def test_contact_frontier_instances():
    """Beyond the oracle's reach; the lists are the output of the level scan
    that bounded contact points by n times the Hilbert basis levels."""
    assert nash.contact_components(singular_locus_ideal(SIMPLEX_4D), 2) == (
        (2, 2, 2, 2), (2, 2, 2, 3), (2, 2, 2, 4), (2, 2, 3, 5), (2, 2, 4, 6),
        (2, 3, 3, 6), (2, 3, 4, 7), (2, 3, 4, 8), (2, 3, 5, 9), (2, 4, 5, 10),
        (2, 4, 6, 11), (2, 4, 6, 12))
    assert nash.contact_components(singular_locus_ideal(CUBE_5D), 1) == (
        (0, 0, 1, 1, 2), (0, 1, 0, 1, 2), (0, 1, 1, 0, 2), (0, 1, 1, 2, 2),
        (0, 1, 2, 1, 2), (0, 2, 1, 1, 2), (1, 0, 0, 1, 2), (1, 0, 1, 0, 2),
        (1, 0, 1, 2, 2), (1, 0, 2, 1, 2), (1, 1, 0, 0, 2), (1, 1, 0, 2, 2),
        (1, 1, 2, 0, 2), (1, 1, 2, 2, 2), (1, 2, 0, 1, 2), (1, 2, 1, 0, 2),
        (1, 2, 1, 2, 2), (1, 2, 2, 1, 2), (2, 0, 1, 1, 2), (2, 1, 0, 1, 2),
        (2, 1, 1, 0, 2), (2, 1, 1, 2, 2), (2, 1, 2, 1, 2), (2, 2, 1, 1, 2))


def test_contact_zero_cone():
    zero = Cone.from_rays([], 2)
    assert nash.contact_components(nash.MonomialIdeal(zero, ((1, 0),)), 1) == ()


def test_simplex_cells_computed_once_per_cone(monkeypatch):
    """The Hilbert basis, the region minima and the contact chambers read
    one cached set of parallelepiped points per cone, and each chamber is cut
    out by one H-to-V pass per ideal, whatever the orders asked (this cone is
    built by no other test, so nothing is cached before it runs)."""
    calls = []
    real = cg.parallelepiped_points

    def counting(gens, ambient_dim):
        calls.append(tuple(gens))
        return real(gens, ambient_dim)

    monkeypatch.setattr(cg, "parallelepiped_points", counting)
    sigma = Cone.from_rays([(1, 0, 0), (0, 1, 0), (2, 3, 11)])
    cg.hilbert_basis(sigma)
    assert len(calls) == len(cg.triangulate(sigma)) == 1
    locus = face_locus(sigma)
    nash.minimal_region_points(locus)
    assert len(calls) == 1
    ideal = nash.faces_to_ideal(locus)
    # the H-to-V passes: a chamber's is the one whose inequalities are
    # sigma's facet normals, then the u' - u
    passes = []
    real_passes = cg._extreme_rays

    def counting_passes(dim, eqs, ineqs):
        passes.append(tuple(ineqs))
        return real_passes(dim, eqs, ineqs)

    monkeypatch.setattr(cg, "_extreme_rays", counting_passes)
    assert nash.contact_components(ideal, 1)
    first, first_passes = len(calls), len(passes)
    nash.contact_components(ideal, 2)
    nash.contact_components(ideal, 3)
    assert len(calls) == first
    assert len(passes) == first_passes
    normals = sigma.facet_normals
    chamber_passes = [p[len(normals):] for p in passes
                      if p[:len(normals)] == normals]
    assert sorted(chamber_passes) == sorted(
        tuple(la.vsub(w, u) for w in ideal.generators)
        for u in ideal.generators)


# -- certification ---------------------------------------------------------------

def test_certify_essential_a1():
    y = face_locus(A1, [])
    report = nash.certify_essential(y, samples=3)
    assert report.minimal_points == ((1, 1),)
    assert report.bijective
    for sub in report.samples:
        assert (1, 1) in sub.refined.rays()
    for cert in report.certificates:
        assert len(cert.witnesses) == len(cg.hilbert_basis(A1))
    for sub in report.samples:
        assert fs.is_locus_resolution(sub, y)


def test_certify_essential_quadrant():
    report = nash.certify_essential(quadrant_full_locus(), samples=3)
    assert report.minimal_points == ((1, 1),)
    assert report.bijective


def test_certify_essential_a2():
    c = Cone.from_rays([(1, 0), (1, 3)])
    y = face_locus(c, [])
    report = nash.certify_essential(y, samples=3)
    assert report.minimal_points == ((1, 1), (1, 2))
    assert report.bijective


def test_certify_essential_quadric():
    y = face_locus(QUADRIC, [])
    report = nash.certify_essential(y, samples=4, seed=1)
    assert report.minimal_points == ((1, 1, 1),)
    assert report.bijective
    for ray, sub in report.avoided:
        assert ray not in sub.refined.rays()
        assert fs.is_locus_resolution(sub, y)


def test_quadric_one_ray_loci_certify():
    """Every one-ray locus of the quadric certifies, and (1,1,1) is avoided."""
    for r in QUADRIC.rays:
        y = face_locus(QUADRIC, [cg.face_spanned_by(QUADRIC, [r])])
        avoided = [((1, 1, 1), fs.avoidance_resolution(QUADRIC, y, (1, 1, 1)))]
        for seed in (0, 1, 5):
            report = nash.certify_essential(y, samples=3, seed=seed)
            assert report.minimal_points == (r,)
            assert report.bijective
            avoided += report.avoided
        for ray, sub in avoided:
            assert ray not in sub.refined.rays()
            assert sub.validate()[0]
            assert fs.is_locus_resolution(sub, y)


# -- orbit closure order -----------------------------------------------------------

def test_orbit_closure_same_stratum():
    fan = fs.Fan.of_cone(QUADRANT)
    zero = face_of(QUADRANT, (0, 0))
    cmp = nash.orbit_closure_leq(fan, zero, (1, 1), zero, (2, 1))
    assert cmp
    cmp2 = nash.orbit_closure_leq(fan, zero, (2, 1), zero, (1, 2))
    assert not cmp2


def test_orbit_closure_projection():
    fan = fs.Fan.of_cone(QUADRANT)
    zero = face_of(QUADRANT, (0, 0))
    xray = face_of(QUADRANT, (1, 0))
    cmp = nash.orbit_closure_leq(fan, zero, (1, 1), xray, (0, 5))
    assert cmp
    # image of (1,1) is 1, class of (0,5) is 5, 1 <= 5 in the projected ray


def test_orbit_closure_incompatible():
    fan = fs.Fan.of_cone(QUADRANT)
    zero = face_of(QUADRANT, (0, 0))
    xray = face_of(QUADRANT, (1, 0))
    cmp = nash.orbit_closure_leq(fan, xray, (1, 0), zero, (1, 1))
    assert not cmp
    assert "incompatible" in cmp.reason


def test_orbit_closure_reduces_to_cone_order():
    rng = random.Random(127)
    fan = fs.Fan.of_cone(QUADRANT)
    zero = face_of(QUADRANT, (0, 0))
    for _ in range(50):
        v = (rng.randint(0, 4), rng.randint(0, 4))
        w = (rng.randint(0, 4), rng.randint(0, 4))
        got = bool(nash.orbit_closure_leq(fan, zero, v, zero, w))
        assert got == cg.cone_leq(QUADRANT, v, w)


# -- locus input forms ----------------------------------------------------------

def test_locus_from_spec_sing():
    y = nash.locus_from_spec(A1, "sing")
    assert {f.rays for f in y.faces} == {A1.rays}


def test_locus_from_spec_faces():
    # canonical ray order of the quadrant is ((0,1),(1,0)): index 1 is the x-ray
    y = nash.locus_from_spec(QUADRANT, {"faces": [[1]]})
    assert {f.rays for f in y.faces} == {((1, 0),), QUADRANT.rays}
    y2 = nash.locus_from_spec(QUADRANT, {"faces": [[0]]},
                              ray_order=((1, 0), (0, 1)))
    assert {f.rays for f in y2.faces} == {((1, 0),), QUADRANT.rays}
    with pytest.raises(NotProper):
        nash.locus_from_spec(QUADRANT, {"faces": [[]]})
    with pytest.raises(ValidationError):
        nash.locus_from_spec(QUADRANT, {"faces": [[0, 7]]})


@pytest.mark.parametrize("spec", [{"faces": [[-1]]}, {"faces": [[1.0]]},
                                  {"faces": [[True]]}, {"faces": [1]},
                                  {"ideal": [[0.5, 1.9]]}, {"ideal": [[1]]},
                                  {"faces": 5}, {"ideal": 5}])
def test_locus_from_spec_rejects_coerced_input(spec):
    with pytest.raises(ValidationError):
        nash.locus_from_spec(A1, spec)


@pytest.mark.parametrize("gens", [((0.5, 1.9),), ((1, True),), ((1,),),
                                  ((1, 0, 0),), ("ab",)])
def test_monomial_ideal_rejects_coerced_input(gens):
    with pytest.raises(ValidationError):
        nash.MonomialIdeal(A1, gens)


def test_locus_from_spec_ideal():
    # the ideal (x) cuts the invariant divisor attached to the ray (1,0)
    y = nash.locus_from_spec(QUADRANT, {"ideal": [[1, 0]]})
    assert {f.rays for f in y.faces} == {((1, 0),), QUADRANT.rays}
    # (xy) vanishes on the union of both invariant divisors
    y2 = nash.locus_from_spec(QUADRANT, {"ideal": [[1, 1]]})
    assert {f.rays for f in y2.faces} == \
        {((1, 0),), ((0, 1),), QUADRANT.rays}
    with pytest.raises(ValidationError):
        nash.locus_from_spec(QUADRANT, {"ideal": [[0, 0]]})
    with pytest.raises(ValidationError):
        # this cone has a singular 2-dimensional face that the ideal misses
        c = Cone.from_rays([(1, 0, 0), (1, 2, 0), (0, 0, 1)])
        nash.locus_from_spec(c, {"ideal": [[0, 0, 1]]})


# -- lower-dimensional inputs: outputs fixed by the lattice frame ---------------

CYCLIC_IN_Z4 = Cone.from_rays([(1, 0, 0, 1), (0, 1, 0, 1), (1, 2, 3, 6)])


def test_faces_to_ideal_lower_dimensional():
    ideal = nash.faces_to_ideal(face_locus(CYCLIC_IN_Z4, []))
    assert ideal.generators == (
        (0, 0, 1, 0), (0, 1, 0, 0), (0, 2, -1, 0), (0, 3, -2, 0),
        (1, 0, 0, 0), (1, 1, -1, 0), (3, 0, -1, 0))


def test_certify_essential_sample_rays_lower_dimensional():
    sigma = Cone.from_rays([(1, 0, 0, 1), (0, 1, 0, 1), (1, 3, 7, 11)])
    report = nash.certify_essential(face_locus(sigma, []), samples=3, seed=0)
    assert report.bijective
    base = [(0, 1, 0, 1), (1, 0, 0, 1), (1, 1, 1, 3), (1, 1, 2, 4),
            (1, 2, 3, 6), (1, 2, 4, 7), (1, 3, 5, 9), (1, 3, 6, 10),
            (1, 3, 7, 11)]
    assert report.minimal_points == (
        (1, 1, 1, 3), (1, 1, 2, 4), (1, 2, 3, 6), (1, 2, 4, 7),
        (1, 3, 5, 9), (1, 3, 6, 10))
    assert [s.refined.rays() for s in report.samples] == [
        tuple(base),
        tuple(sorted(base + [(1, 2, 2, 5), (1, 3, 4, 8), (2, 3, 6, 11)])),
        tuple(sorted(base + [(1, 3, 4, 8)]))]


@pytest.mark.parametrize("v, v2, holds", [
    ((1, 1, 1), (1, 2, 3), False), ((1, 1, 1), (2, 3, 3), True),
    ((1, 1, 1), (3, 5, 6), True), ((2, 1, 1), (1, 2, 3), False),
    ((1, 2, 2), (2, 4, 5), True)])
def test_orbit_closure_rank_two_quotient(v, v2, holds):
    """The second stratum is a ray of a cyclic cone, so the order is read in
    a quotient lattice of rank two."""
    cyclic = Cone.from_rays([(1, 0, 0), (0, 1, 0), (1, 2, 3)])
    fan = fs.Fan.of_cone(cyclic)
    cmp = nash.orbit_closure_leq(fan, cg.face_spanned_by(cyclic, []), v,
                                 cg.face_spanned_by(cyclic, [(1, 2, 3)]), v2)
    assert bool(cmp) is holds
    assert cmp.witness == (cyclic if holds else None)
