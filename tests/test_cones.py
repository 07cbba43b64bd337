import itertools
import random
from fractions import Fraction

import pytest

from toricnash import cones as cg
from toricnash import intlinalg as la
from toricnash.cones import Cone
from toricnash.errors import (
    NonPointed,
    NotInCone,
    NotSimplicial,
    ValidationError,
)

QUADRANT = Cone.from_rays([(1, 0), (0, 1)])
A1 = Cone.from_rays([(1, 0), (1, 2)])
OCTANT = Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
QUADRIC = Cone.from_rays([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])


def random_pointed_cone(rng, dim, nrays=None, bound=4):
    """Random pointed cone: generators from the nonnegative orthant (pointed),
    then an optional unimodular twist keeps instances varied."""
    nrays = nrays or rng.randint(1, dim + 2)
    rays = []
    while len(rays) < nrays:
        v = tuple(rng.randint(0, bound) for _ in range(dim))
        if not la.is_zero(v):
            rays.append(v)
    return Cone.from_rays(rays, dim)


def random_unimodular(rng, d, steps=5):
    M = [list(r) for r in la.identity(d)]
    for _ in range(steps):
        if d < 2:
            break
        i, j = rng.sample(range(d), 2)
        q = rng.randint(-2, 2)
        M[i] = [a + q * b for a, b in zip(M[i], M[j])]
    return la.mat(M)


def test_dual_quadrant_self_dual():
    assert cg.dual_cone(QUADRANT) == QUADRANT


def test_dual_a1():
    d = cg.dual_cone(A1)
    assert d.rays == ((0, 1), (2, -1))
    # verify pairings on generators: 0,2 and 2,0
    assert [la.dot((0, 1), r) for r in A1.rays] == [0, 2]
    assert [la.dot((2, -1), r) for r in A1.rays] == [2, 0]


def test_dual_zero_cone():
    z = Cone.from_rays([], 2)
    d = cg.dual_cone(z)
    assert not d.is_pointed
    assert len(d.lines) == 2
    assert d.rays == ()


def test_dual_involution_random():
    rng = random.Random(23)
    for _ in range(300):
        dim = rng.randint(1, 4)
        c = random_pointed_cone(rng, dim)
        assert cg.dual_cone(cg.dual_cone(c)) == c


def test_enumerate_faces_counts():
    assert len(cg.enumerate_faces(QUADRANT)) == 4
    assert len(cg.enumerate_faces(OCTANT)) == 8
    assert len(cg.enumerate_faces(A1)) == 4
    half = Cone.from_generators(2, rays=[(1, 0)], lines=[(0, 1)])
    with pytest.raises(NonPointed):
        cg.enumerate_faces(half)


def test_smallest_containing_face():
    assert cg.smallest_containing_face(QUADRANT, (2, 3)).rays == QUADRANT.rays
    assert cg.smallest_containing_face(QUADRANT, (2, 0)).rays == ((1, 0),)
    assert cg.smallest_containing_face(QUADRANT, (0, 0)).rays == ()
    with pytest.raises(NotInCone):
        cg.smallest_containing_face(QUADRANT, (-1, 0))


def test_relint_contains():
    full = cg.smallest_containing_face(QUADRANT, (1, 1))
    assert cg.relint_contains(full, (1, 1))
    assert not cg.relint_contains(full, (1, 0))
    zero = cg.smallest_containing_face(QUADRANT, (0, 0))
    assert cg.relint_contains(zero, (0, 0))
    assert not cg.relint_contains(zero, (1, 0))


def test_face_relint_partition():
    """Every lattice point of the cone lies in exactly one face relint."""
    rng = random.Random(5)
    for _ in range(60):
        dim = rng.randint(2, 3)
        c = random_pointed_cone(rng, dim)
        faces = cg.enumerate_faces(c)
        for pt in itertools.product(range(0, 3), repeat=dim):
            if not c.contains(pt):
                continue
            hits = [f for f in faces if cg.relint_contains(f, pt)]
            assert len(hits) == 1
            assert hits[0] == cg.smallest_containing_face(c, pt)


def test_is_smooth():
    assert cg.is_smooth(QUADRANT)
    assert not cg.is_smooth(A1)
    assert cg.is_smooth(Cone.from_rays([(2, 4)], 2))  # primitive generator (1,2)


def test_non_integer_entries_are_rejected_not_truncated():
    """int() would read (0.5, 1) as (0, 1) and (0.9, 0.5) as (0, 0)."""
    with pytest.raises(ValidationError):
        Cone.from_rays([(0.5, 1), (1, 0)])
    with pytest.raises(ValidationError):
        A1.contains((0.9, 0.5))
    with pytest.raises(ValidationError):
        Cone.from_rays([(Fraction(1, 2), 1), (1, 0)])
    with pytest.raises(ValidationError):
        A1.relint_contains((Fraction(3, 2), 1))
    assert Cone.from_rays([(True, False), (1, 2)]) == A1


def test_multiplicity():
    assert cg.multiplicity(QUADRANT) == 1
    assert cg.multiplicity(A1) == 2
    with pytest.raises(NotSimplicial):
        cg.multiplicity(QUADRIC)


def test_simplicial_fast_path_matches_double_description():
    """A full-dimensional simplicial cone is built from one adjugate of its
    rays.  On seeded random independent generator sets with negative entries
    in dimensions 1-6 it must equal the double description's cone in rays,
    lines, facet normals, span equations and multiplicity.  Square sets with
    determinant 0 take the double description, and still equal it."""
    rng = random.Random(31)
    independent = dependent = 0
    while independent < 300 or dependent < 40:
        d = rng.randint(1, 6)
        gens = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(d)]
        if d > 1 and rng.random() < 0.2:
            gens[-1] = (la.vneg(gens[0]) if d == 2 or rng.random() < 0.5
                        else la.vadd(gens[0], gens[1]))
        rays = tuple(sorted({la.primitive_part(g) for g in gens
                             if not la.is_zero(g)}))
        if len(rays) != d:
            continue
        got = Cone.from_rays(rays, d)
        want = cg._double_description(d, rays, ())
        assert (got.rays, got.lines, got.facet_normals, got.span_equations) == \
            (want.rays, want.lines, want.facet_normals, want.span_equations)
        det = la.determinant(rays)
        if det:
            independent += 1
            assert cg.multiplicity(got) == cg.multiplicity(want) == abs(det)
        else:
            dependent += 1


def test_smooth_iff_simplicial_mult_one():
    rng = random.Random(29)
    for _ in range(200):
        c = random_pointed_cone(rng, rng.randint(1, 3))
        smooth = cg.is_smooth(c)
        if c.is_simplicial:
            assert smooth == (cg.multiplicity(c) == 1)
        else:
            assert not smooth


def brute_monoid_points(c, box=6):
    pts = []
    dim = c.ambient_dim
    lo = min(min(r) for r in c.rays) if c.rays else 0
    lo = min(0, lo * box)
    for v in itertools.product(range(lo, box + 1), repeat=dim):
        if not la.is_zero(v) and c.contains(v):
            pts.append(la.vec(v))
    return pts


def ray_box(c):
    """Per-coordinate bounds holding every Hilbert basis element: each one is
    a ray or a point sum t_r r, 0 <= t_r < 1, over some of the rays."""
    return [(sum(min(0, r[i]) for r in c.rays),
             sum(max(0, r[i]) for r in c.rays)) for i in range(c.ambient_dim)]


def brute_hilbert_basis(c, box=6):
    """Independent oracle: irreducible monoid points found by bounded search.

    Only valid when every Hilbert basis element has coordinates within the box;
    used on small cones only.  With box=None the scan covers ray_box(c), which
    holds the basis, and so every irreducible summand of a scanned point.
    """
    if box is None:
        pts = {v for v in itertools.product(*(range(lo, hi + 1)
                                              for lo, hi in ray_box(c)))
               if not la.is_zero(v) and c.contains(v)}
    else:
        pts = set(brute_monoid_points(c, box))
    out = []
    for g in sorted(pts):
        if not any(h != g and c.contains(la.vsub(g, h)) and
                   not la.is_zero(la.vsub(g, h)) for h in pts):
            out.append(g)
    return tuple(out)


def test_hilbert_basis_examples():
    assert set(cg.hilbert_basis(QUADRANT)) == {(1, 0), (0, 1)}
    # frozen from the enumeration oracle:
    assert set(cg.hilbert_basis(A1)) == {(1, 0), (1, 1), (1, 2)}
    assert brute_hilbert_basis(A1) == cg.hilbert_basis(A1)
    c = Cone.from_rays([(1, 0), (1, 3)])
    assert set(cg.hilbert_basis(c)) == {(1, 0), (1, 1), (1, 2), (1, 3)}
    assert brute_hilbert_basis(c) == cg.hilbert_basis(c)


def test_hilbert_basis_quadric():
    assert set(cg.hilbert_basis(QUADRIC)) == set(QUADRIC.rays)


def test_hilbert_basis_properties():
    rng = random.Random(31)
    for _ in range(120):
        dim = rng.randint(2, 3)
        c = random_pointed_cone(rng, dim, bound=3)
        hb = cg.hilbert_basis(c)
        # greedy decomposition of every box point into basis elements
        for pt in brute_monoid_points(c, box=4):
            v = pt
            for _ in range(200):
                if la.is_zero(v):
                    break
                h = next(h for h in hb if c.contains(la.vsub(v, h)))
                v = la.vsub(v, h)
            assert la.is_zero(v)
        # irreducibility by bounded search
        monoid = set(brute_monoid_points(c, box=5))
        for h in hb:
            for x in monoid:
                y = la.vsub(h, x)
                assert la.is_zero(y) or y not in monoid or not c.contains(y) or \
                    x == h or la.is_zero(x)


def test_hilbert_basis_matches_box_scan_on_cones_and_duals():
    rng = random.Random(59)
    for _ in range(60):
        c = random_pointed_cone(rng, rng.randint(2, 3))
        for x in (c, cg.dual_cone(c)):
            if x.is_pointed:
                assert cg.hilbert_basis(x) == brute_hilbert_basis(x, box=None)


SIMPLEX_5D = Cone.from_rays([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                             (0, 0, 0, 1, 0), (1, 2, 3, 4, 7)])

# recorded with the pairwise reduction that tested every candidate against
# every other one
SIMPLEX_5D_DUAL_BASIS = (
    (0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (0, 0, 0, 2, -1), (0, 0, 0, 7, -4),
    (0, 0, 1, 0, 0), (0, 0, 1, 1, -1), (0, 0, 3, 0, -1), (0, 0, 5, 0, -2),
    (0, 0, 7, 0, -3), (0, 1, 0, 0, 0), (0, 1, 0, 3, -2), (0, 1, 2, 0, -1),
    (0, 1, 4, 0, -2), (0, 2, 0, 1, -1), (0, 2, 1, 0, -1), (0, 3, 0, 2, -2),
    (0, 4, 0, 0, -1), (0, 5, 0, 1, -2), (0, 7, 0, 0, -2), (1, 0, 0, 0, 0),
    (1, 0, 0, 5, -3), (1, 0, 2, 0, -1), (1, 1, 0, 1, -1), (1, 3, 0, 0, -1),
    (2, 0, 0, 3, -2), (2, 1, 1, 0, -1), (3, 0, 0, 1, -1), (3, 2, 0, 0, -1),
    (4, 0, 1, 0, -1), (5, 1, 0, 0, -1), (7, 0, 0, 0, -1))


def test_hilbert_basis_of_5d_simplex_dual(monkeypatch):
    """Each candidate is tested against kept basis elements only: at most
    |candidates| x |basis| membership tests.  The pairwise reduction, which
    tested each of the 2,405 candidates against the others, made 262,726.
    The cone is rebuilt outside the constructor cache, so no earlier test
    has computed its basis."""
    dual = cg.dual_cone(SIMPLEX_5D)
    fresh = Cone(dual.ambient_dim, dual.rays, dual.lines, dual.facet_normals,
                 dual.span_equations)
    calls = []
    real = Cone.contains

    def counting(self, v):
        calls.append(v)
        return real(self, v)

    monkeypatch.setattr(Cone, "contains", counting)
    assert cg.hilbert_basis(fresh) == SIMPLEX_5D_DUAL_BASIS
    assert 0 < len(calls) <= 2401 * 31


def _fraction_inverse(M):
    """Gauss-Jordan inverse over the rationals, or None if M is singular."""
    k = len(M)
    A = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)]
         for i, row in enumerate(M)]
    for col in range(k):
        piv = next((r for r in range(col, k) if A[r][col] != 0), None)
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        A[col] = [x / A[col][col] for x in A[col]]
        for r in range(k):
            if r != col and A[r][col] != 0:
                A[r] = [x - A[r][col] * y for x, y in zip(A[r], A[col])]
    return [row[k:] for row in A]


def box_parallelepiped(gens, dim):
    """Lattice points of {sum t_j g_j : 0 <= t_j < 1} by a box scan: the
    coefficients of each box point are solved in Fractions on k coordinates
    where the gens are independent, then checked on every coordinate."""
    k = len(gens)
    for rows in itertools.combinations(range(dim), k):
        inv = _fraction_inverse([[g[i] for g in gens] for i in rows])
        if inv is not None:
            break
    box = [range(sum(min(0, g[i]) for g in gens),
                 sum(max(0, g[i]) for g in gens) + 1) for i in range(dim)]
    out = []
    for x in itertools.product(*box):
        t = [sum(a * x[i] for a, i in zip(row, rows)) for row in inv]
        if all(0 <= tj < 1 for tj in t) and all(
                sum(tj * g[i] for tj, g in zip(t, gens)) == x[i]
                for i in range(dim)):
            out.append(x)
    return tuple(out)


def test_parallelepiped_points_match_box_scan():
    rng = random.Random(2024)
    seen = []
    while len(seen) < 60:
        dim = rng.randint(1, 4)
        k = rng.randint(1, dim)
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(k)]
        if la.rank(gens) < k:
            continue
        volume = 1
        for i in range(dim):
            volume *= sum(abs(g[i]) for g in gens) + 1
        if volume > 3000 or la.sublattice_index(gens) > 60:
            continue
        want = box_parallelepiped(gens, dim)
        assert cg.parallelepiped_points(gens, dim) == want, gens
        seen.append((dim - k, len(want)))
    assert any(gap > 0 and mult > 1 for gap, mult in seen)
    assert max(mult for _, mult in seen) >= 30


def test_cone_leq():
    assert cg.cone_leq(QUADRANT, (1, 1), (2, 1))
    assert not cg.cone_leq(QUADRANT, (2, 1), (1, 2))
    assert cg.cone_leq(QUADRANT, (3, 4), (3, 4))


def test_cone_leq_partial_order():
    rng = random.Random(37)
    for _ in range(300):
        dim = rng.randint(2, 3)
        c = random_pointed_cone(rng, dim)
        pts = [tuple(rng.randint(0, 5) for _ in range(dim)) for _ in range(3)]
        pts = [p for p in pts if c.contains(p)]
        for p in pts:
            assert cg.cone_leq(c, p, p)
        if len(pts) >= 2:
            a, b = pts[0], pts[1]
            if cg.cone_leq(c, a, b) and cg.cone_leq(c, b, a):
                assert a == b
        if len(pts) == 3:
            a, b, e = pts
            if cg.cone_leq(c, a, b) and cg.cone_leq(c, b, e):
                assert cg.cone_leq(c, a, e)


def test_positive_functional():
    assert cg.positive_functional(QUADRANT) == (1, 1)
    assert cg.positive_functional(A1) == (1, 0)
    half = Cone.from_generators(2, rays=[(1, 0)], lines=[(0, 1)])
    with pytest.raises(NonPointed):
        cg.positive_functional(half)


def test_positive_functional_box_property():
    rng = random.Random(41)
    for _ in range(150):
        dim = rng.randint(1, 3)
        c = random_pointed_cone(rng, dim)
        ell = cg.positive_functional(c)
        assert la.gcd_vec(ell) == 1
        for pt in itertools.product(range(0, 4), repeat=dim):
            if c.contains(pt) and not la.is_zero(pt):
                assert la.dot(ell, pt) >= 1


def test_level_points():
    assert cg.level_points(QUADRANT, 0) == ((0, 0),)
    assert set(cg.level_points(QUADRANT, 2)) == {(2, 0), (1, 1), (0, 2)}
    assert cg.level_points(A1, 1) == ((1, 0), (1, 1), (1, 2))


def test_nonpointed_rejects():
    half = Cone.from_generators(2, rays=[(1, 0)], lines=[(0, 1)])
    for op in (cg.hilbert_basis, cg.is_smooth, cg.multiplicity, cg.triangulate):
        with pytest.raises(NonPointed):
            op(half)


def test_lower_dimensional_cone():
    ray = Cone.from_rays([(1, 2)], 2)
    assert ray.dim == 1
    assert len(cg.enumerate_faces(ray)) == 2
    assert cg.hilbert_basis(ray) == ((1, 2),)
    c2 = Cone.from_rays([(1, 1, 1), (0, 1, 1)], 3)
    assert c2.dim == 2
    assert cg.is_smooth(c2)
    assert set(cg.hilbert_basis(c2)) == {(1, 1, 1), (0, 1, 1)}


def test_intersect():
    c1 = Cone.from_rays([(1, 0), (1, 2)])
    c2 = Cone.from_rays([(2, 1), (0, 1)])
    i = cg.intersect(c1, c2)
    assert i.rays == ((1, 2), (2, 1))
    j = cg.intersect(QUADRANT, Cone.from_rays([(-1, 0), (0, 1)]))
    assert j.rays == ((0, 1),)


@pytest.mark.parametrize("c1, c2, rays, lines, normals, eqs", [
    # the pairs of test_validate_fan_overlapping and test_validate_fan_blowup
    (QUADRANT, Cone.from_rays([(1, 1), (-1, 1)]),
     ((0, 1), (1, 1)), (), ((-1, 1), (1, 0)), ()),
    (Cone.from_rays([(1, 0), (1, 1)]), Cone.from_rays([(1, 1), (0, 1)]),
     ((1, 1),), (), ((0, 1),), ((1, -1),)),
    (QUADRIC, Cone.from_rays([(1, 1, 0), (0, 0, 1), (1, 0, 0)]),
     ((1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 2)), (),
     ((0, 0, 1), (0, 1, 0), (1, -1, 0), (1, 1, -1)), ()),
    (QUADRIC, Cone.from_generators(3, rays=[(1, 1, 1)], lines=[(1, -1, 0)]),
     ((0, 2, 1), (2, 0, 1)), (), ((0, -1, 2), (0, 1, 0)), ((1, 1, -2),)),
    (Cone.from_generators(3, rays=[(0, 1, 1)], lines=[(1, 0, 0)]),
     Cone.from_generators(3, rays=[(0, 1, 0), (0, 1, 2)], lines=[(1, 0, 0)]),
     ((0, 1, 1),), ((1, 0, 0),), ((0, 0, 1),), ((0, 1, -1),)),
])
def test_intersect_from_inequalities(c1, c2, rays, lines, normals, eqs):
    """The canonical data was recorded before intersect went through
    cone_from_inequalities; the dual of the sum of the duals is the same cone
    by another route."""
    meet = cg.intersect(c1, c2)
    assert (meet.rays, meet.lines, meet.facet_normals, meet.span_equations) == (
        rays, lines, normals, eqs)
    assert meet == cg.dual_cone(Cone.from_generators(
        c1.ambient_dim,
        rays=c1.facet_normals + c2.facet_normals,
        lines=c1.span_equations + c2.span_equations))


def test_unimodular_invariance_of_hilbert_basis():
    rng = random.Random(43)
    for _ in range(60):
        dim = rng.randint(2, 3)
        c = random_pointed_cone(rng, dim, bound=3)
        U = random_unimodular(rng, dim)
        moved = Cone.from_rays([la.mat_vec(U, r) for r in c.rays], dim)
        hb1 = {la.mat_vec(U, h) for h in cg.hilbert_basis(c)}
        assert hb1 == set(cg.hilbert_basis(moved))


@pytest.mark.parametrize("rays, normals, eqs, ell", [
    ([(1, 2, 3), (2, 3, 7)], ((-3, 0, 1), (7, 0, -2)), ((5, -1, -1),),
     (4, 0, -1)),
    ([(1, 0, 0), (1, 2, 0)], ((0, 1, 0), (2, -1, 0)), ((0, 0, 1),),
     (1, 0, 0))])
def test_lower_dimensional_canonical_data(rays, normals, eqs, ell):
    """The canonical facet normals of a cone that is not full-dimensional
    are lifted through its lattice frame; they fix the grading functional,
    and so the reported resolutions."""
    c = Cone.from_rays(rays)
    assert c.facet_normals == normals
    assert c.span_equations == eqs
    assert cg.positive_functional(c) == ell
