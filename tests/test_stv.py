import random

import pytest

from toricnash import intlinalg as la
from toricnash import stv
from toricnash.cones import Cone
from toricnash.errors import NotProper, ValidationError
from toricnash.stv import Gluing, STVComplex

I2 = la.identity(2)


def planes_at_origin():
    """First and third quadrants glued at the zero face: two affine planes
    joined at the origin."""
    return STVComplex(2, [
        Cone.from_rays([(1, 0), (0, 1)]),
        Cone.from_rays([(-1, 0), (0, -1)]),
    ], [Gluing(0, 1, (), (), I2)])


def planes_along_line():
    """First and second quadrants glued along the shared axis ray: two planes
    intersecting along a line."""
    return STVComplex(2, [
        Cone.from_rays([(1, 0), (0, 1)]),
        Cone.from_rays([(-1, 0), (0, 1)]),
    ], [Gluing(0, 1, ((0, 1),), ((0, 1),), I2)])


def plane_plus_line():
    """A quadrant and a ray in the third quadrant glued at the zero face: a
    plane and a line meeting it transversally."""
    return STVComplex(2, [
        Cone.from_rays([(1, 0), (0, 1)]),
        Cone.from_rays([(-1, -1)], 2),
    ], [Gluing(0, 1, (), (), I2)])


def test_validate_examples():
    for make in (planes_at_origin, planes_along_line, plane_plus_line):
        ok, diag = stv.validate_complex(make())
        assert ok, diag


def test_validate_non_unimodular_matrix():
    bad = STVComplex(2, [
        Cone.from_rays([(1, 0), (0, 1)]),
        Cone.from_rays([(-1, 0), (0, 1)]),
    ], [Gluing(0, 1, ((0, 1),), ((0, 1),), ((2, 0), (0, 1)))])
    ok, diag = stv.validate_complex(bad)
    assert not ok
    assert any("unimodular" in d for d in diag)


def test_validate_bad_face_image():
    bad = STVComplex(2, [
        Cone.from_rays([(1, 0), (0, 1)]),
        Cone.from_rays([(-1, 0), (0, 1)]),
    ], [Gluing(0, 1, ((0, 1),), ((-1, 0),), I2)])
    ok, diag = stv.validate_complex(bad)
    assert not ok
    assert any("carry" in d for d in diag)


def test_validate_rejects_non_face():
    bad = STVComplex(2, [
        Cone.from_rays([(1, 0), (0, 1)]),
        Cone.from_rays([(-1, 0), (0, 1)]),
    ], [Gluing(0, 1, ((1, 1),), ((0, 1),), I2)])
    ok, diag = stv.validate_complex(bad)
    assert not ok


def test_gluing_symmetry():
    rng = random.Random(131)
    for make in (planes_at_origin, planes_along_line, plane_plus_line):
        c = make()
        flipped = STVComplex(c.ambient_dim, c.components,
                             [g.transposed() for g in c.gluings])
        ok1, _ = stv.validate_complex(c)
        ok2, _ = stv.validate_complex(flipped)
        assert ok1 == ok2


def test_component_pairs_planes_along_line():
    pairs = stv.component_pairs(planes_along_line())
    assert len(pairs) == 2
    for pair in pairs:
        assert pair.locus is not None
        marked = {f.rays for f in pair.locus.faces}
        # the glued axis dualizes to one chart ray plus the full chart cone
        assert len(marked) == 2
        assert pair.chart_cone.rays in marked


def test_component_pairs_plane_plus_line():
    pairs = stv.component_pairs(plane_plus_line())
    plane, line = pairs
    assert {f.rays for f in plane.locus.faces} == {plane.chart_cone.rays}
    assert line.chart_cone.dim == 1
    assert {f.rays for f in line.locus.faces} == {line.chart_cone.rays}


def test_component_pairs_trivial():
    lone = STVComplex(2, [Cone.from_rays([(1, 0), (0, 1)])], [])
    pairs = stv.component_pairs(lone)
    assert pairs[0].locus is None


def test_component_pairs_whole_component_glued():
    bad = STVComplex(2, [
        Cone.from_rays([(1, 0), (0, 1)]),
        Cone.from_rays([(-1, 0), (0, -1)]),
    ], [Gluing(0, 1, ((0, 1), (1, 0)), ((-1, 0), (0, -1)),
               ((-1, 0), (0, -1)))])
    ok, diag = stv.validate_complex(bad)
    assert ok, diag
    with pytest.raises(NotProper):
        stv.component_pairs(bad)


def test_is_equidimensional():
    assert stv.is_equidimensional(planes_at_origin())
    assert stv.is_equidimensional(planes_along_line())
    assert not stv.is_equidimensional(plane_plus_line())
    lone = STVComplex(2, [Cone.from_rays([(1, 0), (0, 1)])], [])
    assert stv.is_equidimensional(lone)


def test_report_planes_at_origin():
    rep = stv.stv_nash_report(planes_at_origin())
    assert (rep.good_components, rep.essential_divisors) == (2, 2)
    assert rep.equidimensional
    assert rep.bijective
    for r in rep.reports:
        assert len(r.minimal_points) == 1


def test_report_planes_along_line():
    rep = stv.stv_nash_report(planes_along_line())
    assert (rep.good_components, rep.essential_divisors) == (2, 2)
    assert rep.equidimensional
    assert rep.bijective


def test_report_plane_plus_line():
    rep = stv.stv_nash_report(plane_plus_line())
    assert (rep.good_components, rep.essential_divisors) == (2, 2)
    assert not rep.equidimensional
    assert rep.bijective


def test_report_single_a1_component():
    # one singular chart, no gluings: the pair comes from the singular locus
    comp = STVComplex(2, [Cone.from_rays([(2, -1), (0, 1)])], [])
    rep = stv.stv_nash_report(comp)
    assert (rep.good_components, rep.essential_divisors) == (1, 1)
    assert rep.bijective


def test_totals_additivity_random():
    """Totals equal the sum of per-component counts for assembled complexes."""
    rng = random.Random(137)
    pool = [planes_at_origin(), planes_along_line(), plane_plus_line()]
    for _ in range(10):
        a = rng.choice(pool)
        b = rng.choice(pool)
        merged = STVComplex(2, a.components + b.components,
                            list(a.gluings) +
                            [Gluing(g.i + len(a.components),
                                    g.j + len(a.components),
                                    g.face_i, g.face_j, g.matrix)
                             for g in b.gluings])
        rep = stv.stv_nash_report(merged)
        ra = stv.stv_nash_report(a)
        rb = stv.stv_nash_report(b)
        assert rep.good_components == ra.good_components + rb.good_components
        assert rep.essential_divisors == \
            ra.essential_divisors + rb.essential_divisors


def test_component_permutation_independence():
    c = plane_plus_line()
    swapped = STVComplex(2, (c.components[1], c.components[0]),
                         [Gluing(1, 0, (), (), I2)])
    r1 = stv.stv_nash_report(c)
    r2 = stv.stv_nash_report(swapped)
    assert (r1.good_components, r1.essential_divisors) == \
        (r2.good_components, r2.essential_divisors)
    assert r1.bijective == r2.bijective
    counts1 = sorted(len(r.minimal_points) if r else 0 for r in r1.reports)
    counts2 = sorted(len(r.minimal_points) if r else 0 for r in r2.reports)
    assert counts1 == counts2


@pytest.mark.parametrize("args", [
    (0.0, 1, (), (), I2),
    (0, True, (), (), I2),
    (0, 1, ((0.0, 1),), ((0, 1),), I2),
    (0, 1, ((0, 1),), ((0, True),), I2),
    (0, 1, (), (), ((1.0, 0), (0, 1))),
    (0, 1, (), (), ((1, 0), "ab")),
])
def test_gluing_rejects_non_int_entries(args):
    with pytest.raises(ValidationError):
        Gluing(*args)


@pytest.mark.parametrize("rays, chart_rays", [
    ([(1, 0, 1), (1, 3, 4)], ((0, 1), (3, -1))),
    ([(1, 0, 1), (1, 4, 3)], ((0, 1), (2, -1)))])
def test_chart_of_plane_component_in_z3(rays, chart_rays):
    """The chart of a 2d component in Z^3 is read in its span lattice."""
    (pair,) = stv.component_pairs(STVComplex(3, [Cone.from_rays(rays)], []))
    assert pair.chart_cone.ambient_dim == 2
    assert pair.chart_cone.rays == chart_rays
    assert [f.rays for f in pair.locus.faces] == [chart_rays]


@pytest.mark.parametrize("matrix, why", [
    (((0, 0), (0, 1)), "singular"), (((2, 0), (0, 1)), "not unimodular"),
    (((1, 0),), "non-square")])
def test_transposed_rejects_non_invertible_matrix(matrix, why):
    with pytest.raises(ValidationError, match=why):
        Gluing(0, 1, (), (), matrix).transposed()
