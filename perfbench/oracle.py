"""Independent brute-force reference values, and the store that holds them.

The references scan lattice points level by level with the box-scan
`cones.level_points`, never with `monoid_level_points` or `hilbert_basis`, and
decide minimality against the minima found at lower levels (two distinct
comparable points never share a level).  The scans stop at proven caps that
need no Hilbert basis: write a minimal point as sum(l_i g_i) over the rays of a
simplex of a triangulation of the cone.

* Region minima and ideal generators: every l_i <= 1, else subtracting g_i
  stays in the same relative interior; so the level is <= sum of ray levels.
* Contact minima of order n: every l_i <= n, else v - g_i has order n too; so
  the level is <= n * sum of ray levels.

Some scans take minutes (the 4d simplex), so every instance any seed can draw
is computed once and stored in expected.json.  Rebuild it with

    PYTHONPATH=src python3 perfbench/oracle.py
"""

from __future__ import annotations

import functools
import json
import os

from toricnash import intlinalg as la
from toricnash.cones import (
    Cone,
    dual_cone,
    enumerate_faces,
    level_points,
    positive_functional,
    relint_contains,
)
from toricnash.stv import component_pairs

import workloads as wl

STORE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
CONTACT_ORDERS = (1, 2, 3)


def pair_key(cone_rays, marked):
    """Store key of a (cone, marked face set) pair, both given as ray lists."""
    rays = sorted(tuple(r) for r in cone_rays)
    faces = sorted(sorted(tuple(r) for r in f) for f in marked)
    return json.dumps([rays, faces], separators=(",", ":"))


def _scan(cone: Cone, cap):
    ell = positive_functional(cone)
    for k in range(1, cap + 1):
        yield from level_points(cone, k, ell)


def _ray_levels(cone: Cone):
    ell = positive_functional(cone)
    return sum(la.dot(ell, r) for r in cone.rays)


def _minimal(cone: Cone, points):
    """Minimal elements of a level-ordered point stream under the cone order."""
    out = []
    for v in points:
        if not any(cone.contains(la.vsub(v, m)) for m in out):
            out.append(v)
    return sorted(out)


@functools.lru_cache(maxsize=4)
def _region_scan(cone: Cone):
    return tuple(_scan(cone, _ray_levels(cone)))


def region_minima(cone: Cone, faces):
    """Minimal lattice points of the union of the faces' relative interiors."""
    pts = (v for v in _region_scan(cone)
           if any(relint_contains(f, v) for f in faces))
    return _minimal(cone, pts)


def ideal_generators(cone: Cone, faces):
    """Minimal exponents u of the dual cone with <u, rep> >= 1 for the ray sum
    rep of every marked face (full-dimensional cones only)."""
    reps = []
    for f in faces:
        rep = la.zero_vec(cone.ambient_dim)
        for r in f.rays:
            rep = la.vadd(rep, r)
        reps.append(rep)
    dual = dual_cone(cone)
    pts = (u for u in _scan(dual, _ray_levels(dual))
           if all(la.dot(u, rep) >= 1 for rep in reps))
    return _minimal(dual, pts)


def contact_minima(cone: Cone, generators, n):
    """Minimal cone points v with min <v, u> over the generators equal to n."""
    pts = (v for v in _scan(cone, n * _ray_levels(cone))
           if min(la.dot(v, u) for u in generators) == n)
    return _minimal(cone, pts)


def _faces(cone: Cone, marked):
    by_rays = {f.rays: f for f in enumerate_faces(cone)}
    return [by_rays[tuple(sorted(tuple(r) for r in f))] for f in marked]


def nash_entry(cone_rays, marked):
    cone = Cone.from_rays([tuple(r) for r in cone_rays])
    return [list(v) for v in region_minima(cone, _faces(cone, marked))]


def ideal_entry(cone_rays, marked):
    cone = Cone.from_rays([tuple(r) for r in cone_rays])
    gens = ideal_generators(cone, _faces(cone, marked))
    return {"generators": [list(u) for u in gens],
            "contact": {str(n): [list(v) for v in contact_minima(cone, gens, n)]
                        for n in CONTACT_ORDERS}}


def load():
    with open(STORE) as fh:
        return json.load(fh)


def _pool_pairs():
    """Every (cone, marked) pair any seed can draw, per store section."""
    def loci(rays, first_only=False):
        cone = Cone.from_rays(rays)
        drawn = wl._loci(cone)[:1] if first_only else wl._loci(cone)
        return [(cone.rays, wl._marked(y)) for y in drawn]

    nash = []
    for rays in (wl.pool_2d(13) + [((1, 0), (1, n + 1)) for n in (5, 9, 15)]
                 + [wl.QUADRIC]):
        nash += loci(rays)
    for rays in wl.pool_cyclic_3d(5) + [wl.SIMPLEX_4D, wl.CUBE_4D]:
        nash += loci(rays, first_only=True)
    for rays in wl.pool_stv_components():
        pair = component_pairs(wl.build_complex(
            {"components": [rays, wl.E12 + ((0, 0, 1),)], "gluings": [[0, 1]]}))[0]
        nash.append((pair.chart_cone.rays, wl._marked(pair.locus)))
    ideal = []
    for rays in wl.pool_2d(9):
        ideal += loci(rays)
    for rays in wl.pool_ideal_3d():
        ideal += loci(rays, first_only=True)
    return nash, ideal


def build_store():
    nash, ideal = _pool_pairs()
    store = {"nash": {}, "ideal": {}}
    for section, pairs, entry in (("nash", nash, nash_entry),
                                  ("ideal", ideal, ideal_entry)):
        for rays, marked in pairs:
            key = pair_key(rays, marked)
            if key not in store[section]:
                store[section][key] = entry(rays, marked)
                print(section, len(store[section]), key[:60], flush=True)
    with open(STORE, "w") as fh:
        json.dump(store, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    build_store()
