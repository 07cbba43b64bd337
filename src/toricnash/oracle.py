"""Brute-force cross-checks used by the --oracle flag and the test suite.

Each oracle enumerates every cone point up to a level cap outright and decides
minimality by pairwise domination, independently of the candidate sets and
the one-step minimality tests of minimal_region_points and
contact_components.  The default caps are proven level bounds: a region
minimum uses each Hilbert basis element at most once, and a contact component
of order n at most n times, or a repeated summand could be peeled off.  So
agreement below them is an exact equality of sets.  Neither algorithm scans
levels, so the oracle checks both the reach of its candidates (against the
cap) and their minimality.
"""

from __future__ import annotations

from . import intlinalg as la
from .cones import (
    Cone,
    cone_leq,
    hilbert_basis,
    points_up_to_level,
    positive_functional,
    relint_contains,
)
from .locus import FaceLocus
from .nash import MonomialIdeal


def _pairwise_minimal(sigma: Cone, points):
    out = []
    for v in points:
        if not any(u != v and cone_leq(sigma, u, v) for u in points):
            out.append(v)
    return tuple(sorted(out))


def region_points_up_to(locus: FaceLocus, cap: int):
    """Region membership decided face by face, not via the reduction test."""
    sigma = locus.cone
    marked = list(locus.faces)
    out = []
    for v in points_up_to_level(sigma, cap):
        if any(relint_contains(f, v) for f in marked):
            out.append(v)
    return tuple(out)


def brute_minimal_region_points(locus: FaceLocus, cap: int):
    """Minimal region points with grading level at most cap, by pairwise
    domination over the full enumeration."""
    return _pairwise_minimal(locus.cone, region_points_up_to(locus, cap))


def brute_contact_components(ideal: MonomialIdeal, n: int, cap: int):
    """Minimal points of the order-n contact set with level at most cap."""
    sigma = ideal.sigma
    pts = [v for v in points_up_to_level(sigma, cap)
           if ideal.min_pairing(v) == n]
    return _pairwise_minimal(sigma, pts)


def default_contact_cap(ideal: MonomialIdeal, n: int) -> int:
    """Level bound below which every minimal contact point lives: n times the
    sum of the Hilbert basis levels.

    Write a minimal contact point v as a sum of Hilbert basis elements and
    suppose some h is used more than n times.  For each generator u, either
    <h, u> = 0 and <v - h, u> = <v, u> >= n, or <h, u> >= 1 and
    <v - h, u> >= n <h, u> >= n, since v - h still holds at least n copies of
    h.  So ord(v - h) >= n; and ord is monotone in the cone order, so
    ord(v - h) <= ord(v) = n, and v - h is a contact point below v, against
    minimality.  Hence every coefficient is at most n.
    """
    sigma = ideal.sigma
    ell = positive_functional(sigma)
    return max(1, n * sum(la.dot(ell, h) for h in hilbert_basis(sigma)))


def default_region_cap(locus: FaceLocus) -> int:
    ell = positive_functional(locus.cone)
    return max(1, sum(la.dot(ell, h) for h in hilbert_basis(locus.cone)))
