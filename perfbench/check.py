"""Output checks for one operation, run after the timed loop of a pass.

Minima, ideal generators and contact components are unique, so they must equal
the stored brute-force references (oracle.py).  Resolutions are not unique, so
each is checked for validity: a smooth locus resolution, a valid subdivision,
every minimum among its rays, and each avoided ray absent.
"""

from __future__ import annotations

import hashlib
import json

from toricnash.cones import relint_contains
from toricnash.fans import is_locus_resolution

from oracle import CONTACT_ORDERS, pair_key


def _rays(points):
    return [list(v) for v in sorted(points)]


def _fan(sub):
    return [[list(r) for r in c.rays] for c in sub.refined.max_cones]


def serialize(workload, result):
    """Canonical JSON-able form of an operation's result."""
    if workload == "ideal-contact":
        ideal, comps = result
        return {"generators": _rays(ideal.generators),
                "contact": [_rays(c) for c in comps]}
    if workload == "stv-complexes":
        return {"reports": [None if r is None else serialize("nash-pairs", r)
                            for r in result.reports],
                "essential_divisors": result.essential_divisors,
                "equidimensional": result.equidimensional,
                "bijective": result.bijective}
    return {"minima": _rays(result.minimal_points),
            "samples": [_fan(s) for s in result.samples],
            "avoided": [[list(w), _fan(s)] for w, s in result.avoided],
            "missing": [[list(w), i] for w, i in result.missing],
            "bijective": result.bijective}


def output_digest(workload, result):
    blob = json.dumps(serialize(workload, result), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _resolution_problems(sub, locus, what):
    ok, diag = sub.validate()
    if not ok:
        return [f"{what} is not a valid subdivision: {diag[:2]}"]
    if not is_locus_resolution(sub, locus):
        return [f"{what} is not a locus resolution"]
    return []


def _region(locus, v):
    return any(relint_contains(f, v) for f in locus.faces)


def nash_problems(store, locus, report):
    key = pair_key(locus.cone.rays, [f.rays for f in locus.faces])
    if key not in store["nash"]:
        return [f"no stored reference for {key}"]
    want = [tuple(v) for v in store["nash"][key]]
    minima = sorted(report.minimal_points)
    if minima != want:
        return [f"minima {minima} != reference {want}"]
    problems = []
    for i, sub in enumerate(report.samples):
        problems += _resolution_problems(sub, locus, f"sample {i}")
        rays = set(sub.refined.rays())
        problems += [f"minimum {w} is not a ray of sample {i}"
                     for w in minima if w not in rays]
    if report.missing or not report.bijective:
        problems.append("report claims a missing minimum")
    to_avoid = {r for sub in report.samples for r in sub.refined.rays()
                if r not in minima and _region(locus, r)}
    avoided = {w for w, _ in report.avoided}
    if avoided != to_avoid:
        problems.append(f"avoided rays {sorted(avoided)} != {sorted(to_avoid)}")
    for w, sub in report.avoided:
        problems += _resolution_problems(sub, locus, f"avoidance of {w}")
        if w in sub.refined.rays():
            problems.append(f"avoided ray {w} is a ray of its resolution")
    return problems


def problems(workload, store, inputs, result):
    """Everything wrong with one operation's result; empty when it is right."""
    if workload == "nash-pairs":
        return nash_problems(store, inputs, result)
    if workload == "stv-complexes":
        out = []
        total = 0
        for pair, report in zip(result.pairs, result.reports):
            if pair.locus is None:
                if report is not None:
                    out.append(f"component {pair.index} is trivial but reported")
                continue
            out += [f"component {pair.index}: {p}"
                    for p in nash_problems(store, pair.locus, report)]
            total += len(report.minimal_points)
        if result.essential_divisors != total:
            out.append(f"essential divisors {result.essential_divisors} != {total}")
        return out
    ideal, comps = result
    key = pair_key(inputs.cone.rays, [f.rays for f in inputs.faces])
    if key not in store["ideal"]:
        return [f"no stored reference for {key}"]
    want = store["ideal"][key]
    out = []
    if _rays(ideal.generators) != want["generators"]:
        out.append(f"generators {_rays(ideal.generators)} != {want['generators']}")
    for n, got in zip(CONTACT_ORDERS, comps):
        if _rays(got) != want["contact"][str(n)]:
            out.append(f"contact order {n}: {_rays(got)} != {want['contact'][str(n)]}")
    return out
