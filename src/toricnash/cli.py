"""Command-line interface: input parsing, dispatch, and report emission.

Inputs are JSON documents with integer vectors; reports come out as aligned
tables or canonical JSON (sorted keys, compact separators), so identical input
and seed give byte-identical machine reports.  Exit codes: 0 success or
bijective, 1 usage, parse or validation error, 3 certification failure, 4
internal assertion.  Code 2 is not used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field

from . import __version__
from . import intlinalg as la
from . import oracle as oracle_mod
from .cones import (
    Cone,
    enumerate_faces,
    hilbert_basis,
    is_smooth,
    multiplicity,
)
from .errors import (
    CertificationError,
    InputError,
    InternalError,
    NonPointed,
    ParseError,
    ToricNashError,
    ValidationError,
)
from .fans import Fan, make_locus_resolution, resolve_smooth, validate_fan
from .locus import FaceLocus
from .nash import (
    MonomialIdeal,
    certify_essential,
    contact_components,
    locus_from_spec,
    minimal_region_points,
)
from .stv import (
    Gluing,
    STVComplex,
    component_pairs,
    is_equidimensional,
    stv_nash_report,
    validate_complex,
)

COMMANDS = ("info", "hilbert", "resolve", "nash", "contact", "stv-nash", "certify")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CERTIFY = 3
EXIT_INTERNAL = 4


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _is_int(x):
    return type(x) is int  # JSON true/false must not pass as 1/0


def _as_vectors(value, what, dim):
    """A list of integer vectors of length dim."""
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a list of integer vectors")
    out = []
    for i, v in enumerate(value):
        if not isinstance(v, list) or not all(_is_int(x) for x in v):
            raise ValidationError(f"{what}[{i}] must be a list of integers")
        if len(v) != dim:
            raise ValidationError(
                f"{what}[{i}] has length {len(v)}, expected {dim}")
        out.append(tuple(v))
    return out


def _as_indices(value, size, what):
    """A list of integer indices into a sequence of the given size."""
    if not isinstance(value, list) or \
       not all(_is_int(t) and 0 <= t < size for t in value):
        raise ValidationError(
            f"{what} must be a list of indices in [0, {size})")
    return value


def _parse_cone_rays(rays, dim, where):
    rays = _as_vectors(rays, where, dim)
    for i, r in enumerate(rays):
        if la.is_zero(r):
            raise ValidationError(f"{where}[{i}] is the zero vector")
        if la.primitive_part(r) != r:
            raise ValidationError(f"{where}[{i}] = {list(r)} is not primitive")
    if len(set(rays)) != len(rays):
        raise ValidationError(f"{where} contains a duplicate ray direction")
    cone = Cone.from_rays(rays, dim)
    if not cone.is_pointed:
        raise NonPointed(f"{where} spans a cone that is not pointed: it "
                         f"contains the line through {list(cone.lines[0])}")
    if set(cone.rays) != set(rays):
        extra = [list(r) for r in rays if r not in set(cone.rays)]
        raise ValidationError(f"{where} contains non-extreme rays: {extra}")
    return cone, tuple(rays)


@dataclass
class InputDocument:
    kind: str
    dim: int
    canonical: dict
    cone: Cone | None = None
    ray_order: tuple = ()
    fan: Fan | None = None
    locus: FaceLocus | None = None
    y_echo: object = None
    ideal: MonomialIdeal | None = None
    order: int | None = None
    complex: STVComplex | None = None
    options: dict = field(default_factory=dict)

    def canonical_json(self) -> str:
        return json.dumps(self.canonical, sort_keys=True, separators=(",", ":"))

    def input_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _canonical_y(doc_y, cone, ray_order, locus):
    if doc_y == "sing":
        return "sing"
    if isinstance(doc_y, dict) and "faces" in doc_y:
        idx = {r: i for i, r in enumerate(ray_order)}
        faces = sorted(sorted(idx[r] for r in f.rays) for f in locus.faces)
        return {"faces": faces}
    if isinstance(doc_y, dict) and "ideal" in doc_y:
        return {"ideal": sorted([list(u) for u in
                                 (tuple(v) for v in doc_y["ideal"])])}
    raise ValidationError(f"unrecognized y form {doc_y!r}")


def parse_input(text: str) -> InputDocument:
    """Parse and validate a JSON input document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno)
    if not isinstance(data, dict):
        raise ValidationError("top level must be a JSON object")
    kind = data.get("kind")
    if kind not in ("cone", "fan", "pair", "ideal-query", "stv"):
        raise ValidationError(f"unknown kind {kind!r}")
    dim = data.get("dim")
    if not _is_int(dim) or dim < 1:
        raise ValidationError("dim must be a positive integer")
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ValidationError("options must be an object")

    if kind == "cone":
        cone, order = _parse_cone_rays(data.get("rays"), dim, "rays")
        canonical = {"kind": kind, "dim": dim,
                     "rays": [list(r) for r in cone.rays]}
        return InputDocument(kind, dim, canonical, cone=cone, ray_order=order,
                             options=options)

    if kind == "fan":
        cones = []
        raw = data.get("cones")
        if not isinstance(raw, list) or not raw:
            raise ValidationError("fan needs a nonempty list of cones")
        for k, rays in enumerate(raw):
            cone, _ = _parse_cone_rays(rays, dim, f"cones[{k}]")
            cones.append(cone)
        fan = Fan(dim, cones)
        ok, diag = validate_fan(fan)
        if not ok:
            raise ValidationError(f"not a fan: {diag[0]}")
        canonical = {"kind": kind, "dim": dim,
                     "cones": sorted([list(r) for r in c.rays]
                                     for c in fan.max_cones)}
        return InputDocument(kind, dim, canonical, fan=fan, options=options)

    if kind == "pair":
        spec = data.get("cone")
        if not isinstance(spec, dict):
            raise ValidationError("pair needs a cone object")
        cone, order = _parse_cone_rays(spec.get("rays"), dim, "cone.rays")
        y = data.get("y")
        locus = locus_from_spec(cone, y, ray_order=order)
        canonical = {"kind": kind, "dim": dim,
                     "cone": {"rays": [list(r) for r in cone.rays]},
                     "y": _canonical_y(y, cone, cone.rays, locus)}
        return InputDocument(kind, dim, canonical, cone=cone, ray_order=order,
                             locus=locus, y_echo=y, options=options)

    if kind == "ideal-query":
        spec = data.get("cone")
        if not isinstance(spec, dict):
            raise ValidationError("ideal-query needs a cone object")
        cone, order = _parse_cone_rays(spec.get("rays"), dim, "cone.rays")
        gens = _as_vectors(data.get("ideal"), "ideal", dim)
        ideal = MonomialIdeal(cone, tuple(gens))
        n = data.get("n")
        if not _is_int(n) or n < 1:
            raise ValidationError("n must be a positive integer")
        canonical = {"kind": kind, "dim": dim,
                     "cone": {"rays": [list(r) for r in cone.rays]},
                     "ideal": [list(u) for u in ideal.generators], "n": n}
        return InputDocument(kind, dim, canonical, cone=cone, ray_order=order,
                             ideal=ideal, order=n, options=options)

    # kind == "stv"
    raw = data.get("components")
    if not isinstance(raw, list) or not raw:
        raise ValidationError("stv needs a nonempty list of components")
    comps = []
    orders = []
    for k, spec in enumerate(raw):
        if not isinstance(spec, dict):
            raise ValidationError(f"components[{k}] must be an object")
        cone, order = _parse_cone_rays(spec.get("rays"), dim,
                                       f"components[{k}].rays")
        comps.append(cone)
        orders.append(order)
    raw = data.get("gluings", [])
    if not isinstance(raw, list):
        raise ValidationError("gluings must be a list of objects")
    gluings = []
    for k, g in enumerate(raw):
        where = f"gluings[{k}]"
        if not isinstance(g, dict):
            raise ValidationError(f"{where} must be an object")
        i, j = g.get("i"), g.get("j")
        if not all(_is_int(x) and 0 <= x < len(comps) for x in (i, j)):
            raise ValidationError(
                f"{where}: i and j must be component indices in "
                f"[0, {len(comps)})")
        fi = _as_indices(g.get("face_i"), len(orders[i]), f"{where}.face_i")
        fj = _as_indices(g.get("face_j"), len(orders[j]), f"{where}.face_j")
        matrix = _as_vectors(g.get("matrix"), f"{where}.matrix", dim)
        gluings.append(Gluing(i, j, tuple(orders[i][t] for t in fi),
                              tuple(orders[j][t] for t in fj), matrix))
    complex_ = STVComplex(dim, comps, gluings)
    ok, diag = validate_complex(complex_)
    if not ok:
        raise ValidationError(f"invalid complex: {diag[0]}")
    canon_gluings = []
    for g in complex_.gluings:
        canon_gluings.append({
            "i": g.i, "j": g.j,
            "face_i": sorted(comps[g.i].rays.index(r) for r in g.face_i),
            "face_j": sorted(comps[g.j].rays.index(r) for r in g.face_j),
            "matrix": [list(row) for row in g.matrix]})
    canonical = {"kind": kind, "dim": dim,
                 "components": [{"rays": [list(r) for r in c.rays]}
                                for c in comps],
                 "gluings": canon_gluings}
    return InputDocument(kind, dim, canonical, complex=complex_, options=options)


# ---------------------------------------------------------------------------
# command dispatch
# ---------------------------------------------------------------------------

@dataclass
class ReportDocument:
    command: str
    version: str
    seed: int
    options: dict
    input_hash: str
    input: dict
    results: dict

    def to_dict(self):
        return {
            "command": self.command,
            "version": self.version,
            "seed": self.seed,
            "options": self.options,
            "input_hash": self.input_hash,
            "input": self.input,
            "results": self.results,
        }


def _subdivision_dict(sub):
    return {
        "rays": [list(r) for r in sub.refined.rays()],
        "added_rays": [list(r) for r in sub.added_rays],
        "max_cones": [[list(r) for r in c.rays] for c in sub.refined.max_cones],
    }


def _cone_info(cone):
    info = {
        "ambient_dim": cone.ambient_dim,
        "cone_dim": cone.dim,
        "rays": [list(r) for r in cone.rays],
        "facet_normals": [list(u) for u in cone.facet_normals],
        "pointed": cone.is_pointed,
        "simplicial": cone.is_simplicial,
        "smooth": is_smooth(cone),
        "face_count": len(enumerate_faces(cone)),
        "hilbert_basis_count": len(hilbert_basis(cone)),
    }
    if cone.is_simplicial:
        info["multiplicity"] = multiplicity(cone)
    return info


def _nash_results(locus, opts):
    report = certify_essential(locus, samples=opts["samples"],
                               seed=opts["seed"])
    # avoided rays share witness resolutions; list each once, by first use
    witness_index = {}
    for _, sub in report.avoided:
        witness_index.setdefault(id(sub), (len(witness_index), sub))
    return report, {
        "minimal_points": [list(v) for v in report.minimal_points],
        "count": len(report.minimal_points),
        "bijective": report.bijective,
        "samples": [{"rays": [list(r) for r in sub.refined.rays()],
                     "added_rays": [list(r) for r in sub.added_rays]}
                    for sub in report.samples],
        "witness_resolutions": [{"rays": [list(x) for x in sub.refined.rays()]}
                                for _, sub in witness_index.values()],
        "avoided": [{"ray": list(r), "witness": witness_index[id(sub)][0]}
                    for r, sub in report.avoided],
        "certificates": [
            {"point": list(c.point),
             "witnesses": [
                 {"element": list(w.element), "reason": w.reason,
                  "face": [list(r) for r in w.face_rays]}
                 for w in c.witnesses]}
            for c in report.certificates],
        "missing": [{"point": list(p), "sample": i} for p, i in report.missing],
    }


def run_command(doc: InputDocument, command: str, options=None) -> ReportDocument:
    """Dispatch a parsed document to the matching library operation."""
    if command not in COMMANDS:
        raise ValidationError(f"unknown command {command!r}")
    opts = {"samples": 3, "seed": 0, "oracle": False}
    for k, v in doc.options.items():
        if k not in opts:
            raise ValidationError(f"unknown option {k!r} in document")
        opts[k] = v
    if options:
        for k, v in options.items():
            if v is not None:
                opts[k] = v
    if not (_is_int(opts["samples"]) and opts["samples"] >= 1):
        raise ValidationError("samples must be a positive integer")
    if not _is_int(opts["seed"]):
        raise ValidationError("seed must be an integer")
    if not isinstance(opts["oracle"], bool):
        raise ValidationError("oracle must be true or false")

    results = {}
    if command == "info":
        results = _info(doc)
    elif command == "hilbert":
        if doc.cone is None:
            raise ValidationError("hilbert needs a cone or pair document")
        results = {"hilbert_basis": [list(h) for h in hilbert_basis(doc.cone)]}
    elif command == "resolve":
        results = _resolve(doc, opts)
    elif command == "nash":
        if doc.locus is None:
            raise ValidationError("nash needs a pair document")
        report, results = _nash_results(doc.locus, opts)
        if opts["oracle"]:
            results["oracle"] = _oracle_region(doc.locus, report.minimal_points)
    elif command == "contact":
        if doc.ideal is None:
            raise ValidationError("contact needs an ideal-query document")
        comps = contact_components(doc.ideal, doc.order)
        results = {"n": doc.order, "components": [list(v) for v in comps],
                   "count": len(comps)}
        if opts["oracle"]:
            cap = oracle_mod.default_contact_cap(doc.ideal, doc.order)
            want = oracle_mod.brute_contact_components(doc.ideal, doc.order, cap)
            if tuple(comps) != want:
                raise InternalError(
                    f"oracle disagreement: algorithm {list(comps)}, "
                    f"brute force {list(want)}")
            results["oracle"] = {"checked": True, "cap": cap}
    elif command == "stv-nash":
        if doc.complex is None:
            raise ValidationError("stv-nash needs an stv document")
        results = _stv_nash(doc, opts)
    elif command == "certify":
        results = _certify(doc, opts)

    return ReportDocument(
        command=command,
        version=__version__,
        seed=opts["seed"],
        options={"samples": opts["samples"]},
        input_hash=doc.input_hash(),
        input=doc.canonical,
        results=results,
    )


def _info(doc):
    if doc.kind == "cone":
        return _cone_info(doc.cone)
    if doc.kind == "fan":  # parse_input rejects every fan validate_fan fails
        return {"valid": True, "diagnostics": [],
                "max_cones": [[list(r) for r in c.rays]
                              for c in doc.fan.max_cones],
                "rays": [list(r) for r in doc.fan.rays()]}
    if doc.kind == "pair":
        info = _cone_info(doc.cone)
        info["y_faces"] = sorted(
            [list(r) for r in f.rays] for f in doc.locus.faces)
        return info
    if doc.kind == "ideal-query":
        info = _cone_info(doc.cone)
        info["ideal"] = [list(u) for u in doc.ideal.generators]
        info["n"] = doc.order
        return info
    pairs = component_pairs(doc.complex)
    return {
        "valid": True,
        "equidimensional": is_equidimensional(doc.complex),
        "components": [
            {"index": p.index, "dim": p.monomial_cone.dim,
             "chart_rays": [list(r) for r in p.chart_cone.rays],
             "trivial": p.locus is None}
            for p in pairs],
    }


def _resolve(doc, opts):
    import random as _random
    rng = None if opts["seed"] == 0 else _random.Random(opts["seed"])
    if doc.kind == "pair":
        sub = make_locus_resolution(doc.cone, doc.locus, rng=rng)
        out = _subdivision_dict(sub)
        out["locus_resolution"] = True
        return out
    if doc.kind == "cone":
        sub = resolve_smooth(Fan.of_cone(doc.cone), rng=rng)
        out = _subdivision_dict(sub)
        out["smooth"] = True
        return out
    if doc.kind == "fan":
        sub = resolve_smooth(doc.fan, rng=rng)
        out = _subdivision_dict(sub)
        out["smooth"] = True
        return out
    raise ValidationError("resolve needs a cone, fan, or pair document")


def _oracle_region(locus, minimal_points):
    cap = oracle_mod.default_region_cap(locus)
    want = oracle_mod.brute_minimal_region_points(locus, cap)
    if tuple(minimal_points) != want:
        raise InternalError(
            f"oracle disagreement: algorithm {list(minimal_points)}, "
            f"brute force {list(want)}")
    return {"checked": True, "cap": cap}


def _stv_nash(doc, opts):
    rep = stv_nash_report(doc.complex, samples=opts["samples"],
                          seed=opts["seed"])
    comps = []
    for pair, r in zip(rep.pairs, rep.reports):
        entry = {"index": pair.index, "trivial": r is None}
        if r is not None:
            entry["minimal_points"] = [list(v) for v in r.minimal_points]
            entry["bijective"] = r.bijective
            if opts["oracle"]:
                entry["oracle"] = _oracle_region(pair.locus, r.minimal_points)
        comps.append(entry)
    return {
        "components": comps,
        "totals": {"good_components": rep.good_components,
                   "essential_divisors": rep.essential_divisors},
        "equidimensional": rep.equidimensional,
        "bijective": rep.bijective,
    }


def _certify(doc, opts):
    checks = []
    if doc.kind == "pair":
        report, _ = _nash_results(doc.locus, opts)
        for i, sub in enumerate(report.samples):
            rays = set(sub.refined.rays())
            present = all(w in rays for w in report.minimal_points)
            checks.append({"name": f"minima present in sample {i}",
                           "passed": present})
        for ray, sub in report.avoided:
            checks.append({"name": f"avoided ray {list(ray)}",
                           "passed": ray not in sub.refined.rays()})
        bijective = report.bijective
    elif doc.kind == "stv":
        rep = stv_nash_report(doc.complex, samples=opts["samples"],
                              seed=opts["seed"])
        for pair, r in zip(rep.pairs, rep.reports):
            if r is None:
                continue
            checks.append({"name": f"component {pair.index} bijective",
                           "passed": r.bijective})
        bijective = rep.bijective
    else:
        raise ValidationError("certify needs a pair or stv document")
    return {"checks": checks, "bijective": bijective,
            "passed": all(c["passed"] for c in checks) and bijective}


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def emit_report(report: ReportDocument, fmt: str = "table") -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), sort_keys=True,
                          separators=(",", ":"))
    if fmt != "table":
        raise ValidationError(f"unknown format {fmt!r}")
    return _emit_table(report)


def _fmt_vec(v):
    return "(" + ",".join(str(x) for x in v) + ")"


def _emit_table(report: ReportDocument) -> str:
    lines = []
    push = lines.append
    push(f"toric-nash {report.command}  (version {report.version})")
    push(f"input    {report.input_hash[:16]}  seed {report.seed}")
    r = report.results
    if report.command == "info":
        for key in sorted(r):
            push(f"  {key}: {r[key]}")
    elif report.command == "hilbert":
        push("Hilbert basis:")
        for h in r["hilbert_basis"]:
            push(f"  {_fmt_vec(h)}")
    elif report.command == "resolve":
        push("rays:")
        for x in r["rays"]:
            push(f"  {_fmt_vec(x)}")
        push("added rays: " + " ".join(_fmt_vec(x) for x in r["added_rays"]))
        push(f"maximal cones: {len(r['max_cones'])}")
    elif report.command == "nash":
        push("W (essential divisors):")
        for v in r["minimal_points"]:
            push(f"  {_fmt_vec(v)}")
        push(f"count: {r['count']}")
        push(f"samples: {len(r['samples'])}")
        if r["avoided"]:
            push("avoided sample rays: "
                 + " ".join(_fmt_vec(a["ray"]) for a in r["avoided"]))
        _push_bijective(push, r["bijective"], r.get("missing", ()))
    elif report.command == "contact":
        push(f"contact order: {r['n']}")
        push("components:")
        for v in r["components"]:
            push(f"  {_fmt_vec(v)}")
    elif report.command == "stv-nash":
        t = r["totals"]
        push(f"good components:    {t['good_components']}")
        push(f"essential divisors: {t['essential_divisors']}")
        push(f"equidimensional:    {r['equidimensional']}")
        for entry in r["components"]:
            if entry["trivial"]:
                push(f"  component {entry['index']}: Nash-trivial")
            else:
                pts = " ".join(_fmt_vec(v) for v in entry["minimal_points"])
                push(f"  component {entry['index']}: W = {pts}")
        _push_bijective(push, r["bijective"], ())
    elif report.command == "certify":
        for c in r["checks"]:
            push(f"  [{'PASS' if c['passed'] else 'FAIL'}] {c['name']}")
        _push_bijective(push, r["bijective"], ())
    return "\n".join(lines) + "\n"


def _push_bijective(push, bijective, missing):
    if bijective:
        push("bijective: YES")
    else:
        push("NOT BIJECTIVE")
        for item in missing:
            push(f"  offending ray {_fmt_vec(item['point'])} "
                 f"missing from sample {item['sample']}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # usage errors exit 1 through main's handler, not argparse's exit 2
        raise ParseError(f"{message}\n{self.format_usage().rstrip()}")


def _build_parser():
    p = _ArgumentParser(
        prog="toric-nash",
        description="Exact Nash-problem computations for toric pairs and "
                    "stable toric varieties.")
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--input", required=True, help="path to a JSON document")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--oracle", action="store_true", default=None)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        try:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read input: {exc}")
        doc = parse_input(text)
        options = {"samples": args.samples, "seed": args.seed,
                   "oracle": args.oracle}
        report = run_command(doc, args.command, options)
        sys.stdout.write(emit_report(report, args.format))
        bijective = report.results.get("bijective")
        if bijective is False:
            return EXIT_CERTIFY
        return EXIT_OK
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_INPUT
    except InputError as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INPUT
    except CertificationError as exc:
        sys.stderr.write(f"NOT BIJECTIVE: certification failed: {exc}\n")
        return EXIT_CERTIFY
    except ToricNashError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
    except AssertionError as exc:
        sys.stderr.write(f"internal assertion failed: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
