"""Outside-in span tracing of the toricnash layers.

Nothing in the library is edited: each traced public function is replaced by a
wrapper, rebound in every toricnash module that imported the name, and on the
class for `Cone.from_rays` and `Fan.__init__`.  A span is (name, start, end,
parent, operation); spans stay in memory in flat arrays and are written out
when the pass ends.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

# (module, attribute, outcome counter or None).  The outcome counter names a
# per-layer count of useful results and says how to read it off the return.
LAYERS = (
    ("nash", "minimal_region_points", ("minima", len)),
    ("locus", "region_contains", None),
    ("locus", "is_minimal_in_region", None),
    ("fans", "Fan", None),
    ("fans", "resolve_smooth", None),
    ("fans", "make_locus_resolution", None),
    ("fans", "avoidance_resolution", None),
    ("cones", "parallelepiped_points", None),
    ("locus", "marks_cone", None),
    ("cones", "enumerate_faces", None),
    ("nash", "contact_components", ("components", len)),
    ("nash", "faces_to_ideal", ("generators", lambda ideal: len(ideal.generators))),
    ("cones", "monoid_level_points", ("points", len)),
    ("cones", "hilbert_basis", None),
    ("cones", "dual_cone", None),
    ("stv", "component_pairs", None),
    ("stv", "stv_nash_report", None),
    ("nash", "certify_essential", None),
    ("cones", "Cone.from_rays", None),
    ("intlinalg", "saturation_basis", None),
    ("intlinalg", "smith_normal_form", None),
)

OP = "op"


def metric_names():
    """Every per-layer metric a traced pass reports, in a fixed order."""
    names = []
    for mod, attr, outcome in LAYERS:
        base = f"{mod}.{attr}"
        names += [f"{base}.calls", f"{base}.total_s", f"{base}.self_s"]
        if outcome is not None:
            names.append(f"{base}.{outcome[0]}")
    names.append("nash.minimal_region_points.minima_per_region_test")
    return names


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names = [OP]
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outcomes = {}
        self._stack = [-1]
        self._op = -1

    def _wrap(self, name, fn, outcome):
        nid = len(self.names)
        self.names.append(name)
        key = f"{name}.{outcome[0]}" if outcome else None
        count = outcome[1] if outcome else None
        if key:
            self.outcomes[key] = 0
        clock = time.perf_counter
        stack = self._stack
        spans = (self.name, self.parent, self.op, self.start, self.end)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans[0])
            spans[0].append(nid)
            spans[1].append(stack[-1])
            spans[2].append(self._op)
            spans[4].append(0.0)
            stack.append(i)
            spans[3].append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[4][i] = clock()
                stack.pop()
            if key:
                self.outcomes[key] += count(result)
            return result

        return traced

    def install(self):
        """Rebind every traced name in the already imported toricnash modules."""
        modules = [m for n, m in sys.modules.items()
                   if n == "toricnash" or n.startswith("toricnash.")]
        for mod, attr, outcome in LAYERS:
            owner = sys.modules[f"toricnash.{mod}"]
            name = f"{mod}.{attr}"
            if attr == "Fan":
                cls = owner.Fan
                cls.__init__ = self._wrap(name, cls.__init__, outcome)
            elif attr == "Cone.from_rays":
                cls = owner.Cone
                orig = cls.__dict__["from_rays"].__func__
                cls.from_rays = staticmethod(self._wrap(name, orig, outcome))
            else:
                orig = getattr(owner, attr)
                traced = self._wrap(name, orig, outcome)
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            setattr(m, k, traced)

    def begin_op(self, index):
        """Open the root span of one operation; returns its span index."""
        self._op = index
        i = len(self.name)
        self.name.append(0)
        self.parent.append(-1)
        self.op.append(index)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def end_op(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._op = -1

    def summary(self):
        """Per-layer calls, total_s (outermost spans only), self_s, outcomes."""
        n = len(self.name)
        names = self.names
        child = [0.0] * n
        nested = bytearray(n)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                # same-name nesting: inherit from the parent's chain
                nid = self.name[i]
                q = p
                while q >= 0:
                    if self.name[q] == nid:
                        nested[i] = 1
                        break
                    q = self.parent[q]
        calls = {nm: 0 for nm in names}
        total = {nm: 0.0 for nm in names}
        self_t = {nm: 0.0 for nm in names}
        mrp = names.index("nash.minimal_region_points")
        rc = names.index("locus.region_contains")
        region_tests = 0
        for i in range(n):
            nm = names[self.name[i]]
            dur = self.end[i] - self.start[i]
            calls[nm] += 1
            if not nested[i]:
                total[nm] += dur
            self_t[nm] += dur - child[i]
            if self.name[i] == rc:
                q = self.parent[i]
                while q >= 0 and self.name[q] != mrp:
                    q = self.parent[q]
                region_tests += q >= 0
        out = {}
        for mod, attr, outcome in LAYERS:
            base = f"{mod}.{attr}"
            out[f"{base}.calls"] = calls[base]
            out[f"{base}.total_s"] = total[base]
            out[f"{base}.self_s"] = self_t[base]
            if outcome is not None:
                out[f"{base}.{outcome[0]}"] = self.outcomes[f"{base}.{outcome[0]}"]
        minima = self.outcomes["nash.minimal_region_points.minima"]
        out["nash.minimal_region_points.minima_per_region_test"] = (
            minima / region_tests if region_tests else 0.0)
        out["op.total_s"] = total[OP]
        return out

    def write(self, path):
        """Spans as gzipped JSON: the name table and one [name, parent, op,
        start, end] row per span, in start order."""
        rows = zip(self.name, self.parent, self.op, self.start, self.end)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write('{"names": %s, "spans": [\n' % json.dumps(self.names))
            first = True
            for row in rows:
                fh.write(("" if first else ",\n") + json.dumps(row))
                first = False
            fh.write("\n]}\n")
