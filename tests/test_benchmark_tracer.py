"""The benchmark's layer tracer still fits the library.

perfbench/tracing.py rebinds library names by module and attribute, so a
moved function would silently drop out of the trace.  The check runs in a
subprocess, because installing the tracer rebinds names for the whole
interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import importlib, json, sys
sys.path.insert(0, "perfbench")
from toricnash import nash, stv
from toricnash.cones import Cone
from toricnash.locus import face_locus
from tracing import LAYERS, Tracer

missing = []
for mod, attr, _ in LAYERS:
    obj = importlib.import_module("toricnash." + mod)
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    if obj is None:
        missing.append(mod + "." + attr)

tracer = Tracer()
tracer.install()
quadric = Cone.from_rays([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
span = tracer.begin_op(0)
report = nash.certify_essential(face_locus(quadric, []))
tracer.end_op(span)
summary = tracer.summary()
print(json.dumps({
    "missing": missing,
    "avoided": len(report.avoided),
    "minimal_points": len(report.minimal_points),
    "calls": summary["nash.minimal_region_points.calls"],
    "minima": summary["nash.minimal_region_points.minima"],
}))
"""


def test_tracer_layers_resolve_and_count_public_calls():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout.splitlines()[-1])
    assert got["missing"] == []
    # the avoidance constructions read the minima without a public call
    assert got["avoided"] > 0
    assert got["calls"] == 1
    assert got["minima"] == got["minimal_points"]
