import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toricnash
from toricnash import cli

QUADRIC_PAIR = {"kind": "pair", "dim": 3,
                "cone": {"rays": [[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 1]]},
                "y": "sing"}
A1_IDEAL = {"kind": "ideal-query", "dim": 2,
            "cone": {"rays": [[1, 0], [1, 2]]},
            "ideal": [[0, 1], [1, 0], [2, -1]], "n": 2}
CUBE_PAIR = {"kind": "pair", "dim": 4,
             "cone": {"rays": [[a, b, c, 1] for a in (0, 1) for b in (0, 1)
                               for c in (0, 1)]},
             "y": "sing"}
PLANES_ALONG_LINE = {"kind": "stv", "dim": 2,
                     "components": [{"rays": [[1, 0], [0, 1]]},
                                    {"rays": [[-1, 0], [0, 1]]}],
                     "gluings": [{"i": 0, "j": 1, "face_i": [1], "face_j": [1],
                                  "matrix": [[1, 0], [0, 1]]}]}


ROOT = Path(__file__).parents[1]
A1_PAIR = {"kind": "pair", "dim": 2, "cone": {"rays": [[1, 0], [1, 2]]},
           "y": "sing"}


def run(tmp_path, capsys, command, doc, *extra):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code = cli.main([command, "--input", str(path), *extra])
    return code, capsys.readouterr()


def test_version_matches_project():
    import tomllib
    from pathlib import Path
    meta = tomllib.loads(
        (Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert toricnash.__version__ == meta["project"]["version"]


@pytest.mark.parametrize("command, doc", [("nash", QUADRIC_PAIR),
                                          ("contact", A1_IDEAL)])
def test_json_report_byte_stable(tmp_path, capsys, command, doc):
    code1, out1 = run(tmp_path, capsys, command, doc, "--format", "json")
    code2, out2 = run(tmp_path, capsys, command, doc, "--format", "json")
    assert code1 == code2 == cli.EXIT_OK
    assert out1.out == out2.out
    report = json.loads(out1.out)
    assert report["command"] == command
    assert report["version"] == toricnash.__version__


def test_nash_and_contact_results(tmp_path, capsys):
    _, out = run(tmp_path, capsys, "nash", QUADRIC_PAIR, "--format", "json")
    results = json.loads(out.out)["results"]
    assert results["minimal_points"] == [[1, 1, 1]]
    assert results["bijective"]
    _, out = run(tmp_path, capsys, "contact", A1_IDEAL, "--format", "json")
    assert json.loads(out.out)["results"]["components"] == [[2, 2]]


CYCLIC_IDEAL = {"kind": "ideal-query", "dim": 3,
                "cone": {"rays": [[1, 0, 0], [0, 1, 0], [1, 2, 3]]},
                "ideal": [[0, 0, 1], [0, 1, 0], [0, 2, -1], [0, 3, -2],
                          [1, 0, 0], [1, 1, -1], [3, 0, -1]], "n": 2}


def test_contact_oracle_checks_components(tmp_path, capsys, monkeypatch):
    code, out = run(tmp_path, capsys, "contact", CYCLIC_IDEAL, "--format", "json")
    assert code == cli.EXIT_OK
    plain = json.loads(out.out)["results"]
    assert plain["components"] == [[2, 2, 2], [2, 3, 3], [2, 4, 4]]
    code, out = run(tmp_path, capsys, "contact", CYCLIC_IDEAL, "--format",
                    "json", "--oracle")
    assert code == cli.EXIT_OK
    checked = json.loads(out.out)["results"]
    assert checked["oracle"]["checked"] is True
    assert checked["components"] == plain["components"]
    real = cli.contact_components
    monkeypatch.setattr(cli, "contact_components",
                        lambda ideal, n: real(ideal, n)[1:])
    code, out = run(tmp_path, capsys, "contact", CYCLIC_IDEAL, "--oracle")
    assert code == cli.EXIT_INTERNAL
    assert "oracle disagreement" in out.err
    assert "Traceback" not in out.err


def test_avoided_rays_index_shared_witnesses(tmp_path, capsys):
    """Each avoided ray names a witness resolution, listed once, that omits
    it; on the cube pair several rays share one."""
    _, out = run(tmp_path, capsys, "nash", CUBE_PAIR, "--format", "json")
    results = json.loads(out.out)["results"]
    witnesses = results["witness_resolutions"]
    avoided = results["avoided"]
    assert avoided
    for entry in avoided:
        assert entry["ray"] not in witnesses[entry["witness"]]["rays"]
    assert sorted({e["witness"] for e in avoided}) == list(range(len(witnesses)))
    assert len(witnesses) < len(avoided)


TABLE_LINES = {
    "info": ["  cone_dim: 3", "  hilbert_basis_count: 4"],
    "hilbert": ["Hilbert basis:", "  (1,0,1)"],
    "resolve": ["added rays: (1,1,1) (1,2,2) (2,1,1)", "maximal cones: 8"],
    "nash": ["W (essential divisors):", "  (1,1,1)", "bijective: YES"],
    "contact": ["contact order: 2", "  (2,2)"],
    "stv-nash": ["good components:    2", "  component 0: W = (1,0)",
                 "bijective: YES"],
    "certify": ["  [PASS] minima present in sample 0",
                "  [PASS] avoided ray [1, 2, 1]", "bijective: YES"],
}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_budget_options_rejected(tmp_path, capsys, command):
    doc = {"contact": A1_IDEAL, "stv-nash": PLANES_ALONG_LINE}.get(
        command, QUADRIC_PAIR)
    code, out = run(tmp_path, capsys, command, doc)
    assert code == cli.EXIT_OK
    lines = out.out.splitlines()
    assert lines[0].startswith(f"toric-nash {command} ")
    for line in TABLE_LINES[command]:
        assert line in lines
    for flag in ("--buffer", "--level-cap"):
        code, out = run(tmp_path, capsys, command, doc, flag, "5")
        assert code == cli.EXIT_INPUT
        assert flag in out.err
    for key in ("buffer", "level_cap"):
        code, out = run(tmp_path, capsys, command,
                        dict(doc, options={key: 5}))
        assert code == cli.EXIT_INPUT
        assert f"unknown option {key!r}" in out.err


@pytest.mark.parametrize("argv", [
    ["nash"], ["nash", "--input"], ["frobnicate", "--input", "x.json"],
    ["nash", "--input", "x.json", "--samples", "many"],
    ["nash", "--input", "x.json", "--verbose"]])
def test_usage_errors_exit_input(capsys, argv):
    assert cli.main(argv) == cli.EXIT_INPUT
    assert "usage: toric-nash" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "--input" in capsys.readouterr().out


@pytest.mark.parametrize("options", [
    {"seed": "x"}, {"seed": True}, {"samples": "3"}, {"samples": None},
    {"samples": True}, {"samples": 0}, {"oracle": "no"}, {"oracle": 1}])
def test_bad_option_values_rejected(tmp_path, capsys, options):
    code, out = run(tmp_path, capsys, "nash", dict(QUADRIC_PAIR, options=options))
    assert code == cli.EXIT_INPUT
    assert f"{next(iter(options))} must be" in out.err


SMALL_DOCS = [
    {"kind": "cone", "dim": 2, "rays": [[1, 0], [1, 2]],
     "options": {"samples": 1, "seed": 0, "oracle": False}},
    {"kind": "fan", "dim": 2, "cones": [[[1, 0], [1, 1]], [[1, 1], [0, 1]]]},
    {"kind": "pair", "dim": 2, "cone": {"rays": [[1, 0], [1, 2]]},
     "y": {"faces": [[0]]}},
    {"kind": "pair", "dim": 2, "cone": {"rays": [[1, 0], [1, 2]]},
     "y": {"ideal": [[0, 1], [1, 0]]}},
    A1_IDEAL,
    PLANES_ALONG_LINE,
]
MUTANTS = [True, None, "x", "1", 1.5, -1, 0, [], {}, [1], [[1, 0]]]


def _replace_each_node(doc):
    """Every copy of doc with exactly one node (the root included) replaced by
    one of MUTANTS."""
    yield from MUTANTS
    if isinstance(doc, dict):
        items = list(doc.items())
    elif isinstance(doc, list):
        items = list(enumerate(doc))
    else:
        return
    for key, child in items:
        for new in _replace_each_node(child):
            copy = json.loads(json.dumps(doc))
            copy[key] = new
            yield copy


def test_single_node_mutations_never_raise(tmp_path, capsys):
    path = tmp_path / "input.json"
    seen = 0
    for doc in SMALL_DOCS:
        for mutant in _replace_each_node(doc):
            path.write_text(json.dumps(mutant))
            code = cli.main(["info", "--input", str(path)])
            err = capsys.readouterr().err
            assert code in (cli.EXIT_OK, cli.EXIT_INPUT), (mutant, err)
            seen += 1
    assert seen > 1000


@pytest.mark.parametrize("doc", [
    {"kind": "cone", "dim": 2, "rays": [[1, 0], [-1, 0], [0, 1]]},
    {"kind": "pair", "dim": 2, "cone": {"rays": [[1, 0], [-1, 0]]},
     "y": "sing"},
])
def test_non_pointed_cone_reported(tmp_path, capsys, doc):
    code, out = run(tmp_path, capsys, "info", doc)
    assert code == cli.EXIT_INPUT
    assert "not pointed" in out.err
    assert "non-extreme" not in out.err


def test_info_on_a_fan_reports_the_parse_check(tmp_path, capsys):
    """parse_input rejects a document whose cones do not form a fan, so info
    reports every fan it gets as valid."""
    fan = {"kind": "fan", "dim": 2, "cones": [[[1, 0], [1, 1]], [[1, 1], [0, 1]]]}
    code, out = run(tmp_path, capsys, "info", fan, "--format", "json")
    assert code == cli.EXIT_OK
    results = json.loads(out.out)["results"]
    assert results["valid"] is True and results["diagnostics"] == []
    assert results["max_cones"] == [[[0, 1], [1, 1]], [[1, 0], [1, 1]]]
    crossing = dict(fan, cones=[[[1, 0], [1, 2]], [[1, 1], [0, 1]]])
    code, out = run(tmp_path, capsys, "info", crossing)
    assert code == cli.EXIT_INPUT
    assert "not a fan" in out.err


def run_module(tmp_path, text, *args):
    """python -m toricnash.cli in a fresh interpreter, from the repository
    root with PYTHONPATH=src."""
    path = tmp_path / "input.json"
    path.write_text(text)
    return subprocess.run(
        [sys.executable, "-m", "toricnash.cli", *args, "--input", str(path)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=120)


def test_module_entry_point(tmp_path):
    first, second = (run_module(tmp_path, json.dumps(A1_PAIR), "nash",
                                "--format", "json") for _ in range(2))
    assert first.returncode == second.returncode == cli.EXIT_OK, first.stderr
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["results"]["minimal_points"] == [[1, 1]]
    bad_y = dict(A1_PAIR, y={"faces": 5})
    for text in ('{"kind": "pair",', json.dumps(bad_y)):
        bad = run_module(tmp_path, text, "nash", "--format", "json")
        assert bad.returncode == cli.EXIT_INPUT
        assert bad.stdout == ""
        assert bad.stderr.startswith(("parse error", "invalid input"))
        assert "Traceback" not in bad.stderr
