import json

import pytest

import toricnash
from toricnash import cli

QUADRIC_PAIR = {"kind": "pair", "dim": 3,
                "cone": {"rays": [[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 1]]},
                "y": "sing"}
A1_IDEAL = {"kind": "ideal-query", "dim": 2,
            "cone": {"rays": [[1, 0], [1, 2]]},
            "ideal": [[0, 1], [1, 0], [2, -1]], "n": 2}


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


@pytest.mark.parametrize("command, doc", [("nash", QUADRIC_PAIR),
                                          ("certify", QUADRIC_PAIR),
                                          ("info", A1_IDEAL)])
def test_budget_options_only_for_contact(tmp_path, capsys, command, doc):
    for flag in ("--buffer", "--level-cap"):
        code, out = run(tmp_path, capsys, command, doc, flag, "5")
        assert code == cli.EXIT_INPUT
        assert "applies only to the contact command" in out.err
    for key in ("buffer", "level_cap"):
        code, out = run(tmp_path, capsys, command,
                        dict(doc, options={key: 5}))
        assert code == cli.EXIT_INPUT
        assert "applies only to the contact command" in out.err


def test_contact_budgets_below_one(tmp_path, capsys):
    code, out = run(tmp_path, capsys, "contact", A1_IDEAL, "--buffer", "-5")
    assert code == cli.EXIT_INPUT
    assert "buffer must be a positive integer" in out.err
    code, out = run(tmp_path, capsys, "contact",
                    dict(A1_IDEAL, options={"level_cap": 0}))
    assert code == cli.EXIT_INPUT
    assert "level_cap must be a positive integer" in out.err
    code, _ = run(tmp_path, capsys, "contact", A1_IDEAL, "--level-cap", "1")
    assert code == cli.EXIT_BUDGET
