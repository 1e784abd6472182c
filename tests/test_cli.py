import json

import pytest

from dmlab import StageError
from dmlab.cli import main


@pytest.fixture
def swap_file(tmp_path):
    doc = {
        "field": "QQ",
        "vars": ["x", "y"],
        "phi": ["y", "x"],
        "alpha": ["1", "2"],
        "V": ["x-1"],
        "N": 20,
    }
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_run_writes_json_to_stdout(swap_file, capsys):
    assert main(["run", str(swap_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["return_set"]["count"] == "10"
    assert payload["decomposition"]["residual_count"] == "0"


def test_run_writes_json_to_file(swap_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["run", str(swap_file), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["progressions"][0]["modulus"] == "2"


def test_run_csv_stdout(swap_file, capsys):
    assert main(["run", str(swap_file), "--format", "csv"]) == 0
    returns_part, density_part = capsys.readouterr().out.split("\n\n")
    assert returns_part.splitlines()[0] == "n,in_V"
    assert density_part.splitlines()[0] == "L,max_ratio"


def test_run_csv_out_prefix(swap_file, tmp_path):
    prefix = tmp_path / "swap"
    assert main(["run", str(swap_file), "--format", "csv", "--out", str(prefix)]) == 0
    returns = (tmp_path / "swap_returns.csv").read_text(encoding="utf-8")
    density = (tmp_path / "swap_density.csv").read_text(encoding="utf-8")
    assert returns.splitlines()[0] == "n,in_V"
    assert returns.splitlines()[1] == "0,1"
    assert density.splitlines()[0] == "L,max_ratio"


def test_density_command(swap_file, capsys):
    assert main(["density", str(swap_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["return_set"]["indices"][:3] == ["0", "2", "4"]
    assert payload["density_profile"]["entries"][0]["max_ratio"] == "2/3"
    assert "progressions" not in payload


def test_certify_command(swap_file, capsys):
    assert main(["certify", str(swap_file), "--a", "2", "--b", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["progression"] == {"modulus": "2", "offset": "0"}
    assert payload["closure_chain"]["offsets"][0]["ideal"] == ["x - 1", "y - 2"]
    assert payload["certificate"]["invariant"] is True


def test_certify_rejects_bad_progressions(swap_file, capsys):
    assert main(["certify", str(swap_file), "--a", "0", "--b", "0"]) == 1
    assert "input error" in capsys.readouterr().err
    assert main(["certify", str(swap_file), "--a", "2", "--b", "-1"]) == 1
    assert "input error" in capsys.readouterr().err


def test_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 1
    assert "input error" in capsys.readouterr().err


def test_invalid_json_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["run", str(bad)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_schema_violation(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"field": "QQ"}), encoding="utf-8")
    assert main(["run", str(doc)]) == 1
    assert "missing key" in capsys.readouterr().err


def test_usage_errors(swap_file, capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err
    assert main(["frobnicate", str(swap_file)]) == 1
    assert main(["certify", str(swap_file), "--a", "2"]) == 1


def test_stage_failure_exit_code(swap_file, capsys, monkeypatch):
    def explode(spec):
        raise StageError("return-set stage: boom")

    monkeypatch.setattr("dmlab.cli.run_experiment", explode)
    assert main(["run", str(swap_file)]) == 2
    assert "internal error" in capsys.readouterr().err


def test_unexpected_failure_exit_code(swap_file, capsys, monkeypatch):
    def explode(spec):
        raise RuntimeError("boom")

    monkeypatch.setattr("dmlab.cli.run_experiment", explode)
    assert main(["run", str(swap_file)]) == 2
    assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, patched, stage",
    [
        (["density"], "return_set", "return-set stage"),
        (["certify", "--a", "2", "--b", "0"], "closure_chain", "closure-certification stage"),
    ],
)
def test_report_commands_name_the_failed_stage(
    swap_file, capsys, monkeypatch, args, patched, stage
):
    def explode(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(f"dmlab.experiment.{patched}", explode)
    assert main([args[0], str(swap_file), *args[1:]]) == 2
    err = capsys.readouterr().err
    assert "internal error" in err
    assert stage in err
