import json
from pathlib import Path

import pytest

from dmlab import StageError
from dmlab.cli import _USAGE, main


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


@pytest.mark.parametrize(
    "old, new",
    [('"x-1"', '"x-{}"'), ('"phi": ["y", "x"]', '"phi": ["y", "x^{}"]'), ('"N": 20', '"N": {}')],
    ids=["literal", "exponent", "json-number"],
)
def test_integers_past_the_digit_limit_are_input_errors(
    old, new, swap_file, over_digit_limit, capsys
):
    text = swap_file.read_text(encoding="utf-8")
    assert old in text
    swap_file.write_text(text.replace(old, new.format(over_digit_limit)), encoding="utf-8")
    assert main(["run", str(swap_file)]) == 1
    assert "input error" in capsys.readouterr().err


def test_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"field": "Q\xffQ"}')
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "input error" in err and "not valid UTF-8" in err


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "deep.json"
    bad.write_text('{"field": "QQ", "vars": ' + "[" * 100000 + "]" * 100000 + "}")
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "input error" in err and "nested too deeply" in err


def test_schema_violation(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"field": "QQ"}), encoding="utf-8")
    assert main(["run", str(doc)]) == 1
    assert "missing key" in capsys.readouterr().err


def test_deeply_nested_expression_is_an_input_error(tmp_path, capsys):
    doc = {
        "field": "QQ",
        "vars": ["x"],
        "phi": ["(" * 1500 + "x" + ")" * 1500],
        "alpha": ["1"],
        "V": ["x-1"],
        "N": 5,
    }
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "input error" in err and "nested too deeply" in err


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


def test_option_with_equals_sign(swap_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["run", str(swap_file), f"--out={out}", "--format=json"]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text(encoding="utf-8"))["return_set"]["count"] == "10"


def test_options_before_the_file(swap_file, capsys):
    assert main(["certify", "--b", "0", "--a", "2", str(swap_file)]) == 0
    assert json.loads(capsys.readouterr().out)["certificate"]["invariant"] is True
    assert main(["run", "--format", "csv", str(swap_file)]) == 0
    assert capsys.readouterr().out.startswith("n,in_V\n")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["run", "--help"], ["certify", "-h"]])
def test_help_prints_the_usage_and_succeeds(argv, capsys):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == _USAGE and err == ""


def test_main_without_arguments_reads_sys_argv(swap_file, capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["dml", "density", str(swap_file)])
    assert main() == 0
    assert "density_profile" in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "args",
    [
        ["certify", "FILE", "--a", "x", "--b", "0"],
        ["certify", "FILE", "--a", "2", "--b=1.5"],
        ["density", "FILE", "--format", "csv"],
        ["run", "FILE", "--a", "2"],
        ["run", "FILE", "-o", "x"],
        ["run", "FILE", "--out", "a", "--out", "b"],
        ["run", "FILE", "--out"],
        ["run", "FILE", "--out", "--format", "csv"],
        ["run", "FILE", "FILE"],
        ["run", "--format", "csv"],
        ["run", "FILE", "--format", "xml"],
        ["run", "FILE", "--form", "csv"],
        ["certify", "FILE", "--b", "0"],
        ["Run", "FILE"],
    ],
    ids=lambda args: " ".join(args),
)
def test_malformed_command_lines_are_usage_errors(args, swap_file, tmp_path, capsys):
    argv = [str(swap_file) if arg == "FILE" else arg for arg in args]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error: ")
    assert list(tmp_path.iterdir()) == [swap_file]


def test_readme_usage_is_the_help_text():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    assert block == _USAGE
