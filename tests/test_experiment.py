import dataclasses
import hashlib
import json

import pytest

from dmlab import (
    AnalysisParams,
    ExperimentError,
    Field,
    MonomialOrder,
    SchemaError,
    StageError,
    experiment_from_dict,
    load_experiment,
    parse_polynomial,
    run_experiment,
)
from dmlab.cli import main


def base_doc():
    return {
        "field": "QQ",
        "vars": ["x", "y"],
        "phi": ["y", "x"],
        "alpha": ["1", "2"],
        "V": ["x-1"],
        "N": 20,
    }


def rejects(doc, fragment):
    with pytest.raises(SchemaError) as exc:
        experiment_from_dict(doc)
    assert fragment in str(exc.value)


def test_document_must_be_an_object():
    rejects([], "must be a JSON object")


def test_top_level_key_checks():
    doc = base_doc()
    del doc["V"]
    rejects(doc, "missing key 'V'")
    doc = base_doc()
    doc["bogus"] = 1
    rejects(doc, "unknown key 'bogus'")


def test_field_label_checks():
    rejects({**base_doc(), "field": "GF(seven)"}, "field must be")
    rejects({**base_doc(), "field": 7}, "field must be a string")
    rejects({**base_doc(), "field": "GF(4)"}, "must be a prime")


def test_variable_checks():
    rejects({**base_doc(), "vars": ["x", "t"], }, "reserved identifier 't'")
    rejects({**base_doc(), "vars": ["x", "x"], }, "must be distinct")
    rejects({**base_doc(), "vars": ["2x", "y"], }, "not an identifier")
    rejects({**base_doc(), "vars": []}, "vars must be nonempty")
    rejects({**base_doc(), "vars": "xy"}, "vars must be a list of strings")


def test_component_shape_checks():
    rejects({**base_doc(), "phi": ["y"]}, "one component per variable")
    rejects({**base_doc(), "alpha": ["1"]}, "one coordinate per variable")
    rejects({**base_doc(), "alpha": ["x", "2"]}, "alpha[0] must be a constant")
    rejects({**base_doc(), "V": []}, "V must be nonempty")


def test_horizon_checks():
    rejects({**base_doc(), "N": True}, "N must be an integer")
    rejects({**base_doc(), "N": 0}, "N must be at least 1")
    rejects({**base_doc(), "N": "20"}, "N must be an integer")


def test_parse_errors_carry_context():
    rejects({**base_doc(), "phi": ["y", "x++"]}, "phi[1]:")
    rejects({**base_doc(), "V": ["x +"]}, "V[0]:")


def test_analysis_checks():
    rejects({**base_doc(), "analysis": 5}, "analysis must be an object")
    rejects({**base_doc(), "analysis": {"bogus": 1}}, "unknown analysis key 'bogus'")
    rejects({**base_doc(), "analysis": {"tail_start": 20}}, "tail_start must be below N")
    rejects({**base_doc(), "analysis": {"m_min": 1}}, "m_min must be at least 2")
    rejects(
        {**base_doc(), "analysis": {"initial_samples": 4, "sample_budget": 2}},
        "sample_budget must be at least 4",
    )
    rejects({**base_doc(), "analysis": {"window_lengths": []}}, "window_lengths")
    rejects({**base_doc(), "analysis": {"window_lengths": [25]}}, "must not exceed N")
    rejects({**base_doc(), "analysis": {"window_lengths": [0]}}, "at least 1")


def test_error_hierarchy():
    assert issubclass(SchemaError, ExperimentError)
    assert issubclass(StageError, ExperimentError)
    assert issubclass(ExperimentError, ValueError)


def test_analysis_defaults():
    spec = experiment_from_dict(base_doc())
    assert spec.analysis == AnalysisParams(5, 5, 0, 4, 4, 64, 3, (3, 5, 10, 20))
    big = experiment_from_dict({**base_doc(), "N": 1100})
    assert big.analysis.a_max == 34
    assert big.analysis.window_lengths == (6, 34, 192, 1100)


def test_analysis_overrides():
    doc = {
        **base_doc(),
        "analysis": {
            "a_max": 3,
            "m_min": 2,
            "tail_start": 4,
            "degree_cap": 2,
            "initial_samples": 2,
            "sample_budget": 16,
            "depth_limit": 1,
            "window_lengths": [20, 3, 3, 7],
        },
    }
    spec = experiment_from_dict(doc)
    assert spec.analysis == AnalysisParams(3, 2, 4, 2, 2, 16, 1, (3, 7, 20))


def test_spec_carries_sources_and_order():
    spec = experiment_from_dict(base_doc())
    assert spec.field == Field.rationals()
    assert spec.field_source == "QQ"
    assert spec.var_names == ("x", "y")
    assert spec.phi_sources == ("y", "x")
    assert spec.alpha_sources == ("1", "2")
    assert spec.target_sources == ("x-1",)
    assert spec.horizon == 20
    assert spec.order == MonomialOrder.grevlex(2)
    assert spec.start == (Field.rationals().from_int(1), Field.rationals().from_int(2))


def test_swap_report_payload():
    report = run_experiment(experiment_from_dict(base_doc()))
    payload = report.payload
    assert list(payload) == [
        "experiment",
        "return_set",
        "density_profile",
        "progressions",
        "decomposition",
        "diagnostics",
    ]
    assert payload["return_set"] == {
        "horizon": "20",
        "count": "10",
        "indices": [str(n) for n in range(0, 20, 2)],
    }
    assert payload["density_profile"]["entries"][0] == {
        "window": "3",
        "max_ratio": "2/3",
    }

    (prog,) = payload["progressions"]
    assert (prog["modulus"], prog["offset"]) == ("2", "0")
    assert prog["members_below_horizon"] == "10"
    even, odd = prog["closure_chain"]["offsets"]
    assert even["ideal"] == ["x - 1", "y - 2"]
    assert odd["ideal"] == ["x - 2", "y - 1"]
    assert even["stabilized"] is True
    assert prog["closure_chain"]["dimension_nonincreasing"] is True
    assert prog["certificate"] == {"modulus": "2", "invariant": True, "witnesses": []}

    split = prog["case_split"]
    assert split["target_dimension"] == "1"
    assert split["flags"] == []
    case_even, case_odd = split["offsets"]
    assert case_even["case"] == "dimension-drop"
    derived = case_even["derived"]
    assert derived["return_count"] == "10"
    sub = derived["progressions"][0]
    assert (sub["modulus"], sub["offset"]) == ("1", "0")
    assert (sub["orbit_modulus"], sub["orbit_offset"]) == ("2", "0")
    assert sub["case_split"]["offsets"][0]["case"] == "closure-equals-target"
    assert case_odd["intersection_ideal"] == ["1"]
    assert case_odd["intersection_dimension"] == "-1"
    assert case_odd["derived"]["return_count"] == "0"

    dec = payload["decomposition"]
    assert dec["progressions"] == [{"modulus": "2", "offset": "0"}]
    assert dec["covered_count"] == "10"
    assert dec["residual_count"] == "0"
    assert all(e["max_ratio"] == "0" for e in dec["residual_profile"]["entries"])
    assert payload["diagnostics"] == []


def test_report_is_deterministic():
    first = run_experiment(experiment_from_dict(base_doc()))
    second = run_experiment(experiment_from_dict(base_doc()))
    assert first.to_json() == second.to_json()
    assert json.loads(first.to_json()) == first.payload


def leaves(node):
    if isinstance(node, dict):
        for v in node.values():
            yield from leaves(v)
    elif isinstance(node, list):
        for v in node:
            yield from leaves(v)
    else:
        yield node


def test_every_leaf_is_a_string_bool_or_null():
    # numbers never appear raw: exact values are rendered as strings
    report = run_experiment(experiment_from_dict(base_doc()))
    for leaf in leaves(report.payload):
        assert isinstance(leaf, (str, bool)) or leaf is None


def test_csv_outputs():
    report = run_experiment(experiment_from_dict(base_doc()))
    returns = report.returns_csv().splitlines()
    assert returns[0] == "n,in_V"
    assert returns[1] == "0,1"
    assert returns[2] == "1,0"
    assert len(returns) == 21
    density = report.density_csv()
    assert density == "L,max_ratio\n3,2/3\n5,3/5\n10,1/2\n20,1/2\n"


def test_stage_error_names_the_stage():
    spec = experiment_from_dict(base_doc())
    alien = parse_polynomial("x-1", ("x", "y"), Field.prime(7))
    broken = dataclasses.replace(spec, target_generators=(alien,))
    with pytest.raises(StageError) as exc:
        run_experiment(broken)
    assert "return-set stage" in str(exc.value)


def test_load_experiment_round_trip(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(base_doc()), encoding="utf-8")
    spec = load_experiment(path)
    assert spec.horizon == 20
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        load_experiment(bad)
    assert "not valid JSON" in str(exc.value)
    with pytest.raises(OSError):
        load_experiment(tmp_path / "missing.json")


# QQ shift of four coordinates against x = y: two top-level progressions
# whose case splits derive sub-instances that reach the same closures.
ROTATION = {
    "field": "QQ",
    "vars": ["x", "y", "z", "w"],
    "phi": ["y", "z", "w", "x+1"],
    "alpha": ["0", "0", "0", "0"],
    "V": ["x-y"],
    "N": 40,
    "analysis": {"sample_budget": 16},
}


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_rotation_report():
    report = run_experiment(experiment_from_dict(ROTATION))
    assert len(report.payload["progressions"]) == 2
    assert sha256(report.to_json()) == (
        "9acace523ac6ffd2cdc8e97225071a2b1b1b3dc0b9038f73ce13d53641f26c35"
    )


@pytest.mark.parametrize(
    "args, digest",
    [
        (["density"], "572bd95296cef987f651ea96c00337334d1569d50ed2de60167ac5481b0d0ca6"),
        (
            ["certify", "--a", "2", "--b", "0"],
            "ba77225df88bf2b942335e6eaab232bc2aa0e917abef2ec2764d4166a902f500",
        ),
    ],
)
def test_golden_cli_reports(args, digest, tmp_path, capsys):
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(base_doc()), encoding="utf-8")
    assert main([args[0], str(path), *args[1:]]) == 0
    assert sha256(capsys.readouterr().out) == digest


def test_each_closure_is_sampled_once_per_run(monkeypatch):
    import dmlab.closures

    seen = []
    original = dmlab.closures.vanishing_ideal

    def record(points, order):
        seen.append(tuple(points))
        return original(points, order)

    monkeypatch.setattr(dmlab.closures, "vanishing_ideal", record)
    run_experiment(experiment_from_dict(ROTATION))
    assert seen
    assert len(seen) == len(set(seen))
