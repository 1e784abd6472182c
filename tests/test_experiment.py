import hashlib
import inspect
import json
import random
import re
from pathlib import Path

import pytest

from dmlab import (
    AnalysisParams,
    ExperimentError,
    Field,
    ReturnSet,
    SchemaError,
    Session,
    StageError,
    ceil_sqrt,
    default_window_schedule,
    detect_progressions,
    experiment_from_dict,
    load_experiment,
    parse_polynomial,
    run_experiment,
)
from dmlab.cli import main
from dmlab.experiment import ReportDocument, certify_report, density_report
from reference_diagnostics import reference_diagnostics


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
    # Arabic-Indic seven is a Unicode digit, not an ASCII one.
    rejects({**base_doc(), "field": "GF(\u0667)"}, "field must be")
    rejects({**base_doc(), "field": "GF(\u0667)(t)"}, "field must be")
    # A trailing newline is not part of a label.
    rejects({**base_doc(), "field": "GF(7)\n"}, "field must be")
    rejects({**base_doc(), "field": "GF(7)(t)\n"}, "field must be")
    rejects({**base_doc(), "field": "gf(7)"}, "field must be")
    rejects({**base_doc(), "field": "GF(7)(s)"}, "field must be")
    rejects({**base_doc(), "field": "GF(2147483648)"}, "must be a prime below 2**31")
    # Past the int digit limit the characteristic's digits fail to parse.
    rejects({**base_doc(), "field": f"GF({'1' * 5000})"}, "")


def test_variable_checks():
    rejects({**base_doc(), "vars": ["x", "t"], }, "reserved identifier 't'")
    rejects({**base_doc(), "vars": ["x", "x"], }, "must be distinct")
    rejects({**base_doc(), "vars": ["2x", "y"], }, "not an identifier")
    rejects({**base_doc(), "vars": ["x\n", "y"], }, "not an identifier")
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


# One bad analysis setting per row, at N = 20, with the parser's full text.
BAD_ANALYSIS = [
    ({"a_max": 0}, "a_max must be at least 1"),
    ({"a_max": True}, "a_max must be an integer"),
    ({"a_max": 2.0}, "a_max must be an integer"),
    ({"m_min": 1}, "m_min must be at least 2"),
    ({"m_min": "5"}, "m_min must be an integer"),
    ({"m_min": False}, "m_min must be an integer"),
    ({"tail_start": -1}, "tail_start must be at least 0"),
    ({"tail_start": 20}, "tail_start must be below N"),
    ({"tail_start": 25}, "tail_start must be below N"),
    ({"tail_start": 2.0}, "tail_start must be an integer"),
    ({"degree_cap": 0}, "degree_cap must be at least 1"),
    # A Session once took these three: a float cap or budget reached the
    # sampling loop, and a bool depth counted as 1.
    ({"degree_cap": 1.5}, "degree_cap must be an integer"),
    ({"sample_budget": 10.5}, "sample_budget must be an integer"),
    ({"depth_limit": True}, "depth_limit must be an integer"),
    ({"degree_cap": True}, "degree_cap must be an integer"),
    ({"initial_samples": 1}, "initial_samples must be at least 2"),
    ({"initial_samples": 4.0}, "initial_samples must be an integer"),
    ({"sample_budget": 3}, "sample_budget must be at least 4"),
    ({"initial_samples": 2, "sample_budget": 1}, "sample_budget must be at least 2"),
    ({"depth_limit": -1}, "depth_limit must be at least 0"),
    ({"depth_limit": None}, "depth_limit must be an integer"),
    ({"window_lengths": []}, "window_lengths must be a nonempty list of integers"),
    ({"window_lengths": 5}, "window_lengths must be a nonempty list of integers"),
    ({"window_lengths": "3"}, "window_lengths must be a nonempty list of integers"),
    ({"window_lengths": [0]}, "window_lengths entry must be at least 1"),
    ({"window_lengths": [3, 21]}, "window_lengths entries must not exceed N"),
    ({"window_lengths": [3, True]}, "window_lengths entry must be an integer"),
    ({"window_lengths": [3.0]}, "window_lengths entry must be an integer"),
    # Two bad settings: the first in field order is the one named.
    ({"depth_limit": -1, "m_min": 1}, "m_min must be at least 2"),
    ({"window_lengths": [0], "a_max": 0}, "a_max must be at least 1"),
    ({"sample_budget": 1, "tail_start": 20}, "tail_start must be below N"),
    ({"sample_budget": 1, "initial_samples": "4"}, "initial_samples must be an integer"),
]


@pytest.mark.parametrize("analysis, message", BAD_ANALYSIS)
def test_each_bad_analysis_setting_has_one_text(analysis, message):
    with pytest.raises(SchemaError) as exc:
        experiment_from_dict({**base_doc(), "analysis": analysis})
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"analysis": {"a_max": None}}, "a_max must be an integer"),
        ({"N": 0}, "N must be at least 1"),
        ({"N": True}, "N must be an integer"),
        ({"N": "5"}, "N must be an integer"),
        # N is checked before the expressions and the analysis settings.
        ({"N": 0, "phi": ["y", "x++"], "analysis": {"m_min": 1}}, "N must be at least 1"),
    ],
)
def test_parser_only_texts(doc, message):
    with pytest.raises(SchemaError) as exc:
        experiment_from_dict({**base_doc(), **doc})
    assert str(exc.value) == message


def test_null_window_lengths_resolve_from_n():
    spec = experiment_from_dict({**base_doc(), "analysis": {"window_lengths": None}})
    assert spec.analysis.window_lengths == default_window_schedule(20) == (3, 5, 10, 20)
    edge = {"tail_start": 19, "window_lengths": [20], "initial_samples": 2, "sample_budget": 2}
    spec = experiment_from_dict({**base_doc(), "analysis": edge})
    assert spec.analysis == AnalysisParams(5, 5, 19, 4, 2, 2, 3, (20,))


@pytest.mark.parametrize("analysis, message", BAD_ANALYSIS)
def test_file_and_session_reject_a_setting_with_one_text(analysis, message):
    spec = experiment_from_dict(base_doc())
    with pytest.raises(ValueError) as exc:
        Session(spec.phi, spec.start, spec.horizon, AnalysisParams(**analysis))
    assert str(exc.value) == message


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


def test_every_analysis_default_lives_on_the_record():
    defaults = AnalysisParams()
    spec = experiment_from_dict(base_doc())
    assert Session(spec.phi, spec.start, spec.horizon).analysis == defaults
    assert spec.analysis == defaults._replace(
        a_max=ceil_sqrt(spec.horizon), window_lengths=default_window_schedule(spec.horizon)
    )
    params = inspect.signature(detect_progressions).parameters
    assert params["m_min"].default == defaults.m_min
    assert params["tail_start"].default == defaults.tail_start
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = dict(re.findall(r"^\| `(\w+)` +\| `(\d+)` +\|", readme, re.MULTILINE))
    constant = (
        "m_min", "tail_start", "degree_cap", "initial_samples", "sample_budget", "depth_limit"
    )
    assert table == {key: str(getattr(defaults, key)) for key in constant}


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


# digits, rationals, non-ASCII (one outside the BMP), control characters, quote, backslash
TEXTS = [
    "", "0", "17/4", "x^2+y", "caf\u00e9", "\u2603", "\U0001f600", "\u2028",
    "\x00", "\x1f", "\x7f", "\n\t\r\b\f", '"', "\\", 'a"b\\c',
]


def random_payload(rng, depth):
    roll = rng.random()
    if depth >= 5 or roll < 0.3:
        return rng.choice([*TEXTS, True, False, None])
    if roll < 0.45:
        return rng.choice([{}, []])
    if roll < 0.6:
        return [rng.choice(TEXTS) for _ in range(rng.randint(1, 6))]
    if roll < 0.8:
        return [random_payload(rng, depth + 1) for _ in range(rng.randint(1, 4))]
    return {rng.choice(TEXTS): random_payload(rng, depth + 1) for _ in range(rng.randint(1, 4))}


def test_report_bytes_equal_indented_dumps():
    rng = random.Random(0x150)
    payloads = [random_payload(rng, 0) for _ in range(300)]
    empties = {}
    for _ in range(6):  # an empty dict and an empty list at every depth
        empties = {"dict": {}, "list": [], "dicts": [empties, {"k": "v"}], "texts": ["a", "b"]}
    payloads.append(empties)
    spec = experiment_from_dict(base_doc())
    for report in (run_experiment(spec), density_report(spec), certify_report(spec, 2, 0)):
        payloads.append(report.payload)
    for payload in payloads:
        assert ReportDocument(payload).to_json() == json.dumps(payload, indent=2) + "\n"


def _wrap(tree, depth):
    # ``tree`` nested ``depth`` levels deep, alternating dicts and lists
    for level in range(depth):
        tree = {"count": "2", "indices": tree} if level % 2 else ["x", tree, None]
    return tree


@pytest.mark.parametrize("horizon", [0, 1, 999, 1000, 1001, 2000, 100_001, 101_001])
def test_index_lists_render_as_indented_dumps(horizon):
    # Gap-free blocks render from a template, the rest by a join: every
    # index, every index but one inner index per block, and sparse sets
    # cover both, at block numbers of one to three digits.
    rng = random.Random(horizon)
    holes = {start + rng.randrange(1, 999) for start in range(0, horizon, 1000)}
    member_sets = [
        [],
        [999],
        [1000],
        [n for n in range(horizon) if rng.random() < 0.01],
        [n for n in range(horizon) if rng.getrandbits(1)],
        range(horizon),
        [n for n in range(horizon) if n not in holes],
    ]
    for members in member_sets:
        members = [n for n in members if n < horizon]
        rs = ReturnSet(horizon, members)
        texts = [str(n) for n in sorted(members)]
        for depth in range(4):
            doc = ReportDocument(_wrap(rs, depth))
            assert doc.payload == _wrap(texts, depth)
            assert doc.to_json() == json.dumps(doc.payload, indent=2) + "\n"


def test_low_digits_are_the_zero_padded_triples():
    from dmlab.experiment import _low_digits

    assert _low_digits() == tuple(f"{i:03d}" for i in range(1000))


def test_run_renders_index_lists_without_iterating_members(monkeypatch, tmp_path):
    # cycle-gf101's map: the whole cycle lies on V, so almost every index returns
    doc = {
        "field": "GF(101)",
        "vars": ["x", "y"],
        "phi": ["x^2+y", "x*y+1"],
        "alpha": ["87", "93"],
        "V": ["y+5*x-25"],
        "N": 3000,
        "analysis": {"tail_start": 78},
    }
    spec = experiment_from_dict(doc)
    expected = run_experiment(spec).to_json()

    def refuse(self):
        raise AssertionError("a ReturnSet was iterated member by member")

    parsed = []
    decode = json.JSONDecoder.decode

    def record_decode(self, text, *rest):
        parsed.append(text)
        return decode(self, text, *rest)

    monkeypatch.setattr(ReturnSet, "__iter__", refuse)
    monkeypatch.setattr(json.JSONDecoder, "decode", record_decode)
    report = run_experiment(spec)
    assert report.to_json() == expected
    assert len(report.returns) > 2900
    density_report(spec).to_json()
    assert parsed == []
    # the plain payload is parsed back from the text on its first read
    assert report.payload["return_set"]["count"] == str(len(report.returns))
    assert report.payload is report.payload
    assert parsed == [expected]
    # dml run parses its experiment file, never its own report
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    del parsed[:]
    assert main(["run", str(path), "--out", str(tmp_path / "report.json")]) == 0
    assert parsed == [path.read_text(encoding="utf-8")]


@pytest.mark.parametrize(
    "payload",
    [
        {"N": 20},
        {"ratio": 0.5},
        {"indices": ["1", 2]},
        {"entries": [{"window": "3", "max_ratio": 1.5}]},
        [float("nan")],
        {1: "one"},
        ("a", "b"),
    ],
)
def test_report_refuses_non_string_leaves(payload):
    # json.dumps would print these; a report renders every number as a string
    with pytest.raises(TypeError):
        ReportDocument(payload).to_json()


def test_csv_outputs():
    report = run_experiment(experiment_from_dict(base_doc()))
    returns = report.returns_csv().splitlines()
    assert returns[0] == "n,in_V"
    assert returns[1] == "0,1"
    assert returns[2] == "1,0"
    assert len(returns) == 21
    density = report.density_csv()
    assert density == "L,max_ratio\n3,2/3\n5,3/5\n10,1/2\n20,1/2\n"


def _loop_returns_csv(flags):
    lines = ["n,in_V"]
    for n, flag in enumerate(flags):
        lines.append(f"{n},{flag}")
    return "\n".join(lines) + "\n"


def test_returns_csv_bytes_equal_the_per_index_loop():
    rng = random.Random(0xC5F)
    flags = bytes(rng.getrandbits(1) for _ in range(100_000))
    report = ReportDocument({}, returns=ReturnSet.from_flags(flags))
    assert report.returns_csv() == _loop_returns_csv(flags)


def test_stage_error_names_the_stage():
    spec = experiment_from_dict(base_doc())
    alien = parse_polynomial("x-1", ("x", "y"), Field.prime(7))
    broken = spec._replace(target_generators=(alien,))
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


def test_sparse_return_set_at_a_million():
    # x -> x^2 + 1 from 0 over GF(10007) meets x = 5 once below 10^6, so
    # detection runs a_max = 1000 moduli over a one-member table.
    doc = {"field": "GF(10007)", "vars": ["x"], "phi": ["x^2+1"], "alpha": ["0"],
           "V": ["x-5"], "N": 10**6}
    report = run_experiment(experiment_from_dict(doc))
    assert len(report.returns) == 1
    assert report.payload["progressions"] == []
    assert sha256(report.to_json()) == (
        "bac64b80791d3397b5f4925229aa657c81f14fae3482cc824143db699eccc04b"
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

    def record(points, order, *rest):
        seen.append(tuple(points))
        return original(points, order, *rest)

    monkeypatch.setattr(dmlab.closures, "vanishing_ideal", record)
    run_experiment(experiment_from_dict(ROTATION))
    assert seen
    assert len(seen) == len(set(seen))


SUITE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "suite.json").read_text(
        encoding="utf-8"
    )
)
WORKLOADS = {w["name"]: w for w in SUITE["workloads"]}


def write_workload(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(WORKLOADS[name]["experiment"]), encoding="utf-8")
    return path


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_golden_suite_reports(name, tmp_path):
    out = tmp_path / "report.json"
    assert main(["run", str(write_workload(tmp_path, name)), "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == WORKLOADS[name]["report_sha256"]


@pytest.mark.parametrize("name, calls", [("rotation-qq", 4), ("pullback-gf101", 1)])
def test_each_certificate_is_computed_once_per_run(name, calls, monkeypatch):
    # The root certifies through experiment's binding and derived
    # instances through closures'; a (modulus, base offset) pair fixes
    # the certificate, so neither binding sees a pair twice.
    import dmlab.closures
    import dmlab.experiment

    seen = []
    for module in (dmlab.closures, dmlab.experiment):
        original = module.certify_invariant

        def record(basis, phi, modulus, original=original):
            seen.append((modulus, basis.generators))
            return original(basis, phi, modulus)

        monkeypatch.setattr(module, "certify_invariant", record)
    run_experiment(experiment_from_dict(WORKLOADS[name]["experiment"]))
    assert len(seen) == calls
    assert len(set(seen)) == calls


# One run of each suite workload: its payload-ring operations by name
# (those on GF(p)(t)'s packed polynomials as polys.<op>), and its calls to normal_form, vanishing_ideal, buchberger and
# certify_invariant.  The analysis is deterministic, so a count moves
# only when the run does different work.
COUNTED = ("normal_form", "vanishing_ideal", "buchberger", "certify_invariant")
OPERATION_COUNTS = {
    "tower-gf2t": (
        {"mul": 254, "polys.mul": 8544, "polys.add": 8800, "quotient": 3, "clear": 1,
         "primitive": 1},
        (0, 0, 1, 0),
    ),
    "rotation-qq": (
        {"add": 4820, "mul": 3370, "dmul": 1068, "pow": 487, "primitive": 332,
         "quotient": 263, "combine": 245, "clear": 139, "dadd": 78, "dneg": 47, "neg": 12},
        (84, 14, 20, 4),
    ),
    "cycle-gf101": (
        {"add": 362, "mul": 214, "pow": 87, "dmul": 52, "primitive": 28, "combine": 24,
         "quotient": 17, "clear": 8, "dadd": 2, "neg": 1, "dneg": 1},
        (5, 2, 3, 1),
    ),
    "pullback-gf101": (
        {"add": 316, "mul": 152, "pow": 84, "primitive": 40, "clear": 35, "quotient": 27,
         "dmul": 20, "combine": 12, "dadd": 8, "dneg": 8, "neg": 2},
        (16, 6, 8, 1),
    ),
}


@pytest.mark.parametrize("name", list(OPERATION_COUNTS))
def test_suite_operation_counts(name, monkeypatch):
    import sys

    import dmlab
    from conftest import CountingRing

    spec = experiment_from_dict(WORKLOADS[name]["experiment"])
    ring = CountingRing(spec.field._ring)
    monkeypatch.setattr(spec.field, "_ring", ring)
    calls = dict.fromkeys(COUNTED, 0)
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "dmlab"]
    for counted in COUNTED:
        original = getattr(dmlab, counted)

        def wrapper(*args, counted=counted, original=original):
            calls[counted] += 1
            return original(*args)

        for module in modules:
            for bound, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, bound, wrapper)
    run_experiment(spec)
    operations, functions = OPERATION_COUNTS[name]
    assert dict(ring.counts) == operations
    assert ring.calls == sum(operations.values())
    assert tuple(calls.values()) == functions


# (experiment, diagnostic count, report digest) of reports whose notes
# cover every code, at the top level and inside derived instances.
DIAGNOSTIC_REPORTS = [
    # The closure {x = 0} lies inside V, but its ideal differs from V's:
    # closure-in-target, which is a success and has no note.
    (
        {"field": "QQ", "vars": ["x", "y"], "phi": ["x", "y+1"],
         "alpha": ["0", "0"], "V": ["x*y"], "N": 40},
        0,
        "d412e6988e7a4f19dcd153c073f4f6703e7d90d6a15770dc43201219d43c0e74",
    ),
    # Every note comes from a derived instance whose depth ran out.
    (
        {"field": "GF(5)", "vars": ["x", "y"], "phi": ["x+y", "x*y+1"],
         "alpha": ["4", "3"], "V": ["y-x"], "N": 200,
         "analysis": {"depth_limit": 1}},
        26,
        "61f8147c91cfeffdbfbd21285f3e30eb0d52342ab27fee422eb16a5dad0776fe",
    ),
    # Certificates fail at the top level and inside a derived instance.
    (
        {"field": "GF(11)", "vars": ["x", "y"], "phi": ["y^2", "x"],
         "alpha": ["0", "1"], "V": ["y*(y-1)"], "N": 24,
         "analysis": {"initial_samples": 2, "sample_budget": 2, "degree_cap": 1}},
        5,
        "4767284ea81c6c82b8b501de4f6ee2f2391a41d23f742813978934c571faa924",
    ),
    # A chain whose closure dimension increases, with a failed
    # certificate, unstabilized closures and an unverified case.
    (
        {"field": "GF(7)", "vars": ["x", "y"], "phi": ["2*y^2", "5*y+2*x^2"],
         "alpha": ["6", "3"], "V": ["y"], "N": 40,
         "analysis": {"initial_samples": 2, "sample_budget": 4, "degree_cap": 1}},
        4,
        "4d08e48b5cd81ed52cf6dc729c121a067e66088b5479dc9b92fde9646a8c8d8b",
    ),
]


@pytest.mark.parametrize("doc, notes, digest", DIAGNOSTIC_REPORTS)
def test_golden_diagnostic_reports(doc, notes, digest, tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert len(json.loads(out.read_text(encoding="utf-8"))["diagnostics"]) == notes
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_golden_containment_report(tmp_path):
    # The swap-and-shift orbit alternates between the line x = y + 1, a
    # component of V with its own ideal, and x = y - 2, which misses V:
    # closure-in-target at offset 1, a dimension drop at offset 2, and no
    # spurious flag.
    doc = {"field": "QQ", "vars": ["x", "y"], "phi": ["y", "x+1"],
           "alpha": ["0", "2"], "V": ["(x-y)*(x-y-1)"], "N": 40}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["run", str(path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["diagnostics"] == []
    (progression,) = payload["progressions"]
    assert (progression["modulus"], progression["offset"]) == ("2", "1")
    assert [(o["offset"], o["case"]) for o in progression["case_split"]["offsets"]] == [
        ("1", "closure-in-target"),
        ("2", "dimension-drop"),
    ]
    digest = "4b02b24f03546b706c466e2acf5d267af60494ea574f510c3127a2db0375b503"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_notes_derive_from_closure_outcomes():
    from dmlab import (
        ClosureChain,
        ClosureEntry,
        MonomialOrder,
        PeriodicityCertificate,
        ReducedGroebnerBasis,
        Session,
        SubProgression,
        buchberger,
        certify_invariant,
        closure_chain,
        refine_case_split,
    )
    from dmlab.experiment import _progression_json

    QQ = Field.rationals()
    spec = experiment_from_dict(base_doc())
    order = MonomialOrder.grevlex(2)

    def basis(*sources):
        return buchberger([parse_polynomial(s, ("x", "y"), QQ) for s in sources], order)

    def progression(session, target, chain, invariant=None):
        fragment = refine_case_split(session, target, chain)
        certificate = certify_invariant(chain.entries[0].ideal, session.phi, chain.modulus)
        if invariant is not None:
            certificate = PeriodicityCertificate(chain.modulus, invariant, ())
        return SubProgression(chain.modulus, chain.entries[0].offset, chain, certificate, fragment)

    line = basis("x-1")
    # A hand-built chain whose dimension increases, with an unstabilized
    # closure at offset 1, and a failed certificate.
    hand_built = ClosureChain(2, 4, (
        ClosureEntry(0, basis("x-1", "y-2"), 0, 4, True),
        ClosureEntry(1, ReducedGroebnerBasis(order, (), 2, QQ), 2, 8, False),
    ))
    swap = Session(spec.phi, spec.start, 20)
    first = progression(swap, line, hand_built, invariant=False)
    # Both classes drop in dimension, but the depth is exhausted.
    shallow = Session(spec.phi, spec.start, 20, AnalysisParams(depth_limit=0))
    second = progression(shallow, line, closure_chain(shallow, 2, 1))
    # The closure {x = 0} lies inside V: x^2 = x, but has another ideal.
    shifted = experiment_from_dict({**base_doc(), "phi": ["x", "y+1"], "alpha": ["0", "0"]})
    shift = Session(shifted.phi, shifted.start, 30)
    third = progression(shift, basis("x^2-x"), closure_chain(shift, 1, 0))

    notes = []
    rendered = [
        _progression_json(p, {}, spec, notes, "")["case_split"] for p in (first, second, third)
    ]
    failed = "periodicity certificate failed"
    increase = "closure dimension increased along the chain"
    unstable = "closure sampling did not stabilize within the sample budget"
    unverified = (
        "equal dimensions but distinct ideals; irreducibility assumption unverified, "
        "keeping the empirical decomposition"
    )
    depth = "recursion depth exhausted; keeping the empirical decomposition"
    assert notes == [
        f"progression (2, 0): {failed}",
        f"progression (2, 0): {increase}",
        f"progression (2, 0): {unstable}",
        f"progression (2, 0): {unverified}",
        f"progression (2, 1): {depth}",
    ]
    assert notes == reference_diagnostics([first, second, third])
    assert [r["flags"] for r in rendered] == [
        [increase, unstable, unverified],
        [depth],
        [],
    ]
    assert [[o["flags"] for o in r["offsets"]] for r in rendered] == [
        [[], [unstable, unverified]],
        [[depth], [depth]],
        [[]],
    ]
    assert [[o["offset"] for o in r["offsets"]] for r in rendered] == [
        ["0", "1"],
        ["1", "2"],
        ["0"],
    ]


def _rendered_progressions(node) -> int:
    if isinstance(node, list):
        return sum(map(_rendered_progressions, node))
    if isinstance(node, dict):
        return ("case_split" in node) + sum(map(_rendered_progressions, node.values()))
    return 0


def _reference_walk_specs():
    from census import instance

    rng = random.Random(7)  # the instances of test_census
    census_docs = [instance(rng) for _ in range(28)]
    docs = [doc for doc, _, _ in DIAGNOSTIC_REPORTS] + [ROTATION] + census_docs
    return [experiment_from_dict(doc) for doc in docs]


def test_render_walk_diagnostics_match_the_reference_walk(monkeypatch):
    import dmlab.experiment

    roots, decided = [], []
    build, codes = dmlab.experiment._build_payload, dmlab.experiment._codes

    def record_root(spec, profile, root):
        roots.append(root)
        return build(spec, profile, root)

    def record_codes(p):
        decided.append(p)
        return codes(p)

    monkeypatch.setattr(dmlab.experiment, "_build_payload", record_root)
    monkeypatch.setattr(dmlab.experiment, "_codes", record_codes)
    notes = 0
    for spec in _reference_walk_specs():
        del decided[:]
        payload = run_experiment(spec).payload
        assert payload["diagnostics"] == reference_diagnostics(roots.pop().progressions)
        # one decision per rendered progression, derived ones included
        assert len(decided) == len(set(map(id, decided))) == _rendered_progressions(payload)
        notes += len(payload["diagnostics"])
    assert notes >= 36  # the golden diagnostic reports alone carry 36


@pytest.mark.parametrize(
    "a, b, invariant, digest",
    [
        # The line 5x + y = 25 through the 6-cycle is phi-invariant.
        ("5", "78", True, "aac218a1ea19fa301ab5e34842301b597a33d862138eaed6395883e392d20bf1"),
        # A degree-cap quartic through preperiodic points is not.
        ("3", "42", False, "769201ffd8f8ad6e3ecc14cc76b666b692b01d6275d760636bbfc11a33d87ec4"),
    ],
)
def test_golden_pullback_certificates(a, b, invariant, digest, tmp_path, capsys):
    path = write_workload(tmp_path, "pullback-gf101")
    assert main(["certify", str(path), "--a", a, "--b", b]) == 0
    out = capsys.readouterr().out
    certificate = json.loads(out)["certificate"]
    assert certificate["invariant"] is invariant
    assert bool(certificate["witnesses"]) is not invariant
    assert sha256(out) == digest


def test_subinstance_scan_tests_each_stored_point_once(monkeypatch):
    import dmlab.closures
    from dmlab import MultiPoly

    spec = experiment_from_dict(WORKLOADS["pullback-gf101"]["experiment"])
    calls = []
    active = []
    analyze = dmlab.closures._analyze_subinstance
    value = MultiPoly._value  # the payload evaluator under scan and evaluate

    def record_call(session, target, stride, offset, depth):
        active.append([])
        try:
            return analyze(session, target, stride, offset, depth)
        finally:
            calls.append(active.pop())

    def record_value(self, pt, powers):
        if active:
            active[-1].append((id(self), pt))
        return value(self, pt, powers)

    monkeypatch.setattr(dmlab.closures, "_analyze_subinstance", record_call)
    monkeypatch.setattr(MultiPoly, "_value", record_value)
    run_experiment(spec)
    # The orbit has preperiod 78 and period 6; a sub-instance scans
    # about 833 indices but may only test the 84 stored points, each
    # generator at each point once.
    assert calls
    assert min(map(len, calls)) >= 1
    assert max(map(len, calls)) <= 84
    assert all(len(set(tested)) == len(tested) for tested in calls)


def _derived_instances(node, out):
    if isinstance(node, dict):
        if node.get("derived"):
            out.append(node["derived"])
        for value in node.values():
            _derived_instances(value, out)
    elif isinstance(node, list):
        for value in node:
            _derived_instances(value, out)
    return out


def test_derived_instances_do_not_inherit_the_root_settings():
    # The root's a_max, tail_start and windows bound the run's own
    # search; each derived instance derives them from its own horizon.
    analysis = {"tail_start": 78, "a_max": 30, "window_lengths": [7, 100, 5000]}
    doc = {**WORKLOADS["pullback-gf101"]["experiment"], "analysis": analysis}
    report = run_experiment(experiment_from_dict(doc))
    assert sha256(report.to_json()) == (
        "2e5a0f67e0b2f383ea3e33660af6db667a22a826c8b64d2f4b6dbe8d956637b1"
    )
    root_windows = report.payload["decomposition"]["residual_profile"]["entries"]
    assert [e["window"] for e in root_windows] == ["7", "100", "5000"]
    derived = _derived_instances(report.payload["progressions"], [])
    assert len(derived) == 6
    for sub in derived:
        windows = [int(e["window"]) for e in sub["residual_profile"]["entries"]]
        assert windows == list(default_window_schedule(int(sub["horizon"])))


def test_derived_instances_never_call_the_root_bindings(monkeypatch):
    # perfbench/child.py times the root's stages through these bindings;
    # a derived instance calling one would nest its spans.
    import dmlab.experiment

    names = ("detect_progressions", "decompose_return_set", "closure_chain",
             "refine_case_split", "certify_invariant")
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(dmlab.experiment, name)

        def wrapper(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(dmlab.experiment, name, wrapper)
    run_experiment(experiment_from_dict(WORKLOADS["pullback-gf101"]["experiment"]))
    assert calls == dict.fromkeys(names, 1)


def test_derived_instance_failure_names_the_certification_stage(monkeypatch):
    # Only derived instances detect through closures' binding.
    import dmlab.closures

    def failing(*args):
        raise RuntimeError("detection failed")

    monkeypatch.setattr(dmlab.closures, "detect_progressions", failing)
    with pytest.raises(StageError) as exc:
        run_experiment(experiment_from_dict(WORKLOADS["pullback-gf101"]["experiment"]))
    assert str(exc.value) == "closure-certification stage: detection failed"
