"""Every public count, index, modulus, degree and horizon is checked by one
rule: an int that is not a bool, at least a minimum, with the texts the
analysis settings use ("<name> must be an integer", "<name> must be at
least <k>")."""

import json

import pytest

from dmlab import (
    Field,
    MonomialOrder,
    Morphism,
    OrbitCache,
    Progression,
    ReturnSet,
    SchemaError,
    StageError,
    buchberger,
    ceil_sqrt,
    certify_invariant,
    default_window_schedule,
    density_profile,
    experiment_from_dict,
    orbit_prefix,
    parse_polynomial,
    return_set,
    vanishing_ideal,
    window_density_max,
)
from dmlab.cli import main
from dmlab.experiment import certify_report

QQ = Field.rationals()
XY = ("x", "y")
ORDER = MonomialOrder.grevlex(2)
PHI = Morphism([parse_polynomial(s, XY, QQ) for s in ("y", "x")])
START = (QQ.from_int(1), QQ.from_int(2))
BASIS = buchberger([parse_polynomial(s, XY, QQ) for s in ("x-1", "y-2")], ORDER)
POLY = parse_polynomial("x+y", XY, QQ)
RETURNS = ReturnSet(10, (0, 2, 4))
DOC = {"field": "QQ", "vars": ["x", "y"], "phi": ["y", "x"], "alpha": ["1", "2"],
       "V": ["x-1"], "N": 20}

# (site, one-argument call, argument name, minimum)
SITES = [
    ("Progression modulus", lambda v: Progression(v, 0), "modulus", 1),
    ("Progression offset", lambda v: Progression(2, v), "offset", 0),
    ("Progression.count_below", lambda v: Progression(2, 0).count_below(v), "horizon", 0),
    ("Progression.members_below", lambda v: Progression(2, 0).members_below(v), "horizon", 0),
    ("ceil_sqrt", ceil_sqrt, "n", 0),
    ("default_window_schedule", default_window_schedule, "N", 1),
    ("density_profile", lambda v: density_profile(RETURNS, (3, v)), "window length", 1),
    ("window_density_max", lambda v: window_density_max(RETURNS, v), "window length", 1),
    ("certify_invariant", lambda v: certify_invariant(BASIS, PHI, v), "modulus", 1),
    ("orbit_prefix", lambda v: orbit_prefix(PHI, START, v), "n", 0),
    ("OrbitCache.index", lambda v: OrbitCache(PHI, START).index(v), "n", 0),
    ("OrbitCache.point", lambda v: OrbitCache(PHI, START).point(v), "n", 0),
    ("ReturnSet", lambda v: ReturnSet(v, ()), "horizon", 0),
    ("return_set", lambda v: return_set(PHI, START, BASIS, v), "horizon", 1),
    ("vanishing_ideal", lambda v: vanishing_ideal([START], ORDER, v), "degree cap", 0),
    ("MultiPoly.__pow__", lambda v: POLY**v, "exponent", 0),
    (
        "certify_report modulus",
        lambda v: certify_report(experiment_from_dict(DOC), v, 0),
        "modulus",
        1,
    ),
    (
        "certify_report offset",
        lambda v: certify_report(experiment_from_dict(DOC), 2, v),
        "offset",
        0,
    ),
]

# (site, call, bad argument, exact text): True, a float, a string and the
# value one below the minimum for every site.
ROWS = [
    pytest.param(call, bad, text, id=f"{site}-{bad!r}")
    for site, call, name, minimum in SITES
    for bad, text in (
        (True, f"{name} must be an integer"),
        (minimum + 1.5, f"{name} must be an integer"),
        (str(minimum), f"{name} must be an integer"),
        (minimum - 1, f"{name} must be at least {minimum}"),
    )
]


@pytest.mark.parametrize("call, bad, text", ROWS)
def test_each_integer_argument_has_the_settings_texts(call, bad, text):
    with pytest.raises(ValueError) as exc:
        call(bad)
    assert str(exc.value) == text


@pytest.mark.parametrize("call", [lambda: density_profile(RETURNS, (3, 11)),
                                  lambda: window_density_max(RETURNS, 11)])
def test_window_lengths_stop_at_the_horizon(call):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == "window length must not exceed N"


def test_certify_report_rejects_its_frame_as_input():
    spec = experiment_from_dict(DOC)
    for modulus, offset in ((0, 0), (2, -1)):
        with pytest.raises(SchemaError) as exc:
            certify_report(spec, modulus, offset)
        assert not isinstance(exc.value, StageError)


def test_density_profile_accepts_a_generator_of_lengths():
    profile = density_profile(RETURNS, (length for length in (5, 2, 5)))
    assert profile == density_profile(RETURNS, [2, 5])
    assert [length for length, _ in profile.entries] == [2, 5]


def test_certify_command_names_the_frame_argument(tmp_path, capsys):
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(DOC), encoding="utf-8")
    assert main(["certify", str(path), "--a", "0", "--b", "0"]) == 1
    assert capsys.readouterr().err == "input error: modulus must be at least 1\n"
    assert main(["certify", str(path), "--a", "2", "--b", "-1"]) == 1
    assert capsys.readouterr().err == "input error: offset must be at least 0\n"
