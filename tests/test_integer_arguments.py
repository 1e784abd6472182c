"""Every public count, index, modulus, degree and horizon is checked by one
rule: an int that is not a bool, at least a minimum, with the texts the
analysis settings use ("<name> must be an integer", "<name> must be at
least <k>")."""

import json
import pickle

import pytest

from dmlab import (
    Field,
    FieldKind,
    MonomialOrder,
    Morphism,
    MultiPoly,
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
    ("density_profile", lambda v: density_profile(RETURNS, (3, v)), "window_lengths entry", 1),
    ("window_density_max", lambda v: window_density_max(RETURNS, v), "window_lengths entry", 1),
    ("certify_invariant", lambda v: certify_invariant(BASIS, PHI, v), "modulus", 1),
    ("orbit_prefix", lambda v: orbit_prefix(PHI, START, v), "n", 0),
    ("OrbitCache.index", lambda v: OrbitCache(PHI, START).index(v), "n", 0),
    ("OrbitCache.point", lambda v: OrbitCache(PHI, START).point(v), "n", 0),
    ("ReturnSet", lambda v: ReturnSet(v, ()), "horizon", 0),
    ("return_set", lambda v: return_set(PHI, START, BASIS, v), "horizon", 1),
    ("vanishing_ideal", lambda v: vanishing_ideal([START], ORDER, v), "degree cap", 0),
    ("MultiPoly.__pow__", lambda v: POLY**v, "exponent", 0),
    ("MultiPoly.from_terms", lambda v: MultiPoly.from_terms(QQ, 2, [((1, v), QQ.one())]), "exponent", 0),
    ("MultiPoly.variable", lambda v: MultiPoly.variable(QQ, 2, v), "variable index", 0),
    ("MonomialOrder", lambda v: MonomialOrder("lex", (1, v)), "priority entry", 0),
    ("MonomialOrder.grevlex", lambda v: MonomialOrder.grevlex(2, [v, 0]), "priority entry", 0),
    ("MonomialOrder.lex count", lambda v: MonomialOrder.lex(v, (0, 1)), "variable count", 0),
    ("MonomialOrder.grevlex count", lambda v: MonomialOrder.grevlex(v), "variable count", 0),
    ("MultiPoly.zero", lambda v: MultiPoly.zero(QQ, v), "variable count", 0),
    ("MultiPoly.constant", lambda v: MultiPoly.constant(QQ, v, QQ.one()), "variable count", 0),
    ("MultiPoly.from_int", lambda v: MultiPoly.from_int(QQ, v, 3), "variable count", 0),
    ("MultiPoly.variable count", lambda v: MultiPoly.variable(QQ, v, 0), "variable count", 0),
    ("MultiPoly.from_terms count", lambda v: MultiPoly.from_terms(QQ, v, []), "variable count", 0),
    ("Field.prime", Field.prime, "characteristic", 0),
    ("Field.rational_functions", Field.rational_functions, "characteristic", 0),
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
    assert str(exc.value) == "window_lengths entries must not exceed N"


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


def test_a_negative_exponent_is_refused_before_evaluation():
    # x^-1 over GF(2)(t) once built, and evaluating it never returned.
    field = Field.rational_functions(2)
    with pytest.raises(ValueError) as exc:
        MultiPoly.from_terms(field, 1, [((-1,), field.one())])
    assert str(exc.value) == "exponent must be at least 0"


@pytest.mark.parametrize("make", [MonomialOrder.lex, MonomialOrder.grevlex])
@pytest.mark.parametrize(
    "num_vars, priority, text",
    [
        (3, [1, 0], "order must be on 3 variables"),
        (1, (1, 0), "order must be on 1 variables"),
        # An empty priority is a priority, not a request for the default one.
        (2, [], "monomial orders need at least one variable"),
    ],
    ids=["fewer", "more", "empty"],
)
def test_an_order_has_as_many_priority_entries_as_variables(make, num_vars, priority, text):
    with pytest.raises(ValueError) as exc:
        make(num_vars, priority)
    assert str(exc.value) == text


def test_a_priority_list_is_stored_as_a_tuple():
    order = MonomialOrder("lex", [1, 0])
    assert order.priority == (1, 0)
    assert order == MonomialOrder("lex", (1, 0))
    assert hash(order) == hash(MonomialOrder("lex", (1, 0)))


@pytest.mark.parametrize("make", [MonomialOrder.lex, MonomialOrder.grevlex])
def test_an_order_survives_pickling(make):
    # The grevlex key is a closure, so an order pickles as its kind and priority.
    order = make(3, (2, 0, 1))
    copy = pickle.loads(pickle.dumps(order))
    assert copy == order
    monos = [(1, 0, 2), (0, 3, 0), (2, 1, 0), (0, 0, 3)]
    assert sorted(monos, key=copy.key) == sorted(monos, key=order.key)


# (kind, characteristic, exact ValueError text): the constructor applies the
# rule that Field.prime, Field.rational_functions and Field.from_label share,
# and refuses a kind that is not a FieldKind.
PRIME_TEXT = "characteristic must be a prime below 2**31, got {}"
CHARACTERISTIC_ROWS = [
    (FieldKind.PRIME, 4, PRIME_TEXT.format(4)),
    (FieldKind.RATIONALS, 5, "QQ has characteristic 0, got 5"),
    (FieldKind.RATIONAL_FUNCTIONS, 9, PRIME_TEXT.format(9)),
    (FieldKind.PRIME, 2**31 + 11, PRIME_TEXT.format(2**31 + 11)),
    (FieldKind.PRIME, 7.0, "characteristic must be an integer"),
    (FieldKind.RATIONALS, 0.0, "characteristic must be an integer"),
    ("prime", 7, "unknown field kind 'prime'"),
    (None, 0, "unknown field kind None"),
]


@pytest.mark.parametrize("kind, characteristic, text", CHARACTERISTIC_ROWS)
def test_each_field_constructor_checks_its_characteristic(kind, characteristic, text):
    with pytest.raises(ValueError) as exc:
        Field(kind, characteristic)
    assert str(exc.value) == text
