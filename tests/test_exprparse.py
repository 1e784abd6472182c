import random
import re

import pytest

from dmlab import Field, MultiPoly, parse_polynomial
from dmlab.exprparse import MAX_EXPONENT, MAX_NESTING, ExprSyntaxError, _tokenize

QQ = Field.rationals()
F7 = Field.prime(7)
F2T = Field.rational_functions(2)
F3T = Field.rational_functions(3)
XY = ("x", "y")


def err(source, var_names=XY, field=QQ):
    with pytest.raises(ExprSyntaxError) as exc:
        parse_polynomial(source, var_names, field)
    return exc.value


def test_basic_forms():
    x = MultiPoly.variable(QQ, 2, 0)
    y = MultiPoly.variable(QQ, 2, 1)
    assert parse_polynomial("x", XY, QQ) == x
    assert parse_polynomial("x + y", XY, QQ) == x + y
    assert parse_polynomial("7", XY, QQ) == MultiPoly.from_int(QQ, 2, 7)
    assert parse_polynomial("0", XY, QQ).is_zero()
    assert parse_polynomial("-5", XY, QQ) == MultiPoly.from_int(QQ, 2, -5)


def test_precedence_and_grouping():
    x, y, z = (MultiPoly.variable(QQ, 3, i) for i in range(3))
    names = ("x", "y", "z")
    assert parse_polynomial("x+y*z", names, QQ) == x + y * z
    assert parse_polynomial("(x+y)*z", names, QQ) == (x + y) * z
    assert parse_polynomial("x - y - z", names, QQ) == x - y - z
    assert parse_polynomial("x*y^2", names, QQ) == x * y * y
    two = MultiPoly.from_int(QQ, 3, 2)
    assert parse_polynomial("(x+y)^2", names, QQ) == x * x + two * x * y + y * y


def test_unary_minus_binds_the_whole_factor():
    x = MultiPoly.variable(QQ, 2, 0)
    assert parse_polynomial("-x^2", XY, QQ) == -(x * x)
    assert parse_polynomial("x - -y", XY, QQ) == parse_polynomial("x + y", XY, QQ)


def test_generator_constant_over_rational_functions():
    poly = parse_polynomial("(1-t)*y", XY, F2T)
    assert poly.render(XY) == "(t + 1)*y"
    t = F2T.t()
    y = MultiPoly.variable(F2T, 2, 1)
    assert poly == MultiPoly.constant(F2T, 2, F2T.one() - t) * y


def test_whitespace_is_insignificant():
    tight = parse_polynomial("x+2*y", XY, QQ)
    assert parse_polynomial("  x +  2 * y ", XY, QQ) == tight
    assert parse_polynomial("\tx\n+ 2*y", XY, QQ) == tight


def test_juxtaposition_is_an_error():
    e = err("2 x")
    assert e.position == 2
    assert "unexpected token" in e.detail


def test_dangling_operator():
    e = err("x + * y")
    assert e.position == 4
    assert "unexpected token" in e.detail


def test_unknown_identifier():
    e = err("x + z")
    assert e.position == 4
    assert "unknown identifier 'z'" == e.detail


def test_generator_name_needs_the_right_field():
    e = err("t", var_names=("x",), field=QQ)
    assert e.detail == "unknown identifier 't'"
    assert e.position == 0
    assert not parse_polynomial("t", ("x",), F2T).is_zero()


def test_exponent_limits():
    big = parse_polynomial(f"x^{MAX_EXPONENT}", ("x",), QQ)
    assert big.total_degree() == MAX_EXPONENT
    e = err(f"x^{MAX_EXPONENT + 1}", var_names=("x",))
    assert e.detail == "exponent overflow"
    assert e.position == 2


def test_literals_past_the_digit_limit_are_syntax_errors(over_digit_limit):
    digits = over_digit_limit
    e = err(f"x+{digits}", var_names=("x",))
    assert e.detail == "integer literal too long"
    assert e.position == 2
    e = err(f"x^{digits}", var_names=("x",))
    assert e.detail == "exponent overflow"
    assert e.position == 2


def test_nesting_limit():
    x = MultiPoly.variable(QQ, 1, 0)
    deep = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_polynomial(deep, ("x",), QQ) == x
    e = err("(" + deep + ")", var_names=("x",))
    assert e.detail == "parentheses nested too deeply"
    assert e.position == MAX_NESTING  # the offending '('
    # depth is nesting, not the count of parentheses
    flat = "+".join(["(x)"] * (MAX_NESTING + 1))
    assert parse_polynomial(flat, ("x",), QQ) == MultiPoly.from_int(QQ, 1, MAX_NESTING + 1) * x


def test_exponent_must_be_an_integer_literal():
    e = err("x^-2")
    assert e.detail == "expected an integer exponent"
    assert e.position == 2
    e = err("x^y")
    assert e.detail == "expected an integer exponent"


def test_empty_and_truncated_sources():
    e = err("")
    assert e.detail == "unexpected end of input"
    assert e.position == 0
    e = err("x*")
    assert e.detail == "unexpected end of input"
    assert e.position == 2
    e = err("(x+1")
    assert e.detail == "expected ')'"
    assert e.position == 4


def test_double_minus_is_an_error():
    e = err("--x")
    assert e.position == 1


def test_unexpected_character():
    e = err("x$y")
    assert e.detail == "unexpected character '$'"
    assert e.position == 1


def test_numbers_are_ascii_digits_only():
    # Arabic-Indic two and three are Unicode digits but not numbers here.
    e = err("x^\u0662 + \u0663", ("x",), F7)
    assert e.detail == "unexpected character '\u0662'"
    assert e.position == 2
    assert err("\u0663*x", ("x",), F7).position == 0


def test_error_message_carries_offset():
    e = err("x + z")
    assert str(e) == "unknown identifier 'z' (offset 4)"


def test_variable_name_validation():
    with pytest.raises(ValueError):
        parse_polynomial("x", (), QQ)
    with pytest.raises(ValueError):
        parse_polynomial("x", ("x", "x"), QQ)


@pytest.mark.parametrize(
    "names, text",
    [
        ((), "vars must be nonempty"),
        (("x", "2x"), "variable name '2x' is not an identifier"),
        (("x", "x\n"), "variable name 'x\\n' is not an identifier"),
        (("x", ""), "variable name '' is not an identifier"),
        (("x", "y", "x"), "variable names must be distinct"),
    ],
)
def test_variable_names_have_the_experiment_file_texts(names, text):
    # Names the tokenizer could never read are refused up front.
    with pytest.raises(ValueError) as exc:
        parse_polynomial("1", names, QQ)
    assert type(exc.value) is ValueError
    assert str(exc.value) == text


_REF_TOKEN_RE = re.compile(r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<number>[0-9]+)|(?P<op>[-+*^()])")
_REF_SPACE_RE = re.compile(r"\s*")


def _reference_tokenize(source):
    # The tokenizer as a position loop over a token and a whitespace pattern.
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        pos = _REF_SPACE_RE.match(source, pos).end()
        if pos >= n:
            break
        m = _REF_TOKEN_RE.match(source, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {source[pos]!r}", pos)
        tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


def _outcome(tokenize, source):
    try:
        return tokenize(source)
    except ExprSyntaxError as exc:
        return str(exc)


def test_tokenizer_matches_the_position_loop():
    # Identifier, digit, operator, whitespace (ASCII and not), Unicode
    # digit and stray characters, in random strings of up to 12.
    alphabet = "xyt_Z09+-*^()" + " \t\n\r\x0b\x0c\x85\u00a0\u2028\u3000" + "\u0662\u00b2$.,/\u00e9\x00"
    rng = random.Random(0x70C3)
    for _ in range(20000):
        source = "".join(rng.choice(alphabet) for _ in range(rng.randrange(13)))
        assert _outcome(_tokenize, source) == _outcome(_reference_tokenize, source), repr(source)


def _random_poly(rng, field, num_vars, coeff):
    terms = {}
    for _ in range(rng.randrange(1, 6)):
        mono = tuple(rng.randrange(4) for _ in range(num_vars))
        value = coeff(rng)
        if not value.is_zero():
            terms[mono] = value
    return MultiPoly.from_terms(field, num_vars, terms.items())


def test_render_parse_round_trip():
    rng = random.Random(23)
    names = ("x", "y", "z")
    cases = [
        # integer coefficients only: rendered fractions have no grammar
        (QQ, lambda r: QQ.from_int(r.randrange(-9, 10))),
        (F7, lambda r: F7.from_int(r.randrange(7))),
        (F3T, lambda r: F3T.from_coefficients([r.randrange(3) for _ in range(3)])),
    ]
    for field, coeff in cases:
        for _ in range(60):
            poly = _random_poly(rng, field, 3, coeff)
            rendered = poly.render(names)
            assert parse_polynomial(rendered, names, field) == poly
