"""Parser for polynomial expressions in experiment files.

Grammar (whitespace insignificant, offsets 0-based):

    expr   := term (("+" | "-") term)*
    term   := unary ("*" unary)*
    unary  := "-"? factor
    factor := base ("^" uint)?
    base   := identifier | integer | "(" expr ")"

Identifiers resolve against the declared variable names; over a
GF(p)(t) coefficient field the name ``t`` resolves to the constant
generator of the field.  Juxtaposition is never multiplication: ``2 x``
is a syntax error, products need ``*``.  Exponents are literal
non-negative integers with a hard cap, since astronomically large
exponents would make dense expansion meaningless at this scale.
Parentheses nest at most ``MAX_NESTING`` deep, which keeps the
recursive descent well inside the interpreter's stack.

Rendering (:meth:`~dmlab.multipoly.MultiPoly.render`) and parsing are
mutually inverse on parsed polynomials.  Rendered Groebner output over
QQ can carry fractional coefficients such as ``1/2`` which the grammar
has no division to read back; those strings are display-only.
"""

from __future__ import annotations

import re
from operator import add, mul, sub

from .fields import Field
from .multipoly import MultiPoly

__all__ = ["ExprSyntaxError", "parse_polynomial", "MAX_EXPONENT", "MAX_NESTING"]

MAX_EXPONENT = 2**20
MAX_NESTING = 100

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# Optional whitespace, then a token, the end, or a character no token starts with.
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<name>{_NAME_RE.pattern})|(?P<number>[0-9]+)|(?P<op>[-+*^()])"
    r"|(?P<end>\Z)|(?P<bad>.))"
)
_BINARY = {"+": add, "-": sub, "*": mul}


class ExprSyntaxError(ValueError):
    """Malformed polynomial expression; ``position`` is the 0-based offset."""

    def __init__(self, detail: str, position: int):
        super().__init__(f"{detail} (offset {position})")
        self.detail = detail
        self.position = position


def _tokenize(source: str):
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        pos = m.start(kind)
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {source[pos]!r}", pos)
        tokens.append((kind, m[kind], pos))
        if kind == "end":
            return tokens


def _require_names(names) -> tuple:
    """``names`` as a tuple, checked to be nonempty, identifiers and distinct."""
    names = tuple(names)
    if not names:
        raise ValueError("vars must be nonempty")
    for name in names:
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"variable name {name!r} is not an identifier")
    if len(set(names)) != len(names):
        raise ValueError("variable names must be distinct")
    return names


class _Parser:
    def __init__(self, source: str, var_names, field: Field):
        self.tokens = _tokenize(source)
        self.index = 0
        self.depth = 0  # open parentheses around the current token
        self.field = field
        self.num_vars = len(var_names)
        self.vars = {name: i for i, name in enumerate(var_names)}

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def parse(self) -> MultiPoly:
        poly = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {text!r}", pos)
        return poly

    def expr(self) -> MultiPoly:
        return self.chain(self.term, "+-")

    def term(self) -> MultiPoly:
        return self.chain(self.unary, "*")

    def chain(self, operand, ops: str) -> MultiPoly:
        # operand (op operand)*, left-associative, each op one of ops.
        poly = operand()
        while (token := self.peek())[0] == "op" and token[1] in ops:
            self.advance()
            poly = _BINARY[token[1]](poly, operand())
        return poly

    def unary(self) -> MultiPoly:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return -self.factor()
        return self.factor()

    def factor(self) -> MultiPoly:
        poly = self.base()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            ekind, etext, epos = self.peek()
            if ekind != "number":
                raise ExprSyntaxError("expected an integer exponent", epos)
            self.advance()
            try:
                exponent = int(etext)
            except ValueError:  # past the interpreter's digit limit
                exponent = MAX_EXPONENT + 1
            if exponent > MAX_EXPONENT:
                raise ExprSyntaxError("exponent overflow", epos)
            poly = poly**exponent
        return poly

    def base(self) -> MultiPoly:
        kind, text, pos = self.advance()
        if kind == "name":
            idx = self.vars.get(text)
            if idx is not None:
                return MultiPoly.variable(self.field, self.num_vars, idx)
            if text == "t" and self.field.has_generator:
                return MultiPoly.constant(self.field, self.num_vars, self.field.t())
            raise ExprSyntaxError(f"unknown identifier {text!r}", pos)
        if kind == "number":
            try:
                value = int(text)
            except ValueError:  # past the interpreter's digit limit
                raise ExprSyntaxError("integer literal too long", pos) from None
            return MultiPoly.from_int(self.field, self.num_vars, value)
        if kind == "op" and text == "(":
            if self.depth == MAX_NESTING:
                raise ExprSyntaxError("parentheses nested too deeply", pos)
            self.depth += 1
            poly = self.expr()
            ckind, ctext, cpos = self.peek()
            if ckind != "op" or ctext != ")":
                raise ExprSyntaxError("expected ')'", cpos)
            self.advance()
            self.depth -= 1
            return poly
        detail = "unexpected end of input" if kind == "end" else f"unexpected token {text!r}"
        raise ExprSyntaxError(detail, pos)


def parse_polynomial(source: str, var_names, field: Field) -> MultiPoly:
    """Parse an expression over the named variables into a MultiPoly."""
    return _Parser(source, _require_names(var_names), field).parse()
