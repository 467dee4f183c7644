"""Text formats for models (``.gcm``) and CTL properties (``.ctl``).

Model grammar::

    model   := const* var+ initc? command*
    const   := "const" IDENT "=" INT ";"
    var     := "var" IDENT ":" INT ".." INT "init" INT ";"
    initc   := "init" boolexpr ";"          (widens the initial-state set)
    command := "[" IDENT? "]" boolexpr "->" update ";"
    update  := "skip" | assign ("&" assign)*
    assign  := IDENT "'" "=" arithexpr

Identifiers are ASCII letters or ``_`` followed by letters, digits or
``_``; ``//`` comments run to end of line; INT literals may carry a sign
and must lie in the signed 64-bit range.
Expressions use ``+ - *``, the six comparators, ``& | !`` and parentheses;
``true`` and ``false`` are keywords.

Property grammar: atoms ``IDENT op INT``; ``!`` and the temporal operators
``EX EF EG AX AF AG`` bind tighter than ``&``, which binds tighter than
``|``; parentheses group.

Both printers emit canonical text, so ``parse(print(x))`` is structurally
``x``.  All functions here are pure and safe to call concurrently.

The lexer records each token's position as a character offset into the
text; the line and column of a :class:`ParseError` are computed from that
offset only when the error is raised.
"""

from __future__ import annotations

import re
import sys
from typing import NamedTuple

from . import ctl
from .errors import EvalError, ParseError, line_col
from .expr import (
    BIN_PREC,
    CMP_OPS,
    INT_MAX,
    INT_MIN,
    BinOp,
    BoolLit,
    Expr,
    IntLit,
    Name,
    NotOp,
    expr_names,
    infer_type,
    int_literal,
    print_expr,
)
from .model import GuardedCommand, SystemModel, VarDecl

MODEL_KEYWORDS = frozenset({"const", "var", "init", "skip", "true", "false"})

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>//[^\n]*)
      | (?P<int>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>->|\.\.|==|!=|<=|>=|[;:'=<>+\-*&|!()\[\]])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "int" | "ident" | "op" | "eof"
    text: str
    offset: int


def _error_at(text: str, offset: int, message: str) -> ParseError:
    return ParseError(message, *line_col(text, offset), offset=offset)


def _lex(text: str, allow_comments: bool) -> list[Token]:
    tokens: list[Token] = []
    # "bad" takes any character the other groups refuse ("\n" is ws), so
    # the matches tile the text and finditer skips nothing.
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws" or (kind == "comment" and allow_comments):
            continue
        if kind == "comment" or kind == "bad":
            raise _error_at(text, m.start(), f"unexpected character {text[m.start()]!r}")
        tokens.append(Token(kind, m.group(), m.start()))
    tokens.append(Token("eof", "", len(text)))
    return tokens


def _ensure_recursion_headroom():
    # Deeply nested parentheses (e.g. properties generated from long logs)
    # recurse once per nesting level in the descent below.
    if sys.getrecursionlimit() < 10_000:
        sys.setrecursionlimit(10_000)


class _Stream:
    def __init__(self, text: str, allow_comments: bool):
        self.text = text
        self.tokens = _lex(text, allow_comments)
        self.pos = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, text: str) -> Token | None:
        if self.cur.kind in ("op", "ident") and self.cur.text == text:
            return self.advance()
        return None

    def expect(self, text: str, what: str | None = None) -> Token:
        tok = self.accept(text)
        if tok is None:
            raise self.error(f"expected '{text}'" + (f" {what}" if what else ""))
        return tok

    def expect_kind(self, kind: str, what: str) -> Token:
        if self.cur.kind != kind:
            raise self.error(f"expected {what}")
        return self.advance()

    def error(self, message: str) -> ParseError:
        tok = self.cur
        found = repr(tok.text) if tok.kind != "eof" else "end of input"
        return self.error_at(tok, f"{message}, found {found}")

    def error_at(self, tok: Token, message: str) -> ParseError:
        return _error_at(self.text, tok.offset, message)


# ---------------------------------------------------------------------------
# Unified expression parsing (model guards, updates, init constraints)
# ---------------------------------------------------------------------------

def _parse_expr(s: _Stream, min_prec: int = 1) -> Expr:
    left = _parse_unary(s)
    while True:
        tok = s.cur
        prec = BIN_PREC.get(tok.text) if tok.kind == "op" else None
        if prec is None or prec < min_prec:
            return left
        s.advance()
        right = _parse_expr(s, prec + 1)
        left = BinOp(tok.text, left, right)
        if tok.text in CMP_OPS:
            nxt = s.cur
            if nxt.kind == "op" and nxt.text in CMP_OPS:
                raise s.error("chained comparison is not allowed")


def _parse_unary(s: _Stream) -> Expr:
    tok = s.cur
    if tok.kind == "op" and tok.text == "!":
        s.advance()
        return NotOp(_parse_expr(s, 4))
    if tok.kind == "op" and tok.text == "-":
        s.advance()
        lit = s.expect_kind("int", "an integer after '-'")
        return IntLit(_literal(s, lit, negative=True))
    if tok.kind == "op" and tok.text == "(":
        s.advance()
        inner = _parse_expr(s, 1)
        s.expect(")")
        return inner
    if tok.kind == "int":
        s.advance()
        return IntLit(_literal(s, tok))
    if tok.kind == "ident":
        s.advance()
        if tok.text == "true":
            return BoolLit(True)
        if tok.text == "false":
            return BoolLit(False)
        return Name(tok.text)
    raise s.error("expected an expression")


def _typed_expr(
    s: _Stream, want: str, context: str, declared: frozenset[str], min_prec: int = 1
) -> Expr:
    start = s.cur
    expr = _parse_expr(s, min_prec)
    unknown = expr_names(expr) - declared
    if unknown:
        raise s.error_at(start, f"unknown identifier '{sorted(unknown)[0]}' in {context}")
    try:
        got = infer_type(expr)
    except EvalError as exc:
        raise s.error_at(start, f"{context}: {exc}") from None
    if got != want:
        raise s.error_at(
            start, f"{context} must be {'boolean' if want == 'bool' else 'integer'}"
        )
    return expr


def parse_expression(text: str) -> Expr:
    """Parse a standalone expression fragment (no name or type checks)."""
    s = _Stream(text, allow_comments=True)
    expr = _parse_expr(s)
    if s.cur.kind != "eof":
        raise s.error("trailing input after expression")
    return expr


# ---------------------------------------------------------------------------
# Model parsing
# ---------------------------------------------------------------------------


def _literal(s: _Stream, tok: Token, negative: bool = False) -> int:
    value = int_literal("-" + tok.text if negative else tok.text)
    if value is None:
        raise s.error_at(tok, f"integer literal outside {INT_MIN}..{INT_MAX}")
    return value


def _signed_int(s: _Stream, what: str) -> int:
    negative = s.accept("-") is not None
    return _literal(s, s.expect_kind("int", what), negative)


def _decl_name(s: _Stream, what: str, taken: set[str]) -> Token:
    tok = s.expect_kind("ident", what)
    if tok.text in MODEL_KEYWORDS:
        raise s.error_at(tok, f"'{tok.text}' is a reserved word")
    if tok.text in taken:
        raise s.error_at(tok, f"duplicate declaration of '{tok.text}'")
    return tok


def parse_model(text: str) -> SystemModel:
    """Parse model text into a validated :class:`SystemModel`."""
    _ensure_recursion_headroom()
    s = _Stream(text, allow_comments=True)
    constants: dict[str, int] = {}
    variables: list[VarDecl] = []
    taken: set[str] = set()

    while s.accept("const"):
        name = _decl_name(s, "a constant name", taken)
        s.expect("=")
        value = _signed_int(s, "an integer value")
        s.expect(";")
        constants[name.text] = value
        taken.add(name.text)

    while s.accept("var"):
        name = _decl_name(s, "a variable name", taken)
        s.expect(":")
        lo = _signed_int(s, "a lower bound")
        s.expect("..")
        hi = _signed_int(s, "an upper bound")
        if hi < lo:
            raise s.error_at(name, f"empty domain {lo}..{hi}")
        s.expect("init")
        init = _signed_int(s, "an initial value")
        if not lo <= init <= hi:
            raise s.error_at(name, f"init out of bounds ({init} not in {lo}..{hi})")
        s.expect(";")
        variables.append(VarDecl(name.text, lo, hi, init))
        taken.add(name.text)

    if not variables:
        raise s.error("model declares no variables; expected 'var'")

    declared = frozenset(taken)
    var_names = frozenset(v.name for v in variables)

    init_constraint = None
    if s.accept("init"):
        init_constraint = _typed_expr(s, "bool", "init constraint", declared)
        s.expect(";")

    commands: list[GuardedCommand] = []
    while s.cur.kind != "eof":
        if not s.accept("["):
            raise s.error("expected a command ('[')")
        label = None
        if s.cur.kind == "ident" and s.cur.text not in MODEL_KEYWORDS:
            label = s.advance().text
        s.expect("]")
        guard = _typed_expr(s, "bool", "guard", declared)
        s.expect("->")
        updates: list[tuple[str, Expr]] = []
        if not s.accept("skip"):
            while True:
                target = s.expect_kind("ident", "a variable to update")
                if target.text not in var_names:
                    raise s.error_at(
                        target,
                        f"unknown identifier '{target.text}' in update"
                        if target.text not in constants
                        else f"'{target.text}' is a constant, not a variable",
                    )
                if any(target.text == n for n, _ in updates):
                    raise s.error_at(target, f"variable '{target.text}' updated twice")
                s.expect("'")
                s.expect("=")
                # Arithmetic precedence only: '&' separates assignments.
                rhs = _typed_expr(s, "int", "update expression", declared, min_prec=5)
                updates.append((target.text, rhs))
                if not s.accept("&"):
                    break
        s.expect(";")
        commands.append(GuardedCommand(label, guard, tuple(updates)))

    return SystemModel(
        constants=constants,
        variables=tuple(variables),
        commands=tuple(commands),
        init_constraint=init_constraint,
    )


def print_model(model: SystemModel) -> str:
    """Canonical model text, one declaration or command per line."""
    lines = []
    for name, value in model.constants.items():
        lines.append(f"const {name} = {value};")
    for v in model.variables:
        lines.append(f"var {v.name} : {v.lo}..{v.hi} init {v.init};")
    if model.init_constraint is not None:
        lines.append(f"init {print_expr(model.init_constraint)};")
    for cmd in model.commands:
        if cmd.updates:
            update = " & ".join(f"{n}'={print_expr(e)}" for n, e in cmd.updates)
        else:
            update = "skip"
        lines.append(f"[{cmd.label or ''}] {print_expr(cmd.guard)} -> {update};")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Formula parsing
# ---------------------------------------------------------------------------

_TEMPORAL_BY_NAME = {name: cls for cls, name in ctl.TEMPORAL_NAMES.items()}


def parse_formula(text: str) -> ctl.CtlFormula:
    """Parse property text into a :class:`~traceval.ctl.CtlFormula`."""
    _ensure_recursion_headroom()
    s = _Stream(text, allow_comments=False)
    f = _parse_or(s)
    if s.cur.kind != "eof":
        raise s.error("trailing input after formula")
    return f


def _parse_or(s: _Stream) -> ctl.CtlFormula:
    f = _parse_and(s)
    while s.accept("|"):
        f = ctl.Or(f, _parse_and(s))
    return f


def _parse_and(s: _Stream) -> ctl.CtlFormula:
    f = _parse_funary(s)
    while s.accept("&"):
        f = ctl.And(f, _parse_funary(s))
    return f


def _parse_funary(s: _Stream) -> ctl.CtlFormula:
    # Collect the prefix chain iteratively, then wrap innermost-first.
    prefixes: list[str] = []
    while True:
        tok = s.cur
        if tok.kind == "op" and tok.text == "!":
            s.advance()
            prefixes.append("!")
        elif tok.kind == "ident" and tok.text in _TEMPORAL_BY_NAME:
            s.advance()
            prefixes.append(tok.text)
        else:
            break
    f = _parse_fprimary(s)
    for p in reversed(prefixes):
        f = ctl.Not(f) if p == "!" else _TEMPORAL_BY_NAME[p](f)
    return f


def _parse_fprimary(s: _Stream) -> ctl.CtlFormula:
    tok = s.cur
    if s.accept("("):
        f = _parse_or(s)
        s.expect(")")
        return f
    if tok.kind == "ident":
        s.advance()
        if tok.text == "true":
            return ctl.TrueF()
        if tok.text == "false":
            return ctl.FalseF()
        op_tok = s.cur
        if op_tok.kind == "op" and op_tok.text in CMP_OPS:
            s.advance()
        elif op_tok.kind == "op" and op_tok.text == "=":
            raise s.error_at(op_tok, "unknown comparator '='")
        else:
            raise s.error(f"expected a comparator after '{tok.text}'")
        value = _signed_int(s, "an integer")
        return ctl.Atom(tok.text, op_tok.text, value)
    raise s.error("expected a formula")
