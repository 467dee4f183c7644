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

Property grammar: atoms ``IDENT op INT``, whatever the identifier's name;
``!`` and the temporal operators ``EX EF EG AX AF AG`` bind tighter than
``&``, which binds tighter than ``|``; parentheses group.

``parse_model`` builds one node per distinct subexpression: equal
subexpressions of a model, such as a ``x==0`` that hundreds of guards
test, are one shared node.  Nodes are immutable, so sharing changes no
answer; ``model.compile_model`` compiles each shared node once.

``print_model`` and ``ctl.print_formula`` emit canonical text, so
``parse(print(x))`` is structurally ``x``; both print through the one
explicit-stack printer, ``expr.print_tree``.  All functions here are pure
and safe to call concurrently.

The lexer turns a text into a list of plain strings, one per token, ending
in ``""`` for the end of input.  A token's kind follows from its text: a
decimal digit starts an integer, an ASCII letter or ``_`` an identifier,
and anything else is an operator.  Tokens carry no position; the offset
of the token a :class:`ParseError` names, and from it the line and
column, is found by lexing the text again only when the error is raised.
"""

from __future__ import annotations

import re
import string
import sys
from itertools import islice
from typing import Callable

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
    infer_type,
    int_literal,
    print_expr,
)
from .model import GuardedCommand, SystemModel, VarDecl

MODEL_KEYWORDS = frozenset({"const", "var", "init", "skip", "true", "false"})

# Each match skips blanks (and, in model text, comments), then takes one
# token: an integer, an identifier, a two-character operator, any other
# non-blank character, or the empty end of input.  The skip stops only at
# the end or before a non-blank character that starts no comment, where
# the token group always matches, so the skip never gives back part of a
# comment.  Every character is blank or in a token, so nothing is lost.
_TOKEN = r"(\d+|[A-Za-z_][A-Za-z0-9_]*|->|\.\.|[=!<>]=|\S|\Z)"
_TOKEN_RE = {
    True: re.compile(r"\s*(?://[^\n]*\s*)*" + _TOKEN),
    False: re.compile(r"\s*" + _TOKEN),
}
_OPERATORS = frozenset("-> .. == != <= >= ; : ' = < > + - * & | ! ( ) [ ]".split())
_IDENT_START = frozenset(string.ascii_letters + "_")


def _is_ident(tok: str) -> bool:
    return tok[:1] in _IDENT_START


def _error_at(text: str, allow_comments: bool, index: int, message: str) -> ParseError:
    """The error ``message`` at token ``index`` of ``_lex(text, allow_comments)``."""
    offset = next(islice(_TOKEN_RE[allow_comments].finditer(text), index, None)).start(1)
    return ParseError(message, *line_col(text, offset), offset=offset)


def _lex(text: str, allow_comments: bool) -> list[str]:
    """The token texts of ``text``, the last one ``""``."""
    tokens = _TOKEN_RE[allow_comments].findall(text)
    # After trailing blanks, the end of input matches twice: once after
    # them and once, empty, at the end.
    if tokens[-2:] == ["", ""]:
        tokens.pop()
    # A single character that starts no integer, identifier or operator is
    # a bad character; so is the "/" of a comment in a formula.  Checking
    # each distinct text is enough to find them.
    bad = [
        tok
        for tok in set(tokens)
        if tok and tok not in _OPERATORS and not tok.isdecimal() and not _is_ident(tok)
    ]
    if bad:
        index = min(map(tokens.index, bad))
        raise _error_at(text, allow_comments, index, f"unexpected character {tokens[index]!r}")
    return tokens


def _ensure_recursion_headroom():
    # Deeply nested parentheses (e.g. properties generated from long logs)
    # recurse once per nesting level in the descent below.
    if sys.getrecursionlimit() < 10_000:
        sys.setrecursionlimit(10_000)


class _Stream:
    """The tokens of one text and the index ``pos`` of the current one.

    The descent reads ``toks[pos]`` itself and steps ``pos`` past each
    token it takes; it never steps past the final ``""``.  ``leaves`` and
    ``nodes`` hold each expression node built so far, so that an equal
    subexpression is built once and shared: a leaf keyed by its text (a
    negative literal's with its ``-``), a ``BinOp`` in its operator's table
    by the ``id`` of its operands, as one integer, and a ``NotOp`` in the
    table of ``!`` by the ``id`` of its operand.  Every node whose ``id``
    is in a key is held by the tables, so no ``id`` is reused while they
    last.  (One integer per key, not a tuple of them, keeps a 20,000-term
    sum's tables 1.6 MB smaller.)
    """

    def __init__(self, text: str, allow_comments: bool):
        self.text = text
        self.allow_comments = allow_comments
        self.toks = _lex(text, allow_comments)
        self.pos = 0
        self.names: set[str] = set()  # identifiers read as names; see _typed_expr
        self.leaves: dict[str, Expr] = {"true": BoolLit(True), "false": BoolLit(False)}
        self.nodes: dict[str, dict[int, Expr]] = {op: {} for op in (*BIN_PREC, "!")}

    def accept(self, text: str) -> bool:
        if self.toks[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str, what: str | None = None) -> None:
        if not self.accept(text):
            raise self.error(f"expected '{text}'" + (f" {what}" if what else ""))

    def expect_token(self, is_kind: Callable[[str], bool], what: str) -> int:
        """The index of the current token, which ``is_kind`` accepts; steps
        past it."""
        if not is_kind(self.toks[self.pos]):
            raise self.error(f"expected {what}")
        self.pos += 1
        return self.pos - 1

    def error(self, message: str) -> ParseError:
        tok = self.toks[self.pos]
        found = repr(tok) if tok else "end of input"
        return self.error_at(self.pos, f"{message}, found {found}")

    def error_at(self, index: int, message: str) -> ParseError:
        return _error_at(self.text, self.allow_comments, index, message)


# ---------------------------------------------------------------------------
# Unified expression parsing (model guards, updates, init constraints)
# ---------------------------------------------------------------------------

def _parse_expr(s: _Stream, min_prec: int = 1) -> Expr:
    left = _parse_unary(s)
    nodes = s.nodes
    while True:
        op = s.toks[s.pos]
        prec = BIN_PREC.get(op)
        if prec is None or prec < min_prec:
            return left
        s.pos += 1
        right = _parse_expr(s, prec + 1)
        table, key = nodes[op], id(left) << 64 | id(right)
        node = table.get(key)
        if node is None:
            node = table[key] = BinOp(op, left, right)
        left = node
        if op in CMP_OPS and s.toks[s.pos] in CMP_OPS:
            raise s.error("chained comparison is not allowed")


def _parse_unary(s: _Stream) -> Expr:
    tok = s.toks[s.pos]
    leaf = s.leaves.get(tok)
    if leaf is None and (_is_ident(tok) or tok.isdecimal()):
        leaf = s.leaves[tok] = IntLit(_literal(s, s.pos)) if tok.isdecimal() else Name(tok)
    if leaf is not None:
        s.pos += 1
        if type(leaf) is Name:
            s.names.add(tok)
        return leaf
    if tok == "!":
        s.pos += 1
        operand = _parse_expr(s, 4)
        table = s.nodes["!"]
        node = table.get(id(operand))
        if node is None:
            node = table[id(operand)] = NotOp(operand)
        return node
    if tok == "-":
        s.pos += 1
        index = s.expect_token(str.isdecimal, "an integer after '-'")
        key = "-" + s.toks[index]
        leaf = s.leaves.get(key)
        if leaf is None:
            leaf = s.leaves[key] = IntLit(_literal(s, index, negative=True))
        return leaf
    if tok == "(":
        s.pos += 1
        inner = _parse_expr(s, 1)
        s.expect(")")
        return inner
    raise s.error("expected an expression")


def _typed_expr(
    s: _Stream, want: str, context: str, declared: frozenset[str], min_prec: int = 1
) -> Expr:
    start = s.pos
    s.names.clear()
    expr = _parse_expr(s, min_prec)
    unknown = s.names - declared
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


# ---------------------------------------------------------------------------
# Model parsing
# ---------------------------------------------------------------------------


def _literal(s: _Stream, index: int, negative: bool = False) -> int:
    tok = s.toks[index]
    value = int_literal("-" + tok if negative else tok)
    if value is None:
        raise s.error_at(index, f"integer literal outside {INT_MIN}..{INT_MAX}")
    return value


def _signed_int(s: _Stream, what: str) -> int:
    negative = s.accept("-")
    return _literal(s, s.expect_token(str.isdecimal, what), negative)


def _decl_name(s: _Stream, what: str, taken: set[str]) -> int:
    """The index of a new declaration's name."""
    index = s.expect_token(_is_ident, what)
    name = s.toks[index]
    if name in MODEL_KEYWORDS:
        raise s.error_at(index, f"'{name}' is a reserved word")
    if name in taken:
        raise s.error_at(index, f"duplicate declaration of '{name}'")
    return index


def parse_model(text: str) -> SystemModel:
    """Parse model text into a validated :class:`SystemModel`, in which
    equal subexpressions are one shared node."""
    _ensure_recursion_headroom()
    s = _Stream(text, allow_comments=True)
    try:
        return _model(s)
    finally:
        # A traceback holds the parser's frames, and they the stream: drop
        # the tables, so that an error does not keep every node alive.
        s.leaves = s.nodes = None


def _model(s: _Stream) -> SystemModel:
    toks = s.toks
    constants: dict[str, int] = {}
    variables: list[VarDecl] = []
    taken: set[str] = set()

    while s.accept("const"):
        name = toks[_decl_name(s, "a constant name", taken)]
        s.expect("=")
        value = _signed_int(s, "an integer value")
        s.expect(";")
        constants[name] = value
        taken.add(name)

    while s.accept("var"):
        at = _decl_name(s, "a variable name", taken)
        name = toks[at]
        s.expect(":")
        lo = _signed_int(s, "a lower bound")
        s.expect("..")
        hi = _signed_int(s, "an upper bound")
        if hi < lo:
            raise s.error_at(at, f"empty domain {lo}..{hi}")
        s.expect("init")
        init = _signed_int(s, "an initial value")
        if not lo <= init <= hi:
            raise s.error_at(at, f"init out of bounds ({init} not in {lo}..{hi})")
        s.expect(";")
        variables.append(VarDecl(name, lo, hi, init))
        taken.add(name)

    if not variables:
        raise s.error("model declares no variables; expected 'var'")

    declared = frozenset(taken)
    var_names = frozenset(v.name for v in variables)

    init_constraint = None
    if s.accept("init"):
        init_constraint = _typed_expr(s, "bool", "init constraint", declared)
        s.expect(";")

    commands: list[GuardedCommand] = []
    while toks[s.pos]:
        if not s.accept("["):
            raise s.error("expected a command ('[')")
        label = None
        if _is_ident(toks[s.pos]) and toks[s.pos] not in MODEL_KEYWORDS:
            label = toks[s.pos]
            s.pos += 1
        s.expect("]")
        guard = _typed_expr(s, "bool", "guard", declared)
        s.expect("->")
        updates: list[tuple[str, Expr]] = []
        if not s.accept("skip"):
            while True:
                at = s.expect_token(_is_ident, "a variable to update")
                target = toks[at]
                if target not in var_names:
                    raise s.error_at(
                        at,
                        f"unknown identifier '{target}' in update"
                        if target not in constants
                        else f"'{target}' is a constant, not a variable",
                    )
                if any(target == n for n, _ in updates):
                    raise s.error_at(at, f"variable '{target}' updated twice")
                s.expect("'")
                s.expect("=")
                # Arithmetic precedence only: '&' separates assignments.
                rhs = _typed_expr(s, "int", "update expression", declared, min_prec=5)
                updates.append((target, rhs))
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
    if s.toks[s.pos]:
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
    # Collect the prefix chain iteratively, then wrap innermost-first.  A
    # temporal name followed by a comparator is an atom's variable.
    toks = s.toks
    prefixes: list[str] = []
    while True:
        tok = toks[s.pos]
        if tok == "!" or (tok in _TEMPORAL_BY_NAME and toks[s.pos + 1] not in CMP_OPS):
            s.pos += 1
            prefixes.append(tok)
        else:
            break
    f = _parse_fprimary(s)
    for p in reversed(prefixes):
        f = ctl.Not(f) if p == "!" else _TEMPORAL_BY_NAME[p](f)
    return f


def _parse_fprimary(s: _Stream) -> ctl.CtlFormula:
    if s.accept("("):
        f = _parse_or(s)
        s.expect(")")
        return f
    name = s.toks[s.pos]
    if _is_ident(name):
        s.pos += 1
        op = s.toks[s.pos]
        if op not in CMP_OPS:
            if name == "true":
                return ctl.TrueF()
            if name == "false":
                return ctl.FalseF()
            if op == "=":
                raise s.error_at(s.pos, "unknown comparator '='")
            raise s.error(f"expected a comparator after '{name}'")
        s.pos += 1
        value = _signed_int(s, "an integer")
        return ctl.Atom(name, op, value)
    raise s.error("expected a formula")
