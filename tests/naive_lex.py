"""Reference lexer used against ``traceval.lang._lex``.

The lexer as it was before ``lang`` lexed in one pass: one regex ``match``
per token, with a running line and column kept for every token.
``Stream`` is ``lang``'s token stream over the texts of these tokens,
raising each error at the line and column its token recorded, and
``parsing`` makes ``lang``'s parsers use it.  ``render_error`` is the
parse check of a rendered model as it was then: it turns an error's line
and column back into an offset to find the tag to blame.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from typing import NamedTuple
from unittest import mock

from traceval import lang
from traceval.errors import ParseError

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>//[^\n]*)
      | (?P<int>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>->|\.\.|==|!=|<=|>=|[;:'=<>+\-*&|!()\[\]])
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "int" | "ident" | "op" | "eof"
    text: str
    line: int
    col: int


def _lex(text: str, allow_comments: bool) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "comment" and not allow_comments:
            raise ParseError("unexpected character '/'", line, col)
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


def _offset_of(text: str, line: int, col: int) -> int:
    offset = 0
    for _ in range(line - 1):
        nl = text.find("\n", offset)
        if nl < 0:
            break
        offset = nl + 1
    return offset + col - 1


class Stream(lang._Stream):
    def __init__(self, text: str, allow_comments: bool):
        # ``lang._Stream`` sets up the state of a parse, over no tokens;
        # only the text and its tokens are this lexer's.
        super().__init__("", allow_comments)
        self.text = text
        self.tokens = _lex(text, allow_comments)
        self.toks = [tok.text for tok in self.tokens]

    def error_at(self, index: int, message: str) -> ParseError:
        tok = self.tokens[index]
        return ParseError(message, tok.line, tok.col)


@contextmanager
def parsing():
    """Within the block, ``traceval.lang``'s parsers lex with ``_lex``."""
    with mock.patch.object(lang, "_Stream", Stream):
        yield


def render_error(rendered: str, spans: list[tuple[int, int, str]]) -> str | None:
    """The ``TemplateError`` text for rendered model text whose tags were
    substituted at ``spans`` (start, end, tag), or ``None`` if it parses."""
    try:
        with parsing():
            lang.parse_model(rendered)
    except ParseError as exc:
        detail = str(exc)
        if exc.line is not None:
            offset = _offset_of(rendered, exc.line, exc.col)
            blame = None
            for start, end, name in spans:
                if start > offset:
                    break
                if offset < end or "\n" not in rendered[end:offset]:
                    blame = name
            if blame is not None:
                detail += f" (near text substituted for tag '{blame}')"
        return f"rendered model fails to parse: {detail}"
    return None
