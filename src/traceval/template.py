"""Template rendering with ``@tag@`` placeholders plus the settings format.

A tag is one or more ASCII letters or underscores between ``@`` symbols;
``@@`` escapes a literal ``@``.  Substitution is a single pass over the
template: replacement text is never re-scanned.  Tags resolve from the
bindings first, then the settings parameters, then the settings defaults.
``render`` only substitutes; it does not check that its output is a model.
A caller that parses the output turns a :class:`ParseError` into a
:class:`TemplateError` that names a tag with :func:`blame`, which maps the
error's character offset back to the tag substituted there.

The settings format is a restricted two-map subset of YAML: the top-level
keys ``parameters:`` and ``defaults:``, each holding flat ``key: value``
entries with scalar values; ``#`` starts a comment.  Anything deeper or
fancier is rejected.  A bindings file is one flat JSON object of strings.
Both are inputs only: ``parse_settings`` and ``parse_bindings`` read them,
and nothing here writes them.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .errors import ParseError, TemplateError, line_col

_TAG_RE = re.compile(r"[A-Za-z_]+\Z")
_INT_RE = re.compile(r"-?\d+\Z")
# The matches tile the template: a lone "@" that starts neither "@@" nor a
# tag is "bad", so finditer skips nothing.
_PIECE_RE = re.compile(
    r"""(?P<text>[^@]+)
      | (?P<escape>@@)
      | @(?P<tag>[A-Za-z_]+)@
      | (?P<bad>@)
    """,
    re.VERBOSE,
)


@dataclass
class Settings:
    """Scalar parameters plus default tag values."""

    parameters: dict[str, int | str] = field(default_factory=dict)
    defaults: dict[str, str] = field(default_factory=dict)


def is_tag_name(name: str) -> bool:
    return bool(_TAG_RE.match(name))


def _pieces(
    template: str, bindings: Mapping[str, str] | None, settings: Settings | None
) -> Iterator[tuple[str, str | None]]:
    """The rendered text in pieces: ``(text, tag)``, where ``tag`` names
    the tag ``text`` was substituted for and is ``None`` for literal text."""
    bindings = bindings or {}
    settings = settings or Settings()
    for m in _PIECE_RE.finditer(template):
        kind = m.lastgroup
        if kind == "text":
            yield m.group(), None
        elif kind == "escape":
            yield "@", None
        elif kind == "bad":
            line, col = line_col(template, m.start())
            raise TemplateError(f"malformed tag at {line}:{col}")
        else:
            name = m.group("tag")
            if name in bindings:
                yield bindings[name], name
            elif name in settings.parameters:
                yield str(settings.parameters[name]), name
            elif name in settings.defaults:
                yield settings.defaults[name], name
            else:
                line, col = line_col(template, m.start())
                raise TemplateError(f"unresolved tag '{name}' at {line}:{col}")


def render(
    template: str,
    bindings: Mapping[str, str] | None = None,
    settings: Settings | None = None,
) -> str:
    """Substitute every tag in ``template`` and return the rendered text.

    Raises :class:`TemplateError` for a malformed or unresolved tag.
    """
    return "".join(text for text, _ in _pieces(template, bindings, settings))


def blame(
    exc: ParseError,
    template: str,
    bindings: Mapping[str, str] | None = None,
    settings: Settings | None = None,
) -> TemplateError:
    """The :class:`TemplateError` for ``exc``, a model parse error raised on
    the text ``render(template, bindings, settings)`` returned.  It names
    the tag whose substituted text holds the error's offset, or ends before
    it on the same line: bad fragments often break the next token."""
    pieces = list(_pieces(template, bindings, settings))
    rendered = "".join(text for text, _ in pieces)
    offset = exc.offset
    culprit = None
    start = 0
    for text, name in pieces:
        if start > offset:
            break
        end = start + len(text)
        if name is not None and (offset < end or "\n" not in rendered[end:offset]):
            culprit = name
        start = end
    detail = str(exc)
    if culprit is not None:
        detail += f" (near text substituted for tag '{culprit}')"
    return TemplateError(f"rendered model fails to parse: {detail}")


# ---------------------------------------------------------------------------
# Settings
# ---------------------------------------------------------------------------

_SECTIONS = ("parameters", "defaults")


def _strip_comment(line: str) -> str:
    quote = None
    for i, ch in enumerate(line):
        if quote:
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch == "#":
            return line[:i]
    return line


def _scalar(raw: str):
    value = raw.strip()
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
        return value[1:-1]
    if _INT_RE.match(value):
        return int(value)
    if value == "":
        return None
    return value


def parse_settings(text: str) -> Settings:
    """Parse settings text; missing sections mean empty maps."""
    settings = Settings()
    seen: set[str] = set()
    section: str | None = None
    pending_key: tuple[int, int] | None = None  # (line_no, indent) of a value-less entry
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = _strip_comment(raw.rstrip())
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip())
        if pending_key is not None:
            if indent > pending_key[1]:
                raise ParseError("nesting too deep", line_no, indent + 1)
            raise ParseError("missing value", pending_key[0], pending_key[1] + 1)
        body = line.strip()
        if ":" not in body:
            raise ParseError("expected 'key: value'", line_no, indent + 1)
        key, _, rest = body.partition(":")
        key = key.strip()
        if indent == 0:
            if rest.strip():
                raise ParseError(
                    f"top-level key '{key}' must open a section", line_no, 1
                )
            if key not in _SECTIONS:
                raise ParseError(
                    f"unknown section '{key}' (expected one of {', '.join(_SECTIONS)})",
                    line_no,
                    1,
                )
            if key in seen:
                raise ParseError(f"duplicate section '{key}'", line_no, 1)
            seen.add(key)
            section = key
            continue
        if section is None:
            raise ParseError("entry outside any section", line_no, indent + 1)
        if not is_tag_name(key):
            raise ParseError(
                f"'{key}' is not a valid tag identifier (letters and '_' only)",
                line_no,
                indent + 1,
            )
        target = getattr(settings, section)
        if key in target:
            raise ParseError(f"duplicate key '{key}'", line_no, indent + 1)
        try:
            value = _scalar(rest)
        except ValueError:  # int() refuses a literal over its digit limit
            col = indent + len(body) - len(rest.lstrip()) + 1
            raise ParseError("integer has too many digits", line_no, col) from None
        if value is None:
            pending_key = (line_no, indent)
            continue
        if section == "defaults":
            value = str(value)
        target[key] = value
    if pending_key is not None:
        raise ParseError("missing value", pending_key[0], pending_key[1] + 1)
    return settings


def parse_bindings(text: str) -> dict[str, str]:
    """Parse a bindings file: one flat JSON object with string values."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long for int()
        raise TemplateError(f"bindings are not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise TemplateError("bindings must be a JSON object")
    for key, value in data.items():
        if not is_tag_name(key):
            raise TemplateError(f"binding key '{key}' is not a valid tag identifier")
        if not isinstance(value, str):
            raise TemplateError(f"binding '{key}' must be a string")
    return dict(data)
