import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_log
from conftest import CHAIN2
from traceval import ctl, execlog
from traceval.checker import holds_initially, sat
from traceval.ctl import print_formula
from traceval.errors import LogError
from traceval.expr import INT_MAX, INT_MIN
from traceval.execlog import (
    MODES,
    ExecutionLog,
    UnsatisfiableLogWarning,
    format_log,
    log_property,
    parse_log,
    row_conjunction,
)
from traceval.lang import parse_model
from traceval.lifecycle import REASON_MALFORMED_LOG, STATUS_CONFIRMED, STATUS_REJECTED, adjudicate
from traceval.model import build_graph, compile_model


def test_parse_minimal_log():
    log = parse_log("x\n0\n1\n1\n")
    assert log.variables == ("x",)
    assert log.rows == ((0,), (1,), (1,))


def test_parse_crlf_and_spaces():
    log = parse_log("x,y\r\n0, 1\r\n2,3\r\n")
    assert log.rows == ((0, 1), (2, 3))


def test_parse_ragged_row():
    with pytest.raises(LogError, match="ragged row at line 3"):
        parse_log("x,y\n0,0\n1")


def test_parse_fewer_than_two_rows():
    with pytest.raises(LogError, match="fewer than 2 rows"):
        parse_log("x\n0\n")


def test_parse_non_integer_cell():
    with pytest.raises(LogError, match="non-integer cell"):
        parse_log("x\n0\noops\n")


def test_parse_cell_outside_64_bits():
    with pytest.raises(LogError, match="outside"):
        parse_log("x\n0\n1" + "0" * 4999 + "\n")  # past the digits int() converts
    with pytest.raises(LogError, match="outside"):
        parse_log("x\n0\n9223372036854775808\n")
    log = parse_log("x\n-9223372036854775808\n0009223372036854775807\n")
    assert log.rows == ((INT_MIN,), (INT_MAX,))


# Pieces of log text the bulk check must judge as the line-by-line parse
# does: blanks that str.strip() removes but int() does not (\x1c-\x1f), a
# no-break space, a non-ASCII digit, signs and separators int() would take
# in a whole cell, zero padding, and cells of 19 and 20 digits on both sides
# of the 64-bit bounds.
_BLANKS = ("", " ", "  ", "\t", "\r", "\xa0", "\x1c", "\x1d", "\x1e", "\x1f")
_CELLS = (
    "0", "7", "-3", "42", "-0", "007", "-0012", "\u0663", "1\u0663", "9223372036854775807",
    "-9223372036854775808", "0000000000000000001", "00000000000000000012", "-00000000000000000000",
)
_NOT_CELLS = (
    "+1", "1_0", "_1", "", "-", "x", "1 2", "9223372036854775808", "-9223372036854775809",
    "12345678901234567890",
)
# Cells of 19-25 digits, which make a line odd, one the bulk search flags:
# inside the 64-bit range, zero-padded or not, and outside it.
_LONG_CELLS = (
    "9223372036854775807", "-9223372036854775808", "0000009223372036854775807",
    "-000000000000000000000042", "000000000000000000000", "1000000000000000000",
    "9223372036854775808", "-9223372036854775809", "99999999999999999999999",
    "-1000000000000000000000000", "0000009223372036854775808",
)
_NAMES = ("x", "y", " z ", "w\r", "x1", "_")
_NOT_NAMES = ("1a", "", "\xa0v", "x")
_PIECES = _BLANKS + _CELLS + _NOT_CELLS + _LONG_CELLS + (",", "\n", "\r\n", "\n\n")
_ODD_KINDS = ("long", "long", "any", "ragged", "blank")


@st.composite
def log_texts(draw):
    """Log text of 1-4 columns: rows of cells made of the pieces above,
    sometimes ragged, blank, CRLF-ended or with a cell of 19-25 digits, or
    free text of the pieces.  Such odd lines fall anywhere, first, last or
    on every line."""
    names = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4, unique=True))
    if draw(st.integers(0, 9)) == 0:
        names[draw(st.integers(0, len(names) - 1))] = draw(st.sampled_from(_NOT_NAMES))
    header = ",".join(names)
    if draw(st.integers(0, 9)) == 0:
        return header + "\n" + "".join(draw(st.lists(st.sampled_from(_PIECES), max_size=30)))
    m = len(names)
    count = draw(st.integers(0, 8))
    odd = {"anywhere": (), "first": (0,), "last": (count - 1,), "every": range(count)}[
        draw(st.sampled_from(("anywhere", "first", "last", "every")))
    ]
    lines = [header]
    for k in range(count):
        kinds = _ODD_KINDS if k in odd else ("row",) * 12 + _ODD_KINDS
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(draw(st.sampled_from(_BLANKS)))
            continue
        width = m + draw(st.sampled_from((-1, 1))) if kind == "ragged" else m
        cores = _CELLS + _NOT_CELLS if kind == "any" else _CELLS
        cell = st.tuples(st.sampled_from(_BLANKS), st.sampled_from(cores), st.sampled_from(_BLANKS))
        cells = ["".join(draw(cell)) for _ in range(max(width, 1))]
        if kind == "long":
            cells[draw(st.integers(0, m - 1))] = draw(st.sampled_from(_LONG_CELLS))
        lines.append(",".join(cells))
    end = draw(st.sampled_from(("\n", "\r\n")))
    return end.join(lines) + draw(st.sampled_from(("", "\n", "\r\n", "\n\n")))


def _parsed(parse, text):
    try:
        return "log", parse(text)
    except LogError as error:
        return "error", str(error)


@settings(max_examples=1000, deadline=None)
@given(log_texts(), st.sampled_from((1, 5, 1 << 16)))
def test_parse_log_matches_the_line_by_line_parse(text, chunk):
    """The same log or the same ``LogError`` text as the reference, with
    chunks of one line each, of a few lines and of the whole body."""
    with mock.patch.object(execlog, "_CHUNK", chunk):
        assert _parsed(parse_log, text) == _parsed(naive_log.parse_log, text)


def test_a_long_log_is_converted_in_chunks_of_whole_lines():
    """Rows far past one chunk, of padded and signed cells, read as the
    reference reads them; a bad last line is still named by its number."""
    body = "".join(f" {i % 7 - 3}, 0{i}\t,-{i % 100}\r\n" for i in range(20_000))
    text = "a,b,c\r\n" + body
    log = parse_log(text)
    assert log.n == 20_000 and log.rows[-1] == (19_999 % 7 - 3, 19_999, -99)
    assert log == naive_log.parse_log(text)
    with pytest.raises(LogError, match="ragged row at line 20002: 2 cells, expected 3"):
        parse_log(text + "1,2\n")


@pytest.mark.parametrize("line", ["9223372036854775807,1", "-0000009223372036854775808,2", "3,oops"])
@pytest.mark.parametrize("chunk", [1, 16, 1 << 16])
def test_an_odd_line_anywhere_in_a_chunked_log(line, chunk):
    """An odd line, a row of a 19-digit or longer cell or a bad line, on
    each line of a log in turn, so on both sides of every chunk boundary,
    is read as the reference reads it."""
    clean = [f"{i},-{i * 7}" for i in range(24)]
    for k in range(len(clean) + 1):
        text = "a,b\n" + "\n".join(clean[:k] + [line] + clean[k:]) + "\n"
        with mock.patch.object(execlog, "_CHUNK", chunk):
            assert _parsed(parse_log, text) == _parsed(naive_log.parse_log, text)


@settings(max_examples=300, deadline=None)
@given(
    log_texts(),
    st.sampled_from((CHAIN2, "var x : 0..3 init 0;\nvar y : 0..1 init 1;\n[] x<3 -> x'=x+1;\n")),
    st.sampled_from(MODES),
)
def test_adjudicate_returns_a_verdict_on_any_log_text(text, model, mode):
    """Any log text gets a (verdict, reason) pair, never an exception, and
    the reason is malformed-log exactly when the reference refuses it."""
    verdict, reason = adjudicate(model, text, mode)
    assert verdict in (STATUS_CONFIRMED, STATUS_REJECTED)
    assert (reason == REASON_MALFORMED_LOG) == (_parsed(naive_log.parse_log, text)[0] == "error")


# Every code point the regex engine takes for a blank around a cell: the
# whole of \s but the newline, which ends a line.
_SPACES = re.findall(r"[^\S\n]", "".join(map(chr, range(0x110000))))


@pytest.mark.parametrize("chunk", [1, 16, 1 << 16])
def test_every_blank_around_a_cell_is_read_as_the_reference_reads_it(chunk):
    """Each blank before and after the cells of clean lines, over chunk
    boundaries: str.strip must remove it and int() then take the cell."""
    assert len(_SPACES) == 28
    lines = [f"{c}{i}{c},{c}-{i * 7}{c}" for i, c in enumerate(_SPACES * 2)]
    text = "a,b\n" + "\n".join(lines) + "\n"
    with mock.patch.object(execlog, "_CHUNK", chunk):
        log = parse_log(text)
    assert log == naive_log.parse_log(text)
    assert log.rows[-1] == (55, -385)


def test_parse_duplicate_header():
    with pytest.raises(LogError, match="duplicate header"):
        parse_log("x,x\n0,0\n1,1\n")


@pytest.mark.parametrize("variables,rows,message", [
    ((), ((), ()), "log has no columns"),
    (("x", "y", "x"), ((0, 0, 0), (0, 0, 0)), "duplicate header name"),
    (("x",), ((0,),), "fewer than 2 rows"),
    (("x", "y"), ((0, 0), (1,), (1, 1)), "row 2 has 1 cells, expected 2"),
    (("x", "y"), ((0, 0, 0), (1, 1, 1), (2, 2, 2)), "row 1 has 3 cells, expected 2"),
    (("x", "y"), ((0, 0), (1, 1), (2, 2, 2)), "row 3 has 3 cells, expected 2"),
])
def test_a_directly_built_log_checks_itself(variables, rows, message):
    with pytest.raises(LogError) as caught:
        ExecutionLog(variables, rows)
    assert str(caught.value) == message


def test_a_ragged_row_is_reported_before_a_repeated_header():
    with pytest.raises(LogError, match="ragged row at line 3"):
        parse_log("x,x\n0,0\n1\n")


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.lists(
    st.tuples(*[st.integers(INT_MIN, INT_MAX) | st.sampled_from((INT_MIN, INT_MAX, 0, -1))] * m),
    min_size=2, max_size=30,
)))
def test_format_round_trip(rows):
    """Logs of 1-4 columns, of cells across the 64-bit range."""
    log = ExecutionLog(tuple("abcd"[: len(rows[0])]), tuple(rows))
    assert parse_log(format_log(log)) == log


def test_row_conjunction_single_column():
    log = parse_log("x\n0\n1\n1\n")
    assert print_formula(row_conjunction(log, 1)) == "x==0"


def test_row_conjunction_header_order():
    log = ExecutionLog(("x", "y"), ((2, 3), (2, 3)))
    assert print_formula(row_conjunction(log, 1)) == "x==2 & y==3"


def test_row_conjunction_index_errors():
    log = parse_log("x\n0\n1\n")
    with pytest.raises(LogError):
        row_conjunction(log, 0)
    with pytest.raises(LogError):
        row_conjunction(log, 3)


GOLDEN = [
    ("strong", "faithful", "x\n0\n1\n1\n", "x==0 & EX(x==1 & AG(x==1))"),
    ("strong", "faithful", "x\n0\n1\n", "x==0 & AG(x==1)"),
    ("strong", "corrected", "x\n0\n1\n1\n", "x==0 & EX(x==1 & EX(x==1 & AG(x==1)))"),
    ("weak", "faithful", "x\n0\n1\n1\n", "x==0 & EF(x==1 & AG(x==1))"),
    ("weak", "faithful", "x\n0\n1\n", "x==0 & AG(x==1)"),
    ("weak", "corrected", "x\n0\n1\n1\n", "x==0 & EF(x==1 & EF(x==1 & AG(x==1)))"),
]


@pytest.mark.filterwarnings("ignore::traceval.execlog.UnsatisfiableLogWarning")
@pytest.mark.parametrize("mode,base,text,expected", GOLDEN)
def test_property_goldens(mode, base, text, expected):
    log = parse_log(text)
    assert print_formula(log_property(log, mode, base)) == expected


def test_weak_is_strong_with_ef():
    log = parse_log("x,y\n0,0\n1,0\n1,1\n1,1\n")

    def swap(f):
        if isinstance(f, ctl.EX):
            return ctl.EF(swap(f.child))
        if isinstance(f, ctl.And):
            return ctl.And(swap(f.left), swap(f.right))
        if isinstance(f, ctl.AG):
            return ctl.AG(swap(f.child))
        return f

    assert swap(log_property(log, "strong")) == log_property(log, "weak")


def test_property_counts_row_conjunctions():
    # faithful: rows 1..n-1 plus AG over row n -> n conjunction groups
    log = parse_log("x\n0\n1\n2\n2\n")
    strong = print_formula(log_property(log, "strong"))
    assert strong == "x==0 & EX(x==1 & EX(x==2 & AG(x==2)))"


def test_faithful_warns_when_last_rows_differ():
    log = parse_log("x\n0\n1\n2\n")
    with pytest.warns(UnsatisfiableLogWarning):
        log_property(log, "strong")
    with pytest.warns(UnsatisfiableLogWarning):
        log_property(log, "weak")


def test_corrected_never_warns_on_differing_tail(recwarn):
    log = parse_log("x\n0\n1\n2\n")
    log_property(log, "strong", "corrected")
    assert not [w for w in recwarn.list if issubclass(w.category, UnsatisfiableLogWarning)]


def test_unknown_mode_or_base():
    log = parse_log("x\n0\n1\n")
    with pytest.raises(LogError, match="unknown base mode 'sideways'"):
        log_property(log, "strong", "sideways")
    with pytest.raises(LogError, match="unknown property mode 'medium'"):
        log_property(log, "medium")


def test_semantic_containment_strong_implies_weak(chain2_graph):
    log = parse_log("x\n0\n1\n1\n")
    strong_set = set(sat(chain2_graph, log_property(log, "strong")))
    weak_set = set(sat(chain2_graph, log_property(log, "weak")))
    assert strong_set <= weak_set


def test_deep_log_property_round_trips_and_checks():
    """Properties from thousand-row logs must survive print -> parse ->
    check without hitting interpreter depth limits."""
    from traceval.lang import parse_formula, parse_model

    n = 1200
    model = parse_model(f"var c : 0..{n} init 0;\n[] c<{n - 1} -> c'=c+1;\n")
    graph = build_graph(model)
    rows = [(i,) for i in range(n)] + [(n - 1,)]
    log = ExecutionLog(("c",), tuple(rows))
    reparsed = parse_formula(print_formula(log_property(log, "strong")))
    assert holds_initially(graph, reparsed).holds

    forged = list(rows)
    forged[600] = (599,)
    bad = ExecutionLog(("c",), tuple(forged))
    assert not holds_initially(graph, log_property(bad, "strong")).holds


def _unique_run(model, n):
    """Simulation oracle: the n-state run of a deterministic model."""
    (state,), successors = compile_model(model)
    rows = [state]
    for _ in range(n - 1):
        nxt = successors(state)
        assert len(nxt) == 1, "model is not deterministic"
        state = nxt[0]
        rows.append(state)
    return rows


def test_exact_trace_theorem_corrected_mode():
    """On a deterministic model, the corrected strong property holds exactly
    for the log that equals the model's unique n-step run with a fixed
    point at row n."""
    model = parse_model("var x : 0..3 init 0;\n[] x<2 -> x'=x+1;\n")
    graph = build_graph(model)
    run = _unique_run(model, 4)  # (0,) (1,) (2,) (2,)
    honest = ExecutionLog(("x",), tuple(run))
    assert holds_initially(graph, log_property(honest, "strong", "corrected")).holds

    # any single-cell deviation from the unique run must fail
    for i in range(len(run)):
        for value in range(4):
            if value == run[i][0]:
                continue
            rows = list(run)
            rows[i] = (value,)
            mutated = ExecutionLog(("x",), tuple(rows))
            report = holds_initially(graph, log_property(mutated, "strong", "corrected"))
            assert not report.holds, (i, value)

    # a shorter unique run still counts when its last row is a fixed point...
    still_fixed = ExecutionLog(("x",), tuple(run[:3]))  # ends at the absorbing state
    assert holds_initially(graph, log_property(still_fixed, "strong", "corrected")).holds
    # ...but not when the final row can still move
    not_fixed = ExecutionLog(("x",), tuple(run[:2]))
    assert not holds_initially(graph, log_property(not_fixed, "strong", "corrected")).holds
