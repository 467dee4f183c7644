import json
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import CHAIN2, SAMPLES
import naive_lex
import naive_print
from corpus import CMPS, IDENTS, models
from traceval import ctl
from traceval.cli import build_parser
from traceval.ctl import print_formula
from traceval.errors import ParseError, TemplateError, line_col
from traceval.execlog import ExecutionLog, strong_property, weak_property
from traceval.expr import INT_MIN, BinOp, IntLit, Name, eval_expr, expr_names
from traceval.lang import _lex, parse_expression, parse_formula, parse_model, print_model
from traceval.model import build_graph
from traceval.town import town_model_text


# --- model parsing -----------------------------------------------------------

def test_parse_chain2():
    model = parse_model("var x : 0..1 init 0; [] x==0 -> x'=1;")
    assert model.var_names == ("x",)
    assert model.variables[0].lo == 0 and model.variables[0].hi == 1
    assert len(model.commands) == 1
    assert model.commands[0].updates == (("x", IntLit(1)),)


def test_parse_init_out_of_bounds():
    with pytest.raises(ParseError, match="init out of bounds"):
        parse_model("var x : 0..1 init 2;")


def test_parse_counter_reaches_four_states():
    model = parse_model("const K = 3; var s : 0..3 init 0; [] s<K -> s'=s+1;")
    assert build_graph(model).state_count == 4


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_model("var x : 0..1 init 0;\n[] x == -> x'=1;")
    assert err.value.line == 2
    assert err.value.col is not None


_PARSERS = {"model": parse_model, "formula": parse_formula, "expression": parse_expression}


@pytest.mark.parametrize(
    "kind, text, message",
    [
        ('model', "// header\nvar x : 0..3 init 0;\n[] x==0 -> x'=#;", "3:15: unexpected character '#'"),
        ('formula', 'x==0 &\n  // c', "2:3: unexpected character '/'"),
        ('model', "// header\nvar x : 0..3 init 0;\n[] x == -> x'=1;", "3:9: expected an expression, found '->'"),
        ('model', "// header\nvar x : 0..3 init 0;\n[] x==0 &\n   y==0 -> x'=1;", "3:4: unknown identifier 'y' in guard"),
        ('model', "// header\nvar x : 0..3 init 0;\n[] x==0 &\n  (x + true)==1 -> x'=1;", "3:4: guard: operands of '+' must be integers"),
        ('model', "// header\nvar x : 0..3 init 0;\n[] x==0 -> x'=\n  (x==0);", '4:3: update expression must be integer'),
        ('model', "// header\nvar x : 0..3 init 0;\n[]  x+1 -> x'=1;", '3:5: guard must be boolean'),
        ('model', 'const K = 1;\nvar x : 0..99999999999999999999 init 0;', '2:12: integer literal outside -9223372036854775808..9223372036854775807'),
        ('model', 'var x : 0..3 init 0;\n  var skip : 0..1 init 0;', "2:7: 'skip' is a reserved word"),
        ('model', 'const x = 1;\n  var x : 0..1 init 0;', "2:7: duplicate declaration of 'x'"),
        ('model', 'var y : 0..1 init 0;\n  var x : 3..1 init 0;', '2:7: empty domain 3..1'),
        ('model', 'var y : 0..1 init 0;\n  var x : 0..1 init 2;', '2:7: init out of bounds (2 not in 0..1)'),
        ('model', "const K = 1;\n// header\nvar x : 0..3 init 0;\n[] x==0 -> x'=1 & K'=2;", "4:19: 'K' is a constant, not a variable"),
        ('model', "// header\nvar x : 0..3 init 0;\n[] x==0 -> x'=1 &\n  z'=2;", "4:3: unknown identifier 'z' in update"),
        ('model', "// header\nvar x : 0..3 init 0;\n[] x==0 -> x'=1 & x'=2;", "3:19: variable 'x' updated twice"),
        ('model', "// header\nvar x : 0..3 init 0;\n[] 1 < x < 2 -> x'=1;", "3:10: chained comparison is not allowed, found '<'"),
        ('formula', 'x==0 &\n  EX(y = 1)', "2:8: unknown comparator '='"),
        ('formula', '\n\tx==0 x==1', "2:7: trailing input after formula, found 'x'"),
        ('expression', 'x + 1\n  )', "2:3: trailing input after expression, found ')'"),
    ],
)
def test_each_parse_error_names_its_position(kind, text, message):
    with pytest.raises(ParseError) as err:
        _PARSERS[kind](text)
    assert str(err.value) == message
    assert line_col(text, err.value.offset) == (err.value.line, err.value.col)


def test_parse_duplicate_declaration():
    with pytest.raises(ParseError, match="duplicate declaration"):
        parse_model("var x : 0..1 init 0; var x : 0..1 init 0;")
    with pytest.raises(ParseError, match="duplicate declaration"):
        parse_model("const x = 1; var x : 0..1 init 0;")


def test_parse_checks_names_once_per_expression(monkeypatch, town5x5, objective4):
    calls = []

    def counting(expr):
        calls.append(expr)
        return expr_names(expr)

    monkeypatch.setattr("traceval.lang.expr_names", counting)
    # a module that imported expr_names by name calls its own binding
    monkeypatch.setattr("traceval.model.expr_names", counting, raising=False)
    model = parse_model(town_model_text(town5x5, objective4))
    expressions = [] if model.init_constraint is None else [model.init_constraint]
    for cmd in model.commands:
        expressions += [cmd.guard] + [rhs for _, rhs in cmd.updates]
    assert [id(e) for e in calls] == [id(e) for e in expressions]


def test_parse_unknown_identifier_in_guard():
    with pytest.raises(ParseError, match="unknown identifier 'y'"):
        parse_model("var x : 0..1 init 0; [] y==0 -> x'=1;")


def test_parse_update_of_constant_rejected():
    with pytest.raises(ParseError, match="constant, not a variable"):
        parse_model("const K = 1; var x : 0..1 init 0; [] x==0 -> K'=2;")


def test_parse_duplicate_update_target():
    with pytest.raises(ParseError, match="updated twice"):
        parse_model("var x : 0..3 init 0; [] x==0 -> x'=1 & x'=2;")


def test_parse_empty_domain():
    with pytest.raises(ParseError, match="empty domain"):
        parse_model("var x : 2..1 init 2;")


def test_parse_labels_and_skip():
    model = parse_model("var x : 0..1 init 0; [idle] true -> skip;")
    assert model.commands[0].label == "idle"
    assert model.commands[0].updates == ()


def test_parse_comments_and_negative_bounds():
    model = parse_model("// a comment\nvar t : -2..2 init -1; [] t<2 -> t'=t+1;\n")
    assert model.variables[0].lo == -2
    assert model.variables[0].init == -1


def test_print_model_chain2_two_lines():
    assert print_model(parse_model(CHAIN2)) == "var x : 0..1 init 0;\n[] x==0 -> x'=1;\n"


def test_model_round_trip_on_samples(samples_dir):
    text = (samples_dir / "chain2.gcm").read_text()
    model = parse_model(text)
    assert parse_model(print_model(model)) == model


# --- formula parsing ---------------------------------------------------------

def test_parse_formula_direct():
    f = parse_formula("x==0 & EX(x==1)")
    assert f == ctl.And(ctl.Atom("x", "==", 0), ctl.EX(ctl.Atom("x", "==", 1)))


def test_parse_formula_ag():
    assert parse_formula("AG(x==1)") == ctl.AG(ctl.Atom("x", "==", 1))


def test_parse_formula_precedence_unary_binds_tighter():
    f = parse_formula("EX x==1 & x==0")
    assert f == ctl.And(ctl.EX(ctl.Atom("x", "==", 1)), ctl.Atom("x", "==", 0))


def test_parse_formula_and_tighter_than_or():
    f = parse_formula("a==1 | b==2 & c==3")
    assert f == ctl.Or(
        ctl.Atom("a", "==", 1), ctl.And(ctl.Atom("b", "==", 2), ctl.Atom("c", "==", 3))
    )


def test_parse_formula_keywords_and_negatives():
    assert parse_formula("true") == ctl.TrueF()
    assert parse_formula("!false") == ctl.Not(ctl.FalseF())
    assert parse_formula("x>=-2") == ctl.Atom("x", ">=", -2)


def test_integer_literals_must_fit_64_bits():
    huge = "1" + "0" * 4999  # past the 4300 digits int() converts
    for text in (
        f"var x : 0..1 init 0; [] x=={huge} -> x'=1;",
        f"var x : 0..{huge} init 0;",
        "var x : 0..1 init 0; [] x==9223372036854775808 -> x'=1;",
        "const K = -9223372036854775809; var x : 0..1 init 0;",
    ):
        with pytest.raises(ParseError, match="integer literal outside"):
            parse_model(text)
    with pytest.raises(ParseError, match="integer literal outside"):
        parse_formula(f"x=={huge}")
    model = parse_model(
        "const K = -9223372036854775808; var x : 0..1 init 0;"
        " [] x<=9223372036854775807 -> x'=0001;"
    )
    assert model.constants["K"] == INT_MIN
    assert model.commands[0].updates == (("x", IntLit(1)),)
    assert parse_formula("x>=-9223372036854775808") == ctl.Atom("x", ">=", INT_MIN)


def test_parse_formula_unknown_comparator():
    with pytest.raises(ParseError, match="unknown comparator"):
        parse_formula("x = 1")


def test_parse_formula_trailing_garbage():
    with pytest.raises(ParseError):
        parse_formula("x==1 )")


def test_print_formula_parenthesizes_or_under_and():
    f = ctl.And(ctl.Or(ctl.Atom("a", "==", 1), ctl.Atom("b", "==", 2)), ctl.Atom("c", "==", 3))
    assert print_formula(f) == "(a==1 | b==2) & c==3"


def test_print_formula_temporals():
    f = ctl.AG(ctl.Not(ctl.And(ctl.Atom("x", "==", 0), ctl.TrueF())))
    assert print_formula(f) == "AG(!(x==0 & true))"


# --- property-based round trips and fuzz -------------------------------------

_atoms = st.one_of(
    st.builds(ctl.Atom, IDENTS, CMPS, st.integers(-30, 30)),
    st.just(ctl.TrueF()),
    st.just(ctl.FalseF()),
)

_formulas = st.recursive(
    _atoms,
    lambda children: st.one_of(
        st.builds(ctl.Not, children),
        st.builds(ctl.And, children, children),
        st.builds(ctl.Or, children, children),
        st.builds(ctl.EX, children),
        st.builds(ctl.EF, children),
        st.builds(ctl.EG, children),
        st.builds(ctl.AX, children),
        st.builds(ctl.AF, children),
        st.builds(ctl.AG, children),
    ),
    max_leaves=12,
)


@given(_formulas)
def test_formula_round_trip(f):
    assert parse_formula(print_formula(f)) == f


_A, _B = ctl.Atom("a", "==", 1), ctl.Atom("b", "<", -2)


@given(_formulas)
@example(ctl.And(_A, ctl.And(_B, _A)))
@example(ctl.Or(ctl.Or(_A, _B), ctl.Or(_B, ctl.And(_A, _B))))
@example(ctl.Not(ctl.Or(_A, ctl.Not(ctl.And(_B, ctl.TrueF())))))
def test_print_formula_matches_reference(f):
    assert print_formula(f) == naive_print.print_formula(f)


def _two_column_log(rows: int) -> ExecutionLog:
    """``rows`` rows whose last two are equal, so the faithful property is
    satisfiable."""
    cells = [(i % 2, -(i % 3)) for i in range(rows - 1)]
    return ExecutionLog(("x", "y"), tuple(cells + cells[-1:]))


@pytest.mark.parametrize("rows", [10, 4000])
@pytest.mark.parametrize("prop", [strong_property, weak_property])
def test_print_formula_matches_reference_on_log_properties(prop, rows):
    f = prop(_two_column_log(rows))
    assert print_formula(f) == naive_print.print_formula(f)


def test_print_formula_memory_is_linear():
    """A 4000-row strong property nests 4000 deep; the printer must not keep
    a copy of every subformula's text (the reference peaks near 200 MB)."""
    f = strong_property(_two_column_log(4000))
    tracemalloc.start()
    try:
        text = print_formula(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text.count("EX(") == 3998  # the last row is under AG
    assert peak < 5 * 2**20, f"peak {peak / 2**20:.1f} MB"


@settings(max_examples=60)
@given(models())
def test_model_round_trip(model):
    assert parse_model(print_model(model)) == model


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_model_parser_never_panics(text):
    try:
        parse_model(text)
    except ParseError as exc:
        assert exc.line is None or (exc.line >= 1 and exc.col >= 1)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_formula_parser_never_panics(text):
    try:
        parse_formula(text)
    except ParseError as exc:
        assert exc.line is None or (exc.line >= 1 and exc.col >= 1)


# Garbage over every ASCII character, the token alphabet, comment and line
# breaks, a non-ASCII letter and a Unicode digit, plus a model header so
# that garbage also reaches guards and updates.
_GARBAGE_PIECES = (
    [chr(c) for c in range(128)]
    + "-> .. == != <= >= // const var init skip true false EX EF EG AX AF AG x k 0 7".split()
    + ["\n", "\t", "\r", "\r\n", "é", "\u0663", "99999999999999999999", "var x : 0..1 init 0;"]
)
_garbage = st.lists(st.sampled_from(_GARBAGE_PIECES), max_size=30).map("".join)
_GATE_TEMPLATE = (SAMPLES / "gate.gcmt").read_text()


@pytest.fixture(scope="module")
def gen_model(tmp_path_factory):
    """Runs the ``gen-model`` command on the sample ``gate.gcmt`` with given
    bindings; returns ``("error", text)`` for its ``TemplateError`` or
    ``("written", text)`` for its output.  The command line is parsed once,
    because argparse costs several times what the command does."""
    workdir = tmp_path_factory.mktemp("gen-model")
    bindings_file, out = workdir / "bindings.json", workdir / "out.gcm"
    args = build_parser().parse_args(
        ["gen-model", "--template", str(SAMPLES / "gate.gcmt"), "--bindings", str(bindings_file), "-o", str(out)]
    )

    def run(bindings):
        bindings_file.write_text(json.dumps(bindings))
        try:
            args.func(args)
        except TemplateError as exc:
            return "error", str(exc)
        return "written", out.read_bytes().decode("utf-8")

    return run


def _outcome(fn, text, *args):
    try:
        return "value", fn(text, *args)
    except ParseError as exc:
        if exc.offset is not None:
            assert line_col(text, exc.offset) == (exc.line, exc.col)
        return "error", (str(exc), exc.bare_message, exc.line, exc.col)


def _positions(text, allow_comments):
    """The tokens of ``_lex`` with their offsets turned into line:col."""
    tokens = _lex(text, allow_comments)
    return [(tok.kind, tok.text, line_col(text, tok.offset)) for tok in tokens]


@settings(max_examples=2000, deadline=None)
@given(_garbage)
@example("x==0 // c")
@example("var x : 0..1 init 0;\r\n[] x==\u0663 -> x'=é;")
def test_offset_lexer_matches_the_line_col_lexer(gen_model, text):
    for allow_comments in (True, False):
        got = _outcome(_positions, text, allow_comments)
        want = _outcome(naive_lex._lex, text, allow_comments)
        if want[0] == "value":
            want = "value", [(tok.kind, tok.text, (tok.line, tok.col)) for tok in want[1]]
        assert got == want

    for parse in (parse_model, parse_formula, parse_expression):
        got = _outcome(parse, text)
        with naive_lex.parsing():
            want = _outcome(parse, text)
        assert got == want

    start = _GATE_TEMPLATE.index("@go@")
    rendered = _GATE_TEMPLATE[:start] + text + _GATE_TEMPLATE[start + len("@go@"):]
    want = naive_lex.render_error(rendered, [(start, start + len(text), "go")])
    if want is None:
        assert gen_model({"go": text}) == ("written", rendered)
    else:
        assert gen_model({"go": text}) == ("error", want)


@given(
    st.sampled_from(("==", "!=", "<", "<=", ">", ">=")),
    st.integers(-5, 5),
    st.integers(-5, 5),
)
def test_atom_comparators_agree_with_eval_expr(op, lhs, rhs):
    """Formula atoms and guard comparisons share one comparator semantics."""
    from traceval.checker import sat
    from traceval.model import StateGraph

    graph = StateGraph(("x",), ((lhs,),), frozenset({0}), (frozenset({0}),))
    via_atom = 0 in sat(graph, ctl.Atom("x", op, rhs))
    via_expr = eval_expr(BinOp(op, Name("x"), IntLit(rhs)), {"x": lhs})
    assert via_atom == via_expr


def test_parse_expression_fragment():
    expr = parse_expression("x==0 & (k==1 | k==3)")
    assert eval_expr(expr, {"x": 0, "k": 3}) is True
