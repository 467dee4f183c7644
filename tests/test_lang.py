import json
import random
import string
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import CHAIN2, SAMPLES
import naive_eq
import naive_lex
import naive_print
from corpus import CMPS, IDENTS, bundled_town, models, town_texts
from traceval import ctl, lang
from traceval.cli import build_parser
from traceval.ctl import print_formula
from traceval.errors import EvalError, ParseError, TemplateError, line_col
from traceval.execlog import MODES, ExecutionLog, log_property
from traceval.expr import INT_MIN, BinOp, IntLit, Name, compile_parts, conjunction
from traceval.lang import _error_at, _lex, parse_formula, parse_model, print_model
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


_PARSERS = {"model": parse_model, "formula": parse_formula}


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
        ('model', "var x : 0..3 init 0;\n[] (x==0\n  x==1) -> x'=1;", "3:3: expected ')', found 'x'"),
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


@pytest.mark.parametrize(
    "text, message",
    [
        # of several unknown names, the sorted-first one is named
        ("var x : 0..3 init 0;\n[] zz==0 & b==c & x==0 -> x'=1;", "2:4: unknown identifier 'b' in guard"),
        ("var x : 0..3 init 0;\ninit q>0 | p>0;", "2:6: unknown identifier 'p' in init constraint"),
        ("var x : 0..3 init 0;\n[] x==0 -> x'=w + v;", "2:15: unknown identifier 'v' in update expression"),
        # an unknown name wins over a type error in the same expression
        ("var x : 0..3 init 0;\n[] (x + true)==y -> x'=1;", "2:4: unknown identifier 'y' in guard"),
        ("var x : 0..3 init 0;\n[] x==0 -> x'=(y==0);", "2:15: unknown identifier 'y' in update expression"),
        ("var x : 0..3 init 0;\n[] y -> x'=1;", "2:4: unknown identifier 'y' in guard"),
        # a syntax error later in the expression wins over an earlier unknown name
        ("var x : 0..3 init 0;\n[] y==0 & x== -> x'=1;", "2:15: expected an expression, found '->'"),
        ("var x : 0..3 init 0;\n[] y==0 & (x==1 -> x'=1;", "2:17: expected ')', found '->'"),
        ("var x : 0..3 init 0;\n[] y < x < 2 -> x'=1;", "2:10: chained comparison is not allowed, found '<'"),
        ("var x : 0..3 init 0;\n[] y==99999999999999999999 -> x'=1;", "2:7: integer literal outside -9223372036854775808..9223372036854775807"),
        # names are checked per expression: the guard's, then the update's
        ("var x : 0..3 init 0;\n[] a==0 -> x'=b;", "2:4: unknown identifier 'a' in guard"),
        ("var x : 0..3 init 0;\n[] x==0 -> x'=b & x'=a;", "2:15: unknown identifier 'b' in update expression"),
    ],
)
def test_unknown_names_come_after_syntax_and_before_types(text, message):
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert str(err.value) == message


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


@pytest.mark.parametrize(
    "text, want",
    [
        ("AG==0", ctl.Atom("AG", "==", 0)),
        ("EX AG==1", ctl.EX(ctl.Atom("AG", "==", 1))),
        ("AF(EF<2 | EG!=-1)", ctl.AF(ctl.Or(ctl.Atom("EF", "<", 2), ctl.Atom("EG", "!=", -1)))),
        ("!false>=-2", ctl.Not(ctl.Atom("false", ">=", -2))),
        ("true<1 & true", ctl.And(ctl.Atom("true", "<", 1), ctl.TrueF())),
    ],
)
def test_an_identifier_before_a_comparator_is_an_atom(text, want):
    """Log headers may be temporal names or ``true``/``false``; the
    properties printed for them parse back."""
    assert parse_formula(text) == want


@pytest.mark.parametrize(
    "text, message",
    [
        ("EX = 1", "1:4: expected a formula, found '='"),
        ("true = 1", "1:6: trailing input after formula, found '='"),
        ("AG(EX)", "1:6: expected a formula, found ')'"),
    ],
)
def test_a_temporal_name_without_a_comparator_is_an_operator(text, message):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert str(err.value) == message


def test_parse_formula_trailing_garbage():
    with pytest.raises(ParseError):
        parse_formula("x==1 )")


def test_print_formula_parenthesizes_or_under_and():
    f = ctl.And(ctl.Or(ctl.Atom("a", "==", 1), ctl.Atom("b", "==", 2)), ctl.Atom("c", "==", 3))
    assert print_formula(f) == "(a==1 | b==2) & c==3"


def test_print_formula_refuses_a_node_that_is_not_a_formula():
    with pytest.raises(EvalError, match=r"not a CTL formula: 'x'"):
        print_formula(ctl.And(ctl.TrueF(), "x"))


def test_print_formula_temporals():
    f = ctl.AG(ctl.Not(ctl.And(ctl.Atom("x", "==", 0), ctl.TrueF())))
    assert print_formula(f) == "AG(!(x==0 & true))"


# --- property-based round trips and fuzz -------------------------------------

_ATOM_NAMES = st.one_of(
    IDENTS, st.sampled_from((*ctl.TEMPORAL_NAMES.values(), "true", "false"))
)
_atoms = st.one_of(
    st.builds(ctl.Atom, _ATOM_NAMES, CMPS, st.integers(-30, 30)),
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


@given(_formulas, _formulas)
def test_formula_equality_and_hash_match_the_recursive_reference(f, g):
    """Equal exactly when the frozen-dataclass meaning says so, and equal
    formulas hash equal; a copy that shares no node is equal to its formula."""
    assert (f == g) == (naive_eq.frozen(f) == naive_eq.frozen(g)) == (not f != g)
    copy = naive_eq.rebuilt(f)
    assert copy == f and hash(copy) == hash(f)
    if f == g:
        assert hash(f) == hash(g)


@given(_formulas)
@example(ctl.AG(ctl.And(ctl.Atom("x", "==", 1), ctl.Not(ctl.TrueF()))))
def test_formula_repr_matches_the_recursive_reference(f):
    assert repr(f) == naive_eq.represented(f)


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
@pytest.mark.parametrize("mode", MODES)
def test_print_formula_matches_reference_on_log_properties(mode, rows):
    f = log_property(_two_column_log(rows), mode)
    assert print_formula(f) == naive_print.print_formula(f)


def test_print_formula_memory_is_linear():
    """A 4000-row strong property nests 4000 deep; the printer must not keep
    a copy of every subformula's text (the reference peaks near 200 MB)."""
    f = log_property(_two_column_log(4000), "strong")
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


def _naive_print_model(model) -> str:
    """``print_model`` with the reference expression printer."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lang, "print_expr", naive_print.print_expr)
        return print_model(model)


@settings(max_examples=60)
@given(models())
def test_print_model_matches_reference(model):
    assert print_model(model) == _naive_print_model(model)


@pytest.mark.parametrize("name", ["reduced", "unreduced", "town-0"])
def test_print_model_matches_reference_on_towns(big_texts, name):
    model = parse_model(big_texts[name])
    assert print_model(model) == _naive_print_model(model)


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
# that garbage also reaches guards and updates.  The rest are where a lexer
# built on string methods can drift from the regex classes: "²" is
# ``isdigit`` but not ``\d``, the Kelvin sign folds to "k" under
# IGNORECASE, and the others (with the ASCII "\x1c") are blanks that are
# not " \t\n\r\f\v".
_GARBAGE_PIECES = (
    [chr(c) for c in range(128)]
    + "-> .. == != <= >= // const var init skip true false EX EF EG AX AF AG x k 0 7".split()
    + ["\n", "\t", "\r", "\r\n", "é", "\u0663", "99999999999999999999", "var x : 0..1 init 0;"]
    + ["²", "\u212a", "\u00a0", "\u2028", "\x85", "// c"]
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
        return "error", (str(exc), exc.line, exc.col)


def _kind(tok):
    """A token's kind, which follows from its text."""
    if not tok:
        return "eof"
    if tok.isdecimal():
        return "int"
    return "ident" if tok[0] in string.ascii_letters + "_" else "op"


def _positions(text, allow_comments):
    """The tokens of ``_lex`` with their kinds, and the line:col that an
    error raised at each of them names."""
    return [
        (_kind(tok), tok, (err.line, err.col))
        for i, tok in enumerate(_lex(text, allow_comments))
        for err in [_error_at(text, allow_comments, i, "")]
    ]


@settings(max_examples=2000, deadline=None)
@given(_garbage)
@example("x==0 // c")
@example("var x : 0..1 init 0;\r\n[] x==\u0663 -> x'=é;")
@example("var x : 0..1 init 0; // c")
@example("var x : 0..1 init 0;\r")
@example(".")
@example("/")
def test_offset_lexer_matches_the_line_col_lexer(gen_model, text):
    for allow_comments in (True, False):
        got = _outcome(_positions, text, allow_comments)
        want = _outcome(naive_lex._lex, text, allow_comments)
        if want[0] == "value":
            want = "value", [(tok.kind, tok.text, (tok.line, tok.col)) for tok in want[1]]
        assert got == want

    for parse in (parse_model, parse_formula):
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


_MUTATION_CHARS = "09xk_;:'=<>+-*&|!()[]./# \n\t\ré²\u212a\u00a0\u0663"


def _mutants(text, rng, count):
    """``count`` copies of ``text``, each with one character inserted,
    deleted or replaced, at positions spread evenly over the text."""
    for i in range(count):
        at = rng.randrange(i * len(text) // count, (i + 1) * len(text) // count)
        edit = rng.choice(("insert", "delete", "replace"))
        cut = at + (edit != "insert")
        yield text[:at] + ("" if edit == "delete" else rng.choice(_MUTATION_CHARS)) + text[cut:]


@pytest.fixture(scope="module")
def big_texts():
    town, objective = bundled_town()
    texts = {
        "reduced": town_model_text(town, objective),
        "unreduced": town_model_text(town, objective, reduce=False),
    }
    texts.update((f"town-{i}", text) for i, text in enumerate(town_texts(1212, 3)))
    return texts


@pytest.mark.parametrize("name", ["reduced", "unreduced", "town-0", "town-1", "town-2"])
def test_parse_model_matches_the_line_col_lexer_on_mutated_towns(big_texts, name):
    """One-character edits of large model texts parse to the same model, or
    fail with the same error at the same offset, as with the reference
    lexer; offsets found by lexing again reach far into the text."""
    text = big_texts[name]
    for mutant in _mutants(text, random.Random(name), 12):
        try:
            got = "value", parse_model(mutant)
        except ParseError as exc:
            got = "error", (str(exc), exc.line, exc.col, exc.offset)
        try:
            with naive_lex.parsing():
                want = "value", parse_model(mutant)
        except ParseError as exc:
            offset = naive_lex._offset_of(mutant, exc.line, exc.col)
            want = "error", (str(exc), exc.line, exc.col, offset)
        assert got == want


@given(
    st.sampled_from(("==", "!=", "<", "<=", ">", ">=")),
    st.integers(-5, 5),
    st.integers(-5, 5),
)
def test_atom_comparators_agree_with_guard_comparisons(op, lhs, rhs):
    """Formula atoms and guard comparisons share one comparator semantics."""
    from traceval.checker import sat
    from traceval.model import StateGraph

    graph = StateGraph(("x",), ((lhs,),), frozenset({0}), (frozenset({0}),))
    via_atom = 0 in sat(graph, ctl.Atom("x", op, rhs))
    _, pins, rest, safe, _, _ = compile_parts(BinOp(op, Name("x"), IntLit(rhs)), {"x": 0}, {}, {})
    via_expr = conjunction(pins, rest, safe)((lhs,))
    assert via_atom == via_expr
