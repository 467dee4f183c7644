import pytest
from hypothesis import given, settings, strategies as st

from conftest import CHAIN2
from corpus import CMPS, IDENTS, models
from traceval import ctl
from traceval.ctl import print_formula
from traceval.errors import ParseError
from traceval.expr import INT_MIN, BinOp, IntLit, Name, eval_expr
from traceval.lang import parse_expression, parse_formula, parse_model, print_model
from traceval.model import build_graph


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


def test_parse_duplicate_declaration():
    with pytest.raises(ParseError, match="duplicate declaration"):
        parse_model("var x : 0..1 init 0; var x : 0..1 init 0;")
    with pytest.raises(ParseError, match="duplicate declaration"):
        parse_model("const x = 1; var x : 0..1 init 0;")


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
