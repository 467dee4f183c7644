import pytest
from hypothesis import example, given, strategies as st

import naive_print
from traceval.errors import EvalError
from traceval.expr import (
    BIN_PREC,
    BinOp,
    BoolLit,
    INT_MAX,
    IntLit,
    Name,
    NotOp,
    compile_parts,
    conjunction,
    infer_type,
    print_expr,
)
from traceval.lang import print_model
from traceval.model import GuardedCommand, SystemModel, VarDecl


def _compiled(expr, names, consts=None):
    """``(type, fn)``: ``expr`` compiled by ``compile_parts`` into one
    function of a valuation, as ``model`` compiles an init constraint."""
    slots = {name: i for i, name in enumerate(names)}
    kind, pins, rest, safe, value, _ = compile_parts(expr, slots, consts or {}, {})
    return kind, conjunction(pins, rest, safe) or (lambda v: value)


def test_direct_comparison():
    assert _compiled(BinOp("==", Name("x"), IntLit(0)), ("x",))[1]((0,)) is True


def test_arithmetic():
    assert _compiled(BinOp("+", Name("x"), IntLit(1)), ("x",))[1]((1,)) == 2


def test_connective_semantics():
    expr = BinOp(
        "&",
        BinOp("==", Name("x"), IntLit(0)),
        BinOp("!=", Name("y"), IntLit(2)),
    )
    kind, fn = _compiled(expr, ("x", "y"))
    assert kind == "bool"
    assert fn((0, 2)) is False
    assert fn((0, 3)) is True


def test_constants_fall_back_after_values():
    expr = BinOp("<", Name("s"), Name("K"))
    assert _compiled(expr, ("s",), {"K": 3})[1]((2,)) is True


def test_unknown_identifier():
    with pytest.raises(EvalError, match="unknown identifier 'z'"):
        _compiled(Name("z"), ("x",))


def test_overflow_detected():
    _, fn = _compiled(BinOp("*", IntLit(INT_MAX), IntLit(2)), ())
    with pytest.raises(EvalError, match="overflow"):
        fn(())


def test_type_errors():
    with pytest.raises(EvalError):
        _compiled(BinOp("&", IntLit(1), BoolLit(True)), ())
    with pytest.raises(EvalError):
        _compiled(NotOp(IntLit(1)), ())
    with pytest.raises(EvalError):
        _compiled(BinOp("+", BoolLit(True), IntLit(1)), ())


def test_infer_type():
    assert infer_type(BinOp("==", Name("x"), IntLit(0))) == "bool"
    assert infer_type(BinOp("*", Name("x"), IntLit(2))) == "int"
    with pytest.raises(EvalError):
        infer_type(BinOp("|", IntLit(1), IntLit(2)))


@pytest.mark.parametrize(
    "expr,text",
    [
        (BinOp("+", Name("x"), IntLit(1)), "x+1"),
        (BinOp("*", BinOp("+", Name("a"), Name("b")), Name("c")), "(a+b)*c"),
        (BinOp("-", Name("a"), BinOp("-", Name("b"), Name("c"))), "a-(b-c)"),
        (BinOp("-", BinOp("-", Name("a"), Name("b")), Name("c")), "a-b-c"),
        (
            BinOp("&", BinOp("|", BoolLit(True), BoolLit(False)), NotOp(BoolLit(False))),
            "(true | false) & !false",
        ),
        (IntLit(-3), "-3"),
    ],
)
def test_print_expr(expr, text):
    assert print_expr(expr) == text


def test_print_expr_refuses_a_node_that_is_not_an_expression():
    with pytest.raises(EvalError, match=r"not an expression: 'x'"):
        print_expr(BinOp("+", Name("x"), "x"))


# Trees of any shape, well typed or not: the printer does not type-check, so
# every operator meets every kind of operand.  Names stand for variables and
# constants alike.
_trees = st.recursive(
    st.one_of(
        st.builds(IntLit, st.integers(-20, 20)),
        st.builds(BoolLit, st.booleans()),
        st.builds(Name, st.sampled_from(("x", "zz", "K"))),
    ),
    lambda children: st.one_of(
        st.builds(NotOp, children),
        st.builds(BinOp, st.sampled_from(sorted(BIN_PREC)), children, children),
    ),
    max_leaves=16,
)


@given(_trees)
@example(NotOp(NotOp(NotOp(BinOp("|", Name("x"), NotOp(BoolLit(False)))))))
@example(BinOp("-", IntLit(-1), BinOp("-", IntLit(-2), BinOp("*", Name("K"), IntLit(-3)))))
@example(BinOp("<", BinOp("==", Name("x"), IntLit(0)), NotOp(BinOp("&", BoolLit(True), Name("K")))))
def test_print_expr_matches_reference(expr):
    assert print_expr(expr) == naive_print.print_expr(expr)


def test_print_expr_and_print_model_print_deep_trees():
    """Deeper than the 10,000-frame limit ``parse_model`` sets, so this
    fails on a printer that recurses, whatever ran before it."""
    depth = 50_000
    total = IntLit(0)
    for i in range(1, depth):
        total = BinOp("+", total, IntLit(i))
    negated = BinOp("==", Name("x"), IntLit(0))
    for _ in range(depth):
        negated = NotOp(negated)
    sum_text = "+".join(map(str, range(depth)))
    assert print_expr(total) == sum_text
    assert print_expr(negated) == "!" * depth + "x==0"
    model = SystemModel({}, (VarDecl("x", 0, 1, 0),),
                        (GuardedCommand(None, negated, (("x", total),)),))
    assert print_model(model) == (
        "var x : 0..1 init 0;\n[] " + "!" * depth + "x==0 -> x'=" + sum_text + ";\n"
    )
