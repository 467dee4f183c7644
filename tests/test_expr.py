import pytest

from traceval.errors import EvalError
from traceval.expr import (
    BinOp,
    BoolLit,
    INT_MAX,
    IntLit,
    Name,
    NotOp,
    compile_expr,
    infer_type,
    print_expr,
)


def test_direct_comparison():
    assert compile_expr(BinOp("==", Name("x"), IntLit(0)), ("x",))[1]((0,)) is True


def test_arithmetic():
    assert compile_expr(BinOp("+", Name("x"), IntLit(1)), ("x",))[1]((1,)) == 2


def test_connective_semantics():
    expr = BinOp(
        "&",
        BinOp("==", Name("x"), IntLit(0)),
        BinOp("!=", Name("y"), IntLit(2)),
    )
    kind, fn = compile_expr(expr, ("x", "y"))
    assert kind == "bool"
    assert fn((0, 2)) is False
    assert fn((0, 3)) is True


def test_constants_fall_back_after_values():
    expr = BinOp("<", Name("s"), Name("K"))
    assert compile_expr(expr, ("s",), {"K": 3})[1]((2,)) is True


def test_unknown_identifier():
    with pytest.raises(EvalError, match="unknown identifier 'z'"):
        compile_expr(Name("z"), ("x",))


def test_overflow_detected():
    _, fn = compile_expr(BinOp("*", IntLit(INT_MAX), IntLit(2)), ())
    with pytest.raises(EvalError, match="overflow"):
        fn(())


def test_type_errors():
    with pytest.raises(EvalError):
        compile_expr(BinOp("&", IntLit(1), BoolLit(True)), ())
    with pytest.raises(EvalError):
        compile_expr(NotOp(IntLit(1)), ())
    with pytest.raises(EvalError):
        compile_expr(BinOp("+", BoolLit(True), IntLit(1)), ())


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
