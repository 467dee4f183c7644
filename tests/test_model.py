import itertools
import random

import pytest
from hypothesis import given, settings

import naive_eval
from conftest import CHAIN2, TOGGLE
from corpus import full_grid_town, models
from traceval.errors import EvalError, ModelError, StateExplosionError
from traceval.expr import INT_MAX, BinOp, BoolLit, IntLit, Name
from traceval.lang import parse_model
from traceval.model import GuardedCommand, SystemModel, VarDecl, build_graph, step
from traceval.town import Objective, ObjectiveStep, town_model_text


def _cmd(guard, updates=()):
    return GuardedCommand(None, guard, tuple(updates))


def _successor_rows(g):
    return [list(g.successors(i)) for i in range(g.state_count)]


def test_step_single_enabled_command():
    model = parse_model(CHAIN2)
    assert step(model, (0,)) == [(1,)]


def test_step_deadlock_self_loop():
    model = parse_model(CHAIN2)
    assert step(model, (1,)) == [(1,)]


def test_step_toggle():
    model = parse_model(TOGGLE)
    assert step(model, (0,)) == [(1,)]
    assert step(model, (1,)) == [(0,)]


def test_step_simultaneous_updates_read_pre_state():
    model = parse_model(
        "var a : 0..3 init 1;\nvar b : 0..3 init 2;\n[] true -> a'=b & b'=a;\n"
    )
    assert step(model, (1, 2)) == [(2, 1)]


def test_step_out_of_bounds_names_command_and_variable():
    model = parse_model("var x : 0..1 init 1;\n[boom] x==1 -> x'=x+1;\n")
    with pytest.raises(ModelError, match=r"\[boom\].*'x' to 2.*0\.\.1"):
        step(model, (1,))


def test_build_graph_chain2(chain2_graph):
    g = chain2_graph
    assert g.states == ((0,), (1,))
    assert g.initial == frozenset({0})
    assert _successor_rows(g) == [[1], [1]]
    assert (g.state_count, g.edge_count) == (2, 2)


def test_build_graph_toggle(toggle_graph):
    g = toggle_graph
    assert g.states == ((0,), (1,))
    assert _successor_rows(g) == [[1], [0]]


def test_build_graph_no_commands_single_state():
    g = build_graph(parse_model("var x : 0..5 init 3;\n"))
    assert g.states == ((3,),)
    assert _successor_rows(g) == [[0]]


def test_build_graph_counter_four_states():
    g = build_graph(parse_model("const K = 3;\nvar s : 0..3 init 0;\n[] s<K -> s'=s+1;\n"))
    assert g.state_count == 4
    assert g.states == ((0,), (1,), (2,), (3,))


def test_state_budget_exceeded():
    text = "var n : 0..99 init 0;\n[] n<99 -> n'=n+1;\n"
    with pytest.raises(StateExplosionError, match="state explosion"):
        build_graph(parse_model(text), max_states=10)


def test_init_constraint_widens_initial_set():
    g = build_graph(parse_model("var x : 0..3 init 0;\ninit x>=2;\n"))
    assert g.initial == frozenset({0, 1, 2})
    assert sorted(g.states[i] for i in g.initial) == [(0,), (2,), (3,)]


def test_model_validation_rejects_clashes():
    with pytest.raises(ModelError):
        SystemModel({"x": 1}, (VarDecl("x", 0, 1, 0),), ())
    with pytest.raises(ModelError):
        SystemModel({}, (), ())
    with pytest.raises(ModelError):
        VarDecl("x", 0, 1, 2)
    # names in expressions are resolved when the model is compiled
    ghost = SystemModel({}, (VarDecl("x", 0, 1, 0),), (_cmd(BinOp("==", Name("ghost"), IntLit(0))),))
    with pytest.raises(ModelError, match="unknown identifier 'ghost'"):
        build_graph(ghost)
    ghost_init = SystemModel({}, (VarDecl("x", 0, 1, 0),), (), BinOp("==", Name("ghost"), IntLit(0)))
    with pytest.raises(ModelError, match="init constraint: unknown identifier 'ghost'"):
        build_graph(ghost_init)


def _random_model(rng: random.Random) -> SystemModel:
    names = ["a", "b", "c"][: rng.randint(1, 3)]
    variables = []
    for name in names:
        lo = rng.randint(-2, 1)
        hi = lo + rng.randint(0, 3)
        variables.append(VarDecl(name, lo, hi, rng.randint(lo, hi)))
    commands = []
    for _ in range(rng.randint(0, 4)):
        decl = rng.choice(variables)
        guard = BinOp(
            rng.choice(("==", "<", "<=", ">", "!=")),
            Name(decl.name),
            IntLit(rng.randint(decl.lo, decl.hi)),
        )
        updates = []
        for target in rng.sample(variables, rng.randint(0, len(variables))):
            updates.append((target.name, IntLit(rng.randint(target.lo, target.hi))))
        commands.append(_cmd(guard, updates))
    return SystemModel({}, tuple(variables), tuple(commands))


def test_graph_invariants_on_random_models():
    rng = random.Random(4217)
    for _ in range(60):
        model = _random_model(rng)
        g = build_graph(model)
        again = build_graph(model)
        # determinism: same model, bit-identical graph
        assert g.states == again.states
        assert _successor_rows(g) == _successor_rows(again)
        assert g.initial == again.initial
        index = {v: i for i, v in enumerate(g.states)}
        assert len(index) == g.state_count  # deduplicated
        bounds = {v.name: (v.lo, v.hi) for v in model.variables}
        for valuation in g.states:
            for name, value in zip(model.var_names, valuation):
                lo, hi = bounds[name]
                assert lo <= value <= hi  # domain safety
        reachable = set(g.initial)
        frontier = list(g.initial)
        while frontier:
            s = frontier.pop()
            for t in g.successors(s):
                if t not in reachable:
                    reachable.add(t)
                    frontier.append(t)
        assert reachable == set(range(g.state_count))  # reachability-closed
        for i, valuation in enumerate(g.states):
            targets = set(g.successors(i))
            assert len(targets) >= 1  # totality
            assert all(0 <= t < g.state_count for t in targets)  # closure
            successors = naive_eval.step(model, valuation)
            expected = {index[t] for t in successors}
            # agreement: graph edges are exactly the reference successors
            # (the reference step already folds the deadlock self-loop in)
            assert targets == expected
        # predecessors are exactly the transpose of successors
        edges = [(s, t) for s in range(g.state_count) for t in g.successors(s)]
        transposed = [(s, t) for t in range(g.state_count) for s in g.predecessors(t)]
        assert sorted(transposed) == sorted(edges)
        assert g.edge_count == sum(len(g.successors(s)) for s in range(g.state_count))
        # the row arrays are the same relation the per-state methods slice
        for rows, row in ((g.successor_rows, g.successors), (g.predecessor_rows, g.predecessors)):
            start, flat = rows
            assert len(start) == g.state_count + 1 and start[-1] == len(flat) == g.edge_count
            assert all(flat[start[i]:start[i + 1]] == row(i) for i in range(g.state_count))


# --- the compiled evaluator against the tree-walking reference ---------------


def _reference_raises(fn, *args) -> bool:
    try:
        fn(*args)
    except (ModelError, EvalError):
        return True
    return False


def _assert_graph_matches_reference(model):
    if _reference_raises(naive_eval.reachable_graph, model):
        with pytest.raises(ModelError):
            build_graph(model)
        return
    states, initial, rows = naive_eval.reachable_graph(model)
    g = build_graph(model)
    assert g.states == tuple(states)
    assert g.initial == frozenset(initial)
    assert _successor_rows(g) == rows


@settings(max_examples=150, deadline=None)
@given(models())
def test_compiled_step_and_graph_match_reference(model):
    domain = itertools.product(*(range(v.lo, v.hi + 1) for v in model.variables))
    for valuation in domain:
        if _reference_raises(naive_eval.step, model, valuation):
            with pytest.raises(ModelError):
                step(model, valuation)
        else:
            assert step(model, valuation) == naive_eval.step(model, valuation)
    _assert_graph_matches_reference(model)


def test_build_graph_matches_reference_on_towns(town5x5, objective4):
    tags = {(5, 0): 1, (5, 6): 2, (9, 6): 3, (9, 10): 4, (2, 10): 5, (2, 3): 6}
    grid12 = full_grid_town(12, 12, tags, (0, 0, 1))
    drive = Objective(tuple(
        ObjectiveStep(tag, action)
        for tag, action in ((1, "left"), (2, "right"), (3, "left"), (4, "left"), (5, "left"), (6, "forward"))
    ))
    for town, objective, reduce in (
        (town5x5, objective4, True),
        (town5x5, objective4, False),
        (grid12, drive, False),
    ):
        _assert_graph_matches_reference(parse_model(town_model_text(town, objective, reduce=reduce)))


_X_IS_1 = BinOp("==", Name("x"), IntLit(1))
_OVERFLOWS_UNLESS_X_IS_0 = BinOp("==", BinOp("*", BinOp("*", Name("x"), IntLit(INT_MAX)), IntLit(4)), IntLit(0))


@pytest.mark.parametrize(
    "guard,updates,raising,message",
    [
        (BinOp("+", Name("x"), IntLit(1)), (), {0, 1, 2}, r"#1 \[bad\]: guard is not boolean"),
        (_X_IS_1, (("x", _X_IS_1),), {1}, r"#1 \[bad\]: update of 'x' is not integer"),
        (
            BinOp("==", Name("x"), IntLit(2)),
            (("x", BinOp("+", BoolLit(True), IntLit(1))),),
            {2},
            r"#1 \[bad\]: operands of '\+' must be integers",
        ),
        (_X_IS_1, (("x", Name("ghost")),), {1}, r"#1 \[bad\]: unknown identifier 'ghost'"),
        # '&' evaluates its right operand even when its left one is false
        (
            BinOp("&", BinOp("==", Name("x"), IntLit(5)), _OVERFLOWS_UNLESS_X_IS_0),
            (),
            {1, 2},
            r"#1 \[bad\]: arithmetic overflow in '\*'",
        ),
    ],
    ids=[
        "non-boolean-guard",
        "non-integer-update",
        "ill-typed-update",
        "unknown-name-in-update",
        "overflow-right-of-and",
    ],
)
def test_errors_raise_model_error_exactly_where_the_reference_raises(guard, updates, raising, message):
    model = SystemModel({}, (VarDecl("x", 0, 2, 0),), (GuardedCommand("bad", guard, updates),))
    for x in range(3):
        assert _reference_raises(naive_eval.step, model, (x,)) == (x in raising)
        if x in raising:
            with pytest.raises(ModelError, match=message):
                step(model, (x,))
        else:
            assert step(model, (x,)) == naive_eval.step(model, (x,))
