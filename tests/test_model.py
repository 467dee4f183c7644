import collections
import dataclasses
import itertools
import random
import re
import time
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_eval
from conftest import CHAIN2, TOGGLE
from corpus import full_grid_town, models, random_town_logs, successor_lists
from traceval.checker import reach
from traceval.errors import EvalError, ModelError, StateExplosionError
from traceval import expr as expr_module
from traceval import model as model_module
from traceval.expr import INT_MAX, BinOp, BoolLit, IntLit, Name, NotOp
from traceval.lang import parse_model, print_model
from traceval.lifecycle import STATUS_CONFIRMED, adjudicate
from traceval.model import GuardedCommand, StateGraph, SystemModel, VarDecl, build_graph, compile_model
from traceval.town import Objective, ObjectiveStep, town_model_text


def _cmd(guard, updates=()):
    return GuardedCommand(None, guard, tuple(updates))


def test_step_single_enabled_command():
    assert compile_model(parse_model(CHAIN2))[1]((0,)) == [(1,)]


def test_step_deadlock_self_loop():
    assert compile_model(parse_model(CHAIN2))[1]((1,)) == [(1,)]


def test_step_toggle():
    successors = compile_model(parse_model(TOGGLE))[1]
    assert successors((0,)) == [(1,)]
    assert successors((1,)) == [(0,)]


def test_step_simultaneous_updates_read_pre_state():
    model = parse_model(
        "var a : 0..3 init 1;\nvar b : 0..3 init 2;\n[] true -> a'=b & b'=a;\n"
    )
    assert compile_model(model)[1]((1, 2)) == [(2, 1)]


def test_step_out_of_bounds_names_command_and_variable():
    successors = compile_model(parse_model("var x : 0..1 init 1;\n[boom] x==1 -> x'=x+1;\n"))[1]
    with pytest.raises(ModelError, match=r"\[boom\].*'x' to 2.*0\.\.1"):
        successors((1,))


def test_build_graph_chain2(chain2_graph):
    g = chain2_graph
    assert g.states == ((0,), (1,))
    assert g.initial == frozenset({0})
    assert successor_lists(g) == [[1], [1]]
    assert (g.state_count, g.edge_count) == (2, 2)


def test_build_graph_toggle(toggle_graph):
    g = toggle_graph
    assert g.states == ((0,), (1,))
    assert successor_lists(g) == [[1], [0]]


def test_build_graph_no_commands_single_state():
    g = build_graph(parse_model("var x : 0..5 init 3;\n"))
    assert g.states == ((3,),)
    assert successor_lists(g) == [[0]]


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


def test_init_constraint_domain_over_the_budget_raises():
    # 11 candidate valuations against a budget of 10
    with pytest.raises(StateExplosionError, match="init constraint enumeration exceeded 10 candidates"):
        build_graph(parse_model("var x : 0..10 init 0;\ninit x>5;\n"), max_states=10)
    # exactly 10 candidates (2 x 5) enumerate
    g = build_graph(parse_model("var x : 0..1 init 0;\nvar y : 0..4 init 0;\ninit y>2;\n"), max_states=10)
    assert sorted(g.states[i] for i in g.initial) == [(0, 0), (0, 3), (0, 4), (1, 3), (1, 4)]


def test_init_constraint_over_a_wide_domain_is_refused_before_enumerating():
    import tracemalloc

    text = "var x : 0..1 init 0;\nvar y : 0..9223372036854775807 init 0;\ninit x==0;\n"
    model = parse_model(text)
    tracemalloc.start()
    try:
        with pytest.raises(StateExplosionError, match="exceeded 1000000 candidates"):
            build_graph(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


def test_integer_init_constraint_is_refused():
    # an integer is no truth value, as for a guard
    model = SystemModel({}, (VarDecl("x", 0, 3, 0),), (), Name("x"))
    with pytest.raises(ModelError, match="^init constraint is not boolean$"):
        build_graph(model)
    _assert_graph_matches_reference(model)


@settings(max_examples=150, deadline=None)
@given(models().filter(lambda model: model.init_constraint is not None))
def test_compile_model_gives_the_reference_initial_valuations(model):
    assert compile_model(model)[0] == tuple(naive_eval.initial_valuations(model))


@pytest.mark.parametrize(
    "init,hi,budget,refusal",
    [
        (BinOp("==", Name("ghost"), IntLit(0)), 2, 10, "ModelError: init constraint: unknown identifier 'ghost'"),
        (Name("x"), 2, 10, "ModelError: init constraint is not boolean"),
        (
            BinOp(">", BinOp("*", Name("x"), IntLit(INT_MAX)), IntLit(0)), 2, 10,
            "ModelError: init constraint: arithmetic overflow in '*': result 18446744073709551614",
        ),
        (
            BinOp(">", Name("x"), IntLit(0)), 2, 2,
            "StateExplosionError: state explosion: init constraint enumeration exceeded 2 candidates",
        ),
        (
            BinOp("==", Name("x"), IntLit(0)), INT_MAX, 1_000_000,
            "StateExplosionError: state explosion: init constraint enumeration exceeded 1000000 candidates",
        ),
    ],
    ids=["unknown-name", "not-boolean", "overflow", "over-the-budget", "wide-domain"],
)
def test_compile_model_refuses_an_init_constraint_before_any_guard(init, hi, budget, refusal):
    """Each refusal is worded as before; it comes before the guard that is
    not boolean, and a domain wider than the budget is refused before it is
    enumerated."""
    import tracemalloc

    model = SystemModel({}, (VarDecl("x", 0, hi, 0),), (_cmd(Name("x")),), init)
    tracemalloc.start()
    try:
        assert _outcome(compile_model, model, budget) == refusal
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


def test_graph_invariants_on_random_models(transposes):
    rng = random.Random(4217)
    for _ in range(60):
        model = _random_model(rng)
        g = build_graph(model)
        again = build_graph(model)
        # each graph is transposed once, when it is built
        assert transposes == [g.state_count, again.state_count]
        transposes.clear()
        # determinism: same model, bit-identical graph
        assert g.states == again.states
        assert g.predecessor_rows == again.predecessor_rows
        assert g.initial == again.initial
        succ = successor_lists(g)
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
            for t in succ[s]:
                if t not in reachable:
                    reachable.add(t)
                    frontier.append(t)
        assert reachable == set(range(g.state_count))  # reachability-closed
        for i, valuation in enumerate(g.states):
            targets = set(succ[i])
            assert len(targets) >= 1  # totality
            assert all(0 <= t < g.state_count for t in targets)  # closure
            successors = naive_eval.step(model, valuation)
            expected = {index[t] for t in successors}
            # agreement: graph edges are exactly the reference successors
            # (the reference step already folds the deadlock self-loop in)
            assert targets == expected
        # the row arrays are the relation ``predecessors`` slices, each row
        # ascending and duplicate-free, and reading them transposes nothing
        start, sources = g.predecessor_rows
        assert len(start) == g.state_count + 1 and start[-1] == len(sources) == g.edge_count
        for t in range(g.state_count):
            row = g.predecessors(t)
            assert sources[start[t]:start[t + 1]] == row
            assert list(row) == sorted(set(row))
        assert g.edge_count == sum(map(len, succ))
        assert transposes == []


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
    assert successor_lists(g) == rows


@settings(max_examples=150, deadline=None)
@given(models())
def test_compiled_step_and_graph_match_reference(model):
    domain = itertools.product(*(range(v.lo, v.hi + 1) for v in model.variables))
    successors = compile_model(model)[1]
    for valuation in domain:
        if _reference_raises(naive_eval.step, model, valuation):
            with pytest.raises(ModelError):
                successors(valuation)
        else:
            assert successors(valuation) == naive_eval.step(model, valuation)
    _assert_graph_matches_reference(model)


def _grid12_model():
    """The unreduced model of a 12x12 full-grid town with six stops: about
    600 commands, each pinned to one (x, y, d)."""
    tags = {(5, 0): 1, (5, 6): 2, (9, 6): 3, (9, 10): 4, (2, 10): 5, (2, 3): 6}
    grid12 = full_grid_town(12, 12, tags, (0, 0, 1))
    drive = Objective(tuple(
        ObjectiveStep(tag, action)
        for tag, action in ((1, "left"), (2, "right"), (3, "left"), (4, "left"), (5, "left"), (6, "forward"))
    ))
    return parse_model(town_model_text(grid12, drive, reduce=False))


def test_build_graph_matches_reference_on_towns(town5x5, objective4):
    for model in (
        parse_model(town_model_text(town5x5, objective4, reduce=True)),
        parse_model(town_model_text(town5x5, objective4, reduce=False)),
        _grid12_model(),
    ):
        _assert_graph_matches_reference(model)


def _town_and_counter_texts(town5x5, objective4) -> list[str]:
    """The bundled town, reduced and not, four random towns and five
    counters."""
    counter = "var x : 0..@@ init 0;\nvar y : 0..@@ init 0;\n[] x<@@ -> x'=x+1;\n[] y<@@ -> y'=y+1;\n"
    return [
        town_model_text(town5x5, objective4, reduce=True),
        town_model_text(town5x5, objective4, reduce=False),
        *(text for text, _ in itertools.islice(random_town_logs(), 4)),
        *(counter.replace("@@", str(top)) for top in (0, 1, 7, 30)),
        "var x : 0..8 init 0;\nvar y : 0..3 init 0;\n[] x<8 -> x'=x+2;\n[] y<3 & x>2 -> y'=y+1;\n",
    ]


def test_built_graphs_equal_the_graphs_given_as_rows(town5x5, objective4):
    """``build_graph`` writes the rows itself; the iterable constructor,
    given the same states, initial states and rows, out of order and
    repeated, makes the same graph."""
    for text in _town_and_counter_texts(town5x5, objective4):
        model = parse_model(text)
        built = build_graph(model)
        rows = successor_lists(built)
        given = StateGraph(built.variables, built.states, built.initial, [row[::-1] + row for row in rows])
        for field in ("variables", "states", "initial", "predecessor_rows"):
            assert getattr(built, field) == getattr(given, field), (text, field)


def test_the_constructor_checks_every_index():
    """An initial index outside the states is refused as a successor index
    is, not left for labelling to misread."""
    states = ((0,), (1,))
    for initial, rows, named in (
        ({5}, [[1], [1]], "initial"),
        ({-1}, [[1], [1]], "initial"),
        ({0}, [[1], [2]], "successor"),
        ({0}, [[-1], [1]], "successor"),
    ):
        with pytest.raises(ValueError, match=f"{named} index outside 0..1"):
            StateGraph(("x",), states, initial, rows)
    with pytest.raises(ValueError, match="1 successor rows for 2 states"):
        StateGraph(("x",), states, {0}, [[1]])
    assert StateGraph(("x",), states, {1}, [[1], [1]]).initial == {1}


# --- shared subexpressions ---------------------------------------------------


def _roots(model):
    """The guards and update expressions of ``model``, then its init
    constraint, if any."""
    roots = [cmd.guard for cmd in model.commands]
    roots += [rhs for cmd in model.commands for _, rhs in cmd.updates]
    return roots + ([model.init_constraint] if model.init_constraint is not None else [])


def _node_objects(roots):
    """Every node object under ``roots``, once each."""
    found, stack = {}, list(roots)
    while stack:
        e = stack.pop()
        if id(e) not in found:
            found[id(e)] = e
            if isinstance(e, BinOp):
                stack += (e.left, e.right)
            elif isinstance(e, NotOp):
                stack.append(e.operand)
    return list(found.values())


def _unshared(expr):
    """A copy of ``expr`` with a new node at every occurrence."""
    done, stack = [], [(expr, False)]
    while stack:
        e, operands_done = stack.pop()
        if isinstance(e, BinOp) and not operands_done:
            stack += ((e, True), (e.right, False), (e.left, False))
        elif isinstance(e, NotOp) and not operands_done:
            stack += ((e, True), (e.operand, False))
        elif isinstance(e, BinOp):
            right = done.pop()
            done[-1] = BinOp(e.op, done[-1], right)
        elif isinstance(e, NotOp):
            done[-1] = NotOp(done[-1])
        else:
            done.append(dataclasses.replace(e))
    return done[0]


def _unshared_model(model):
    commands = tuple(
        GuardedCommand(cmd.label, _unshared(cmd.guard), tuple((n, _unshared(rhs)) for n, rhs in cmd.updates))
        for cmd in model.commands
    )
    init = model.init_constraint
    return SystemModel(
        dict(model.constants), model.variables, commands, None if init is None else _unshared(init)
    )


def _answers(model, valuations):
    """The text of ``model``, its initial valuations, its successors or
    ModelError text at each of ``valuations``, and its graph or the text of
    the ModelError building it raises; or the text of the ModelError
    compiling it raises."""
    compiled = _outcome(compile_model, model)
    if isinstance(compiled, str):
        return compiled
    initial, successors = compiled
    graph = _outcome(build_graph, model)
    if not isinstance(graph, str):
        graph = (graph.states, graph.initial, successor_lists(graph))
    return print_model(model), initial, [_outcome(successors, v) for v in valuations], graph


def _domain(model):
    return list(itertools.product(*(range(v.lo, v.hi + 1) for v in model.variables)))


@settings(max_examples=100, deadline=None)
@given(models())
def test_a_parsed_model_answers_as_its_unshared_copy(model):
    parsed = parse_model(print_model(model))
    twin = _unshared_model(parsed)
    assert parsed == twin == model
    assert _answers(parsed, _domain(model)) == _answers(twin, _domain(model))


def test_parsed_towns_and_counters_answer_as_their_unshared_copies(town5x5, objective4):
    for model in [*map(parse_model, _town_and_counter_texts(town5x5, objective4)), _grid12_model()]:
        twin = _unshared_model(model)
        assert model == twin
        reachable = build_graph(twin).states
        assert _answers(model, reachable) == _answers(twin, reachable)


def test_nodes_a_built_model_shares_answer_as_copies_of_them():
    """Guards that use one node object twice, and an update that cannot be
    typed shared by two commands, which each name themselves."""
    x, y = Name("x"), Name("y")
    g, h = BinOp("==", x, IntLit(0)), BinOp("<", y, IntLit(2))
    variables = (VarDecl("x", 0, 2, 0), VarDecl("y", 0, 2, 0))
    step_y = (("y", BinOp("+", y, IntLit(1))),)
    for guard in (BinOp("&", g, g), BinOp("|", g, BinOp("&", g, h)), BinOp("&", NotOp(g), g)):
        model = SystemModel({}, variables, (
            GuardedCommand("a", guard, (("x", BinOp("+", x, IntLit(1))),)),
            GuardedCommand(None, BinOp("&", h, guard), step_y),
        ))
        for valuation in _domain(model):
            assert _outcome(compile_model(model)[1], valuation) == _outcome(naive_eval.step, model, valuation)
        _assert_graph_matches_reference(model)
        assert _answers(model, _domain(model)) == _answers(_unshared_model(model), _domain(model))
    untyped = BinOp("+", x, BoolLit(True))
    model = SystemModel({}, variables, (
        GuardedCommand("a", g, (("y", untyped),)),
        GuardedCommand("b", BinOp("==", x, IntLit(1)), (("y", untyped),)),
    ))
    successors = compile_model(model)[1]
    for valuation, named in (((0, 0), "#1 [a]"), ((1, 0), "#2 [b]")):
        assert _outcome(successors, valuation) == f"ModelError: command {named}: operands of '+' must be integers"
    assert _answers(model, _domain(model)) == _answers(_unshared_model(model), _domain(model))


def test_a_guard_of_2000_equal_conjuncts_is_confirmed():
    text = "var x : 0..1 init 0;\n[] " + " & ".join(["x==0"] * 2000) + " -> x'=1;\n"
    assert adjudicate(text, "x\n0\n1\n1\n") == (STATUS_CONFIRMED, None)
    model = parse_model(text)
    # 1,999 '&' nodes, one 'x==0', its two leaves and the update's 1
    assert len(_node_objects(_roots(model))) == 2003
    assert _answers(model, [(0,), (1,)]) == _answers(_unshared_model(model), [(0,), (1,)])


def test_parsing_shares_every_equal_subtree_and_compiling_compiles_each_once(monkeypatch):
    model = _grid12_model()
    nodes = _node_objects(_roots(model))
    assert len(nodes) == len(set(nodes))  # no two node objects are equal
    assert len(nodes) * 5 < len(_node_objects(_roots(_unshared_model(model))))
    compiled = collections.Counter()

    def counting(fn):
        def counted(e, *args):
            compiled[id(e)] += 1
            return fn(e, *args)
        return counted

    for name in ("_compile_binary", "_compile_leaf"):
        monkeypatch.setattr(expr_module, name, counting(getattr(expr_module, name)))
    compile_model(model)
    commands = _node_objects(_roots(dataclasses.replace(model, init_constraint=None)))
    assert set(compiled) == {id(e) for e in commands if not isinstance(e, NotOp)}
    assert set(compiled.values()) == {1}


@pytest.mark.parametrize("deep", ["left", "right"])
def test_a_long_conjunction_compiles_in_linear_time(deep):
    """200,000 conjuncts: gathering their pins by copying lists would take
    hours."""
    x_is_0, y_is_1 = BinOp("==", Name("x"), IntLit(0)), BinOp("==", Name("y"), IntLit(1))
    guard = x_is_0
    for i in range(1, 200_000):
        conjunct = y_is_1 if i % 2 else x_is_0
        guard = BinOp("&", guard, conjunct) if deep == "left" else BinOp("&", conjunct, guard)
    variables = (VarDecl("x", 0, 1, 0), VarDecl("y", 0, 1, 0))
    model = SystemModel({}, variables, (GuardedCommand(None, guard, (("x", IntLit(1)),)),))
    start = time.perf_counter()
    successors = compile_model(model)[1]
    assert time.perf_counter() - start < 30
    assert [successors(v) for v in ((0, 0), (0, 1))] == [[(0, 0)], [(1, 1)]]


_X_IS_1 = BinOp("==", Name("x"), IntLit(1))
_X_AT_LEAST_1 = BinOp(">=", Name("x"), IntLit(1))
_OVERFLOW_IN_PLUS = r"#1 \[bad\]: arithmetic overflow in '\+': result 922337203685477580[89]$"
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
        # shifts that leave 64 bits where x is 1 or more
        (_X_AT_LEAST_1, (("x", BinOp("+", Name("x"), IntLit(INT_MAX))),), {1, 2}, _OVERFLOW_IN_PLUS),
        (_X_AT_LEAST_1, (("x", BinOp("+", IntLit(INT_MAX), Name("x"))),), {1, 2}, _OVERFLOW_IN_PLUS),
        (
            _X_AT_LEAST_1,
            (("x", BinOp("-", Name("x"), IntLit(-INT_MAX))),),
            {1, 2},
            r"#1 \[bad\]: arithmetic overflow in '-': result 922337203685477580[89]$",
        ),
    ],
    ids=[
        "non-boolean-guard",
        "non-integer-update",
        "ill-typed-update",
        "unknown-name-in-update",
        "overflow-right-of-and",
        "shift-overflow",
        "shift-overflow-constant-first",
        "shift-overflow-minus",
    ],
)
def test_errors_raise_model_error_exactly_where_the_reference_raises(guard, updates, raising, message):
    model = SystemModel({}, (VarDecl("x", 0, 2, 0),), (GuardedCommand("bad", guard, updates),))
    for x in range(3):
        assert _reference_raises(naive_eval.step, model, (x,)) == (x in raising)
    try:
        successors = compile_model(model)[1]
    except ModelError as exc:
        # a guard that cannot be typed fails the compile, as it fails every state
        assert raising == {0, 1, 2}
        assert re.search(message, str(exc))
        return
    for x in range(3):
        if x in raising:
            with pytest.raises(ModelError, match=message):
                successors((x,))
        else:
            assert successors((x,)) == naive_eval.step(model, (x,))


# --- dispatch on pinned conjuncts ---------------------------------------------

_GUARD_VARS = ("x", "y", "zz")


def _overflows_unless_zero(var):
    """An integer that overflows unless ``var`` is 0."""
    return BinOp("*", BinOp("*", Name(var), IntLit(INT_MAX)), IntLit(2))


def _overflows_above(var, bound):
    """A test true where ``var <= bound`` that overflows where it is not."""
    return BinOp(">=", BinOp("+", IntLit(INT_MAX - bound), Name(var)), IntLit(0))


@st.composite
def _conjunct(draw, names):
    var = Name(draw(st.sampled_from(names)))
    const = draw(st.one_of(st.builds(IntLit, st.integers(-3, 4)), st.just(Name("K"))))
    pin = draw(st.sampled_from((BinOp("==", var, const), BinOp("==", const, var))))
    kind = draw(st.integers(0, 6))
    if kind <= 2:  # a pin, on either side, on a literal or the constant
        return pin
    if kind == 3:
        return BinOp(draw(st.sampled_from(("!=", "<", "<=", ">", ">="))), var, const)
    if kind == 4:  # a pin under '!' or '|' is not a pin
        other = draw(_conjunct(names))
        return draw(st.sampled_from((NotOp(pin), BinOp("|", pin, other), BinOp("|", other, pin))))
    if kind == 5:  # a rest that can overflow
        return _overflows_above(var.ident, draw(st.integers(-2, 3)))
    return BoolLit(draw(st.booleans()))


@st.composite
def _and_chain(draw, parts):
    """``parts`` joined by '&' in a drawn shape: left-, right-nested or mixed."""
    if len(parts) == 1:
        return parts[0]
    cut = draw(st.integers(1, len(parts) - 1))
    return BinOp("&", draw(_and_chain(parts[:cut])), draw(_and_chain(parts[cut:])))


@st.composite
def _update(draw, names, target):
    """A right side for an update of ``target``: a literal, the constant,
    an overflowing product, a shift ``v + c``, ``v - c`` or ``c + v`` of
    any variable by a literal or the constant, one by INT_MAX, which
    leaves 64 bits where ``v`` is 1 or more (``-`` where it is -2 or less),
    or ``c - v``, which is no shift."""
    source = Name(draw(st.sampled_from(names)))
    by = draw(st.sampled_from((IntLit(draw(st.integers(-3, 4))), Name("K"))))
    shifts = lambda c: (BinOp("+", source, c), BinOp("-", source, c), BinOp("+", c, source))
    return draw(st.sampled_from((
        IntLit(draw(st.integers(-3, 4))),
        BinOp("+", Name(target), IntLit(1)),
        Name("K"),
        _overflows_unless_zero(target),
        draw(st.sampled_from(shifts(by))),
        draw(st.sampled_from(shifts(IntLit(INT_MAX)))),
        BinOp("-", by, source),
    )))


@st.composite
def pinned_models(draw):
    """Models whose guards are '&' chains of pins (repeated and contradictory
    ones too), comparisons, pins under '!' and '|', overflowing rests and
    literals, and whose updates often leave their range or overflow, so
    that several enabled commands can fail at one state."""
    names = _GUARD_VARS[: draw(st.integers(1, 3))]
    variables = []
    for name in names:
        lo = draw(st.integers(-2, 1))
        hi = lo + draw(st.integers(0, 3))
        variables.append(VarDecl(name, lo, hi, draw(st.integers(lo, hi))))
    commands = []
    for i in range(draw(st.integers(0, 6))):
        parts = draw(st.lists(_conjunct(names), min_size=1, max_size=5))
        if draw(st.booleans()):
            parts.append(parts[0])  # a repeated pin, or a repeated test
        updates = []
        for target in draw(st.permutations(names))[: draw(st.integers(0, len(names)))]:
            updates.append((target, draw(_update(names, target))))
        label = draw(st.one_of(st.none(), st.just(f"c{i}")))
        commands.append(GuardedCommand(label, draw(_and_chain(parts)), tuple(updates)))
    return SystemModel({"K": draw(st.integers(-2, 3))}, tuple(variables), tuple(commands))


def _outcome(fn, *args):
    """``fn(*args)``, or the class and text of the ModelError it raises."""
    try:
        return fn(*args)
    except ModelError as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=300, deadline=None)
@given(pinned_models())
def test_dispatch_matches_reference_with_the_same_errors(model):
    domain = itertools.product(*(range(v.lo, v.hi + 1) for v in model.variables))
    successors = compile_model(model)[1]
    for valuation in domain:
        expected = _outcome(naive_eval.step, model, valuation)
        assert _outcome(successors, valuation) == expected
    expected = _outcome(naive_eval.reachable_graph, model)
    graph = _outcome(build_graph, model)
    if isinstance(expected, str):
        assert graph == expected
    else:
        states, initial, rows = expected
        assert (graph.states, graph.initial, successor_lists(graph)) == (
            tuple(states), frozenset(initial), rows
        )


def test_a_shift_past_64_bits_overflows_whatever_the_range():
    """A variable built directly with a range past INT_MAX: x + 1 at INT_MAX
    fits the range but not 64 bits, so it still overflows."""
    wide = VarDecl("x", 0, INT_MAX + 5, INT_MAX)
    model = SystemModel({}, (wide,), (_cmd(BoolLit(True), (("x", BinOp("+", Name("x"), IntLit(1))),)),))
    successors = compile_model(model)[1]
    expected = _outcome(naive_eval.step, model, (INT_MAX,))
    assert expected.startswith("ModelError: command #1: arithmetic overflow in '+'")
    assert _outcome(successors, (INT_MAX,)) == expected
    assert successors((0,)) == naive_eval.step(model, (0,)) == [(1,)]


def _explodes(max_states):
    return StateExplosionError(f"state explosion: more than {max_states} reachable states")


def _reference_build(model, max_states):
    """``(states, initial, rows)``: build_graph's numbering written out,
    stepping with the reference evaluator.  A new valuation is numbered
    unless ``max_states`` are numbered already."""
    inits = naive_eval.initial_valuations(model)
    index, states = {}, []

    def intern(v):
        if v not in index:
            if len(states) >= max_states:
                raise _explodes(max_states)
            index[v] = len(states)
            states.append(v)
        return index[v]

    initial = [intern(v) for v in inits]
    rows = [sorted(intern(t) for t in naive_eval.step(model, v)) for v in states]
    return tuple(states), frozenset(initial), rows


def _reference_reach(model, sources, max_states, target):
    """``checker.reach`` written out, stepping with the reference evaluator:
    the budget is tested before a found target stops the search."""
    queue = list(sources)
    found, edges = set(queue), 0
    for v in queue:
        if len(found) > max_states:
            raise _explodes(max_states)
        if target in found:
            break
        step = naive_eval.step(model, v)
        edges += len(step)
        for t in step:
            if t not in found:
                found.add(t)
                queue.append(t)
    return found, edges


def _graph_rows(model, max_states):
    graph = build_graph(model, max_states)
    return graph.states, graph.initial, successor_lists(graph)


@settings(max_examples=100, deadline=None)
@given(pinned_models(), st.data())
def test_budgets_stop_the_build_and_the_search_where_the_reference_does(model, data):
    """Every budget from 0 to one past the reachable state count: the
    graph, the search's states and edges, or the error, are the reference's."""
    domain = list(itertools.product(*(range(v.lo, v.hi + 1) for v in model.variables)))
    target = data.draw(st.one_of(st.none(), st.sampled_from(domain)))
    reachable = _outcome(naive_eval.reachable_graph, model)
    count = len(domain) if isinstance(reachable, str) else len(reachable[0])
    successors, inits = compile_model(model)[1], naive_eval.initial_valuations(model)
    for budget in range(count + 2):
        assert _outcome(_graph_rows, model, budget) == _outcome(_reference_build, model, budget)
        assert _outcome(reach, successors, inits, budget, target) == _outcome(
            _reference_reach, model, inits, budget, target
        )


def test_a_target_found_past_the_budget_raises():
    """The step from x==1 finds the target x==2, a third state: with room
    for three states the search returns, and with room for two it raises,
    as the budget is tested before the target."""
    model = parse_model("var x : 0..3 init 0;\n[] x<3 -> x'=x+1;\n")
    successors = compile_model(model)[1]
    for budget, outcome in ((3, ({(0,), (1,), (2,)}, 2)), (2, f"StateExplosionError: {_explodes(2)}")):
        assert _outcome(reach, successors, [(0,)], budget, (2,)) == outcome
        assert _outcome(_reference_reach, model, [(0,)], budget, (2,)) == outcome


def test_the_first_failing_command_is_named_across_tables():
    model = parse_model(
        "var x : 0..2 init 0;\nvar y : 0..2 init 0;\n"
        "[scan] x<2 -> x'=x+5;\n"        # no pins: tried at every state
        "[both] x==1 & y==0 -> y'=9;\n"  # the table on (x, y)
        "[ys] y==0 -> x'=7;\n"           # the table on y
        "[never] x==1 & x==2 -> x'=9;\n"
    )
    successors = compile_model(model)[1]
    assert successors((2, 1)) == [(2, 1)]
    for valuation, named in (((0, 0), "[scan]"), ((2, 0), "[ys]"), ((1, 2), "[scan]")):
        with pytest.raises(ModelError, match=re.escape(named)):
            successors(valuation)
    without_scan = SystemModel({}, model.variables, model.commands[1:])
    with pytest.raises(ModelError, match=r"command #1 \[both\]: update drives 'y' to 9"):
        compile_model(without_scan)[1]((1, 0))


def _pinned_position(guard):
    """The (x, y, d) values a town guard's top-level '&' chain pins."""
    found, stack = {}, [guard]
    while stack:
        e = stack.pop()
        if isinstance(e, BinOp) and e.op == "&":
            stack += (e.left, e.right)
        elif isinstance(e, BinOp) and e.op == "==" and isinstance(e.left, Name):
            found[e.left.ident] = e.right.value
    return tuple(found.get(name) for name in ("x", "y", "d"))


def test_dispatch_tries_only_the_commands_pinned_to_a_state(monkeypatch):
    """A state of the 12x12 town calls no more guard functions than there
    are tables plus commands pinned to its (x, y, d); a scan of every
    command would call hundreds."""
    model = _grid12_model()
    graph = build_graph(model)
    pinned = collections.Counter(_pinned_position(cmd.guard) for cmd in model.commands)
    calls = 0

    def counting(fn):
        if fn is None:
            return None

        def counted(*args):
            nonlocal calls
            calls += 1
            return fn(*args)
        return counted

    real_parts = model_module.compile_parts

    def parts(*args):
        kind, pins, rest, safe, value, shift = real_parts(*args)
        if kind == "bool":  # a guard's rest, not an update
            rest = counting(rest)
        return kind, pins, rest, safe, value, shift

    real_conjunction = model_module.conjunction
    monkeypatch.setattr(model_module, "compile_parts", parts)
    # the table lookups, and the whole guards of the commands tried at every state
    monkeypatch.setattr(model_module, "itemgetter", lambda *slots: counting(itemgetter(*slots)))
    monkeypatch.setattr(model_module, "conjunction", lambda *args: counting(real_conjunction(*args)))
    successors = compile_model(model)[1]
    calls = 0
    assert successors((99, 99, 0, 0)) == [(99, 99, 0, 0)]
    tables = calls  # a valuation no command pins calls only the table lookups
    assert 0 < tables <= 2
    for valuation, row in zip(graph.states, successor_lists(graph)):
        calls = 0
        found = successors(valuation)
        assert found == sorted(graph.states[t] for t in row)
        assert calls <= tables + pinned[valuation[:3]], valuation
