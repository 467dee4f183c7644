import collections
import itertools
import random
import re
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_eval
from conftest import CHAIN2, TOGGLE
from corpus import full_grid_town, models, random_town_logs
from traceval.errors import EvalError, ModelError, StateExplosionError
from traceval import model as model_module
from traceval.expr import INT_MAX, BinOp, BoolLit, IntLit, Name, NotOp
from traceval.lang import parse_model
from traceval.model import GuardedCommand, StateGraph, SystemModel, VarDecl, build_graph, compile_step
from traceval.town import Objective, ObjectiveStep, town_model_text


def _cmd(guard, updates=()):
    return GuardedCommand(None, guard, tuple(updates))


def _successor_rows(g):
    return [list(g.successors(i)) for i in range(g.state_count)]


def test_step_single_enabled_command():
    assert compile_step(parse_model(CHAIN2))((0,)) == [(1,)]


def test_step_deadlock_self_loop():
    assert compile_step(parse_model(CHAIN2))((1,)) == [(1,)]


def test_step_toggle():
    successors = compile_step(parse_model(TOGGLE))
    assert successors((0,)) == [(1,)]
    assert successors((1,)) == [(0,)]


def test_step_simultaneous_updates_read_pre_state():
    model = parse_model(
        "var a : 0..3 init 1;\nvar b : 0..3 init 2;\n[] true -> a'=b & b'=a;\n"
    )
    assert compile_step(model)((1, 2)) == [(2, 1)]


def test_step_out_of_bounds_names_command_and_variable():
    successors = compile_step(parse_model("var x : 0..1 init 1;\n[boom] x==1 -> x'=x+1;\n"))
    with pytest.raises(ModelError, match=r"\[boom\].*'x' to 2.*0\.\.1"):
        successors((1,))


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
        # predecessors are exactly the transpose of successors, built once,
        # on first use
        assert transposes == []
        edges = [(s, t) for s in range(g.state_count) for t in g.successors(s)]
        transposed = [(s, t) for t in range(g.state_count) for s in g.predecessors(t)]
        assert sorted(transposed) == sorted(edges)
        assert g.predecessor_rows is g.predecessor_rows
        assert transposes == [g.state_count]
        transposes.clear()
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
    successors = compile_step(model)
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


def test_built_graphs_equal_the_graphs_given_as_rows(town5x5, objective4):
    """``build_graph`` writes the rows itself; the iterable constructor,
    given the same states, initial states and rows, out of order and
    repeated, makes the same graph."""
    counter = "var x : 0..@@ init 0;\nvar y : 0..@@ init 0;\n[] x<@@ -> x'=x+1;\n[] y<@@ -> y'=y+1;\n"
    texts = [
        town_model_text(town5x5, objective4, reduce=True),
        town_model_text(town5x5, objective4, reduce=False),
        *(text for text, _ in itertools.islice(random_town_logs(), 4)),
        *(counter.replace("@@", str(top)) for top in (0, 1, 7, 30)),
        "var x : 0..8 init 0;\nvar y : 0..3 init 0;\n[] x<8 -> x'=x+2;\n[] y<3 & x>2 -> y'=y+1;\n",
    ]
    for text in texts:
        model = parse_model(text)
        built = build_graph(model)
        rows = [list(built.successors(i)) for i in range(built.state_count)]
        given = StateGraph(built.variables, built.states, built.initial, [row[::-1] + row for row in rows])
        domain = itertools.product(*(range(v.lo - 1, v.hi + 2) for v in model.variables))
        present = set(built.states)
        absent = [v for v in itertools.islice(domain, 5000) if v not in present][:50]
        absent += [(), built.states[0] + (0,)]
        for g in (built, given):
            assert not any(g.states_with(v) for v in absent)
        for field in ("variables", "states", "initial", "successor_rows", "predecessor_rows"):
            assert getattr(built, field) == getattr(given, field), (text, field)
        assert [built.states_with(v) for v in built.states] == [(i,) for i in range(built.state_count)]
        assert [given.states_with(v) for v in built.states] == [(i,) for i in range(built.state_count)]


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
    try:
        successors = compile_step(model)
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
            rhs = draw(st.one_of(
                st.builds(IntLit, st.integers(-3, 4)),
                st.just(BinOp("+", Name(target), IntLit(1))),
                st.just(Name("K")),
                st.just(_overflows_unless_zero(target)),
            ))
            updates.append((target, rhs))
        label = draw(st.one_of(st.none(), st.just(f"c{i}")))
        commands.append(GuardedCommand(label, draw(_and_chain(parts)), tuple(updates)))
    return SystemModel({"K": draw(st.integers(-2, 3))}, tuple(variables), tuple(commands))


def _outcome(fn, *args):
    """``fn(*args)``, or the text of the ModelError it raises."""
    try:
        return fn(*args)
    except ModelError as exc:
        return f"ModelError: {exc}"


@settings(max_examples=300, deadline=None)
@given(pinned_models())
def test_dispatch_matches_reference_with_the_same_errors(model):
    domain = itertools.product(*(range(v.lo, v.hi + 1) for v in model.variables))
    successors = compile_step(model)
    for valuation in domain:
        expected = _outcome(naive_eval.step, model, valuation)
        assert _outcome(successors, valuation) == expected
    expected = _outcome(naive_eval.reachable_graph, model)
    graph = _outcome(build_graph, model)
    if isinstance(expected, str):
        assert graph == expected
    else:
        states, initial, rows = expected
        assert (graph.states, graph.initial, _successor_rows(graph)) == (
            tuple(states), frozenset(initial), rows
        )


def test_the_first_failing_command_is_named_across_tables():
    model = parse_model(
        "var x : 0..2 init 0;\nvar y : 0..2 init 0;\n"
        "[scan] x<2 -> x'=x+5;\n"        # no pins: tried at every state
        "[both] x==1 & y==0 -> y'=9;\n"  # the table on (x, y)
        "[ys] y==0 -> x'=7;\n"           # the table on y
        "[never] x==1 & x==2 -> x'=9;\n"
    )
    successors = compile_step(model)
    assert successors((2, 1)) == [(2, 1)]
    for valuation, named in (((0, 0), "[scan]"), ((2, 0), "[ys]"), ((1, 2), "[scan]")):
        with pytest.raises(ModelError, match=re.escape(named)):
            successors(valuation)
    without_scan = SystemModel({}, model.variables, model.commands[1:])
    with pytest.raises(ModelError, match=r"command #1 \[both\]: update drives 'y' to 9"):
        compile_step(without_scan)((1, 0))


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
        kind, pins, rest, safe, value = real_parts(*args)
        if kind == "bool":  # a guard's rest, not an update
            rest = counting(rest)
        return kind, pins, rest, safe, value

    real_conjunction = model_module.conjunction
    monkeypatch.setattr(model_module, "compile_parts", parts)
    # the table lookups, and the whole guards of the commands tried at every state
    monkeypatch.setattr(model_module, "itemgetter", lambda *slots: counting(itemgetter(*slots)))
    monkeypatch.setattr(model_module, "conjunction", lambda *args: counting(real_conjunction(*args)))
    successors = compile_step(model)
    calls = 0
    assert successors((99, 99, 0, 0)) == [(99, 99, 0, 0)]
    tables = calls  # a valuation no command pins calls only the table lookups
    assert 0 < tables <= 2
    for i, valuation in enumerate(graph.states):
        calls = 0
        found = successors(valuation)
        assert found == sorted(graph.states[t] for t in graph.successors(i))
        assert calls <= tables + pinned[valuation[:3]], valuation
