import operator
import random
import warnings
from functools import partial
from itertools import compress, count, islice
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from corpus import (
    bundled_town, fault_logs, models, random_formula, random_graph, random_town_logs, successor_lists, town_texts,
)
from naive_ctl import NaiveChecker
import unbudgeted_follow
from traceval import checker, ctl
from traceval.checker import StateSet, follow, holds_initially, reach, sat
from traceval.errors import EvalError, LogError, ModelError, StateExplosionError
from traceval.execlog import (
    BASES,
    MODES,
    ExecutionLog,
    UnsatisfiableLogWarning,
    format_log,
    log_property,
)
from traceval.expr import INT_MAX, INT_MIN
from traceval.lang import parse_formula, parse_model, print_model
from traceval.lifecycle import STATUS_CONFIRMED, STATUS_REJECTED, PreparedModel
from traceval.model import DEFAULT_STATE_BUDGET, StateGraph, build_graph, compile_model
from traceval.town import town_model_text


def _indices(graph, text):
    return set(sat(graph, parse_formula(text)))


def test_stateset_basics():
    s = StateSet(0b1001, 5)
    assert list(s) == [0, 3]
    assert len(s) == 2 and s
    assert 3 in s and 1 not in s and -1 not in s and 5 not in s
    assert s == StateSet(0b1001, 5) != StateSet(0b1001, 6)
    assert not StateSet(0, 0)
    assert repr(s) == "StateSet({0, 3} of 5)"


def test_both_member_walks_match_the_walk_over_marks():
    """``_members`` walks the set bits of sparse masks one by one and the
    per-state marks of the others; both walks list the indices the marks
    give, on empty, single-bit, sparse and dense masks."""
    rng = random.Random(1103)
    masks = [0, 1, 1 << 63, 1 << 10_000, 1 << 10_000 | 1]
    for size in (8, 100, 5_000, 200_000):
        masks.append(1 << rng.randrange(size))
        masks.append(sum(1 << b for b in rng.sample(range(size), min(size, rng.randint(2, 60)))))
        masks.append(rng.getrandbits(size))
    for mask in masks:
        want = list(compress(count(), checker._marks(mask, 0)))
        assert list(checker._members(mask)) == want
        assert list(checker._set_bits(mask)) == want


def test_chain2_ex(chain2_graph):
    assert _indices(chain2_graph, "EX(x==1)") == {0, 1}


def test_chain2_ag(chain2_graph):
    assert _indices(chain2_graph, "AG(x==1)") == {1}


def test_true_false_everywhere(chain2_graph, toggle_graph):
    for g in (chain2_graph, toggle_graph):
        assert _indices(g, "true") == set(range(g.state_count))
        assert _indices(g, "false") == set()


def test_toggle_ag_empty(toggle_graph):
    assert _indices(toggle_graph, "AG(x==1)") == set()


def test_holds_initially_composed(chain2_graph):
    report = holds_initially(chain2_graph, parse_formula("x==0 & EX(x==1 & AG(x==1))"))
    assert report.holds
    assert report.failures == ()


def test_holds_initially_fails_with_diagnosis(chain2_graph):
    report = holds_initially(chain2_graph, parse_formula("x==0 & x==1"))
    assert not report.holds
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert failure.state == 0
    assert failure.valuation == (0,)
    assert failure.conjunct == ctl.Atom("x", "==", 1)


def test_holds_initially_reachability(toggle_graph):
    assert holds_initially(toggle_graph, parse_formula("EF(x==1)")).holds
    assert not holds_initially(toggle_graph, parse_formula("x==1")).holds


def test_unknown_atom_variable(chain2_graph):
    with pytest.raises(EvalError, match="unknown variable 'ghost'"):
        sat(chain2_graph, ctl.Atom("ghost", "==", 0))


def test_unknown_atom_errors_survive_a_cached_atom(chain2_graph):
    cache = {}
    assert set(sat(chain2_graph, ctl.Atom("x", "==", 0), cache)) == {0}
    with pytest.raises(EvalError, match="unknown variable 'ghost'"):
        sat(chain2_graph, ctl.Atom("ghost", "==", 0), cache)
    for op in ("=~", "=", "<>"):
        with pytest.raises(EvalError, match=f"unknown comparator '{op}'"):
            sat(chain2_graph, ctl.Atom("x", op, 0), cache)
    # an unknown atom beside a cached one in a larger formula
    with pytest.raises(EvalError, match="unknown comparator"):
        sat(chain2_graph, ctl.And(ctl.Atom("x", "==", 0), ctl.Atom("x", "=~", 0)), cache)
    assert set(sat(chain2_graph, ctl.Atom("x", "==", 0), cache)) == {0}


_COMPARE = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _assert_atoms_match_scan(g, constants):
    cache = {}
    for j, var in enumerate(g.variables):
        for op, compare in _COMPARE.items():
            for c in constants:
                want = {i for i, state in enumerate(g.states) if compare(state[j], c)}
                atom = ctl.Atom(var, op, c)
                assert set(sat(g, atom)) == want, (var, op, c)
                assert set(sat(g, atom, cache)) == want, (var, op, c)


def test_atoms_match_a_per_state_scan_on_random_graphs():
    """Random graphs repeat valuations; constants fall below, inside,
    between and above the values the graph holds."""
    rng = random.Random(1986)
    for _ in range(30):
        g = random_graph(rng, max_states=40)
        held = {v for state in g.states for v in state}
        constants = {INT_MIN, INT_MAX, min(held) - 1, max(held) + 1, *held}
        constants |= set(range(min(held), max(held) + 1)) - held
        _assert_atoms_match_scan(g, sorted(constants))


def test_atoms_match_a_per_state_scan_on_a_built_counter():
    # x takes only even values, so odd constants fall between two of them
    g = build_graph(
        parse_model(
            "var x : 0..8 init 0;\nvar y : 0..3 init 0;\n"
            "[] x<8 -> x'=x+2;\n[] y<3 & x>2 -> y'=y+1;\n"
        )
    )
    assert {state[0] for state in g.states} == {0, 2, 4, 6, 8}
    _assert_atoms_match_scan(g, [INT_MIN, -1, 0, 1, 2, 3, 5, 8, 9, INT_MAX])


def _nodes(formula):
    nodes, stack = [], [formula]
    while stack:
        nodes.append(stack.pop())
        stack.extend(ctl.children(nodes[-1]))
    return nodes


def test_each_distinct_atom_and_column_is_computed_once(monkeypatch, town5x5, objective4):
    from traceval.town import simulate, town_model_text

    graph = build_graph(parse_model(town_model_text(town5x5, objective4, reduce=False)))
    log = simulate(town5x5, objective4)
    prop = log_property(log, "strong")
    scans, reads = [], []
    column, scan = checker._column, checker._scan

    def counting_column(g, j):
        reads.append(j)
        return column(g, j)

    def counting_scan(values, op, c):
        scans.append((op, c, id(values)))
        return scan(values, op, c)

    monkeypatch.setattr(checker, "_column", counting_column)
    monkeypatch.setattr(checker, "_scan", counting_scan)
    cache = {}
    result = sat(graph, prop, cache)
    assert any(i in result for i in graph.initial)
    atoms = [(n.var, n.op, n.value) for n in _nodes(prop) if isinstance(n, ctl.Atom)]
    distinct = set(atoms)
    assert len(distinct) < len(atoms)
    # each scan reads the cached column of its atom's variable
    columns = {id(cache[var]): var for var, _, _ in distinct}
    assert sorted((columns[k], op, c) for op, c, k in scans) == sorted(distinct)
    assert len(reads) == len(set(reads)) == len(columns) <= len(graph.variables)
    # an equal property made afresh has new atom nodes but no new atoms
    scans.clear()
    reads.clear()
    again = log_property(log, "strong")
    assert sat(graph, again, cache) == result
    assert scans == [] and reads == []
    assert all(cache[id(node)][0] is node for node in _nodes(again))


def test_existential_verdict_over_multiple_initials():
    from traceval.lang import parse_model
    from traceval.model import build_graph

    g = build_graph(parse_model("var x : 0..3 init 0;\ninit x==2;\n"))
    assert holds_initially(g, parse_formula("x==2")).holds
    assert not holds_initially(g, parse_formula("x==3")).holds


def test_shared_cache_reuses_subformulas(chain2_graph):
    phi = parse_formula("x==1")
    cache = {}
    first = sat(chain2_graph, phi, cache)
    assert sat(chain2_graph, phi, cache) == first
    assert id(phi) in cache


def test_oracle_agreement_on_built_graphs():
    """The acceptance corpus uses synthetic graphs; built graphs (with
    deduplicated states and deadlock self-loops) must agree with the
    oracle too."""
    from naive_ctl import NaiveChecker
    from traceval.lang import parse_model
    from traceval.model import build_graph

    rng = random.Random(31415)
    for _ in range(10):
        k = rng.randint(2, 5)
        text = (
            f"var x : 0..{k} init 0;\nvar y : 0..2 init 0;\n"
            f"[] x<{k} -> x'=x+1;\n"
            f"[] x=={k} -> x'=0 & y'=1;\n"
            f"[] y==1 & x>0 -> y'=2 & x'=x-1;\n"
        )
        g = build_graph(parse_model(text))
        oracle = NaiveChecker(g)
        cache = {}
        for _ in range(40):
            f = random_formula(rng, 4)
            assert frozenset(sat(g, f, cache)) == oracle.sat_indices(f)


def test_oracle_agreement_on_a_300_state_chain():
    """Shortest paths hundreds of edges long: the chain 0..299 falls back
    to 150 from its end, so EF walks 299 edges back and EG(x!=299) empties
    one state at a time."""
    from naive_ctl import NaiveChecker
    from traceval.lang import parse_model
    from traceval.model import build_graph

    g = build_graph(
        parse_model("var x : 0..299 init 0;\n[] x<299 -> x'=x+1;\n[] x==299 -> x'=150;\n")
    )
    assert (g.state_count, g.edge_count) == (300, 300)
    oracle = NaiveChecker(g)
    cache = {}
    children = ("x==0", "x==299", "x!=299", "x>=150", "x<150", "x==149 | x==299", "EX(x>=200)")
    for op in ("EX", "EF", "EG", "AX", "AF", "AG"):
        for child in children:
            f = parse_formula(f"{op}({child})")
            assert frozenset(sat(g, f, cache)) == oracle.sat_indices(f), f"{op}({child})"
    assert _indices(g, "EF(x==299)") == set(range(300))
    assert _indices(g, "EG(x!=299)") == set()
    assert _indices(g, "AG(x>=150)") == set(range(150, 300))


def test_monotonicity_and_self_loop_laws_on_random_corpus():
    rng = random.Random(90210)
    for _ in range(40):
        g = random_graph(rng, max_states=24)
        succ = successor_lists(g)
        cache = {}
        for _ in range(15):
            phi = random_formula(rng, 3)
            base = set(sat(g, phi, cache))
            assert base <= set(sat(g, ctl.EF(phi), cache))
            assert set(sat(g, ctl.EG(phi), cache)) <= base
            ag = set(sat(g, ctl.AG(phi), cache))
            assert ag <= base
            for s in range(g.state_count):
                if succ[s] == [s]:
                    assert (s in ag) == (s in base)


# The grid counter of the validator benchmark: x and y count up to @top@.
GRID_TEMPLATE = (
    "// grid counter: inc moves right, up moves up\n"
    "var x : 0..@top@ init 0;\n"
    "var y : 0..@top@ init 0;\n"
    "[inc] x<@top@ -> x'=x+1;\n"
    "[up] y<@top@ -> y'=y+1;\n"
)


def test_each_graph_transposes_once_when_built_and_labelling_never(transposes):
    from traceval.template import Settings, render

    model = parse_model(render(GRID_TEMPLATE, None, Settings({"top": 5})))
    for text in (
        "x==5 & !(y<3) | y>=2", "EX(x==1)", "EF(x==5 & y==5)", "EG(x<5)", "AX(x==1)", "AF(x==5)", "AG(x>=0)",
    ):
        graph = build_graph(model)
        assert transposes == [graph.state_count], text
        for _ in range(2):
            holds_initially(graph, parse_formula(text))
        assert transposes == [graph.state_count], text
        transposes.clear()


def _brute_fixpoint(succ, op, seed):
    """EX, EF or EG of the set ``seed`` by iterating its defining equation
    from the empty set (EF) or every state (EG) until nothing changes."""
    ex = lambda z: {s for s, row in enumerate(succ) if z.intersection(row)}
    if op == "EX":
        return ex(seed)
    z = set() if op == "EF" else set(range(len(succ)))
    while True:
        nxt = seed | ex(z) if op == "EF" else seed & ex(z)
        if nxt == z:
            return z
        z = nxt


def test_few_member_seeds_take_the_set_bit_walk_inside_labelling(monkeypatch):
    """On a 400-state grid, a seed of a few states late in the numbering
    lists its members by the set-bit walk: once for EX and EF, twice for
    EG, which counts successors and then collects the members with none.
    In the last seed, (17,17) keeps one of its two successors, (17,18),
    after the other, (18,17), leaves."""
    from traceval.template import Settings, render

    graph = build_graph(parse_model(render(GRID_TEMPLATE, None, Settings({"top": 19}))))
    succ = successor_lists(graph)
    walks = []
    set_bits = checker._set_bits
    monkeypatch.setattr(checker, "_set_bits", lambda mask: walks.append(mask) or set_bits(mask))
    for child in (
        "x==19 & y==19", "x==18 & y==19", "x>=18 & y>=18", "y==19 & x>=15 & x<19",
        "x==17 & y>=17 | y==19 & x>=17 | x==18 & y==17",
    ):
        seed = _indices(graph, child)
        assert 1 <= len(seed) <= 6 and min(seed) > 300, child
        for op, times in (("EX", 1), ("EF", 1), ("EG", 2)):
            walks.clear()
            found = sat(graph, parse_formula(f"{op}({child})"))
            assert len(walks) == times, (op, child)
            assert set(found) == _brute_fixpoint(succ, op, seed), (op, child)


def test_a_40000_state_grid_counter():
    """Logs over a graph whose variables hold 200 values each: the
    staircase steps right and up in turn, the diagonal skips states."""
    from traceval.template import Settings, render

    n = 200
    top = n - 1
    g = build_graph(parse_model(render(GRID_TEMPLATE, None, Settings({"top": top}))))
    assert (g.state_count, g.edge_count) == (n * n, 2 * n * (n - 1) + 1)
    stair = [(0, 0)]
    for i in range(2 * top):
        x, y = stair[-1]
        stair.append((x + 1, y) if i % 2 == 0 else (x, y + 1))
    staircase = ExecutionLog(("x", "y"), tuple(stair + stair[-1:]))
    diagonal = ExecutionLog(("x", "y"), tuple([(i, i) for i in range(n)] + [(top, top)]))
    assert holds_initially(g, log_property(staircase, "strong")).holds
    assert not holds_initially(g, log_property(diagonal, "strong")).holds
    assert holds_initially(g, log_property(diagonal, "weak")).holds


# ---------------------------------------------------------------------------
# The forward walk that judges logs, against CTL labelling and brute force
# ---------------------------------------------------------------------------

SHAPES = [(mode, base) for mode in MODES for base in BASES]


def _ctl_holds(graph, log, mode, base):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnsatisfiableLogWarning)
        return holds_initially(graph, log_property(log, mode, base)).holds


def _walk(graph, log, mode, base):
    """``(row, check)`` where ``follow`` refuses the log, stepping through
    the successors of ``graph``, whose states have distinct valuations;
    None when it admits the log."""
    states = graph.states
    index = {v: i for i, v in enumerate(states)}
    succ = successor_lists(graph)

    def successors(v):
        return sorted(states[t] for t in succ[index[v]])

    witness = follow(successors, {states[i] for i in graph.initial}, log, mode, base)
    return witness and (witness.row, witness.check)


def _log_through(draw, graph, max_steps):
    """A log of 2 to ``max_steps + 2`` rows that mostly walks ``graph``: a
    row is a successor of the last state, a repeat of the last row, any
    state's valuation, or a valuation outside the graph.  The last row is
    often repeated, so faithful logs both end in two equal rows and not."""
    states, succ = graph.states, successor_lists(graph)
    s = draw(st.sampled_from(sorted(graph.initial) * 3 + list(range(len(states)))))
    rows = [states[s]]
    for _ in range(draw(st.integers(1, max_steps))):
        kind = draw(st.sampled_from(("step", "step", "step", "repeat", "any", "outside")))
        if kind == "step":
            s = draw(st.sampled_from(succ[s]))
            rows.append(states[s])
        elif kind == "repeat":
            rows.append(rows[-1])
        elif kind == "any":
            s = draw(st.integers(0, len(states) - 1))
            rows.append(states[s])
        else:
            rest = [draw(st.integers(-1, 9)) for _ in graph.variables[1:]]
            rows.append((draw(st.sampled_from((-9, 8, 99))), *rest))
    if draw(st.booleans()):
        rows.append(rows[-1])
    return ExecutionLog(graph.variables, tuple(rows))


@st.composite
def graphs_and_logs(draw, sizes=(3, 8, 24), max_steps=5):
    """A ``random_graph`` of at most ``max(sizes)`` states with distinct
    valuations, as ``build_graph`` builds, often with self-loops, and a
    log through it."""
    rng = draw(st.randoms(use_true_random=False))
    graph = random_graph(
        rng,
        max_states=draw(st.sampled_from(sizes)),
        values=draw(st.sampled_from((2, 3, 8))),
        distinct=True,
    )
    return graph, _log_through(draw, graph, max_steps)


@settings(max_examples=400, deadline=None)
@given(graphs_and_logs())
def test_walk_decides_the_log_property_on_random_graphs(case):
    graph, log = case
    for mode, base in SHAPES:
        assert (_walk(graph, log, mode, base) is None) == _ctl_holds(graph, log, mode, base), (
            mode, base, log.rows,
        )


def _reachable(succ, s):
    seen, todo = {s}, [s]
    while todo:
        for t in succ[todo.pop()]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def _brute_witness(graph, log, mode, base):
    """``(row, check)`` where the log leaves the model, or None, from every
    path of the graph that follows the rows, listed state by state."""
    rows, n = log.rows, log.n
    last = n - 1 if base == "faithful" else n
    succ = successor_lists(graph)
    step = succ.__getitem__ if mode == "strong" else lambda s: _reachable(succ, s)
    paths = [(s,) for s in sorted(graph.initial)]
    for k in range(1, last + 1):
        if k > 1:
            paths = [p + (t,) for p in paths for t in step(p[-1])]
        paths = [p for p in paths if graph.states[p[-1]] == rows[k - 1]]
        if not paths:
            if rows[k - 1] not in graph.states:
                return k, "not-a-model-state"
            if k == 1:
                return k, "not-initial"
            return k, "no-transition" if mode == "strong" else "unreachable"
    if any(all(graph.states[t] == rows[-1] for t in _reachable(succ, p[-1])) for p in paths):
        return None
    return n, "not-a-model-state" if rows[-1] not in graph.states else "not-absorbing"


@settings(max_examples=300, deadline=None)
@given(graphs_and_logs(sizes=(3, 8), max_steps=3))
def test_witness_is_the_first_row_no_path_follows(case):
    """The walk refuses the brute-force witness's row.  It cannot tell a
    row no state has from one it cannot reach, so there it names the check
    the row fails: the start, a step of the chain or the final AG."""
    graph, log = case
    for mode, base in SHAPES:
        want = _brute_witness(graph, log, mode, base)
        if want is not None and want[1] == "not-a-model-state":
            row, last = want[0], log.n - 1 if base == "faithful" else log.n
            if row == 1:
                want = row, "not-initial"
            elif row <= last:
                want = row, "no-transition" if mode == "strong" else "unreachable"
            else:
                want = row, "not-absorbing"
        assert _walk(graph, log, mode, base) == want, (mode, base, log.rows)


def _assert_judged_as_the_oracles_say(prepared, graph, log):
    """``judge``'s verdict is the numpy oracle's labelling of the log's
    property, and its witness the brute-force one, on ``graph``, the graph
    of ``prepared``'s model; a rejection sizes the model as that graph."""
    naive = NaiveChecker(graph)
    for mode, base in SHAPES:
        verdict, reason, witness = prepared.judge(format_log(log), mode, base)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnsatisfiableLogWarning)
            holds = bool(naive.sat_indices(log_property(log, mode, base)) & graph.initial)
        assert (verdict, reason) == ((STATUS_CONFIRMED, None) if holds else (STATUS_REJECTED, "property-failed"))
        got = None if witness is None else (witness.row, witness.check)
        assert got == _brute_witness(graph, log, mode, base), (mode, base, log.rows)
        if witness is not None:
            assert (len(prepared.reachable), prepared.edge_count) == (graph.state_count, graph.edge_count)
            assert prepared.reachable == set(graph.states)


@st.composite
def models_and_logs(draw, max_steps=4):
    """A model text from ``models()`` whose graph builds, the graph, and a
    log through it."""
    text = print_model(draw(models()))
    try:
        graph = build_graph(parse_model(text))
    except ModelError:  # an update that fails or a guard that overflows
        assume(False)
    return text, graph, _log_through(draw, graph, max_steps)


@settings(max_examples=200, deadline=None)
@given(models_and_logs())
def test_judge_agrees_with_the_oracles_on_random_models(case):
    text, graph, log = case
    _assert_judged_as_the_oracles_say(PreparedModel(text), graph, log)


def test_judge_agrees_with_the_oracles_on_the_criteria_4_to_6_logs():
    for model_text, log in random_town_logs():
        graph = build_graph(parse_model(model_text))
        _assert_judged_as_the_oracles_say(PreparedModel(model_text), graph, log)
    town, objective = bundled_town()
    honest, forges, wrong_turns, skips = fault_logs(town, objective)
    logs = [honest] + [log for _, log in forges + wrong_turns + skips]
    for reduce in (True, False):
        model_text = town_model_text(town, objective, reduce=reduce)
        graph = build_graph(parse_model(model_text))
        prepared = PreparedModel(model_text)  # one for every log, as run_validator keeps it
        for log in logs:
            _assert_judged_as_the_oracles_say(prepared, graph, log)


def test_witnesses_on_a_chain():
    # x counts 0..3 and stays at 3
    prepared = PreparedModel("var x : 0..3 init 0;\n[] x<3 -> x'=x+1;\n")

    def witness(column, mode="strong", base="faithful"):
        found = prepared.judge("x\n" + "".join(f"{v}\n" for v in column), mode, base)[2]
        return found and (found.row, found.check)

    assert witness([0, 1, 2, 3, 3]) is None
    assert witness([1, 2, 3, 3]) == (1, "not-initial")
    assert witness([0, 1, 7, 3]) == (3, "not-a-model-state")
    assert witness([0, 2, 3, 3]) == (2, "no-transition")
    assert witness([0, 2, 3, 3], "weak") is None
    assert witness([0, 2, 1, 3], "weak") == (3, "unreachable")
    assert witness([0, 1, 2, 2]) == (4, "not-absorbing")
    assert witness([0, 1, 2, 3]) == (4, "not-absorbing")
    assert witness([0, 1, 2, 3], base="corrected") is None
    assert witness([0, 1, 2, 9]) == (4, "not-a-model-state")
    assert witness([7, 1, 2, 2]) == (1, "not-a-model-state")


def test_walk_refuses_what_log_property_refuses():
    log = ExecutionLog(("x",), ((0,), (1,), (1,)))
    initial, successors = compile_model(parse_model("var x : 0..1 init 0;\n[] x==0 -> x'=1;\n"))
    walk = partial(follow, successors, initial)
    for mode, base, message in (
        ("sideways", "faithful", "unknown property mode 'sideways'"),
        ("strong", "lenient", "unknown base mode 'lenient'"),
        ("sideways", "lenient", "unknown property mode 'sideways'"),
    ):
        for decide in (walk, log_property):
            with pytest.raises(LogError, match=message):
                decide(log, mode, base)
    assert walk(log) is None


def _spent_and_witness(successors, initial, log, base):
    """The states each weak search of the walk before the budget was shared
    finds, in log order, and that walk's witness."""
    spent = []

    def counted(*args):
        found, edges = reach(*args)
        spent.append(len(found))
        return found, edges

    with mock.patch.object(unbudgeted_follow, "reach", counted):
        witness = unbudgeted_follow.follow(successors, initial, log, "weak", base)
    return spent, witness


@st.composite
def models_and_far_logs(draw, max_steps=8):
    """The text of a model whose graph is a random graph's part reachable
    from its initial state, one command per edge, and a log from that
    state whose rows mostly lie anywhere ahead of the row before, and
    otherwise anywhere in the graph, so that a weak walk searches from
    most of them."""
    rng = draw(st.randoms(use_true_random=False))
    graph = random_graph(rng, max_states=draw(st.sampled_from((8, 24, 64))), distinct=True)
    (s,) = graph.initial
    states, succ = graph.states, successor_lists(graph)
    text = "var x : 0..7 init {};\nvar y : 0..7 init {};\n".format(*states[s]) + "".join(
        "[] x=={} & y=={} -> x'={} & y'={};\n".format(*states[a], *states[b])
        for a in range(len(states)) for b in succ[a]
    )
    rows = [states[s]]
    for _ in range(draw(st.integers(1, max_steps))):
        ahead = sorted(_reachable(succ, s)) if draw(st.integers(0, 4)) else range(len(states))
        s = draw(st.sampled_from(ahead))
        rows.append(states[s])
    return text, ExecutionLog(graph.variables, tuple(rows))


# x cycles through 0..99 and the log alternates 0 and 98 for 20 rows: each
# search from 0 finds 99 states and each from 98 finds 3, 1,017 in all, and
# the last row is not absorbing
_CYCLE = (
    "var x : 0..100 init 0;\n[] x<99 -> x'=x+1;\n[] x==99 -> x'=0;\n[] x==100 -> skip;\n",
    ExecutionLog(("x",), ((0,), (98,)) * 10),
)


@settings(max_examples=300, deadline=None)
@given(models_and_far_logs(), st.integers(-3, 3), st.sampled_from(BASES))
@example(_CYCLE, -1, "corrected")
@example(_CYCLE, 0, "corrected")
def test_weak_searches_share_the_state_budget(case, slack, base):
    """Within the budget the searches find in all, the walk refuses the row
    the walk before the budget was shared refuses; past it, the walk raises
    and ``judge`` says ``state-explosion``.  A strong walk searches nothing."""
    text, log = case
    initial, successors = compile_model(parse_model(text))
    spent, witness = _spent_and_witness(successors, initial, log, base)
    budget = max(0, sum(spent) + slack)
    if sum(spent) <= budget:
        assert follow(successors, initial, log, "weak", base, budget) == witness
    else:
        with pytest.raises(StateExplosionError, match=f"weak searches found more than {budget} states"):
            follow(successors, initial, log, "weak", base, budget)
        verdict = PreparedModel(text, budget).judge(format_log(log), "weak", base)
        assert verdict == (STATUS_REJECTED, "state-explosion", None)
    strong = unbudgeted_follow.follow(successors, initial, log, "strong", base)
    assert follow(successors, initial, log, "strong", base, 0) == strong


# ---------------------------------------------------------------------------
# Sizing a model by the forward search, against build_graph
# ---------------------------------------------------------------------------

def _outcome(make, *args):
    """``make(*args)``, or the class and text of the refusal it raises."""
    try:
        return make(*args)
    except (ModelError, StateExplosionError) as exc:
        return type(exc), str(exc)


def _sized(model, max_states):
    """What a prepared model finds for a refused log: the search from the
    initial valuations over the successor function."""
    initial, successors = compile_model(model, max_states)
    return reach(successors, initial, max_states)


def _assert_sized_as_built(model, max_states):
    """Sizing finds ``build_graph``'s states and edges, or raises what it
    raises; returns the outcome's kind."""
    built, sized = _outcome(build_graph, model, max_states), _outcome(_sized, model, max_states)
    if not isinstance(built, StateGraph):
        assert sized == built
        return built[0]
    found, edges = sized
    assert (len(found), edges) == (built.state_count, built.edge_count)
    assert found == set(built.states)
    return StateGraph


@settings(max_examples=400, deadline=None)
@given(models(), st.sampled_from((1, 2, 5, 20, DEFAULT_STATE_BUDGET)))
def test_reach_sizes_a_model_as_build_graph_builds_it(model, max_states):
    _assert_sized_as_built(model, max_states)


def test_reach_sizes_the_town_models_as_build_graph_builds_them():
    town, objective = bundled_town()
    texts = [town_model_text(town, objective, reduce=reduce) for reduce in (True, False)]
    texts += [text for text, _ in islice(random_town_logs(), 20)]
    texts += town_texts(17, 2)
    kinds = set()
    for text in texts:
        model = parse_model(text)
        for max_states in (DEFAULT_STATE_BUDGET, 5):
            kinds.add(_assert_sized_as_built(model, max_states))
    assert kinds == {StateGraph, StateExplosionError}


def test_reach_keeps_builds_reason_when_an_update_fails_past_the_budget():
    """x==0 steps to 1 and 2, and stepping x==2 fails: with room for two
    states the budget is met first, with room for three the update."""
    model = parse_model("var x : 0..3 init 0;\n[] x==0 -> x'=1;\n[] x==0 -> x'=2;\n[] x==2 -> x'=x+5;\n")
    assert _assert_sized_as_built(model, 2) is StateExplosionError
    assert _assert_sized_as_built(model, 3) is ModelError
