import operator
import random
import warnings
from itertools import compress, count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import GRAPH_VARS, bundled_town, fault_logs, random_formula, random_graph, random_town_logs
from traceval import checker, ctl
from traceval.checker import StateSet, follow, holds_initially, sat
from traceval.errors import EvalError, LogError
from traceval.execlog import (
    BASES,
    MODES,
    ExecutionLog,
    UnsatisfiableLogWarning,
    log_property,
    strong_property,
    weak_property,
)
from traceval.expr import INT_MAX, INT_MIN
from traceval.lang import parse_formula, parse_model
from traceval.model import build_graph
from traceval.town import town_model_text


def _indices(graph, text):
    return set(sat(graph, parse_formula(text)))


def test_stateset_basics():
    s = StateSet.from_indices([0, 3], 5)
    assert list(s) == [0, 3]
    assert len(s) == 2
    assert 3 in s and 1 not in s
    assert set(s.complement()) == {1, 2, 4}
    assert s.union(StateSet.from_indices([1], 5)).indices() == (0, 1, 3)
    assert s == StateSet.from_indices([3, 0], 5)
    for bad in (-1, 5, 9):
        with pytest.raises(ValueError, match="outside 0..4"):
            StateSet.from_indices([0, bad, 1], 5)
    assert StateSet.from_indices([], 0) == StateSet(0, 0)


def test_stateset_from_indices_matches_bit_shifts():
    rng = random.Random(2718)
    for _ in range(200):
        universe = rng.randint(1, 300)
        indices = [rng.randrange(universe) for _ in range(rng.randint(0, universe))]
        mask = 0
        for i in indices:
            mask |= 1 << i
        s = StateSet.from_indices(indices, universe)
        assert s == StateSet(mask, universe)
        assert s.indices() == tuple(sorted(set(indices)))


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
    prop = strong_property(log)
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
    again = strong_property(log)
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
        cache = {}
        for _ in range(15):
            phi = random_formula(rng, 3)
            base = sat(g, phi, cache)
            assert base.issubset(sat(g, ctl.EF(phi), cache))
            assert sat(g, ctl.EG(phi), cache).issubset(base)
            ag = sat(g, ctl.AG(phi), cache)
            assert ag.issubset(base)
            for s in range(g.state_count):
                if list(g.successors(s)) == [s]:
                    assert (s in ag) == (s in base)


# The grid counter of the validator benchmark: x and y count up to @top@.
GRID_TEMPLATE = (
    "// grid counter: inc moves right, up moves up\n"
    "var x : 0..@top@ init 0;\n"
    "var y : 0..@top@ init 0;\n"
    "[inc] x<@top@ -> x'=x+1;\n"
    "[up] y<@top@ -> y'=y+1;\n"
)


def test_only_the_backward_operators_build_the_predecessor_rows(transposes):
    from traceval.template import Settings, render

    model = parse_model(render(GRID_TEMPLATE, None, Settings({"top": 5})))
    for text, builds in (
        ("x==5 & !(y<3) | y>=2", False),
        ("EX(x==1)", True),
        ("EF(x==5 & y==5)", True),
        ("EG(x<5)", True),
        ("AX(x==1)", True),
        ("AF(x==5)", True),
        ("AG(x>=0)", True),
    ):
        graph = build_graph(model)
        for _ in range(2):
            holds_initially(graph, parse_formula(text))
        # built once, then kept
        assert transposes == ([graph.state_count] if builds else []), text
        transposes.clear()


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
    assert holds_initially(g, strong_property(staircase)).holds
    assert not holds_initially(g, strong_property(diagonal)).holds
    assert holds_initially(g, weak_property(diagonal)).holds


# ---------------------------------------------------------------------------
# The forward walk that judges logs, against CTL labelling and brute force
# ---------------------------------------------------------------------------

SHAPES = [(mode, base) for mode in MODES for base in BASES]


def _ctl_holds(graph, log, mode, base):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnsatisfiableLogWarning)
        return holds_initially(graph, log_property(log, mode, base)).holds


def _assert_walk_matches_ctl(graph, log):
    for mode, base in SHAPES:
        assert (follow(graph, log, mode, base) is None) == _ctl_holds(graph, log, mode, base), (
            mode, base, log.rows,
        )


@st.composite
def graphs_and_logs(draw, sizes=(3, 8, 24), max_steps=5):
    """A ``random_graph`` of at most ``max(sizes)`` states, often with
    self-loops and repeated valuations, and a log of 2 to ``max_steps + 2``
    rows that mostly walks it: a row is a successor of the last state, a
    repeat of the last row, any state's valuation, or a valuation outside
    the graph.  The last row is often repeated, so faithful logs both end
    in two equal rows and not."""
    rng = draw(st.randoms(use_true_random=False))
    graph = random_graph(
        rng,
        max_states=draw(st.sampled_from(sizes)),
        values=draw(st.sampled_from((2, 3, 8))),
    )
    states = graph.states
    s = draw(st.sampled_from(sorted(graph.initial) * 3 + list(range(len(states)))))
    rows = [states[s]]
    for _ in range(draw(st.integers(1, max_steps))):
        kind = draw(st.sampled_from(("step", "step", "step", "repeat", "any", "outside")))
        if kind == "step":
            s = draw(st.sampled_from(list(graph.successors(s))))
            rows.append(states[s])
        elif kind == "repeat":
            rows.append(rows[-1])
        elif kind == "any":
            s = draw(st.integers(0, len(states) - 1))
            rows.append(states[s])
        else:
            rows.append((draw(st.sampled_from((-1, 8, 9))), draw(st.integers(-1, 9))))
    if draw(st.booleans()):
        rows.append(rows[-1])
    return graph, ExecutionLog(GRAPH_VARS, tuple(rows))


@settings(max_examples=400, deadline=None)
@given(graphs_and_logs())
def test_walk_decides_the_log_property_on_random_graphs(case):
    _assert_walk_matches_ctl(*case)


def test_walk_decides_the_log_property_on_the_criteria_4_to_6_logs():
    for model_text, log in random_town_logs():
        graph = build_graph(parse_model(model_text))
        _assert_walk_matches_ctl(graph, log)
    town, objective = bundled_town()
    honest, forges, wrong_turns, skips = fault_logs(town, objective)
    logs = [honest] + [log for _, log in forges + wrong_turns + skips]
    for reduce in (True, False):
        graph = build_graph(parse_model(town_model_text(town, objective, reduce=reduce)))
        for log in logs:
            _assert_walk_matches_ctl(graph, log)


def _reachable(graph, s):
    seen, todo = {s}, [s]
    while todo:
        for t in graph.successors(todo.pop()):
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def _brute_witness(graph, log, mode, base):
    """``(row, check)`` where the log leaves the model, or None, from every
    path of the graph that follows the rows, listed state by state."""
    rows, n = log.rows, log.n
    last = n - 1 if base == "faithful" else n
    step = graph.successors if mode == "strong" else lambda s: _reachable(graph, s)
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
    if any(all(graph.states[t] == rows[-1] for t in _reachable(graph, p[-1])) for p in paths):
        return None
    return n, "not-a-model-state" if rows[-1] not in graph.states else "not-absorbing"


@settings(max_examples=300, deadline=None)
@given(graphs_and_logs(sizes=(3, 8), max_steps=3))
def test_witness_is_the_first_row_no_path_follows(case):
    graph, log = case
    for mode, base in SHAPES:
        witness = follow(graph, log, mode, base)
        got = None if witness is None else (witness.row, witness.check)
        assert got == _brute_witness(graph, log, mode, base), (mode, base, log.rows)


def test_witnesses_on_a_chain():
    # x counts 0..3 and stays at 3
    g = build_graph(parse_model("var x : 0..3 init 0;\n[] x<3 -> x'=x+1;\n"))

    def witness(column, mode="strong", base="faithful"):
        found = follow(g, ExecutionLog(("x",), tuple((v,) for v in column)), mode, base)
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


def test_walk_refuses_what_log_property_refuses(chain2_graph):
    log = ExecutionLog(("x",), ((0,), (1,), (1,)))
    for mode, base, message in (
        ("sideways", "faithful", "unknown property mode 'sideways'"),
        ("strong", "lenient", "unknown base mode 'lenient'"),
        ("sideways", "lenient", "unknown property mode 'sideways'"),
    ):
        for decide in (follow, log_property):
            args = (chain2_graph, log) if decide is follow else (log,)
            with pytest.raises(LogError, match=message):
                decide(*args, mode, base)
    with pytest.raises(EvalError, match="not the graph's variables"):
        follow(chain2_graph, ExecutionLog(("y",), ((0,), (0,))))


def test_states_with_matches_a_linear_scan():
    rng = random.Random(4242)
    for _ in range(60):
        g = random_graph(rng, max_states=40, values=rng.choice((2, 3, 8)))
        for v in {*g.states, (0, -1), (8, 8), (9, 0)}:
            want = [i for i, state in enumerate(g.states) if state == v]
            assert list(g.states_with(v)) == want, v
    assert any(len(g.states_with(v)) > 1 for v in g.states)
