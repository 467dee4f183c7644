import operator
import random

import pytest

from corpus import random_formula, random_graph
from traceval import checker, ctl
from traceval.checker import StateSet, holds_initially, sat
from traceval.errors import EvalError
from traceval.execlog import ExecutionLog, strong_property, weak_property
from traceval.expr import INT_MAX, INT_MIN
from traceval.lang import parse_formula, parse_model
from traceval.model import build_graph


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


def test_each_distinct_atom_and_index_is_computed_once(monkeypatch, town5x5, objective4):
    from traceval.town import simulate, town_model_text

    graph = build_graph(parse_model(town_model_text(town5x5, objective4, reduce=False)))
    log = simulate(town5x5, objective4)
    prop = strong_property(log)
    masks, builds = [], []
    atom_mask, value_index = checker._atom_mask, checker._value_index

    def counting_atom_mask(g, index, atom):
        masks.append((atom.var, atom.op, atom.value))
        return atom_mask(g, index, atom)

    def counting_value_index(g, j):
        builds.append(j)
        return value_index(g, j)

    monkeypatch.setattr(checker, "_atom_mask", counting_atom_mask)
    monkeypatch.setattr(checker, "_value_index", counting_value_index)
    cache = {}
    result = sat(graph, prop, cache)
    assert any(i in result for i in graph.initial)
    atoms = [(n.var, n.op, n.value) for n in _nodes(prop) if isinstance(n, ctl.Atom)]
    distinct = set(atoms)
    assert len(distinct) < len(atoms)
    assert sorted(masks) == sorted(distinct)
    assert len(builds) == len(set(builds)) <= len(graph.variables)
    # an equal property made afresh has new atom nodes but no new atoms
    masks.clear()
    builds.clear()
    again = strong_property(log)
    assert sat(graph, again, cache) == result
    assert masks == [] and builds == []
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
