import random

import pytest

from corpus import random_formula, random_graph
from traceval import ctl
from traceval.checker import StateSet, holds_initially, sat
from traceval.errors import EvalError
from traceval.lang import parse_formula


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
    with pytest.raises(ValueError):
        StateSet.from_indices([9], 5)


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
