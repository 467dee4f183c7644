import json

import pytest

from corpus import full_grid_town, random_town_and_objective
from traceval.errors import TownError
from traceval.execlog import format_log
from traceval.lang import parse_model
from traceval.lifecycle import adjudicate
from traceval.model import build_graph
from traceval.town import (
    Fault,
    Objective,
    ObjectiveStep,
    SimulationWarning,
    load_objective,
    load_town,
    parse_fault,
    simulate,
    tag_letters,
    town_model_text,
    turn,
)

TWO_NODE = {
    "width": 2,
    "height": 1,
    "nodes": [{"x": 0, "y": 0, "tag": 1}, {"x": 1, "y": 0}],
    "edges": [{"from": [0, 0], "to": [1, 0]}, {"from": [1, 0], "to": [0, 0]}],
    "start": {"x": 0, "y": 0, "d": 1},
}
ONE_FORWARD = {"sequence": [{"tag": 1, "action": "forward"}]}


def test_turn_mapping():
    assert turn(0, "left") == 3
    assert turn(0, "right") == 1
    assert turn(2, "forward") == 2


def test_tag_letters():
    assert [tag_letters(i) for i in (1, 2, 26, 27)] == ["a", "b", "z", "aa"]


def test_load_objective_single_step():
    objective = load_objective(json.dumps({"sequence": [{"tag": 1, "action": "left"}]}))
    assert objective.steps == (ObjectiveStep(1, "left"),)


def test_load_objective_errors():
    with pytest.raises(TownError, match="non-empty sequence"):
        load_objective({"sequence": []})
    with pytest.raises(TownError, match="unknown action"):
        load_objective({"sequence": [{"tag": 1, "action": "reverse"}]})


def test_load_town_errors():
    bad = dict(TWO_NODE, nodes=[{"x": 0, "y": 0, "tag": 1}, {"x": 1, "y": 0, "tag": 1}])
    with pytest.raises(TownError, match="duplicate tag"):
        load_town(bad)
    bad = dict(TWO_NODE, edges=[{"from": [0, 0], "to": [5, 5]}])
    with pytest.raises(TownError, match="undeclared node"):
        load_town(bad)
    wide = dict(TWO_NODE, width=3, nodes=TWO_NODE["nodes"] + [{"x": 2, "y": 0}])
    bad = dict(wide, edges=[{"from": [0, 0], "to": [2, 0]}])
    with pytest.raises(TownError, match="adjacent"):
        load_town(bad)
    bad = dict(TWO_NODE, start={"x": 1, "y": 1, "d": 0})
    with pytest.raises(TownError, match="start node not declared"):
        load_town(bad)


def test_two_node_model_has_unique_run():
    town = load_town(TWO_NODE)
    objective = load_objective(ONE_FORWARD)
    graph = build_graph(parse_model(town_model_text(town, objective)))
    assert graph.state_count == 2
    assert graph.states == ((0, 0, 1, 0), (1, 0, 1, 1))
    assert [list(graph.successors(i)) for i in range(2)] == [[1], [1]]


def test_two_node_simulation_log():
    log = simulate(load_town(TWO_NODE), load_objective(ONE_FORWARD))
    assert log.rows == ((0, 0, 1, 0), (1, 0, 1, 1), (1, 0, 1, 1))


def test_forge_fault_mutates_one_cell():
    log = simulate(load_town(TWO_NODE), load_objective(ONE_FORWARD), fault="forge:2,k,0")
    assert log.rows == ((0, 0, 1, 0), (1, 0, 1, 0), (1, 0, 1, 1))


def test_skip_fault_needs_an_interior_row():
    with pytest.raises(TownError, match="no interior row"):
        simulate(load_town(TWO_NODE), load_objective(ONE_FORWARD), fault="skip:2")


def test_truncate_fault_bounds():
    town = load_town(TWO_NODE)
    objective = load_objective(ONE_FORWARD)
    truncated = simulate(town, objective, fault="truncate:1")
    assert truncated.rows == ((0, 0, 1, 0), (1, 0, 1, 1))
    with pytest.raises(TownError, match="truncate count"):
        simulate(town, objective, fault="truncate:2")


def test_parse_fault_syntax():
    assert parse_fault("wrong-turn:2") == Fault("wrong-turn", index=2)
    assert parse_fault("forge:3,k,0") == Fault("forge", index=3, var="k", value=0)
    assert parse_fault("skip:4") == Fault("skip", index=4)
    with pytest.raises(TownError, match="bad fault spec"):
        parse_fault("forge:1,unknown,0")
    with pytest.raises(TownError, match="bad fault spec"):
        parse_fault("meteor:1")


def test_wrong_turn_out_of_range():
    with pytest.raises(TownError, match="out of range"):
        simulate(load_town(TWO_NODE), load_objective(ONE_FORWARD), fault="wrong-turn:2")


def test_objective_with_unknown_tag():
    with pytest.raises(TownError, match="tag 9 absent"):
        simulate(load_town(TWO_NODE), load_objective({"sequence": [{"tag": 9, "action": "left"}]}))
    with pytest.raises(TownError, match="tag 9 absent"):
        town_model_text(load_town(TWO_NODE), Objective((ObjectiveStep(9, "left"),)))


def test_wrong_turn_off_the_map_truncates_with_warning(town5x5, objective4):
    with pytest.warns(SimulationWarning, match="off the map"):
        log = simulate(town5x5, objective4, fault="wrong-turn:4")
    honest = simulate(town5x5, objective4)
    assert log.n < honest.n
    assert log.rows[-1] == log.rows[-2]


def test_honest_round_trip_5x5(town5x5, objective4):
    model_text = town_model_text(town5x5, objective4)
    honest = simulate(town5x5, objective4)
    assert adjudicate(model_text, format_log(honest)) == ("Confirmed", None)


def test_reduced_model_is_deterministic_everywhere(town5x5, objective4):
    graph = build_graph(parse_model(town_model_text(town5x5, objective4)))
    assert all(len(graph.successors(i)) == 1 for i in range(graph.state_count))


def test_unreduced_model_still_confirms_honest_log(town5x5, objective4):
    model_text = town_model_text(town5x5, objective4, reduce=False)
    honest = simulate(town5x5, objective4)
    assert adjudicate(model_text, format_log(honest)) == ("Confirmed", None)


def test_start_override():
    town = load_town(TWO_NODE)
    objective = load_objective(ONE_FORWARD)
    log = simulate(town, objective, start=(1, 0, 1))
    # starting on the untagged node heading east: no edge, immediate halt
    assert log.rows == ((1, 0, 1, 0), (1, 0, 1, 0))


def test_random_towns_honest_round_trip():
    import random

    rng = random.Random(5150)
    for _ in range(15):
        town, objective = random_town_and_objective(rng, max_side=4, max_stops=5)
        model_text = town_model_text(town, objective)
        honest = simulate(town, objective)
        assert adjudicate(model_text, format_log(honest)) == ("Confirmed", None)
        graph = build_graph(parse_model(model_text))
        assert all(len(graph.successors(i)) == 1 for i in range(graph.state_count))


def test_full_grid_helper_matches_sample(town5x5, samples_dir):
    tags = {(n.x, n.y): n.tag for n in town5x5.nodes if n.tag}
    rebuilt = full_grid_town(5, 5, tags, town5x5.start)
    assert rebuilt.edges == town5x5.edges
    assert set(rebuilt.nodes) == set(town5x5.nodes)
