import dataclasses
import json

import pytest

from corpus import full_grid_town, random_town_and_objective, successor_lists
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
    TownMap,
    TownNode,
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
    # json.loads raises a bare ValueError on an integer past int()'s limit
    with pytest.raises(TownError, match="objective is not valid JSON"):
        load_objective('{"sequence": [{"tag": ' + "9" * 5000 + "}]}")


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
    # json.loads raises a bare ValueError on an integer past int()'s limit
    with pytest.raises(TownError, match="town is not valid JSON"):
        load_town('{"width": ' + "9" * 5000 + "}")


def test_two_node_model_has_unique_run():
    town = load_town(TWO_NODE)
    objective = load_objective(ONE_FORWARD)
    graph = build_graph(parse_model(town_model_text(town, objective)))
    assert graph.state_count == 2
    assert graph.states == ((0, 0, 1, 0), (1, 0, 1, 1))
    assert successor_lists(graph) == [[1], [1]]


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
    assert all(len(row) == 1 for row in successor_lists(graph))


def test_unreduced_model_still_confirms_honest_log(town5x5, objective4):
    model_text = town_model_text(town5x5, objective4, reduce=False)
    honest = simulate(town5x5, objective4)
    assert adjudicate(model_text, format_log(honest)) == ("Confirmed", None)


def test_start_override():
    town = load_town(TWO_NODE)
    objective = load_objective(ONE_FORWARD)
    log = simulate(dataclasses.replace(town, start=(1, 0, 1)), objective)
    # starting on the untagged node heading east: no edge, immediate halt
    assert log.rows == ((1, 0, 1, 0), (1, 0, 1, 0))


@pytest.mark.parametrize("start,message", [
    ((1, 1, 0), "start node not declared"),
    ((0, 0, 4), "start heading must be 0..3"),
])
def test_a_bad_start_is_refused_before_simulate(start, message):
    """simulate runs from town.start unchecked: TownMap refuses a bad start
    however it is set, replace included."""
    with pytest.raises(TownError, match=message):
        dataclasses.replace(load_town(TWO_NODE), start=start)


def test_random_towns_honest_round_trip():
    import random

    rng = random.Random(5150)
    for _ in range(15):
        town, objective = random_town_and_objective(rng, max_side=4, max_stops=5)
        model_text = town_model_text(town, objective)
        honest = simulate(town, objective)
        assert adjudicate(model_text, format_log(honest)) == ("Confirmed", None)
        graph = build_graph(parse_model(model_text))
        assert all(len(row) == 1 for row in successor_lists(graph))


def test_full_grid_helper_matches_sample(town5x5, samples_dir):
    tags = {(n.x, n.y): n.tag for n in town5x5.nodes if n.tag}
    rebuilt = full_grid_town(5, 5, tags, town5x5.start)
    assert rebuilt.edges == town5x5.edges
    assert set(rebuilt.nodes) == set(town5x5.nodes)


def _town_of(spec) -> TownMap:
    """The TownMap a town mapping describes, built without ``load_town``."""
    return TownMap(
        spec["width"],
        spec["height"],
        tuple(TownNode(n["x"], n["y"], n.get("tag", 0)) for n in spec["nodes"]),
        frozenset((tuple(e["from"]), tuple(e["to"])) for e in spec["edges"]),
        (spec["start"]["x"], spec["start"]["y"], spec["start"]["d"]),
    )


THREE_WIDE = dict(TWO_NODE, width=3, nodes=TWO_NODE["nodes"] + [{"x": 2, "y": 0}])


@pytest.mark.parametrize("spec,message", [
    (dict(TWO_NODE, width=0), "town dimensions must be positive"),
    (dict(TWO_NODE, height=-1), "town dimensions must be positive"),
    (dict(TWO_NODE, nodes=TWO_NODE["nodes"] + [{"x": 2, "y": 0}]), "node (2,0) out of bounds"),
    (dict(TWO_NODE, nodes=TWO_NODE["nodes"] + [{"x": 0, "y": 0}]), "duplicate node at (0,0)"),
    (dict(TWO_NODE, nodes=[{"x": 0, "y": 0, "tag": 1}, {"x": 1, "y": 0, "tag": -1}]),
     "node (1,0): negative tag"),
    (dict(TWO_NODE, nodes=[{"x": 0, "y": 0, "tag": 1}, {"x": 1, "y": 0, "tag": 1}]), "duplicate tag 1"),
    (dict(TWO_NODE, edges=TWO_NODE["edges"] + [{"from": [1, 0], "to": [1, 1]}]),
     "edge (1, 0)->(1, 1) references an undeclared node"),
    (dict(THREE_WIDE, edges=[{"from": [0, 0], "to": [2, 0]}]),
     "edge (0, 0)->(2, 0) does not join adjacent nodes"),
    # of two bad edges, the first in sorted order is named, whatever the input order
    (dict(TWO_NODE, edges=[{"from": [1, 0], "to": [1, 5]}, {"from": [0, 0], "to": [0, 5]}]),
     "edge (0, 0)->(0, 5) references an undeclared node"),
    (dict(TWO_NODE, start={"x": 1, "y": 1, "d": 0}), "start node not declared"),
    (dict(TWO_NODE, start={"x": 0, "y": 0, "d": 4}), "start heading must be 0..3"),
    (dict(TWO_NODE, start={"x": 0, "y": 0, "d": -1}), "start heading must be 0..3"),
    # the least bad edge is named by the rule it breaks, not the other's
    (dict(THREE_WIDE, edges=[{"from": [1, 0], "to": [1, 1]}, {"from": [0, 0], "to": [2, 0]}]),
     "edge (0, 0)->(2, 0) does not join adjacent nodes"),
    (dict(THREE_WIDE, edges=[{"from": [0, 0], "to": [2, 0]}, {"from": [0, 0], "to": [0, 1]}]),
     "edge (0, 0)->(0, 1) references an undeclared node"),
])
def test_an_invalid_town_raises_one_message_however_it_is_built(spec, message):
    with pytest.raises(TownError) as loaded:
        load_town(spec)
    with pytest.raises(TownError) as built:
        _town_of(spec)
    assert str(loaded.value) == str(built.value) == message


@pytest.mark.parametrize("source,message", [
    ({k: v for k, v in TWO_NODE.items() if k != "width"}, "town JSON missing or malformed field: 'width'"),
    (dict(TWO_NODE, height="tall"), "town JSON missing or malformed field: invalid literal"),
    (dict(TWO_NODE, width=float("inf")), "town JSON missing or malformed field: cannot convert float infinity"),
    (dict(TWO_NODE, nodes=None), "town JSON missing or malformed field: 'NoneType' object is not iterable"),
    (dict(TWO_NODE, edges=7), "town JSON missing or malformed field: 'int' object is not iterable"),
    ({k: v for k, v in TWO_NODE.items() if k != "start"}, "town JSON missing or malformed field: 'start'"),
    (dict(TWO_NODE, nodes=[{"x": 0}]), "bad node entry {'x': 0}: 'y'"),
    (dict(TWO_NODE, nodes=[{"x": 0, "y": 0, "tag": "t"}]), "bad node entry {'x': 0, 'y': 0, 'tag': 't'}: invalid"),
    (dict(TWO_NODE, nodes=["(0,0)"]), "bad node entry '(0,0)': string indices"),
    (dict(TWO_NODE, edges=[{"from": [0], "to": [1, 0]}]),
     "bad edge entry {'from': [0], 'to': [1, 0]}: list index out of range"),
    (dict(TWO_NODE, edges=[{"to": [1, 0]}]), "bad edge entry {'to': [1, 0]}: 'from'"),
    (dict(TWO_NODE, start=None), "bad start entry: 'NoneType' object is not subscriptable"),
    (dict(TWO_NODE, start={"x": 0, "y": 0}), "bad start entry: 'd'"),
    # every entry is read before any is checked: the malformed second node is
    # reported, not the first node's bounds
    (dict(TWO_NODE, nodes=[{"x": 5, "y": 0}, {"y": 0}]), "bad node entry {'y': 0}: 'x'"),
    ("[1, 2]", "town JSON must be an object"),
    ("{", "town is not valid JSON"),
])
def test_a_malformed_town_json_names_its_field(source, message):
    with pytest.raises(TownError) as caught:
        load_town(source if isinstance(source, str) else json.dumps(source, allow_nan=True))
    assert str(caught.value).startswith(message)


@pytest.mark.parametrize("sequence,message", [
    ([], "non-empty sequence required"),
    ([{"tag": 0, "action": "left"}], "objective tag must be positive, got 0"),
    ([{"tag": -2, "action": "left"}], "objective tag must be positive, got -2"),
    ([{"tag": 1, "action": "left"}, {"tag": 2, "action": "reverse"}], "unknown action 'reverse'"),
])
def test_an_invalid_objective_raises_one_message_however_it_is_built(sequence, message):
    with pytest.raises(TownError) as loaded:
        load_objective({"sequence": sequence})
    with pytest.raises(TownError) as built:
        Objective(tuple(ObjectiveStep(s["tag"], s["action"]) for s in sequence))
    assert str(loaded.value) == str(built.value) == message


@pytest.mark.parametrize("source,message", [
    ({}, "non-empty sequence required"),
    ({"sequence": None}, "non-empty sequence required"),
    ({"sequence": {"tag": 1, "action": "left"}}, "non-empty sequence required"),
    ({"sequence": [{"action": "left"}]}, "bad objective step {'action': 'left'}: 'tag'"),
    ({"sequence": [{"tag": 1}]}, "bad objective step {'tag': 1}: 'action'"),
    ({"sequence": ["left"]}, "bad objective step 'left': string indices"),
    ({"sequence": [{"tag": "one", "action": "left"}]}, "bad objective step {'tag': 'one', 'action': 'left'}: invalid"),
    ({"sequence": [{"tag": float("inf"), "action": "left"}]}, "bad objective step {'tag': inf, 'action': 'left'}"),
    # the malformed second step is reported before the first step's tag
    ({"sequence": [{"tag": 0, "action": "left"}, {"action": "left"}]}, "bad objective step {'action': 'left'}"),
    ("[]", "objective JSON must be an object"),
    ("{", "objective is not valid JSON"),
])
def test_a_malformed_objective_json_names_its_field(source, message):
    with pytest.raises(TownError) as caught:
        load_objective(source if isinstance(source, str) else json.dumps(source, allow_nan=True))
    assert str(caught.value).startswith(message)


@pytest.mark.parametrize("spec,message", [
    ("wrong-turn", "bad fault spec 'wrong-turn': missing ':'"),
    ("meteor:1", "bad fault spec 'meteor:1': unknown fault kind 'meteor'"),
    ("forge:1,q,0", "bad fault spec 'forge:1,q,0': unknown variable 'q'"),
    ("forge:1,k", "bad fault spec 'forge:1,k': not enough values to unpack"),
    ("forge:1,k,0,9", "bad fault spec 'forge:1,k,0,9': too many values to unpack"),
    ("forge:x,k,0", "bad fault spec 'forge:x,k,0': invalid literal for int() with base 10: 'x'"),
    ("skip:", "bad fault spec 'skip:': invalid literal for int() with base 10: ''"),
    ("truncate:1.5", "bad fault spec 'truncate:1.5': invalid literal for int() with base 10: '1.5'"),
])
def test_a_bad_fault_spec_names_itself(spec, message):
    with pytest.raises(TownError) as caught:
        parse_fault(spec)
    assert str(caught.value).startswith(message)


def test_a_directly_built_town_has_its_lookups():
    town = full_grid_town(3, 2, {(2, 1): 4}, (0, 0, 1))
    assert town.node_at(2, 1) == town.node_with_tag(4) == TownNode(2, 1, 4)
    assert town.node_at(3, 0) is None and town.node_with_tag(1) is None
    # the lookups take no part in equality or hashing
    again = full_grid_town(3, 2, {(2, 1): 4}, (0, 0, 1))
    assert again == town and hash(again) == hash(town)
