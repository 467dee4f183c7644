"""Grid-town scenario generator: maps, objectives, models, runs, faults.

A town is a grid of nodes joined by directed edges between adjacent
cells.  Some nodes carry a positive tag.  A robot on the grid moves
straight through untagged nodes; on a tagged node it consumes the next
objective step -- provided the tag matches -- by turning (left / right /
forward) and advancing one edge.  When the objective is exhausted, or the
expected tag does not match, or the required edge is missing, the robot
halts and holds its final state.

``TownMap`` and ``Objective`` check their own rules when they are built,
whether by ``load_town``/``load_objective``, which only read JSON fields
into them, or directly; an invalid one raises :class:`TownError`.

``build_bindings`` turns a town plus an objective into the three template
artifacts (template text, bindings, settings): the template declares one
guarded command per possible stop action and per transit move, with the
stop guards left as tags; the bindings pin each used stop action to its
step index; the settings default every remaining action tag to "false".
With ``reduce=False`` the unused actions instead stay enabled for the
whole mission, which preserves honest behavior but keeps the full
branching state space.

``simulate`` runs the robot from the town's checked ``start`` and returns
its log, which a ``Fault`` diverts or mutates.

Headings are 0:N, 1:E, 2:S, 3:W with north along +y.  The model's
variables, and therefore the log columns, are (x, y, d, k).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Mapping

from .errors import TownError
from .execlog import ExecutionLog
from .template import Settings, render

ACTIONS = ("left", "right", "forward")
DIR_VECS = ((0, 1), (1, 0), (0, -1), (-1, 0))  # N, E, S, W
HEADING_LETTERS = "nesw"
LOG_COLUMNS = ("x", "y", "d", "k")

_WRONG_ACTION = {"left": "right", "right": "forward", "forward": "left"}

# What reading a malformed JSON field raises; OverflowError is int() of 1e999.
_MALFORMED = (KeyError, TypeError, ValueError, IndexError, OverflowError)


class SimulationWarning(UserWarning):
    """The simulated run could not finish as requested (e.g. a wrong turn
    pointed off the map); the log was truncated at the last valid state."""


def turn(d: int, action: str) -> int:
    if action == "left":
        return (d - 1) % 4
    if action == "right":
        return (d + 1) % 4
    if action == "forward":
        return d
    raise TownError(f"unknown action '{action}'")


@dataclass(frozen=True)
class TownNode:
    x: int
    y: int
    tag: int = 0  # 0 = untagged


@dataclass(frozen=True)
class TownMap:
    width: int
    height: int
    nodes: tuple[TownNode, ...]
    edges: frozenset[tuple[tuple[int, int], tuple[int, int]]]
    start: tuple[int, int, int]  # x, y, heading
    _by_pos: dict = field(init=False, repr=False, compare=False)
    _by_tag: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise TownError("town dimensions must be positive")
        by_pos, by_tag = {}, {}
        for node in self.nodes:
            if not (0 <= node.x < self.width and 0 <= node.y < self.height):
                raise TownError(f"node ({node.x},{node.y}) out of bounds")
            if (node.x, node.y) in by_pos:
                raise TownError(f"duplicate node at ({node.x},{node.y})")
            if node.tag < 0:
                raise TownError(f"node ({node.x},{node.y}): negative tag")
            if node.tag > 0:
                if node.tag in by_tag:
                    raise TownError(f"duplicate tag {node.tag}")
                by_tag[node.tag] = node
            by_pos[node.x, node.y] = node
        bad = [
            (src, dst) for src, dst in self.edges
            if src not in by_pos or dst not in by_pos or abs(src[0] - dst[0]) + abs(src[1] - dst[1]) != 1
        ]
        if bad:  # the least, so that an error names the same edge on every run
            src, dst = min(bad)
            if src in by_pos and dst in by_pos:
                raise TownError(f"edge {src}->{dst} does not join adjacent nodes")
            raise TownError(f"edge {src}->{dst} references an undeclared node")
        if (self.start[0], self.start[1]) not in by_pos:
            raise TownError("start node not declared")
        if not 0 <= self.start[2] <= 3:
            raise TownError("start heading must be 0..3")
        object.__setattr__(self, "_by_pos", by_pos)
        object.__setattr__(self, "_by_tag", by_tag)

    def node_at(self, x: int, y: int) -> TownNode | None:
        return self._by_pos.get((x, y))

    def node_with_tag(self, tag: int) -> TownNode | None:
        return self._by_tag.get(tag)

    def has_edge(self, src: tuple[int, int], dst: tuple[int, int]) -> bool:
        return (src, dst) in self.edges


@dataclass(frozen=True)
class ObjectiveStep:
    tag: int
    action: str


@dataclass(frozen=True)
class Objective:
    steps: tuple[ObjectiveStep, ...]

    def __post_init__(self):
        if not self.steps:
            raise TownError("non-empty sequence required")
        for step in self.steps:
            if step.tag < 1:
                raise TownError(f"objective tag must be positive, got {step.tag}")
            if step.action not in ACTIONS:
                raise TownError(f"unknown action '{step.action}'")


def load_town(source: str | Mapping) -> TownMap:
    """Read a town from JSON text or an equivalent mapping; ``TownMap``
    checks it."""
    data = _as_mapping(source, "town")
    try:
        width = int(data["width"])
        height = int(data["height"])
        raw_nodes, raw_edges, raw_start = data["nodes"], data["edges"], data["start"]
        nodes = tuple(_read("node entry", _node, item) for item in raw_nodes)
        edges = frozenset(_read("edge entry", _edge, item) for item in raw_edges)
    except _MALFORMED as exc:
        raise TownError(f"town JSON missing or malformed field: {exc}") from exc
    try:
        start = (int(raw_start["x"]), int(raw_start["y"]), int(raw_start["d"]))
    except _MALFORMED as exc:
        raise TownError(f"bad start entry: {exc}") from exc
    return TownMap(width, height, nodes, edges, start)


def load_objective(source: str | Mapping) -> Objective:
    """Read an objective from JSON text or an equivalent mapping;
    ``Objective`` checks it."""
    raw = _as_mapping(source, "objective").get("sequence")
    if not isinstance(raw, list):
        raise TownError("non-empty sequence required")
    return Objective(tuple(_read("objective step", _step, item) for item in raw))


def _node(item) -> TownNode:
    return TownNode(int(item["x"]), int(item["y"]), int(item.get("tag", 0)))


def _edge(item) -> tuple[tuple[int, int], tuple[int, int]]:
    return (int(item["from"][0]), int(item["from"][1])), (int(item["to"][0]), int(item["to"][1]))


def _step(item) -> ObjectiveStep:
    return ObjectiveStep(int(item["tag"]), item["action"])


def _read(what: str, read, item):
    """``read(item)``; a TownError naming the JSON entry if it is malformed."""
    try:
        return read(item)
    except _MALFORMED as exc:
        raise TownError(f"bad {what} {item!r}: {exc}") from exc


def _as_mapping(source, what: str) -> Mapping:
    if isinstance(source, Mapping):
        return source
    try:
        data = json.loads(source)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long for int()
        raise TownError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(data, Mapping):
        raise TownError(f"{what} JSON must be an object")
    return data


def tag_letters(tag: int) -> str:
    """Spreadsheet-style letter encoding of a positive tag id (1 -> a)."""
    if tag < 1:
        raise TownError(f"tag must be positive, got {tag}")
    out = ""
    n = tag
    while n:
        n -= 1
        out = chr(ord("a") + n % 26) + out
        n //= 26
    return out


@dataclass(frozen=True)
class TownModelParts:
    """Everything the template pipeline needs to render the town model."""

    template: str
    bindings: dict[str, str]
    settings: Settings


def _check_objective_against(town: TownMap, objective: Objective):
    for step in objective.steps:
        if town.node_with_tag(step.tag) is None:
            raise TownError(f"objective references tag {step.tag} absent from the map")


def build_bindings(town: TownMap, objective: Objective, *, reduce: bool = True) -> TownModelParts:
    """Template, bindings and settings for this (town, objective) pair.

    The stop command for tag t, arrival heading h and action a carries the
    tag ``act_<letters(t)>_<h>_<a>`` as its guard.  Used actions bind to
    guards pinning the robot's position, heading and step index; every
    other action tag defaults to "false" (or, with ``reduce=False``, binds
    to a guard enabled for the whole mission).
    """
    _check_objective_against(town, objective)

    seq_len = len(objective.steps)
    lines = [
        "// grid-town service model: position, heading and objective progress",
        f"var x : 0..{town.width - 1} init @start_x@;",
        f"var y : 0..{town.height - 1} init @start_y@;",
        "var d : 0..3 init @start_d@;",
        "var k : 0..@seq_len@ init 0;",
    ]
    action_tags: list[str] = []
    action_info: dict[str, tuple[TownNode, int]] = {}
    ordered = sorted(town.nodes, key=lambda n: (n.x, n.y))
    for node in ordered:
        if node.tag <= 0:
            continue
        for d0 in range(4):
            for action in ACTIONS:
                d1 = turn(d0, action)
                dx, dy = DIR_VECS[d1]
                dst = (node.x + dx, node.y + dy)
                if not town.has_edge((node.x, node.y), dst):
                    continue
                tag_name = f"act_{tag_letters(node.tag)}_{HEADING_LETTERS[d0]}_{action}"
                action_tags.append(tag_name)
                action_info[tag_name] = (node, d0)
                lines.append(
                    f"[{tag_name}] @{tag_name}@ -> "
                    f"x'={dst[0]} & y'={dst[1]} & d'={d1} & k'=k+1;"
                )
    for node in ordered:
        if node.tag > 0:
            continue
        for d0 in range(4):
            dx, dy = DIR_VECS[d0]
            dst = (node.x + dx, node.y + dy)
            if not town.has_edge((node.x, node.y), dst):
                continue
            lines.append(
                f"[] x=={node.x} & y=={node.y} & d=={d0} & k<@seq_len@ -> "
                f"x'={dst[0]} & y'={dst[1]};"
            )
    template = "\n".join(lines) + "\n"

    used: dict[str, list[int]] = {}
    for k_idx, step in enumerate(objective.steps):
        for d0 in range(4):
            tag_name = f"act_{tag_letters(step.tag)}_{HEADING_LETTERS[d0]}_{step.action}"
            if tag_name in action_info:
                used.setdefault(tag_name, []).append(k_idx)

    bindings: dict[str, str] = {}
    for tag_name, indices in used.items():
        node, d0 = action_info[tag_name]
        uniq = sorted(set(indices))
        if len(uniq) == 1:
            k_guard = f"k=={uniq[0]}"
        else:
            k_guard = "(" + " | ".join(f"k=={i}" for i in uniq) + ")"
        bindings[tag_name] = f"x=={node.x} & y=={node.y} & d=={d0} & {k_guard}"
    if not reduce:
        for tag_name in action_tags:
            if tag_name in bindings:
                continue
            node, d0 = action_info[tag_name]
            bindings[tag_name] = f"x=={node.x} & y=={node.y} & d=={d0} & k<{seq_len}"

    settings = Settings(
        parameters={
            "start_x": town.start[0],
            "start_y": town.start[1],
            "start_d": town.start[2],
            "seq_len": seq_len,
        },
        defaults={tag_name: "false" for tag_name in action_tags},
    )
    return TownModelParts(template=template, bindings=bindings, settings=settings)


def town_model_text(town: TownMap, objective: Objective, *, reduce: bool = True) -> str:
    """Render the town model in one call."""
    parts = build_bindings(town, objective, reduce=reduce)
    return render(parts.template, parts.bindings, parts.settings)


# ---------------------------------------------------------------------------
# Simulation and fault injection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fault:
    kind: str  # "wrong-turn" | "forge" | "skip" | "truncate"
    index: int = 0
    var: str = ""
    value: int = 0


def parse_fault(spec: str) -> Fault:
    """Parse CLI fault syntax: ``wrong-turn:J``, ``forge:I,VAR,VAL``,
    ``skip:I`` or ``truncate:J``."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise TownError(f"bad fault spec '{spec}': missing ':'")
    try:
        if kind in ("wrong-turn", "skip", "truncate"):
            return Fault(kind, index=int(rest))
        if kind == "forge":
            row, var, value = rest.split(",")
            if var not in LOG_COLUMNS:
                raise TownError(f"bad fault spec '{spec}': unknown variable '{var}'")
            return Fault(kind, index=int(row), var=var, value=int(value))
    except ValueError as exc:
        raise TownError(f"bad fault spec '{spec}': {exc}") from exc
    raise TownError(f"bad fault spec '{spec}': unknown fault kind '{kind}'")


def simulate(town: TownMap, objective: Objective, fault: Fault | str | None = None) -> ExecutionLog:
    """Run the robot from ``town.start`` and return its log, one
    (x, y, d, k) row per state visited, terminal row duplicated once.

    A ``wrong-turn`` fault diverts the j-th stop and the log records what
    actually happened; ``forge``/``skip``/``truncate`` mutate the honest
    log afterwards.
    """
    _check_objective_against(town, objective)
    if isinstance(fault, str):
        fault = parse_fault(fault)
    steps = objective.steps
    seq_len = len(steps)
    if fault is not None and fault.kind == "wrong-turn" and not 1 <= fault.index <= seq_len:
        raise TownError(f"wrong-turn index {fault.index} out of range 1..{seq_len}")

    x, y, d = town.start
    k = 0
    rows = [(x, y, d, k)]
    stops_taken = 0
    while True:
        node = town.node_at(x, y)
        if node.tag > 0:
            if k >= seq_len or steps[k].tag != node.tag:
                break  # mission finished, or unexpected tag: hold position
            action = steps[k].action
            stops_taken += 1
            diverted = (
                fault is not None
                and fault.kind == "wrong-turn"
                and fault.index == stops_taken
            )
            if diverted:
                action = _WRONG_ACTION[action]
            d1 = turn(d, action)
            dx, dy = DIR_VECS[d1]
            dst = (x + dx, y + dy)
            if not town.has_edge((x, y), dst):
                if diverted:
                    warnings.warn(
                        SimulationWarning(
                            f"wrong turn at stop {stops_taken} leads off the map; "
                            "log truncated"
                        ),
                        stacklevel=2,
                    )
                break
            x, y, d, k = dst[0], dst[1], d1, k + 1
        else:
            if k >= seq_len:
                break
            dx, dy = DIR_VECS[d]
            dst = (x + dx, y + dy)
            if not town.has_edge((x, y), dst):
                break
            x, y = dst
        rows.append((x, y, d, k))
    rows.append(rows[-1])  # terminal state holds forever

    if fault is not None and fault.kind != "wrong-turn":
        rows = _apply_post_fault(rows, fault)
    return ExecutionLog(LOG_COLUMNS, tuple(rows))


def _apply_post_fault(rows: list[tuple[int, int, int, int]], fault: Fault):
    n = len(rows)
    if fault.kind == "forge":
        if not 1 <= fault.index <= n:
            raise TownError(f"forge row {fault.index} out of range 1..{n}")
        col = LOG_COLUMNS.index(fault.var)
        row = list(rows[fault.index - 1])
        row[col] = fault.value
        rows = list(rows)
        rows[fault.index - 1] = tuple(row)
        return rows
    if fault.kind == "skip":
        if n < 4 or not 1 < fault.index < n - 1:
            raise TownError(
                f"no interior row to skip: index must satisfy 1 < i < {n - 1}"
            )
        rows = list(rows)
        del rows[fault.index - 1]
        return rows
    if fault.kind == "truncate":
        if not 1 <= fault.index <= n - 2:
            raise TownError(f"truncate count {fault.index} out of range 1..{n - 2}")
        return list(rows[: n - fault.index])
    raise TownError(f"unknown fault kind '{fault.kind}'")
