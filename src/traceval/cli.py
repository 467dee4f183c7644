"""Command-line interface: the full pipeline as batch subcommands.

Exit codes: 0 = success / property holds / Confirmed, 1 = property fails /
Rejected, 2 = usage, I/O or parse error.  Verdicts are never reported via
code 2.  Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import warnings
from pathlib import Path

from .checker import holds_initially
from .ctl import print_formula
from .errors import ParseError, TracevalError
from .execlog import BASES, MODES, format_log, log_property, parse_log
from .lang import parse_formula, parse_model
from .lifecycle import (
    ContentStore,
    Ledger,
    STATUS_CONFIRMED,
    STATUS_CREATED,
    create_liability,
    run_validator,
    submit_result,
    validate,
)
from .model import DEFAULT_STATE_BUDGET, build_graph
from .template import Settings, blame, parse_bindings, parse_settings, render
from .town import load_objective, load_town, parse_fault, simulate, town_model_text


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise TracevalError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str):
    """Write ``text`` as UTF-8 to a temporary file beside ``path`` and rename
    it over ``path``, so a failed write leaves any old file as it was.  A
    target that exists but is no regular file (a device, say) is written in
    place."""
    target = Path(path)
    tmp = None
    try:
        if target.exists() and not target.is_file():
            target.write_text(text, encoding="utf-8")
            return
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # the mode a new file gets, not mkstemp's 0600
        os.replace(tmp, target)
        tmp = None
    except (OSError, UnicodeEncodeError) as exc:
        raise TracevalError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp is not None:
            os.unlink(tmp)


def _relaying_warnings(call, *args, **kwargs):
    """``call(*args, **kwargs)``, each warning it emits printed to stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call(*args, **kwargs)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return result


def cmd_gen_model(args) -> int:
    template = _read(args.template)
    bindings = parse_bindings(_read(args.bindings)) if args.bindings else {}
    settings = parse_settings(_read(args.settings)) if args.settings else Settings()
    model_text = render(template, bindings, settings)
    try:
        parse_model(model_text)  # write only a model that parses
    except ParseError as exc:
        raise blame(exc, template, bindings, settings) from exc
    _write(args.output, model_text)
    return 0


def cmd_gen_property(args) -> int:
    log = parse_log(_read(args.log))
    formula = _relaying_warnings(log_property, log, args.type, args.base)
    _write(args.output, print_formula(formula) + "\n")
    return 0


def cmd_check(args) -> int:
    model = parse_model(_read(args.model))
    formula = parse_formula(_read(args.property))
    graph = build_graph(model, max_states=args.max_states)
    report = holds_initially(graph, formula)
    verdict = "holds" if report.holds else "fails"
    print(f"{verdict} ({graph.state_count} states, {graph.edge_count} edges)")
    for failure in report.failures:
        print(
            f"initial state {failure.state} {failure.valuation}"
            f" violates: {print_formula(failure.conjunct)}",
            file=sys.stderr,
        )
    return 0 if report.holds else 1


def cmd_order(args) -> int:
    model_text = _read(args.model)
    parse_model(model_text)  # reject unparsable models before storing
    objective_text = _read(args.objective)
    load_objective(objective_text)
    ledger = Ledger(args.ledger)
    store = ContentStore(args.store)
    model_hash = store.put_text(model_text)
    objective_hash = store.put_text(objective_text)
    lid = create_liability(ledger, store, args.promisor, args.promisee, model_hash, objective_hash)
    print(lid)
    return 0


def cmd_execute(args) -> int:
    ledger = Ledger(args.ledger)
    store = ContentStore(args.store)
    liab = ledger.liability(args.liability)
    if liab.status != STATUS_CREATED:
        raise TracevalError(
            f"liability {liab.id} is {liab.status}; only Created liabilities execute"
        )
    town = load_town(_read(args.town))
    objective = load_objective(store.get_text(liab.objective_hash))
    fault = parse_fault(args.fault) if args.fault else None
    log = _relaying_warnings(simulate, town, objective, fault=fault)
    result_hash = store.put_text(format_log(log))
    submit_result(ledger, store, liab.id, result_hash)
    print(result_hash)
    return 0


def cmd_validate(args) -> int:
    ledger = Ledger(args.ledger)
    store = ContentStore(args.store)
    if args.liability is not None:
        verdicts = [(args.liability, validate(ledger, store, args.liability, args.type, args.base, args.max_states))]
    else:
        verdicts = run_validator(
            ledger,
            store,
            mode=args.type,
            base=args.base,
            max_states=args.max_states,
            watch=args.watch,
        )
    for lid, verdict in verdicts:
        reason = ledger.liability(lid).reason
        print(f"liability {lid}: {verdict}" + (f" ({reason})" if reason else ""))
    print(f"{len(verdicts)} processed")
    return 0 if all(v == STATUS_CONFIRMED for _, v in verdicts) else 1


def cmd_demo(args) -> int:
    # Every input is read, checked and run before the workspace is made, so
    # that a refused town, objective or fault leaves nothing behind.
    town = load_town(_read(args.town))
    objective_text = _read(args.objective)
    objective = load_objective(objective_text)
    fault = parse_fault(args.fault) if args.fault else None
    model_text = town_model_text(town, objective)
    log = _relaying_warnings(simulate, town, objective, fault=fault)

    workspace = Path(tempfile.mkdtemp(prefix="traceval-demo-"))
    print(f"workspace: {workspace}")
    ledger = Ledger(workspace / "ledger.jsonl")
    store = ContentStore(workspace / "store")
    model_hash = store.put_text(model_text)
    objective_hash = store.put_text(objective_text)
    print(f"order: model {model_hash[:12]}.., objective {objective_hash[:12]}..")
    lid = create_liability(
        ledger, store, "0x0000000000000001", "0x0000000000000002", model_hash, objective_hash
    )
    print(f"order: liability {lid} created")

    result_hash = store.put_text(format_log(log))
    submit_result(ledger, store, lid, result_hash)
    print(f"execute: {log.n} rows logged, result {result_hash[:12]}.. submitted")

    verdict = validate(ledger, store, lid, args.type, args.base, args.max_states)
    reason = ledger.liability(lid).reason
    print(f"validate: liability {lid} {verdict}" + (f" ({reason})" if reason else ""))
    return 0 if verdict == STATUS_CONFIRMED else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="traceval",
        description="Validate logged executions against guarded-command behavior models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-model", help="render a model from a template")
    p.add_argument("--template", required=True, metavar="F")
    p.add_argument("--settings", metavar="F")
    p.add_argument("--bindings", metavar="F")
    p.add_argument("-o", "--output", required=True, metavar="F")
    p.set_defaults(func=cmd_gen_model)

    p = sub.add_parser("gen-property", help="compile a log into a CTL property")
    p.add_argument("--log", required=True, metavar="F")
    _add_property_flags(p)
    p.add_argument("-o", "--output", required=True, metavar="F")
    p.set_defaults(func=cmd_gen_property)

    p = sub.add_parser("check", help="model-check a property against a model")
    p.add_argument("--model", required=True, metavar="F")
    p.add_argument("--property", required=True, metavar="F")
    _add_budget_flag(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("order", help="store artifacts and create a liability")
    _add_workspace_flags(p)
    p.add_argument("--model", required=True, metavar="F")
    p.add_argument("--objective", required=True, metavar="F")
    p.add_argument("--promisor", required=True, metavar="A")
    p.add_argument("--promisee", required=True, metavar="A")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("execute", help="simulate a liability's objective and submit the log")
    _add_workspace_flags(p)
    p.add_argument("--liability", required=True, type=int, metavar="ID")
    p.add_argument("--town", required=True, metavar="F")
    p.add_argument("--fault", metavar="SPEC")
    p.set_defaults(func=cmd_execute)

    p = sub.add_parser("validate", help="confirm or reject pending liabilities")
    _add_workspace_flags(p)
    p.add_argument("--liability", type=int, metavar="ID")
    p.add_argument("--watch", action="store_true")
    _add_property_flags(p)
    _add_budget_flag(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("demo", help="full order -> execute -> validate round in a temp workspace")
    p.add_argument("--town", required=True, metavar="F")
    p.add_argument("--objective", required=True, metavar="F")
    p.add_argument("--fault", metavar="SPEC")
    _add_property_flags(p)
    _add_budget_flag(p)
    p.set_defaults(func=cmd_demo)

    return parser


def _add_property_flags(p):
    p.add_argument("--type", choices=MODES, default="strong")
    p.add_argument("--base", choices=BASES, default="faithful")


def _add_budget_flag(p):
    p.add_argument("--max-states", type=int, default=DEFAULT_STATE_BUDGET, metavar="N")


def _add_workspace_flags(p):
    p.add_argument("--ledger", required=True, metavar="F")
    p.add_argument("--store", required=True, metavar="D")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TracevalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    sys.exit(main())
