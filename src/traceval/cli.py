"""Command-line interface: the full pipeline as batch subcommands.

Exit codes: 0 = success / property holds / Confirmed, 1 = property fails /
Rejected, 2 = usage, I/O or parse error, an input nested too deeply to
process, or any other failure, printed with its traceback.  Verdicts are
never reported via code 2, nor a failure via code 1.  Results go to
stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import traceback
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
    write_atomically,
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
    """Write ``text`` as UTF-8 over ``path`` by ``write_atomically``, so a
    failed write leaves any old file as it was.  A target that exists but
    is no regular file (a device, say) is written in place."""
    target = Path(path)
    try:
        if target.exists() and not target.is_file():
            target.write_text(text, encoding="utf-8")
        else:
            write_atomically(target, text.encode("utf-8"))
    except (OSError, UnicodeEncodeError) as exc:
        raise TracevalError(f"cannot write {path}: {exc}") from exc


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


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
    formula = log_property(log, args.type, args.base)
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
    log = simulate(town, objective, fault=fault)
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
    log = simulate(town, objective, fault=fault)

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
    which = p.add_mutually_exclusive_group()
    which.add_argument("--liability", type=int, metavar="ID")
    which.add_argument("--watch", action="store_true")
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
    p.add_argument("--max-states", type=_state_budget, default=DEFAULT_STATE_BUDGET, metavar="N")


def _state_budget(text: str) -> int:
    """The value of ``--max-states``: an integer of at least 1, refused as a
    usage error before any input is read."""
    try:
        budget = int(text)
    except ValueError:
        budget = 0
    if budget < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return budget


def _add_workspace_flags(p):
    p.add_argument("--ledger", required=True, metavar="F")
    p.add_argument("--store", required=True, metavar="D")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # each warning a command raises is one line on stderr, as it is raised
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = _print_warning
            return args.func(args)
    except (TracevalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except RecursionError as exc:
        print(f"error: input nested too deeply to process: {exc}", file=sys.stderr)
    except Exception:
        traceback.print_exc()
    return 2


def run():
    sys.exit(main())
