"""traceval: validate logged executions of finite-state services.

The pipeline: describe a service as a guarded-command model (optionally
rendered from a template), build its explicit state graph, compile an
execution log into a CTL property and check whether the model admits the
logged run; the validator decides that property by walking the log's rows
forward with the model's successor function.  A simulated liability
lifecycle (content store + append-only ledger + validator) and a
grid-town scenario generator wrap the core.
"""

from .checker import CheckReport, InitialFailure, StateSet, Witness, follow, holds_initially, sat
from .ctl import (
    AF,
    AG,
    AX,
    And,
    Atom,
    CtlFormula,
    EF,
    EG,
    EX,
    FalseF,
    Not,
    Or,
    TrueF,
    print_formula,
)
from .errors import (
    EvalError,
    LedgerError,
    LogError,
    ModelError,
    ParseError,
    StateExplosionError,
    StoreError,
    TemplateError,
    TownError,
    TracevalError,
)
from .execlog import (
    ExecutionLog,
    UnsatisfiableLogWarning,
    format_log,
    log_property,
    parse_log,
    row_conjunction,
)
from .expr import print_expr
from .lang import parse_formula, parse_model, print_model
from .lifecycle import (
    ContentStore,
    Ledger,
    Liability,
    adjudicate,
    create_liability,
    run_validator,
    submit_result,
    validate,
)
from .model import (
    DEFAULT_STATE_BUDGET,
    GuardedCommand,
    StateGraph,
    SystemModel,
    Valuation,
    VarDecl,
    build_graph,
    compile_model,
)
from .template import (
    Settings,
    parse_bindings,
    parse_settings,
    render,
)
from .town import (
    Fault,
    Objective,
    ObjectiveStep,
    SimulationWarning,
    TownMap,
    TownNode,
    build_bindings,
    load_objective,
    load_town,
    parse_fault,
    simulate,
    town_model_text,
)

__version__ = "0.1.0"
