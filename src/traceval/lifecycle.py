"""Simulated liability lifecycle: content store, event ledger, validator.

The store is a directory of blobs named by the lowercase-hex SHA-256 of
their bytes, read whole through one unbuffered file; a name there that is
not a regular file (a directory, a FIFO) counts as missing.  The ledger is
an append-only JSON-lines file, each event appended as one unbuffered
``O_APPEND`` write of its encoded line; replaying it rebuilds every
liability's status.  One method, ``Ledger._apply``, rules
on every transition (Created -> ResultSubmitted -> Confirmed | Rejected),
for appends and replays alike, and refuses an illegal one.  A ledger file
that is not UTF-8, has a line that is not a JSON object, or records an
illegal history raises :class:`LedgerError` when it is loaded; but a
torn last line, not valid JSON and with no newline after it, as a write
that fails partway leaves, is cut from the file with a warning, and a
whole last event with no newline after it gets one, also with a warning.
An append whose write fails reloads the ledger from its file and
re-raises, so the ledger in memory never holds an event its file lacks.

Validation is deterministic: fetch the model and the result log from the
store and walk the log's rows forward with the model's compiled successor
function (``checker.follow``), which decides the log's property without
building it or a state graph.  ``PreparedModel`` parses a model text and
compiles it (``model.compile_model``), and ``PreparedModel.judge`` checks
one log through a bounded ``lru_cache`` of the successor function.  Only
a log the walk refuses sizes the model, once per prepared model, by a
forward search of every reachable state (``checker.reach``), and its
``property-failed`` verdict event records the row the log left the model
at, the check that row failed and the reachable state and edge counts.
``run_validator`` prepares each distinct model text once per call, through
a ``functools.lru_cache`` of the few most recently used; ``adjudicate``
and ``validate`` prepare a fresh one per call.  Malformed artifacts
reject the liability with a reason code instead of raising, and
``validate`` records any other exception (a ``RecursionError`` on a deeply
nested model text, say) as ``validator-error``, with a warning that names
it: a hostile provider cannot crash the validator, which stops only on a
ledger it cannot load or write.

As only a refused log searches every reachable state, an admitted log is
confirmed when the model has more reachable states than ``max_states`` but
the walk stays within them, or when an update fails only at states the
log never steps from.  A log that steps from such a state is rejected
``malformed-model``, and an ``init`` constraint over a domain wider than
the budget rejects every log for ``state-explosion``.  A weak log's
searches share the budget, in log order: one whose searches find more
than ``max_states`` states in all is rejected ``state-explosion``, even
when each search alone stays within it.  A ``max_states`` below 1 makes
``adjudicate``, ``validate`` and ``run_validator`` raise ``ValueError``.

One process at a time may write a ledger file, and until a lock is held
across load and append (ROADMAP item 3), no process may load a ledger
while another appends to it: a load cuts a last line that has no newline
and is not valid JSON, and such a line may be another process's append
still in flight.  Store blobs are immutable and renamed into place, so
the store may be read while it is written.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import stat
import time
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from pathlib import Path
from typing import Callable

from .checker import Witness, follow, reach
from .errors import (
    LedgerError,
    ModelError,
    ParseError,
    LogError,
    StateExplosionError,
    StoreError,
)
from .execlog import parse_log

# bench/run.py's layer_functions wraps holds_initially, log_property and build_graph here by name.
from .checker import holds_initially
from .execlog import log_property
from .lang import parse_model
from .model import DEFAULT_STATE_BUDGET, build_graph, compile_model

STATUS_CREATED = "Created"
STATUS_RESULT_SUBMITTED = "ResultSubmitted"
STATUS_CONFIRMED = "Confirmed"
STATUS_REJECTED = "Rejected"

KIND_CREATED = "LiabilityCreated"
KIND_RESULT = "ResultSubmitted"
KIND_VERDICT = "Verdict"

REASON_MALFORMED_MODEL = "malformed-model"
REASON_MALFORMED_LOG = "malformed-log"
REASON_VARIABLE_MISMATCH = "variable-mismatch"
REASON_STATE_EXPLOSION = "state-explosion"
REASON_PROPERTY_FAILED = "property-failed"
REASON_MISSING_BLOB = "missing-blob"
REASON_VALIDATOR_ERROR = "validator-error"

_HASH_RE_LEN = 64
# fullmatch, not match with '$', which takes a trailing newline; and no
# '\d', which takes non-ASCII digits
_HASH_RE = re.compile(f"[0-9a-f]{{{_HASH_RE_LEN}}}")

# Prepared models one run_validator call keeps; the least recently used goes.
_CACHED_MODELS = 8

# Successor lists a model's walk keeps; logs re-step a few states (long-input 2, the town 8 or 35).
_STEPS_KEPT = 4096

# Seconds a run_validator --watch loop sleeps between re-reads of the ledger.
_POLL_INTERVAL = 0.5


def write_atomically(path: Path, data: bytes):
    """Write ``data`` to a temporary file of its own beside ``path`` and
    rename it over ``path``, so a failed write leaves any old file as it
    was.  The temporary file takes a fresh random name and is created with
    O_EXCL and mode 0666, so the kernel applies the umask as to a new file."""
    tmp = path.parent / f".{path.name}.{os.urandom(16).hex()}"
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class ContentStore:
    """Directory of immutable blobs keyed by the SHA-256 of their bytes."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._prefix = os.path.join(self.root, "")  # a blob's path is this plus its hash

    def _has(self, digest: str) -> bool:
        """Whether ``digest`` names a regular file, by one ``stat``: a
        directory, a FIFO or any other file there counts as missing."""
        try:
            return stat.S_ISREG(os.stat(self._prefix + digest).st_mode)
        except (FileNotFoundError, NotADirectoryError):
            return False

    def put(self, data: bytes) -> str:
        digest = hashlib.sha256(data).hexdigest()
        if not self._has(digest):
            # A temporary name of its own per writer: two writers of one blob
            # never write into one file.  ``hashes`` ignores such names.
            write_atomically(self.root / digest, data)
        return digest

    def put_text(self, text: str) -> str:
        return self.put(text.encode("utf-8"))

    def get(self, digest: str) -> bytes:
        if not _HASH_RE.fullmatch(digest):
            raise StoreError(f"not a content hash: {digest!r}")
        if not self._has(digest):
            raise StoreError(f"unknown hash {digest}")
        with open(self._prefix + digest, "rb", buffering=0) as fh:
            return fh.readall()

    def get_text(self, digest: str) -> str:
        return self.get(digest).decode("utf-8")

    def __contains__(self, digest: str) -> bool:
        return _HASH_RE.fullmatch(digest) is not None and self._has(digest)

    def hashes(self) -> list[str]:
        return sorted(
            p.name for p in self.root.iterdir() if p.is_file() and len(p.name) == _HASH_RE_LEN
        )

    def verify(self) -> list[str]:
        """Full-scan integrity check; returns keys whose bytes do not hash
        back to the key."""
        bad = []
        for digest in self.hashes():
            if hashlib.sha256((self.root / digest).read_bytes()).hexdigest() != digest:
                bad.append(digest)
        return bad


@dataclass
class Liability:
    id: int
    promisor: str
    promisee: str
    model_hash: str
    objective_hash: str
    result_hash: str | None = None
    status: str = STATUS_CREATED
    result_seq: int | None = None
    reason: str | None = None  # the verdict's reason code, if it gave one


class Ledger:
    """Append-only event log persisted as one JSON object per line.

    Events carry a strictly increasing ``seq``.  Both appends and replays
    go through the same transition rules, so a ledger file that loads at
    all is guaranteed to describe a legal history.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.events: list[dict] = []
        self.liabilities: dict[int, Liability] = {}
        self.reload()

    def reload(self):
        """Replay the ledger file into memory."""
        self.events = []
        self.liabilities = {}
        if not self.path.exists():
            return
        data = self.path.read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LedgerError(f"{self.path}: not UTF-8: {exc}") from exc
        lines = text.split("\n")
        for line_no, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError as exc:  # a JSONDecodeError, or an integer too long for int()
                if line_no == len(lines):  # no newline after it: a torn write
                    warnings.warn(f"{self.path}:{line_no}: dropped a torn last line: {exc}")
                    os.truncate(self.path, data.rfind(b"\n") + 1)
                    break
                raise LedgerError(f"{self.path}:{line_no}: not valid JSON: {exc}") from exc
            if not isinstance(event, dict):
                raise LedgerError(f"{self.path}:{line_no}: not a JSON object")
            self._apply(event)
            self.events.append(event)
            if line_no == len(lines):  # a whole event with no newline after it
                warnings.warn(f"{self.path}:{line_no}: ended the last line with a newline")
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write("\n")

    def _require(self, event: dict, field: str):
        value = event.get(field)
        if value is None:
            raise LedgerError(f"event missing field '{field}': {event}")
        return value

    def _apply(self, event: dict):
        seq = self._require(event, "seq")
        if seq != len(self.events) + 1:
            raise LedgerError(f"bad seq {seq}, expected {len(self.events) + 1}")
        kind = self._require(event, "kind")
        if kind == KIND_CREATED:
            lid = self._require(event, "id")
            if lid != len(self.liabilities) + 1:
                raise LedgerError(f"bad liability id {lid}, expected {len(self.liabilities) + 1}")
            self.liabilities[lid] = Liability(
                id=lid,
                promisor=self._require(event, "promisor"),
                promisee=self._require(event, "promisee"),
                model_hash=self._require(event, "model_hash"),
                objective_hash=self._require(event, "objective_hash"),
            )
        elif kind == KIND_RESULT:
            liab = self.liability(self._require(event, "id"))
            if liab.status != STATUS_CREATED:
                raise LedgerError(
                    f"liability {liab.id}: cannot submit result in status {liab.status}"
                )
            liab.result_hash = self._require(event, "result_hash")
            liab.status = STATUS_RESULT_SUBMITTED
            liab.result_seq = seq
        elif kind == KIND_VERDICT:
            liab = self.liability(self._require(event, "id"))
            if liab.status != STATUS_RESULT_SUBMITTED:
                raise LedgerError(
                    f"liability {liab.id}: cannot record a verdict in status {liab.status}"
                )
            verdict = self._require(event, "verdict")
            if verdict not in (STATUS_CONFIRMED, STATUS_REJECTED):
                raise LedgerError(f"unknown verdict {verdict!r}")
            liab.status = verdict
            liab.reason = event.get("reason")
        else:
            raise LedgerError(f"unknown event kind {kind!r}")

    def liability(self, lid: int) -> Liability:
        liab = self.liabilities.get(lid)
        if liab is None:
            raise LedgerError(f"unknown liability id {lid}")
        return liab

    def append(self, kind: str, **payload) -> dict:
        """Validate and persist one event, with one unbuffered ``O_APPEND``
        write of its encoded line (more only if the write comes up short);
        returns it with its seq.  A failed write reloads the ledger from
        its file and re-raises."""
        event = {"seq": len(self.events) + 1, "kind": kind, **payload}
        line = (json.dumps(event, separators=(",", ":")) + "\n").encode("utf-8")
        self._apply(event)
        self.events.append(event)
        try:
            with open(self.path, "ab", buffering=0) as fh:
                while line:
                    line = line[fh.write(line):]
        except BaseException:
            self.reload()
            raise
        return event

    def pending(self) -> list[Liability]:
        """Liabilities awaiting a verdict, in submission order."""
        out = [l for l in self.liabilities.values() if l.status == STATUS_RESULT_SUBMITTED]
        out.sort(key=lambda l: l.result_seq or 0)
        return out


def create_liability(
    ledger: Ledger,
    store: ContentStore,
    promisor: str,
    promisee: str,
    model_hash: str,
    objective_hash: str,
) -> int:
    """Record a new liability; both artifact hashes must resolve in the store."""
    for what, digest in (("model", model_hash), ("objective", objective_hash)):
        if digest not in store:
            raise StoreError(f"{what} hash does not resolve in the store: {digest}")
    lid = len(ledger.liabilities) + 1
    ledger.append(
        KIND_CREATED,
        id=lid,
        promisor=promisor,
        promisee=promisee,
        model_hash=model_hash,
        objective_hash=objective_hash,
    )
    return lid


def submit_result(ledger: Ledger, store: ContentStore, lid: int, result_hash: str):
    """Attach an execution result to a Created liability."""
    if result_hash not in store:
        raise StoreError(f"result hash does not resolve in the store: {result_hash}")
    ledger.append(KIND_RESULT, id=lid, result_hash=result_hash)


class PreparedModel:
    """One model text, parsed and compiled on creation, and sized for the
    first log the walk refuses.

    Holds the model's variable names, the initial valuations and successor
    function ``compile_model`` gives, or why the model was refused.  The
    walk steps through ``_steps``, an ``lru_cache`` of that function that
    keeps at most ``_STEPS_KEPT`` successor lists; ``sizing`` keeps the
    first refused log's search: at most ``max_states`` reachable
    valuations and the edge count, or why it failed.  ``_attempt`` gives
    the parse, the compile, the walk and the sizing their reason; one that
    raises anything else propagates and records nothing, so the next log
    tries it again.  One prepared model can judge any number of logs.
    """

    def __init__(self, model_text: str, max_states: int = DEFAULT_STATE_BUDGET):
        self.max_states = max_states
        model, self.reason = _attempt(partial(parse_model, model_text))
        self.var_names = None if model is None else model.var_names
        if model is not None:
            # a compile failure is answered after the log's own checks
            compiled, self.reason = _attempt(partial(compile_model, model, max_states))
            if compiled is not None:
                self._initial, self._successors = compiled
                self._steps = lru_cache(maxsize=_STEPS_KEPT)(self._successors)

    @cached_property
    def sizing(self) -> tuple[tuple[set, int] | None, str | None]:
        """``((reachable, edges), None)``, or ``(None, reason)`` when the search fails."""
        return _attempt(partial(reach, self._successors, self._initial, self.max_states))

    def judge(
        self, log_text: str, mode: str = "strong", base: str = "faithful"
    ) -> tuple[str, str | None, Witness | None]:
        """(verdict, reason, witness) for a log text, the witness saying
        where the log left the model when its property failed."""
        if self.var_names is None:
            return STATUS_REJECTED, self.reason, None
        try:
            log = parse_log(log_text)
        except LogError:
            return STATUS_REJECTED, REASON_MALFORMED_LOG, None
        if log.variables != self.var_names:
            return STATUS_REJECTED, REASON_VARIABLE_MISMATCH, None
        if self.reason is not None:
            return STATUS_REJECTED, self.reason, None
        walk = partial(follow, self._steps, self._initial, log, mode, base, self.max_states)
        witness, reason = _attempt(walk)
        if witness is not None:  # a refused log sizes the model
            size, reason = self.sizing
        if reason is not None:
            return STATUS_REJECTED, reason, None
        if witness is None:
            return STATUS_CONFIRMED, None, None
        # The rows before the witness's lie on a path from an initial state.
        if log.rows[witness.row - 1] not in size[0]:
            witness = Witness(witness.row, "not-a-model-state")
        return STATUS_REJECTED, REASON_PROPERTY_FAILED, witness


def _attempt(make: Callable):
    """``(make(), None)``, or ``(None, reason)`` when ``make`` refuses the model."""
    try:
        return make(), None
    except StateExplosionError:
        return None, REASON_STATE_EXPLOSION
    except (ModelError, ParseError):
        return None, REASON_MALFORMED_MODEL


def _require_budget(max_states: int):
    if max_states < 1:  # before any blob is read or event appended
        raise ValueError(f"max_states must be at least 1, got {max_states!r}")


def adjudicate(
    model_text: str,
    log_text: str,
    mode: str = "strong",
    base: str = "faithful",
    max_states: int = DEFAULT_STATE_BUDGET,
) -> tuple[str, str | None]:
    """Pure validation core: (verdict, reason) for a model text and a log
    text.  A malformed artifact gets a reason code, but a model text too
    deep to parse still raises ``RecursionError`` (ROADMAP item 1)."""
    _require_budget(max_states)
    return PreparedModel(model_text, max_states).judge(log_text, mode, base)[:2]


def validate(
    ledger: Ledger,
    store: ContentStore,
    lid: int,
    mode: str = "strong",
    base: str = "faithful",
    max_states: int = DEFAULT_STATE_BUDGET,
) -> str:
    """Model-check one pending liability and record the verdict event."""
    _require_budget(max_states)
    return _validate(ledger, store, lid, mode, base, partial(PreparedModel, max_states=max_states))


def _validate(
    ledger: Ledger,
    store: ContentStore,
    lid: int,
    mode: str,
    base: str,
    prepare: Callable[[str], PreparedModel],
) -> str:
    """``validate`` with the model text prepared by ``prepare``; the one
    writer of Verdict events.  Both blobs are read for every verdict, so
    missing and undecodable blobs are found whether or not the model is
    cached, and any other exception but the ledger's is ``validator-error``,
    with a warning that names the exception.
    A failed property's event carries the witness's ``row`` and ``check``
    and the model's reachable ``states`` and ``edges`` counts."""
    liab = ledger.liability(lid)
    if liab.status != STATUS_RESULT_SUBMITTED:
        raise LedgerError(f"liability {lid}: nothing to validate in status {liab.status}")
    verdict, witness = STATUS_REJECTED, None
    try:
        reason = REASON_MALFORMED_MODEL  # until the model blob decodes
        model_text = store.get_text(liab.model_hash)
        reason = REASON_MALFORMED_LOG  # until the log blob decodes
        log_text = store.get_text(liab.result_hash)
        prepared = prepare(model_text)
        verdict, reason, witness = prepared.judge(log_text, mode, base)
    except StoreError:
        reason = REASON_MISSING_BLOB
    except UnicodeDecodeError:
        pass  # ``reason`` names the blob that is not UTF-8
    except Exception as exc:
        reason = REASON_VALIDATOR_ERROR
        warnings.warn(f"liability {lid}: {reason}: {type(exc).__name__}: {exc}")
    event = {"id": lid, "verdict": verdict}
    if reason is not None:
        event["reason"] = reason
    if witness is not None:
        reachable, edges = prepared.sizing[0]
        event.update(row=witness.row, check=witness.check, states=len(reachable), edges=edges)
    ledger.append(KIND_VERDICT, **event)
    return verdict


def run_validator(
    ledger: Ledger,
    store: ContentStore,
    mode: str = "strong",
    base: str = "faithful",
    max_states: int = DEFAULT_STATE_BUDGET,
    watch: bool = False,
) -> list[tuple[int, str]]:
    """Validate every pending liability in submission order.

    With ``watch`` the ledger file is re-read every ``_POLL_INTERVAL``
    (half a second) until interrupted.  An interrupt (``KeyboardInterrupt``)
    ends the run and returns the verdicts recorded so far.  Each liability
    gets its verdict as ``validate`` gives it; the loop stops only when the
    ledger itself cannot be written or loaded, and raises that error.
    Each distinct model text is parsed and compiled once per call, and
    sized at most once, for the first log it refuses.
    """
    _require_budget(max_states)
    # Keyed by the model text, not its hash, because ContentStore.get does
    # not re-hash: a replaced blob file would make a hash key stale.  The
    # bound keeps a --watch run's memory bounded.
    prepare = lru_cache(maxsize=_CACHED_MODELS)(partial(PreparedModel, max_states=max_states))
    results: list[tuple[int, str]] = []
    try:
        while True:
            for liab in ledger.pending():
                results.append((liab.id, _validate(ledger, store, liab.id, mode, base, prepare)))
            if not watch:
                break
            time.sleep(_POLL_INTERVAL)
            ledger.reload()
    except KeyboardInterrupt:
        pass  # a --watch run ends here; the verdicts recorded so far stand
    return results
