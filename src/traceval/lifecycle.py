"""Simulated liability lifecycle: content store, event ledger, validator.

The store is a directory of blobs named by the lowercase-hex SHA-256 of
their bytes.  The ledger is an append-only JSON-lines file; replaying it
rebuilds every liability's status, and the ledger refuses any event that
would take a liability through an illegal transition
(Created -> ResultSubmitted -> Confirmed | Rejected).

Validation is deterministic: fetch the model and the result log from the
store, build the state graph, compile the log into a property and check it
from the initial state.  Malformed artifacts reject the liability with a
reason code instead of raising, so a hostile provider cannot crash the
validator.

Single writer per ledger file; concurrent readers of ledger and store are
safe (append-only file, immutable blobs).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

from .checker import holds_initially
from .errors import (
    LedgerError,
    ModelError,
    ParseError,
    LogError,
    StateExplosionError,
    StoreError,
)
from .execlog import UnsatisfiableLogWarning, log_property, parse_log
from .lang import parse_model
from .model import DEFAULT_STATE_BUDGET, build_graph

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

_HASH_RE_LEN = 64


class ContentStore:
    """Directory of immutable blobs keyed by the SHA-256 of their bytes."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, digest: str) -> Path:
        if len(digest) != _HASH_RE_LEN or any(c not in "0123456789abcdef" for c in digest):
            raise StoreError(f"not a content hash: {digest!r}")
        return self.root / digest

    def put(self, data: bytes) -> str:
        digest = hashlib.sha256(data).hexdigest()
        path = self.root / digest
        if not path.exists():
            # A temporary name of its own per writer: two writers of one blob
            # never write into one file.  ``hashes`` ignores such names.
            fd, tmp = tempfile.mkstemp(dir=self.root)
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        return digest

    def put_text(self, text: str) -> str:
        return self.put(text.encode("utf-8"))

    def get(self, digest: str) -> bytes:
        path = self._path(digest)
        if not path.is_file():
            raise StoreError(f"unknown hash {digest}")
        return path.read_bytes()

    def get_text(self, digest: str) -> str:
        return self.get(digest).decode("utf-8")

    def __contains__(self, digest: str) -> bool:
        try:
            return self._path(digest).is_file()
        except StoreError:
            return False

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
        self._load()

    def _load(self):
        self.events = []
        self.liabilities = {}
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise LedgerError(f"{self.path}:{line_no}: not valid JSON: {exc}") from exc
                self._apply(event)
                self.events.append(event)

    def reload(self):
        self._load()

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
            liab = self._liability(self._require(event, "id"))
            if liab.status != STATUS_CREATED:
                raise LedgerError(
                    f"liability {liab.id}: cannot submit result in status {liab.status}"
                )
            liab.result_hash = self._require(event, "result_hash")
            liab.status = STATUS_RESULT_SUBMITTED
            liab.result_seq = seq
        elif kind == KIND_VERDICT:
            liab = self._liability(self._require(event, "id"))
            if liab.status != STATUS_RESULT_SUBMITTED:
                raise LedgerError(
                    f"liability {liab.id}: cannot record a verdict in status {liab.status}"
                )
            verdict = self._require(event, "verdict")
            if verdict not in (STATUS_CONFIRMED, STATUS_REJECTED):
                raise LedgerError(f"unknown verdict {verdict!r}")
            liab.status = verdict
        else:
            raise LedgerError(f"unknown event kind {kind!r}")

    def _liability(self, lid: int) -> Liability:
        liab = self.liabilities.get(lid)
        if liab is None:
            raise LedgerError(f"unknown liability id {lid}")
        return liab

    def append(self, kind: str, **payload) -> dict:
        """Validate and persist one event; returns it with its seq."""
        event = {"seq": len(self.events) + 1, "kind": kind, **payload}
        self._apply(event)
        self.events.append(event)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(event, separators=(",", ":")) + "\n")
        return event

    def liability(self, lid: int) -> Liability:
        return self._liability(lid)

    def pending(self) -> list[Liability]:
        """Liabilities awaiting a verdict, in submission order."""
        out = [l for l in self.liabilities.values() if l.status == STATUS_RESULT_SUBMITTED]
        out.sort(key=lambda l: l.result_seq or 0)
        return out

    def next_id(self) -> int:
        return len(self.liabilities) + 1


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
    lid = ledger.next_id()
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
    liab = ledger.liability(lid)
    if liab.status != STATUS_CREATED:
        raise LedgerError(f"liability {lid}: cannot submit result in status {liab.status}")
    if result_hash not in store:
        raise StoreError(f"result hash does not resolve in the store: {result_hash}")
    ledger.append(KIND_RESULT, id=lid, result_hash=result_hash)


def adjudicate(
    model_text: str,
    log_text: str,
    mode: str = "strong",
    base: str = "faithful",
    max_states: int = DEFAULT_STATE_BUDGET,
) -> tuple[str, str | None]:
    """Pure validation core: (verdict, reason) for a model text and a log
    text.  Never raises on malformed provider artifacts."""
    try:
        model = parse_model(model_text)
    except (ParseError, ModelError):
        return STATUS_REJECTED, REASON_MALFORMED_MODEL
    try:
        log = parse_log(log_text)
    except LogError:
        return STATUS_REJECTED, REASON_MALFORMED_LOG
    if log.variables != model.var_names:
        return STATUS_REJECTED, REASON_VARIABLE_MISMATCH
    try:
        graph = build_graph(model, max_states=max_states)
    except StateExplosionError:
        return STATUS_REJECTED, REASON_STATE_EXPLOSION
    except ModelError:
        return STATUS_REJECTED, REASON_MALFORMED_MODEL
    with warnings.catch_warnings():
        # an unsatisfiable faithful property is simply a failing one here
        warnings.simplefilter("ignore", UnsatisfiableLogWarning)
        prop = log_property(log, mode, base)
    if holds_initially(graph, prop).holds:
        return STATUS_CONFIRMED, None
    return STATUS_REJECTED, REASON_PROPERTY_FAILED


def validate(
    ledger: Ledger,
    store: ContentStore,
    lid: int,
    mode: str = "strong",
    base: str = "faithful",
    max_states: int = DEFAULT_STATE_BUDGET,
) -> str:
    """Model-check one pending liability and record the verdict event."""
    liab = ledger.liability(lid)
    if liab.status != STATUS_RESULT_SUBMITTED:
        raise LedgerError(f"liability {lid}: nothing to validate in status {liab.status}")
    verdict = reason = None
    try:
        model_text = store.get_text(liab.model_hash)
    except StoreError:
        verdict, reason = STATUS_REJECTED, REASON_MISSING_BLOB
    except UnicodeDecodeError:
        verdict, reason = STATUS_REJECTED, REASON_MALFORMED_MODEL
    if verdict is None:
        try:
            log_text = store.get_text(liab.result_hash)
        except StoreError:
            verdict, reason = STATUS_REJECTED, REASON_MISSING_BLOB
        except UnicodeDecodeError:
            verdict, reason = STATUS_REJECTED, REASON_MALFORMED_LOG
    if verdict is None:
        verdict, reason = adjudicate(model_text, log_text, mode, base, max_states)
    event = {"id": lid, "verdict": verdict}
    if reason is not None:
        event["reason"] = reason
    ledger.append(KIND_VERDICT, **event)
    return verdict


def run_validator(
    ledger: Ledger,
    store: ContentStore,
    mode: str = "strong",
    base: str = "faithful",
    max_states: int = DEFAULT_STATE_BUDGET,
    watch: bool = False,
    interval: float = 0.5,
    max_polls: int | None = None,
) -> list[tuple[int, str]]:
    """Validate every pending liability in submission order.

    With ``watch`` the ledger file is re-read every ``interval`` seconds
    until interrupted (or ``max_polls`` re-reads, when given).  A failing
    liability becomes a Rejected verdict; the loop itself never aborts.
    """
    results: list[tuple[int, str]] = []
    polls = 0
    while True:
        for liab in ledger.pending():
            try:
                verdict = validate(ledger, store, liab.id, mode, base, max_states)
            except LedgerError:
                raise
            except Exception:
                try:
                    ledger.append(
                        KIND_VERDICT, id=liab.id, verdict=STATUS_REJECTED, reason="validator-error"
                    )
                    verdict = STATUS_REJECTED
                except LedgerError:
                    continue
            results.append((liab.id, verdict))
        if not watch:
            break
        polls += 1
        if max_polls is not None and polls >= max_polls:
            break
        time.sleep(interval)
        ledger.reload()
    return results
