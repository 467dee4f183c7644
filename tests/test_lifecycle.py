import builtins
import hashlib
import json
import os
import random
import shutil
import stat
import tempfile
import threading
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CHAIN2, TOGGLE
from traceval import lifecycle
from traceval.errors import LedgerError, StoreError
from traceval.lifecycle import (
    ContentStore,
    Ledger,
    STATUS_CONFIRMED,
    STATUS_CREATED,
    STATUS_REJECTED,
    STATUS_RESULT_SUBMITTED,
    adjudicate,
    create_liability,
    run_validator,
    submit_result,
    validate,
)

SHA_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
HUGE = "1" + "0" * 4999  # past the 4300 digits int() converts


@pytest.fixture
def store(tmp_path):
    return ContentStore(tmp_path / "store")


@pytest.fixture
def ledger(tmp_path):
    return Ledger(tmp_path / "ledger.jsonl")


def _seed(store, model_text=CHAIN2, log_text="x\n0\n1\n1\n"):
    return store.put_text(model_text), store.put_text('{"sequence":[]}'), store.put_text(log_text)


# --- content store -----------------------------------------------------------

def test_store_known_vector(store):
    digest = store.put(b"abc")
    assert digest == SHA_ABC
    assert digest == hashlib.sha256(b"abc").hexdigest()
    assert store.get(digest) == b"abc"


def test_store_put_is_idempotent(store):
    a = store.put(b"same bytes")
    b = store.put(b"same bytes")
    assert a == b
    assert store.hashes() == [a]


def test_store_put_leaves_other_temporary_files_alone(store):
    """Each writer writes its own temporary file, so a stale or concurrent
    ``<hash>.tmp`` keeps its bytes."""
    digest = hashlib.sha256(b"blob").hexdigest()
    stale = store.root / f"{digest}.tmp"
    stale.write_bytes(b"another writer's half")
    assert store.put(b"blob") == digest
    assert stale.read_bytes() == b"another writer's half"
    assert store.get(digest) == b"blob"
    assert store.hashes() == [digest]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)], ids=["022", "077", "002"])
def test_a_blob_gets_the_mode_a_new_file_gets(store, umask, mode):
    old = os.umask(umask)
    try:
        digest = store.put(b"blob %o" % umask)
    finally:
        os.umask(old)
    assert stat.S_IMODE((store.root / digest).stat().st_mode) == mode
    assert os.listdir(store.root) == [digest]


def test_a_blob_is_put_without_touching_the_umask(monkeypatch, store):
    """The umask is process-wide: setting it, even briefly, races every
    other thread that creates a file."""
    def umask(mask):
        raise AssertionError(f"os.umask({mask:#o}) called")

    monkeypatch.setattr(os, "umask", umask)
    digest = store.put(b"blob")
    assert store.get(digest) == b"blob"


@pytest.mark.parametrize(
    "digest",
    ["nonsense", "ABCDEF0123456789" * 4, "0123456789abcdef" * 4 + "\n", "0" * 63 + "\u0663", "../" + "0" * 61],
    ids=["nonsense", "uppercase", "trailing-newline", "non-ascii-digit", "path"],
)
def test_store_get_unknown(store, digest):
    with pytest.raises(StoreError, match="unknown hash"):
        store.get("0" * 64)
    with pytest.raises(StoreError, match="not a content hash"):
        store.get(digest)


def test_store_verify_flags_corruption(store):
    digest = store.put(b"honest bytes")
    assert store.verify() == []
    (store.root / digest).write_bytes(b"tampered")
    assert store.verify() == [digest]


@pytest.mark.parametrize("blob", ["model", "log"])
@pytest.mark.parametrize("kind", ["directory", "fifo"])
def test_a_hash_that_names_no_regular_file_is_missing(ledger, store, kind, blob):
    """A directory or a FIFO named by a hash is an unknown hash and is never
    opened: opening a FIFO waits for a writer, so the checks run in a
    thread that must end within five seconds.  Putting the blob again
    replaces a FIFO and fails on a directory, leaving no temporary file."""
    lid = _submitted(ledger, store)
    liab = ledger.liability(lid)
    digest = liab.model_hash if blob == "model" else liab.result_hash
    data = (CHAIN2 if blob == "model" else "x\n0\n1\n1\n").encode()
    path = store.root / digest
    path.unlink()
    path.mkdir() if kind == "directory" else os.mkfifo(path)
    outcome = []

    def check():
        with pytest.raises(StoreError, match=f"unknown hash {digest}"):
            store.get(digest)
        outcome.extend([digest in store, validate(ledger, store, lid)])
        if kind == "directory":
            with pytest.raises(IsADirectoryError):
                store.put(data)
        else:
            assert store.put(data) == digest and store.get(digest) == data
        outcome.append([name for name in os.listdir(store.root) if name.startswith(".")])

    worker = threading.Thread(target=check, daemon=True)
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive(), "the check hung"
    assert outcome == [False, STATUS_REJECTED, []]
    assert ledger.liability(lid).reason == "missing-blob"
    assert Ledger(ledger.path).events == ledger.events


# --- ledger state machine ----------------------------------------------------

def test_create_liability_ids_are_monotone(ledger, store):
    model_hash, objective_hash, _ = _seed(store)
    assert create_liability(ledger, store, "0xaa", "0xbb", model_hash, objective_hash) == 1
    assert create_liability(ledger, store, "0xaa", "0xbb", model_hash, objective_hash) == 2
    assert ledger.liability(1).status == STATUS_CREATED


def test_create_liability_rejects_dangling_hash(ledger, store):
    _, objective_hash, _ = _seed(store)
    with pytest.raises(StoreError, match="model hash"):
        create_liability(ledger, store, "0xaa", "0xbb", "0" * 64, objective_hash)


def test_submit_result_transitions(ledger, store):
    model_hash, objective_hash, log_hash = _seed(store)
    lid = create_liability(ledger, store, "0xaa", "0xbb", model_hash, objective_hash)
    submit_result(ledger, store, lid, log_hash)
    assert ledger.liability(lid).status == STATUS_RESULT_SUBMITTED
    with pytest.raises(LedgerError, match="cannot submit result"):
        submit_result(ledger, store, lid, log_hash)


def test_submit_result_unknown_id_and_dangling_hash(ledger, store):
    model_hash, objective_hash, log_hash = _seed(store)
    with pytest.raises(LedgerError, match="unknown liability"):
        submit_result(ledger, store, 7, log_hash)
    lid = create_liability(ledger, store, "0xaa", "0xbb", model_hash, objective_hash)
    with pytest.raises(StoreError, match="result hash"):
        submit_result(ledger, store, lid, "1" * 64)


def _submitted(ledger, store, model_text=CHAIN2, log_text="x\n0\n1\n1\n"):
    model_hash = store.put_text(model_text)
    objective_hash = store.put_text('{"sequence":[]}')
    log_hash = store.put_text(log_text)
    lid = create_liability(ledger, store, "0xaa", "0xbb", model_hash, objective_hash)
    submit_result(ledger, store, lid, log_hash)
    return lid


def test_validate_confirms_honest_log(ledger, store):
    lid = _submitted(ledger, store)
    assert validate(ledger, store, lid) == STATUS_CONFIRMED
    assert ledger.liability(lid).status == STATUS_CONFIRMED


def test_validate_rejects_forged_log(ledger, store):
    lid = _submitted(ledger, store, log_text="x\n0\n0\n1\n")
    assert validate(ledger, store, lid) == STATUS_REJECTED


def test_validate_rejects_variable_mismatch(ledger, store):
    lid = _submitted(ledger, store, log_text="y\n0\n1\n1\n")
    assert validate(ledger, store, lid) == STATUS_REJECTED
    reason = [e for e in ledger.events if e["kind"] == "Verdict"][-1]["reason"]
    assert reason == "variable-mismatch"


def test_validate_records_where_a_skip_log_leaves_the_model(ledger, store, town5x5, objective4):
    from traceval.execlog import format_log
    from traceval.town import simulate, town_model_text

    model_text = town_model_text(town5x5, objective4)
    log_text = format_log(simulate(town5x5, objective4, fault="skip:3"))
    strong = _submitted(ledger, store, model_text, log_text)
    weak = _submitted(ledger, store, model_text, log_text)
    assert validate(ledger, store, strong, "strong") == STATUS_REJECTED
    assert validate(ledger, store, weak, "weak") == STATUS_CONFIRMED
    # row 3 now holds what row 4 held, one move past row 2; the reduced
    # model has 8 states and 8 edges
    assert ledger.events[-2] == {
        "seq": 5, "kind": "Verdict", "id": strong, "verdict": STATUS_REJECTED,
        "reason": "property-failed", "row": 3, "check": "no-transition",
        "states": 8, "edges": 8,
    }
    assert ledger.events[-1] == {"seq": 6, "kind": "Verdict", "id": weak, "verdict": STATUS_CONFIRMED}
    assert Ledger(ledger.path).events == ledger.events
    assert adjudicate(model_text, log_text, "strong") == (STATUS_REJECTED, "property-failed")


def test_judge_builds_no_property_and_labels_nothing(monkeypatch):
    from traceval import checker, execlog

    def forbidden(*args, **kwargs):
        raise AssertionError("judge labelled the graph")

    for owner, name in ((checker, "sat"), (checker, "holds_initially"), (execlog, "log_property"),
                        (lifecycle, "holds_initially"), (lifecycle, "log_property")):
        monkeypatch.setattr(owner, name, forbidden)
    for mode in ("strong", "weak"):
        assert adjudicate(CHAIN2, "x\n0\n1\n1\n", mode) == (STATUS_CONFIRMED, None)
        assert adjudicate(TOGGLE, "x\n0\n1\n1\n", mode) == (STATUS_REJECTED, "property-failed")


def test_only_a_failed_property_records_a_witness(ledger, store):
    mismatch = _submitted(ledger, store, log_text="y\n0\n1\n1\n")
    forged = _submitted(ledger, store, log_text="x\n0\n0\n1\n")
    validate(ledger, store, mismatch)
    validate(ledger, store, forged)
    first, second = (e for e in ledger.events if e["kind"] == "Verdict")
    assert not {"row", "check", "states", "edges"} & set(first)
    assert (second["row"], second["check"]) == (2, "no-transition")
    assert (second["states"], second["edges"]) == (2, 2)


GRID10 = (
    "var x : 0..9 init 0;\nvar y : 0..9 init 0;\n"
    "[inc] x<9 -> x'=x+1;\n[up] y<9 -> y'=y+1;\n"
)


def test_judging_a_log_never_builds_the_predecessor_rows(ledger, store, transposes, town5x5, objective4):
    from traceval import ctl
    from traceval.checker import holds_initially
    from traceval.execlog import BASES, MODES, ExecutionLog, format_log
    from traceval.lang import parse_model
    from traceval.model import build_graph
    from traceval.town import simulate, town_model_text

    town = town_model_text(town5x5, objective4, reduce=False)
    stair = [(0, 0)]
    for i in range(18):
        x, y = stair[-1]
        stair.append((x + 1, y) if i % 2 == 0 else (x, y + 1))
    cases = [
        (town, simulate(town5x5, objective4)),
        (town, simulate(town5x5, objective4, fault="skip:3")),
        (GRID10, ExecutionLog(("x", "y"), tuple(stair + stair[-1:]))),
        (GRID10, ExecutionLog(("x", "y"), tuple(stair[:7]))),
        (GRID10, ExecutionLog(("x", "y"), tuple((i, i) for i in range(10)))),
    ]
    verdicts = set()
    for model_text, log in cases:
        log_text = format_log(log)
        for mode in MODES:
            for base in BASES:
                verdicts.add(adjudicate(model_text, log_text, mode, base))
                validate(ledger, store, _submitted(ledger, store, model_text, log_text), mode, base)
    assert transposes == []
    assert {verdict for verdict, _ in verdicts} == {STATUS_CONFIRMED, STATUS_REJECTED}
    # the count does see a transpose when one is built
    graph = build_graph(parse_model(GRID10))
    holds_initially(graph, ctl.EF(ctl.Atom("x", "==", 9)))
    assert transposes == [graph.state_count]


def test_validate_requires_submitted_status(ledger, store):
    model_hash, objective_hash, _ = _seed(store)
    lid = create_liability(ledger, store, "0xaa", "0xbb", model_hash, objective_hash)
    with pytest.raises(LedgerError, match="nothing to validate"):
        validate(ledger, store, lid)


def test_validate_never_double_verdicts(ledger, store):
    lid = _submitted(ledger, store)
    validate(ledger, store, lid)
    with pytest.raises(LedgerError):
        validate(ledger, store, lid)
    verdicts = [e for e in ledger.events if e["kind"] == "Verdict" and e["id"] == lid]
    assert len(verdicts) == 1


@pytest.mark.parametrize(
    "model_text,log_text,reason",
    [
        ("var x :", "x\n0\n1\n1\n", "malformed-model"),
        (CHAIN2, "x\n0\n", "malformed-log"),
        (CHAIN2, "y\n0\n1\n1\n", "variable-mismatch"),
        # 64-bit overflow in an update, the init constraint and a guard
        pytest.param(
            "var x : 0..1 init 0;\n[] true -> x'=9223372036854775807+1;\n",
            "x\n0\n0\n", "malformed-model", id="overflow-in-update",
        ),
        pytest.param(
            "var x : 0..1 init 0;\ninit x*9223372036854775807*4==0;\n",
            "x\n0\n0\n", "malformed-model", id="overflow-in-init",
        ),
        pytest.param(
            "var x : 0..1 init 0;\n[] x*9223372036854775807*4==0 -> x'=1;\n",
            "x\n0\n0\n", "malformed-model", id="overflow-in-guard",
        ),
        # integer literals too long for int()
        pytest.param(
            f"var x : 0..1 init 0;\n[] x=={HUGE} -> x'=1;\n",
            "x\n0\n0\n", "malformed-model", id="huge-literal-in-guard",
        ),
        pytest.param(
            f"var x : 0..{HUGE} init 0;\n", "x\n0\n0\n", "malformed-model",
            id="huge-literal-in-bound",
        ),
        pytest.param(CHAIN2, f"x\n0\n{HUGE}\n", "malformed-log", id="huge-literal-in-log"),
        # an init constraint over a 2**63-value domain
        pytest.param(
            "var x : 0..1 init 0;\nvar y : 0..9223372036854775807 init 0;\n"
            "init x==0;\n[] x==0 -> skip;\n",
            "x,y\n0,0\n0,0\n", "state-explosion", id="init-over-a-wide-domain",
        ),
    ],
)
def test_adjudicate_reason_codes(model_text, log_text, reason):
    verdict, got = adjudicate(model_text, log_text)
    assert verdict == STATUS_REJECTED
    assert got == reason


def test_adjudicate_state_explosion_reason():
    big = "var n : 0..999999 init 0;\n[] n<999999 -> n'=n+1;\n"
    verdict, reason = adjudicate(big, "n\n0\n1\n1\n", max_states=50)
    assert (verdict, reason) == (STATUS_REJECTED, "state-explosion")


# Model texts equal to ``[] x==0 -> x'=1`` but nested or long past the
# parser's recursion: adjudicate raises RecursionError on each.
_HEAD = "var x : 0..1 init 0;\n[] "
HOSTILE = {
    "nested-parens": _HEAD + "(" * 5000 + "x==0" + ")" * 5000 + " -> x'=1;\n",
    "long-sum": _HEAD + "x==0 -> x'=" + "0+" * 19999 + "1;\n",
    "many-nots": _HEAD + "!" * 20000 + "(x==0) -> x'=1;\n",
}


def test_validate_never_crashes_on_corrupt_artifacts(ledger, store):
    """Undecodable or vanished blobs reject the liability with a reason
    instead of raising, and so does a model text too deep to parse."""
    import os

    objective_hash = store.put_text('{"sequence":[]}')
    cases = []

    binary_model = store.put(b"\xff\xfe\x00binary")
    log_hash = store.put_text("x\n0\n1\n1\n")
    lid = create_liability(ledger, store, "0xaa", "0xbb", binary_model, objective_hash)
    submit_result(ledger, store, lid, log_hash)
    cases.append((lid, "malformed-model"))

    model_hash = store.put_text(CHAIN2)
    binary_log = store.put(b"\xff\xfe\x00binary")
    lid = create_liability(ledger, store, "0xaa", "0xbb", model_hash, objective_hash)
    submit_result(ledger, store, lid, binary_log)
    cases.append((lid, "malformed-log"))

    doomed = store.put_text("x\n0\n1\n1\n2\n")
    lid = create_liability(ledger, store, "0xaa", "0xbb", model_hash, objective_hash)
    submit_result(ledger, store, lid, doomed)
    os.unlink(store.root / doomed)
    cases.append((lid, "missing-blob"))

    vanished = store.put_text("var x : 0..2 init 0;\n")
    lid = create_liability(ledger, store, "0xaa", "0xbb", vanished, objective_hash)
    submit_result(ledger, store, lid, log_hash)
    os.unlink(store.root / vanished)
    cases.append((lid, "missing-blob"))

    for text in HOSTILE.values():
        with pytest.raises(RecursionError):
            adjudicate(text, "x\n0\n1\n1\n")
        cases.append((_submitted(ledger, store, text), "validator-error"))

    for lid, expected_reason in cases:
        assert validate(ledger, store, lid) == STATUS_REJECTED
        events = [e for e in ledger.events if e["kind"] == "Verdict" and e["id"] == lid]
        assert [e["reason"] for e in events] == [expected_reason]
    reloaded = Ledger(ledger.path)
    assert reloaded.events == ledger.events
    assert [reloaded.liability(lid).reason for lid, _ in cases] == [reason for _, reason in cases]


@pytest.mark.parametrize("text", HOSTILE.values(), ids=HOSTILE.keys())
def test_validate_and_run_validator_write_one_verdict_line(tmp_path, text):
    """The Verdict line for a liability whose model is too deep to parse is
    the same whether ``validate`` or ``run_validator`` writes it."""
    store = ContentStore(tmp_path / "store")
    runs = {"one": lambda ledger: validate(ledger, store, 1), "all": lambda ledger: run_validator(ledger, store)}
    lines = []
    for name, run in runs.items():
        ledger = Ledger(tmp_path / f"{name}.jsonl")
        _submitted(ledger, store, text)
        run(ledger)
        lines.append(ledger.path.read_bytes().splitlines()[-1])
    assert lines[0] == lines[1]
    assert json.loads(lines[0]) == {
        "seq": 3, "kind": "Verdict", "id": 1, "verdict": STATUS_REJECTED, "reason": "validator-error",
    }


REASONS = {
    None, "malformed-model", "malformed-log", "variable-mismatch", "state-explosion",
    "property-failed", "missing-blob", "validator-error",
}


def _mangled(text: str):
    """``text`` encoded, cut short, or followed by garbage bytes; or garbage
    alone.  Garbage may not decode as UTF-8."""
    data = text.encode("utf-8")
    return st.one_of(
        st.just(data),
        st.integers(0, len(data)).map(lambda cut: data[:cut]),
        st.binary(max_size=8).map(lambda tail: data + tail),
        st.binary(max_size=32),
    )


@settings(max_examples=100, deadline=None)
@given(model=_mangled(CHAIN2), log=_mangled("x\n0\n1\n1\n"))
def test_validate_records_one_verdict_for_any_bytes(model, log):
    with tempfile.TemporaryDirectory() as root:
        ledger, store = Ledger(f"{root}/ledger.jsonl"), ContentStore(f"{root}/store")
        objective_hash = store.put_text('{"sequence":[]}')
        lid = create_liability(ledger, store, "0xaa", "0xbb", store.put(model), objective_hash)
        submit_result(ledger, store, lid, store.put(log))
        before = len(ledger.events)
        assert validate(ledger, store, lid) in (STATUS_CONFIRMED, STATUS_REJECTED)
        assert [e["kind"] for e in ledger.events[before:]] == ["Verdict"]
        assert ledger.events[-1].get("reason") in REASONS


@pytest.mark.parametrize(
    "run", [run_validator, lambda ledger, store: validate(ledger, store, 1)], ids=["run_validator", "validate"]
)
def test_a_failed_ledger_write_raises_and_leaves_memory_as_the_file(ledger, store, full_disk, run):
    lid = _submitted(ledger, store)
    full_disk()
    with pytest.raises(OSError, match="No space left"):
        run(ledger, store)
    on_file = Ledger(ledger.path)
    assert ledger.events == on_file.events
    assert ledger.liabilities == on_file.liabilities
    assert ledger.liability(lid).status == STATUS_RESULT_SUBMITTED


def test_run_validator_processes_in_submission_order(ledger, store):
    first = _submitted(ledger, store)
    second = _submitted(ledger, store, log_text="x\n0\n0\n1\n")
    results = run_validator(ledger, store)
    assert results == [(first, STATUS_CONFIRMED), (second, STATUS_REJECTED)]
    verdict_events = [e for e in ledger.events if e["kind"] == "Verdict"]
    assert [e["id"] for e in verdict_events] == [first, second]


def test_run_validator_empty_ledger(ledger, store):
    assert run_validator(ledger, store) == []


def test_run_validator_watch_validates_what_another_writer_submits(monkeypatch, ledger, store):
    """A --watch run re-reads the ledger between polls, so a liability that
    another process submits while it sleeps gets its verdict too."""
    honest = _submitted(ledger, store)
    sleeps, submitted = [], []

    def sleep(seconds):
        sleeps.append(seconds)
        if len(sleeps) > 1:
            raise KeyboardInterrupt
        submitted.append(_submitted(Ledger(ledger.path), store, log_text="x\n0\n0\n1\n"))

    monkeypatch.setattr(lifecycle.time, "sleep", sleep)
    results = run_validator(ledger, store, watch=True)
    assert results == [(honest, STATUS_CONFIRMED), (submitted[0], STATUS_REJECTED)]
    assert sleeps == [lifecycle._POLL_INTERVAL] * 2
    assert Ledger(ledger.path).liability(submitted[0]).reason == "property-failed"


def test_run_validator_returns_its_verdicts_when_interrupted(monkeypatch, ledger, store):
    honest = _submitted(ledger, store)
    forged = _submitted(ledger, store, log_text="x\n0\n0\n1\n")

    def interrupt(seconds):
        raise KeyboardInterrupt

    monkeypatch.setattr(lifecycle.time, "sleep", interrupt)
    results = run_validator(ledger, store, watch=True)
    assert results == [(honest, STATUS_CONFIRMED), (forged, STATUS_REJECTED)]


def test_a_verdicts_reason_is_kept_on_its_liability(ledger, store):
    honest = _submitted(ledger, store)
    forged = _submitted(ledger, store, log_text="x\n0\n0\n1\n")
    run_validator(ledger, store)
    for loaded in (ledger, Ledger(ledger.path)):
        assert loaded.liability(honest).reason is None
        assert loaded.liability(forged).reason == "property-failed"


# --- models prepared once per run_validator call -----------------------------

EXPLODING = "var n : 0..999999 init 0;\n[] n<999999 -> n'=n+1;\n"


def _count_calls(monkeypatch, name):
    """Replace ``lifecycle.<name>`` by a wrapper; returns its list of calls."""
    calls = []
    real = getattr(lifecycle, name)

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(lifecycle, name, counting)
    return calls


def _verdict_events(ledger):
    return {e["id"]: (e["verdict"], e.get("reason")) for e in ledger.events if e["kind"] == "Verdict"}


def test_run_validator_parses_and_sizes_each_model_once(monkeypatch, ledger, store):
    parses = _count_calls(monkeypatch, "parse_model")
    sizings = _count_calls(monkeypatch, "reach")
    pairs = [(model, log) for log in ("x\n0\n1\n1\n", "x\n0\n0\n1\n") for model in (CHAIN2, TOGGLE)]
    lids = [_submitted(ledger, store, model, log) for model, log in pairs]
    results = run_validator(ledger, store)
    assert (len(parses), len(sizings)) == (2, 2)
    assert results == list(zip(lids, [STATUS_CONFIRMED] + [STATUS_REJECTED] * 3))


def test_run_validator_verdicts_equal_adjudicate_on_a_mixed_ledger(ledger, store):
    overflow = "var x : 0..1 init 0;\n[] true -> x'=9223372036854775807+1;\n"
    cases = [
        (CHAIN2, "x\n0\n1\n1\n"),  # honest
        ("var x :", "x\n0\n1\n1\n"),  # malformed model
        (overflow, "x\n0\n0\n"),
        (EXPLODING, "n\n0\n1\n1\n"),  # state explosion under max_states=50
        (CHAIN2, "x\n0\n0\n1\n"),  # forged
        (EXPLODING, "n\n0\n"),  # malformed log before the model is built
        ("var x :", "x\n0\n"),
        (CHAIN2, "x\n0\n"),  # malformed log
        (overflow, "x\n0\n1\n1\n"),
        (CHAIN2, "y\n0\n1\n1\n"),  # variable mismatch
        (EXPLODING, "n\n0\n1\n2\n"),
        (overflow, "y\n0\n0\n"),
    ]
    lids = [_submitted(ledger, store, model, log) for model, log in cases]
    run_validator(ledger, store, max_states=50)
    got = _verdict_events(ledger)
    want = {lid: adjudicate(model, log, max_states=50) for lid, (model, log) in zip(lids, cases)}
    assert got == want
    assert {reason for _, reason in want.values()} == {
        None, "malformed-model", "malformed-log", "variable-mismatch", "state-explosion",
        "property-failed",
    }


def test_run_validator_sizes_nothing_behind_a_malformed_log(monkeypatch, ledger, store):
    sizings = _count_calls(monkeypatch, "reach")
    _submitted(ledger, store, EXPLODING, "n\n0\n")
    assert run_validator(ledger, store, max_states=50) == [(1, STATUS_REJECTED)]
    assert _verdict_events(ledger) == {1: (STATUS_REJECTED, "malformed-log")}
    assert sizings == []


def test_run_validator_holds_a_bounded_number_of_models(monkeypatch, ledger, store):
    """Past the bound the least recently used model is dropped, and every
    verdict is still right."""
    parses = _count_calls(monkeypatch, "parse_model")
    bound = lifecycle._CACHED_MODELS
    models = [f"var x : 0..{k + 1} init 0;\n[] x==0 -> x'=1;\n" for k in range(bound + 1)]
    # The first `bound` models fill the cache, so models[0] is still held.
    # Reusing it makes models[1] the least recently used, which the new
    # models[bound] drops: models[0] is still held, and models[1] is parsed
    # again.
    for model in models[:bound] + [models[0], models[bound], models[0], models[1]]:
        _submitted(ledger, store, model, "x\n0\n1\n1\n")
    results = run_validator(ledger, store)
    assert [verdict for _, verdict in results] == [STATUS_CONFIRMED] * (bound + 4)
    assert parses == models + [models[1]]


@pytest.mark.parametrize(
    "stage,log",
    # only a log the walk refuses, here at its first row, sizes the model
    [("parse_model", "z\n0\n1\n1\n"), ("compile_model", "z\n0\n1\n1\n"), ("reach", "z\n1\n1\n")],
    ids=["parse_model", "compile_model", "reach"],
)
def test_run_validator_caches_no_exception(monkeypatch, ledger, store, stage, log):
    """A model whose parse, compile or sizing raises unexpectedly is tried
    again for each of its liabilities; each gets ``validator-error``."""
    hostile = "var z : 0..1 init 0;\n[] z==0 -> z'=1;\n"
    real = getattr(lifecycle, stage)
    tries = []

    def raising(arg, *args, **kwargs):
        # parse_model reads the hostile text and compile_model its parse tree;
        # reach sizes, with no target, only for a refused log, the hostile one
        if stage == "reach":
            hit = len(args) < 3 and "target" not in kwargs
        else:
            hit = arg == hostile or getattr(arg, "var_names", None) == ("z",)
        if hit:
            tries.append(arg)
            raise RecursionError("maximum recursion depth exceeded")
        return real(arg, *args, **kwargs)

    monkeypatch.setattr(lifecycle, stage, raising)
    for model, log_text in ((hostile, log), (CHAIN2, "x\n0\n1\n1\n"), (hostile, log)):
        _submitted(ledger, store, model, log_text)
    run_validator(ledger, store)
    assert _verdict_events(ledger) == {
        1: (STATUS_REJECTED, "validator-error"),
        2: (STATUS_CONFIRMED, None),
        3: (STATUS_REJECTED, "validator-error"),
    }
    assert len(tries) == 2


# --- on-the-fly judging: only a refused log sizes the model -----------------

def _staircase(top):
    """The log that steps a ``GRID10``-style counter right and up in turn
    to (top, top), and stays."""
    rows = [(0, 0)]
    for i in range(2 * top):
        x, y = rows[-1]
        rows.append((x + 1, y) if i % 2 == 0 else (x, y + 1))
    return "x,y\n" + "".join(f"{x},{y}\n" for x, y in rows + rows[-1:])


def test_an_admitted_log_is_not_sized(monkeypatch, ledger, store, town5x5, objective4):
    from traceval.execlog import BASES, MODES, format_log
    from traceval.town import simulate, town_model_text

    sizings = _count_calls(monkeypatch, "reach")
    cases = [
        (CHAIN2, "x\n0\n1\n1\n"),
        (GRID10, _staircase(9)),
        (town_model_text(town5x5, objective4, reduce=False), format_log(simulate(town5x5, objective4))),
    ]
    for mode in MODES:
        for base in BASES:
            lids = []
            for model_text, log_text in cases:
                assert adjudicate(model_text, log_text, mode, base) == (STATUS_CONFIRMED, None)
                lid = _submitted(ledger, store, model_text, log_text)
                assert validate(ledger, store, lid, mode, base) == STATUS_CONFIRMED
                lids.append(_submitted(ledger, store, model_text, log_text))
            assert run_validator(ledger, store, mode, base) == [(lid, STATUS_CONFIRMED) for lid in lids]
    assert sizings == []


def test_a_refused_log_compiles_its_model_once(monkeypatch, ledger, store):
    """Sizing for a refused log reuses the initial valuations and the
    successor function the walk found; ``run_validator`` compiles and
    sizes once per model."""
    compiles = _count_calls(monkeypatch, "compile_model")
    sizings = _count_calls(monkeypatch, "reach")
    # the init constraint adds x==1 to the initial valuations
    toggle = TOGGLE.replace("\n[]", "\ninit x>0;\n[]", 1)
    assert adjudicate(toggle, "x\n0\n1\n1\n") == (STATUS_REJECTED, "property-failed")
    assert [len(compiles), len(sizings)] == [1, 1]
    for log_text in ("x\n0\n0\n1\n", "x\n2\n2\n", "x\n1\n0\n1\n1\n"):
        _submitted(ledger, store, toggle, log_text)
    assert [verdict for _, verdict in run_validator(ledger, store)] == [STATUS_REJECTED] * 3
    assert [len(compiles), len(sizings)] == [2, 2]


def test_a_refused_log_steps_each_state_once(monkeypatch):
    """Sizing steps each reachable state once with the compiled successor
    function, not through the walk's memo; a second refusal steps nothing
    new, as the walk steps through its memo and the model is sized once."""
    steps = []
    real = lifecycle.compile_model

    def counting(model, max_states):
        initial, step = real(model, max_states)
        return initial, lambda v: steps.append(v) or step(v)

    monkeypatch.setattr(lifecycle, "compile_model", counting)
    prepared = lifecycle.PreparedModel(GRID10)
    # the weak search to (9,9) steps most of the grid; (0,0) is unreachable from there
    assert prepared.judge("x,y\n0,0\n9,9\n0,0\n", "weak")[:2] == (STATUS_REJECTED, "property-failed")
    assert len(prepared.reachable) == 100
    walked, sized = steps[:-100], steps[-100:]
    assert sorted(sized) == sorted(prepared.reachable)
    assert len(set(walked)) == len(walked) == len(prepared._memo) > 90
    assert prepared.judge("x,y\n0,0\n0,1\n0,1\n", "strong")[:2] == (STATUS_REJECTED, "property-failed")
    assert len(steps) == len(walked) + 100


def test_the_walk_memo_is_emptied_when_it_holds_max_states():
    """One prepared model, as ``run_validator`` keeps it, judges weak logs
    of a 100-state counter that together step far more states than its
    budget of 30: its memo never holds more than 30 successor lists, it is
    emptied whenever full, and every verdict is a fresh model's."""
    from traceval.execlog import BASES

    text = "var x : 0..99 init 0;\n[] x<99 -> x'=x+1;\n[] x==99 -> skip;\n"
    prepared = lifecycle.PreparedModel(text, max_states=30)
    held, step = [], prepared._successors

    def watched(v):
        held.append(len(prepared._memo))
        return step(v)

    prepared._successors = watched
    rng, verdicts = random.Random(5), set()
    for _ in range(12):
        # counting up from 0 (or, refused, from 5) with a few jumps, each
        # searched, to 99, which holds forever
        x, rows = rng.choice((0, 0, 0, 5)), []
        while x < 99:
            rows.append(x)
            x = min(99, x + rng.choice((1,) * 18 + (2, 3)))
        log = "x\n" + "".join(f"{v}\n" for v in rows + [99, 99])
        for base in BASES:
            verdict = prepared.judge(log, "weak", base)
            assert verdict == lifecycle.PreparedModel(text, max_states=30).judge(log, "weak", base)
            assert len(prepared._memo) <= 30
            verdicts.add(verdict[:2])
    assert max(held) == 29 and held.count(0) > 5
    assert verdicts == {(STATUS_CONFIRMED, None), (STATUS_REJECTED, "state-explosion")}


# b==0 counts n up to 999,999; from (0,0) the model may move to b==1 instead,
# where n counts up to 60 and stays.
PAST_THE_BUDGET = (
    "var b : 0..1 init 0;\nvar n : 0..999999 init 0;\n"
    "[] b==0 & n<999999 -> n'=n+1;\n[] b==0 & n==0 -> b'=1;\n[] b==1 & n<60 -> n'=n+1;\n"
)


def test_an_admitted_log_is_confirmed_past_the_state_budget():
    """More reachable states than the budget reject an admitted log only
    when the walk itself explores more; a refused log sizes the model and
    is rejected for ``state-explosion``."""
    from traceval.execlog import BASES, MODES

    climb = "b,n\n0,0\n" + "".join(f"1,{n}\n" for n in range(61)) + "1,60\n"
    jump = "b,n\n0,0\n1,60\n1,60\n"
    wide_init = PAST_THE_BUDGET.replace("\n[]", "\ninit n<2;\n[]", 1)
    for mode in MODES:
        for base in BASES:
            # 63 rows, each stepped once, against a budget of 50
            assert adjudicate(PAST_THE_BUDGET, climb, mode, base, max_states=50) == (STATUS_CONFIRMED, None)
            assert adjudicate(PAST_THE_BUDGET, "b,n\n0,0\n0,1\n0,1\n", mode, base, max_states=200) == (
                STATUS_REJECTED, "state-explosion",
            )
            # an init constraint over a domain wider than the budget refuses every log
            assert adjudicate(wide_init, jump, mode, base, max_states=200) == (STATUS_REJECTED, "state-explosion")
    # the weak search from (0,0) to (1,60) finds about 120 valuations
    assert adjudicate(PAST_THE_BUDGET, jump, "weak", max_states=200) == (STATUS_CONFIRMED, None)
    assert adjudicate(PAST_THE_BUDGET, jump, "weak", max_states=100) == (STATUS_REJECTED, "state-explosion")


# x==2 is reachable, and stepping from it drives x to 7, outside 0..3
FAILS_AT_TWO = "var x : 0..3 init 0;\n[] x==0 -> x'=1;\n[] x==0 -> x'=2;\n[] x==2 -> x'=x+5;\n"


def test_an_update_failing_where_the_log_never_steps_from():
    from traceval.execlog import BASES, MODES

    for mode in MODES:
        for base in BASES:
            assert adjudicate(FAILS_AT_TWO, "x\n0\n1\n1\n", mode, base) == (STATUS_CONFIRMED, None)
            # a log that steps from x==2, and one the walk refuses, so that
            # the model is sized
            for log_text in ("x\n0\n2\n2\n", "x\n0\n0\n0\n"):
                assert adjudicate(FAILS_AT_TWO, log_text, mode, base) == (STATUS_REJECTED, "malformed-model")


def test_replayability_same_artifacts_same_verdicts(tmp_path, ledger, store):
    honest = _submitted(ledger, store)
    forged = _submitted(ledger, store, log_text="x\n0\n0\n1\n")
    clone_root = tmp_path / "clone"
    clone_root.mkdir()
    shutil.copy(ledger.path, clone_root / "ledger.jsonl")
    shutil.copytree(store.root, clone_root / "store")

    original = run_validator(ledger, store)
    replayed = run_validator(Ledger(clone_root / "ledger.jsonl"), ContentStore(clone_root / "store"))
    assert original == replayed == [(honest, STATUS_CONFIRMED), (forged, STATUS_REJECTED)]


def test_ledger_persists_and_reloads(tmp_path, store):
    path = tmp_path / "ledger.jsonl"
    ledger = Ledger(path)
    lid = _submitted(ledger, store)
    fresh = Ledger(path)
    assert fresh.liability(lid).status == STATUS_RESULT_SUBMITTED
    assert fresh.events == ledger.events
    lines = path.read_text().strip().split("\n")
    assert [json.loads(line)["seq"] for line in lines] == [1, 2]


def test_ledger_rejects_corrupt_histories(tmp_path):
    path = tmp_path / "ledger.jsonl"
    path.write_text('{"seq":1,"kind":"Verdict","id":1,"verdict":"Confirmed"}\n')
    with pytest.raises(LedgerError):
        Ledger(path)
    path.write_text("not json\n")
    with pytest.raises(LedgerError):
        Ledger(path)
    for line in ("[]", "3", '"Verdict"', "null"):
        path.write_text(line + "\n")
        with pytest.raises(LedgerError, match=":1: not a JSON object"):
            Ledger(path)
    # json.loads raises a bare ValueError on an integer past int()'s limit
    path.write_text(f'{{"seq": {HUGE}}}\n')
    with pytest.raises(LedgerError, match=":1: not valid JSON"):
        Ledger(path)


def test_ledger_rejects_bad_seq_and_kind(ledger):
    with pytest.raises(LedgerError, match="unknown event kind"):
        ledger.append("Bogus", id=1)
    with pytest.raises(LedgerError, match="bad liability id"):
        ledger.append("LiabilityCreated", id=5, promisor="a", promisee="b",
                      model_hash="0" * 64, objective_hash="0" * 64)
    assert ledger.events == []  # nothing was persisted


def test_a_torn_last_line_is_cut_with_a_warning(monkeypatch, ledger, store, torn_write):
    lid = _submitted(ledger, store)
    before = ledger.path.read_bytes()
    torn_write()
    with pytest.warns(UserWarning, match=":3: dropped a torn last line"):
        with pytest.raises(OSError, match="No space left"):
            validate(ledger, store, lid)
    assert ledger.path.read_bytes() == before
    assert ledger.liability(lid).status == STATUS_RESULT_SUBMITTED
    monkeypatch.undo()  # the disk has room again
    fresh = Ledger(ledger.path)
    assert fresh.events == ledger.events
    assert validate(fresh, store, lid) == STATUS_CONFIRMED
    assert Ledger(ledger.path).events == fresh.events
    assert fresh.liability(lid).status == STATUS_CONFIRMED


def test_an_append_survives_short_writes(monkeypatch, ledger, store):
    """A file that takes one byte per write still gets every whole line."""
    writes = []

    class OneByteFile:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            writes.append(len(data))
            return self.fh.write(data[:1])

    def one_byte_open(path, mode="r", *args, **kwargs):
        fh = builtins.open(path, mode, *args, **kwargs)
        return OneByteFile(fh) if "a" in mode else fh

    monkeypatch.setattr(lifecycle, "open", one_byte_open, raising=False)
    _submitted(ledger, store)
    _submitted(ledger, store, log_text="x\n1\n1\n")
    assert [verdict for _, verdict in run_validator(ledger, store)] == [STATUS_CONFIRMED, STATUS_REJECTED]
    events = ledger.events
    text = "".join(json.dumps(e, separators=(",", ":")) + "\n" for e in events)
    assert ledger.path.read_text() == text
    assert len(writes) == len(text)
    assert Ledger(ledger.path).events == events


def test_a_last_event_without_a_newline_is_ended_with_one(ledger, store):
    """A whole last event with no newline after it, as a write that fails
    just before its newline leaves, gets one when the ledger loads, so the
    next append starts a line of its own."""
    lid = _submitted(ledger, store)
    ledger.path.write_bytes(ledger.path.read_bytes().rstrip(b"\n"))
    with pytest.warns(UserWarning, match=":2: ended the last line with a newline"):
        fresh = Ledger(ledger.path)
    assert fresh.events == ledger.events
    assert validate(fresh, store, lid) == STATUS_CONFIRMED
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reloaded = Ledger(ledger.path)
    assert reloaded.events == fresh.events
    assert reloaded.liability(lid).status == STATUS_CONFIRMED


def test_only_a_torn_last_line_is_forgiven(tmp_path):
    path = tmp_path / "ledger.jsonl"
    good = json.dumps({
        "seq": 1, "kind": "LiabilityCreated", "id": 1, "promisor": "a", "promisee": "b",
        "model_hash": "0" * 64, "objective_hash": "0" * 64,
    })
    for text, error in (
        (f'{good}\n{{"seq":2,"ki\n', ":2: not valid JSON"),  # ends in a newline
        (f'{{"seq":1,"ki\n{good}', ":1: not valid JSON"),  # not the last line
        (f"{good}\n[]", ":2: not a JSON object"),  # valid JSON
    ):
        path.write_text(text)
        with pytest.raises(LedgerError, match=error):
            Ledger(path)
        assert path.read_text() == text
