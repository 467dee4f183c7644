import hashlib
import json
import shutil

import pytest

from conftest import CHAIN2
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


def test_store_get_unknown(store):
    with pytest.raises(StoreError, match="unknown hash"):
        store.get("0" * 64)
    with pytest.raises(StoreError, match="not a content hash"):
        store.get("nonsense")


def test_store_verify_flags_corruption(store):
    digest = store.put(b"honest bytes")
    assert store.verify() == []
    (store.root / digest).write_bytes(b"tampered")
    assert store.verify() == [digest]


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


def test_validate_never_crashes_on_corrupt_artifacts(ledger, store):
    """Undecodable or vanished blobs reject the liability with a reason
    instead of raising."""
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

    for lid, expected_reason in cases:
        assert validate(ledger, store, lid) == STATUS_REJECTED
        event = [e for e in ledger.events if e["kind"] == "Verdict" and e["id"] == lid][0]
        assert event["reason"] == expected_reason


def test_run_validator_processes_in_submission_order(ledger, store):
    first = _submitted(ledger, store)
    second = _submitted(ledger, store, log_text="x\n0\n0\n1\n")
    results = run_validator(ledger, store)
    assert results == [(first, STATUS_CONFIRMED), (second, STATUS_REJECTED)]
    verdict_events = [e for e in ledger.events if e["kind"] == "Verdict"]
    assert [e["id"] for e in verdict_events] == [first, second]


def test_run_validator_empty_ledger(ledger, store):
    assert run_validator(ledger, store) == []


def test_run_validator_watch_polls_and_stops(ledger, store):
    _submitted(ledger, store)
    results = run_validator(ledger, store, watch=True, interval=0.01, max_polls=2)
    assert len(results) == 1


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


def test_ledger_rejects_bad_seq_and_kind(ledger):
    with pytest.raises(LedgerError, match="unknown event kind"):
        ledger.append("Bogus", id=1)
    with pytest.raises(LedgerError, match="bad liability id"):
        ledger.append("LiabilityCreated", id=5, promisor="a", promisee="b",
                      model_hash="0" * 64, objective_hash="0" * 64)
    assert ledger.events == []  # nothing was persisted
