"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.
"""

import random
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

from conftest import ROOT, SAMPLES, SRC
from corpus import bundled_town, fault_logs, random_formula, random_graph, random_town_logs
from naive_ctl import NaiveChecker
from traceval import ctl
from traceval.checker import sat
from traceval.ctl import print_formula
from traceval.errors import LedgerError
from traceval.execlog import format_log, parse_log, strong_property, weak_property
from traceval.lang import parse_model
from traceval.lifecycle import (
    ContentStore,
    Ledger,
    STATUS_CONFIRMED,
    STATUS_REJECTED,
    adjudicate,
    create_liability,
    submit_result,
    validate,
)
from traceval.model import build_graph
from traceval.town import simulate, town_model_text

GRAPH_COUNT = 500
FORMULA_COUNT = 200
FORMULA_DEPTH = 4
CORPUS_SEED = 986531


def _report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def _corpus(seed=CORPUS_SEED):
    rng = random.Random(seed)
    for _ in range(GRAPH_COUNT):
        graph = random_graph(rng)
        formulas = [random_formula(rng, FORMULA_DEPTH) for _ in range(FORMULA_COUNT)]
        yield graph, formulas


def test_criterion_1_checker_matches_naive_oracle():
    t0 = time.monotonic()
    mismatches = 0
    checked = 0
    for graph, formulas in _corpus():
        oracle = NaiveChecker(graph)
        cache = {}
        for formula in formulas:
            got = frozenset(sat(graph, formula, cache))
            want = oracle.sat_indices(formula)
            checked += 1
            if got != want:
                mismatches += 1
    elapsed = time.monotonic() - t0
    _report(
        1,
        "sat equals the naive recursive oracle on the random corpus",
        mismatches == 0 and elapsed < 60.0,
        f"{checked} checks, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_dualities_hold_exactly():
    discrepancies = 0
    for graph, formulas in _corpus():
        cache = {}
        for phi in formulas:
            pairs = (
                (ctl.AG(phi), ctl.Not(ctl.EF(ctl.Not(phi)))),
                (ctl.AF(phi), ctl.Not(ctl.EG(ctl.Not(phi)))),
                (ctl.AX(phi), ctl.Not(ctl.EX(ctl.Not(phi)))),
            )
            for left, right in pairs:
                if sat(graph, left, cache) != sat(graph, right, cache):
                    discrepancies += 1
    _report(2, "AG/AF/AX equal their existential duals on the corpus", discrepancies == 0)


def test_criterion_3_property_unrolling_goldens():
    log3 = parse_log("x\n0\n1\n1\n")
    log2 = parse_log("x\n0\n1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # log2's tail rows differ by design
        cases = [
            (strong_property(log3, "faithful"), "x==0 & EX(x==1 & AG(x==1))"),
            (strong_property(log2, "faithful"), "x==0 & AG(x==1)"),
            (strong_property(log3, "corrected"), "x==0 & EX(x==1 & EX(x==1 & AG(x==1)))"),
            (weak_property(log3, "faithful"), "x==0 & EF(x==1 & AG(x==1))"),
            (weak_property(log2, "faithful"), "x==0 & AG(x==1)"),
            (weak_property(log3, "corrected"), "x==0 & EF(x==1 & EF(x==1 & AG(x==1)))"),
        ]
    bad = [expected for formula, expected in cases if print_formula(formula) != expected]
    _report(3, "strong/weak unrolling goldens reproduce exactly in both base modes", not bad)


def test_criterion_4_strong_implies_weak_on_random_towns():
    violations = 0
    strong_confirmed = 0
    for model_text, log in random_town_logs():
        strong_verdict, _ = adjudicate(model_text, format_log(log), "strong")
        if strong_verdict == STATUS_CONFIRMED:
            strong_confirmed += 1
            weak_verdict, _ = adjudicate(model_text, format_log(log), "weak")
            if weak_verdict != STATUS_CONFIRMED:
                violations += 1
    _report(
        4,
        "strong confirmation implies weak confirmation on 100 random towns",
        violations == 0 and strong_confirmed >= 10,
        f"{strong_confirmed} strong-confirmed, {violations} violations",
    )


def test_criterion_5_fault_detection_is_complete(tmp_path):
    t0 = time.monotonic()
    town, objective = bundled_town()
    honest, forges, wrong_turns, _ = fault_logs(town, objective)
    model_text = town_model_text(town, objective)

    ledger = Ledger(tmp_path / "ledger.jsonl")
    store = ContentStore(tmp_path / "store")
    model_hash = store.put_text(model_text)
    objective_hash = store.put_text((SAMPLES / "objective.json").read_text())

    def _validated(log):
        lid = create_liability(ledger, store, "0x01", "0x02", model_hash, objective_hash)
        submit_result(ledger, store, lid, store.put_text(format_log(log)))
        return validate(ledger, store, lid, "strong", "faithful")

    undetected = [spec for spec, log in forges + wrong_turns if _validated(log) != STATUS_REJECTED]
    honest_ok = _validated(honest) == STATUS_CONFIRMED
    elapsed = time.monotonic() - t0
    _report(
        5,
        "every forge and wrong-turn rejected, honest log confirmed",
        not undetected and honest_ok and elapsed < 30.0,
        f"{len(forges)} forges + {len(wrong_turns)} wrong turns, {elapsed:.1f}s",
    )


def test_criterion_6_partial_logs_pass_weak_only():
    town, objective = bundled_town()
    honest = simulate(town, objective)
    model_text = town_model_text(town, objective)
    assert honest.n >= 4
    bad = []
    for i in range(2, honest.n - 1):
        log_text = format_log(simulate(town, objective, fault=f"skip:{i}"))
        weak_verdict, _ = adjudicate(model_text, log_text, "weak")
        strong_verdict, _ = adjudicate(model_text, log_text, "strong")
        if weak_verdict != STATUS_CONFIRMED or strong_verdict != STATUS_REJECTED:
            bad.append(i)
    _report(6, "every skip log passes weak and fails strong validation", not bad)


def test_criterion_7_reduction_preserves_verdicts_and_shrinks():
    town, objective = bundled_town()
    honest, forges, wrong_turns, skips = fault_logs(town, objective)
    reduced_text = town_model_text(town, objective, reduce=True)
    unreduced_text = town_model_text(town, objective, reduce=False)
    reduced_states = build_graph(parse_model(reduced_text)).state_count
    unreduced_states = build_graph(parse_model(unreduced_text)).state_count

    logs = [("honest", honest)] + forges + wrong_turns + skips
    differing = []
    for spec, log in logs:
        text = format_log(log)
        for mode in ("strong", "weak"):
            if adjudicate(reduced_text, text, mode)[0] != adjudicate(unreduced_text, text, mode)[0]:
                differing.append((spec, mode))
    _report(
        7,
        "binding unused action tags to false shrinks the graph and keeps verdicts",
        reduced_states <= unreduced_states and not differing,
        f"{reduced_states} vs {unreduced_states} states, {len(logs)} logs compared",
    )


def _run_cli(args, cwd=None):
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "traceval", *args],
        capture_output=True,
        text=True,
        cwd=cwd or ROOT,
        env=env,
        timeout=60,
    )


def test_criterion_8_end_to_end_demo_and_replay(tmp_path):
    town = str(SAMPLES / "town5x5.json")
    objective = str(SAMPLES / "objective.json")

    t0 = time.monotonic()
    honest = _run_cli(["demo", "--town", town, "--objective", objective])
    demo_elapsed = time.monotonic() - t0
    honest_ok = honest.returncode == 0 and "Confirmed" in honest.stdout

    faulty = _run_cli(["demo", "--town", town, "--objective", objective,
                       "--fault", "wrong-turn:2"])
    faulty_ok = faulty.returncode == 1 and "Rejected" in faulty.stdout

    # replay: prepare one workspace via order+execute, copy it, then
    # validate both copies and compare verdicts
    from traceval.town import load_objective, load_town

    model_file = tmp_path / "town.gcm"
    model_file.write_text(
        town_model_text(load_town(Path(town).read_text()), load_objective(Path(objective).read_text()))
    )
    ws1 = tmp_path / "ws1"
    ws1.mkdir()
    order = _run_cli([
        "order", "--ledger", str(ws1 / "ledger.jsonl"), "--store", str(ws1 / "store"),
        "--model", str(model_file), "--objective", objective,
        "--promisor", "0x01", "--promisee", "0x02",
    ])
    execute = _run_cli([
        "execute", "--ledger", str(ws1 / "ledger.jsonl"), "--store", str(ws1 / "store"),
        "--liability", order.stdout.strip(), "--town", town,
    ])
    ws2 = tmp_path / "ws2"
    shutil.copytree(ws1, ws2)
    first = _run_cli(["validate", "--ledger", str(ws1 / "ledger.jsonl"), "--store", str(ws1 / "store")])
    second = _run_cli(["validate", "--ledger", str(ws2 / "ledger.jsonl"), "--store", str(ws2 / "store")])
    replay_ok = (
        execute.returncode == 0
        and first.returncode == second.returncode == 0
        and first.stdout == second.stdout
        and "Confirmed" in first.stdout
    )
    _report(
        8,
        "demo confirms honest run in <10s, rejects wrong turn, and replays identically",
        honest_ok and faulty_ok and replay_ok and demo_elapsed < 10.0,
        f"demo {demo_elapsed:.1f}s",
    )


def test_criterion_9_lifecycle_state_machine_is_safe(tmp_path):
    rng = random.Random(777001)
    legal = {
        None: {"LiabilityCreated"},
        "Created": {"ResultSubmitted"},
        "ResultSubmitted": {"Verdict"},
        "Confirmed": set(),
        "Rejected": set(),
    }
    violations = 0
    for case in range(1000):
        ledger = Ledger(tmp_path / f"ledger{case}.jsonl")
        shadow: dict[int, str | None] = {}
        for _ in range(rng.randint(1, 10)):
            kind = rng.choice(("LiabilityCreated", "ResultSubmitted", "Verdict"))
            lid = rng.randint(1, 3)
            payload = {"id": lid}
            if kind == "LiabilityCreated":
                payload.update(
                    promisor="0x01", promisee="0x02", model_hash="0" * 64, objective_hash="1" * 64
                )
                allowed = lid not in shadow and lid == len(shadow) + 1
            elif kind == "ResultSubmitted":
                payload.update(result_hash="2" * 64)
                allowed = shadow.get(lid) == "Created"
            else:
                payload.update(verdict=rng.choice(("Confirmed", "Rejected")))
                allowed = shadow.get(lid) == "ResultSubmitted"
            try:
                ledger.append(kind, **payload)
                applied = True
            except LedgerError:
                applied = False
            if applied != allowed:
                violations += 1
            if applied:
                if kind == "LiabilityCreated":
                    shadow[lid] = "Created"
                elif kind == "ResultSubmitted":
                    shadow[lid] = "ResultSubmitted"
                else:
                    shadow[lid] = payload["verdict"]
        # the persisted history must replay to the same statuses
        replayed = Ledger(ledger.path)
        statuses = {lid: liab.status for lid, liab in replayed.liabilities.items()}
        if statuses != {k: v for k, v in shadow.items() if v is not None}:
            violations += 1
        verdict_ids = [e["id"] for e in replayed.events if e["kind"] == "Verdict"]
        if len(verdict_ids) != len(set(verdict_ids)):
            violations += 1
        seqs = [e["seq"] for e in replayed.events]
        if seqs != list(range(1, len(seqs) + 1)):
            violations += 1
    _report(
        9,
        "1000 random event sequences cause no illegal transition or double verdict",
        violations == 0,
    )
