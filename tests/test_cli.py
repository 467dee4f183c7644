import os
import stat
import tempfile
from pathlib import Path

import pytest

import naive_lex
from conftest import CHAIN2, SAMPLES
from traceval.cli import main
from traceval.lifecycle import Ledger


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "model.gcm").write_text(CHAIN2)
    (tmp_path / "objective.json").write_text((SAMPLES / "objective.json").read_text())
    return tmp_path


def _order(tmp_path, capsys) -> int:
    code = main(
        [
            "order",
            "--ledger", str(tmp_path / "ledger.jsonl"),
            "--store", str(tmp_path / "store"),
            "--model", str(SAMPLES / "chain2.gcm"),
            "--objective", str(SAMPLES / "objective.json"),
            "--promisor", "0x01",
            "--promisee", "0x02",
        ]
    )
    assert code == 0
    return int(capsys.readouterr().out.strip())


def test_gen_model_renders_and_validates(tmp_path, capsys):
    out = tmp_path / "gate.gcm"
    code = main(
        [
            "gen-model",
            "--template", str(SAMPLES / "gate.gcmt"),
            "--settings", str(SAMPLES / "gate_settings.yaml"),
            "--bindings", str(SAMPLES / "gate_bindings.json"),
            "-o", str(out),
        ]
    )
    assert code == 0
    assert "x==0 -> x'=1;" in out.read_text()


def test_gen_model_settings_optional_and_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.gcm", tmp_path / "b.gcm"
    args = [
        "gen-model",
        "--template", str(SAMPLES / "gate.gcmt"),
        "--bindings", str(SAMPLES / "gate_bindings.json"),
    ]
    assert main(args + ["-o", str(out1)]) == 0
    assert main(args + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_model_unresolved_tag_is_code_2(tmp_path, capsys):
    code = main(
        [
            "gen-model",
            "--template", str(SAMPLES / "gate.gcmt"),
            "-o", str(tmp_path / "out.gcm"),
        ]
    )
    assert code == 2
    assert "unresolved tag" in capsys.readouterr().err


def test_gen_model_parse_failure_names_the_tag(tmp_path, capsys):
    bindings, out = tmp_path / "bad.json", tmp_path / "out.gcm"
    bindings.write_text('{"go": "x=="}')
    code = main(["gen-model", "--template", str(SAMPLES / "gate.gcmt"), "--bindings", str(bindings), "-o", str(out)])
    template = (SAMPLES / "gate.gcmt").read_text()
    start = template.index("@go@")
    want = naive_lex.render_error(template.replace("@go@", "x=="), [(start, start + 3, "go")])
    assert "(near text substituted for tag 'go')" in want
    assert (code, capsys.readouterr().err) == (2, f"error: {want}\n")
    assert not out.exists()


def test_gen_model_unencodable_output_is_code_2(tmp_path, capsys):
    # the JSON escape decodes to a lone surrogate, which parses inside a
    # comment but has no UTF-8 encoding
    bindings, out = tmp_path / "surrogate.json", tmp_path / "out.gcm"
    bindings.write_text('{"go": "x==0 -> x\'=1; // \\ud800\\n[] false"}')
    out.write_text("old")
    code = main(["gen-model", "--template", str(SAMPLES / "gate.gcmt"), "--bindings", str(bindings), "-o", str(out)])
    assert code == 2
    assert f"error: cannot write {out}: " in capsys.readouterr().err
    # the failed write leaves the old file, and no temporary file, behind
    assert out.read_text() == "old"
    assert sorted(os.listdir(tmp_path)) == ["out.gcm", "surrogate.json"]


def test_write_replaces_the_file_with_a_new_files_mode(tmp_path):
    out = tmp_path / "gate.gcm"
    out.write_text("old")
    args = ["gen-model", "--template", str(SAMPLES / "gate.gcmt"),
            "--bindings", str(SAMPLES / "gate_bindings.json"), "-o", str(out)]
    assert main(args) == 0
    assert "x==0 -> x'=1;" in out.read_text()
    fresh = tmp_path / "fresh"
    fresh.touch()
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(fresh.stat().st_mode)
    assert sorted(os.listdir(tmp_path)) == ["fresh", "gate.gcm"]


def test_write_to_a_device_writes_in_place(capsys):
    assert main(["gen-property", "--log", str(SAMPLES / "chain2.csv"), "-o", "/dev/null"]) == 0
    assert Path("/dev/null").is_char_device()


def test_gen_property_golden(tmp_path, capsys):
    out = tmp_path / "prop.ctl"
    code = main(["gen-property", "--log", str(SAMPLES / "chain2.csv"), "-o", str(out)])
    assert code == 0
    assert out.read_text() == "x==0 & EX(x==1 & AG(x==1))\n"


def test_gen_property_weak_swaps_ex_for_ef(tmp_path):
    out = tmp_path / "prop.ctl"
    assert main(["gen-property", "--log", str(SAMPLES / "chain2.csv"),
                 "--type", "weak", "-o", str(out)]) == 0
    assert out.read_text() == "x==0 & EF(x==1 & AG(x==1))\n"


def test_gen_property_one_row_log_is_code_2(tmp_path, capsys):
    log = tmp_path / "short.csv"
    log.write_text("x\n0\n")
    code = main(["gen-property", "--log", str(log), "-o", str(tmp_path / "p.ctl")])
    assert code == 2
    assert "fewer than 2 rows" in capsys.readouterr().err


def test_check_holds_and_fails(tmp_path, capsys, workspace):
    prop = tmp_path / "p.ctl"
    prop.write_text("x==0 & EX(x==1 & AG(x==1))\n")
    code = main(["check", "--model", str(workspace / "model.gcm"), "--property", str(prop)])
    assert code == 0
    assert "holds (2 states, 2 edges)" in capsys.readouterr().out

    prop.write_text("x==1\n")
    code = main(["check", "--model", str(workspace / "model.gcm"), "--property", str(prop)])
    assert code == 1
    captured = capsys.readouterr()
    assert "fails" in captured.out
    assert "violates" in captured.err


@pytest.mark.parametrize("name", ["EX", "EF", "EG", "AX", "AF", "AG"])
def test_property_of_a_temporal_named_variable_round_trips(tmp_path, capsys, name):
    model, log, prop = tmp_path / "m.gcm", tmp_path / "log.csv", tmp_path / "p.ctl"
    model.write_text(f"var {name} : 0..1 init 0; [] {name}==0 -> {name}'=1;\n")
    log.write_text(f"{name}\n0\n1\n1\n")
    assert main(["gen-property", "--log", str(log), "-o", str(prop)]) == 0
    assert prop.read_text() == f"{name}==0 & EX({name}==1 & AG({name}==1))\n"
    code = main(["check", "--model", str(model), "--property", str(prop)])
    assert code == 0
    assert "holds (2 states, 2 edges)" in capsys.readouterr().out


def test_check_missing_file_is_code_2(tmp_path, capsys):
    code = main(["check", "--model", str(tmp_path / "nope.gcm"), "--property", str(tmp_path / "p.ctl")])
    assert code == 2


def test_check_non_utf8_file_is_code_2(tmp_path, capsys):
    bad = tmp_path / "bad.gcm"
    bad.write_bytes(b"\xff\xfe")
    prop = tmp_path / "p.ctl"
    prop.write_text("x==0\n")
    code = main(["check", "--model", str(bad), "--property", str(prop)])
    assert code == 2
    assert f"error: cannot read {bad}: " in capsys.readouterr().err


def test_validate_ledger_line_not_an_object_is_code_2(tmp_path, capsys):
    ledger = tmp_path / "ledger.jsonl"
    ledger.write_text("[]\n")
    (tmp_path / "store").mkdir()
    code = main(["validate", "--ledger", str(ledger), "--store", str(tmp_path / "store")])
    assert code == 2
    assert f"{ledger}:1: not a JSON object" in capsys.readouterr().err


def test_validate_ledger_not_utf8_is_code_2(tmp_path, capsys):
    ledger = tmp_path / "ledger.jsonl"
    ledger.write_bytes(b"\xff\xfe")
    (tmp_path / "store").mkdir()
    code = main(["validate", "--ledger", str(ledger), "--store", str(tmp_path / "store")])
    assert code == 2
    assert f"{ledger}: not UTF-8: " in capsys.readouterr().err


HUGE = "9" * 5000  # past the 4300 digits int() converts


@pytest.mark.parametrize(
    "name, text, flag, expected",
    [
        ("settings.yaml", f"parameters:\n  n: {HUGE}\n", "--settings", "2:6: integer has too many digits"),
        ("bindings.json", f'{{"go": {HUGE}}}', "--bindings", "bindings are not valid JSON"),
    ],
    ids=["settings", "bindings"],
)
def test_gen_model_integer_past_the_digit_limit_is_code_2(tmp_path, capsys, name, text, flag, expected):
    (tmp_path / name).write_text(text)
    code = main(["gen-model", "--template", str(SAMPLES / "gate.gcmt"),
                 flag, str(tmp_path / name), "-o", str(tmp_path / "out.gcm")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and expected in err


def test_order_prints_monotone_ids(tmp_path, capsys):
    assert _order(tmp_path, capsys) == 1
    assert _order(tmp_path, capsys) == 2


def test_order_unparsable_model_is_code_2(tmp_path, capsys):
    bad = tmp_path / "bad.gcm"
    bad.write_text("var x : ")
    code = main(
        [
            "order",
            "--ledger", str(tmp_path / "ledger.jsonl"),
            "--store", str(tmp_path / "store"),
            "--model", str(bad),
            "--objective", str(SAMPLES / "objective.json"),
            "--promisor", "0x01",
            "--promisee", "0x02",
        ]
    )
    assert code == 2


def _town_order(tmp_path, capsys) -> int:
    from traceval.town import town_model_text, load_town, load_objective

    town = load_town((SAMPLES / "town5x5.json").read_text())
    objective = load_objective((SAMPLES / "objective.json").read_text())
    model = tmp_path / "town.gcm"
    model.write_text(town_model_text(town, objective))
    code = main(
        [
            "order",
            "--ledger", str(tmp_path / "ledger.jsonl"),
            "--store", str(tmp_path / "store"),
            "--model", str(model),
            "--objective", str(SAMPLES / "objective.json"),
            "--promisor", "0x01",
            "--promisee", "0x02",
        ]
    )
    assert code == 0
    return int(capsys.readouterr().out.strip())


def _execute(tmp_path, lid, fault=None):
    args = [
        "execute",
        "--ledger", str(tmp_path / "ledger.jsonl"),
        "--store", str(tmp_path / "store"),
        "--liability", str(lid),
        "--town", str(SAMPLES / "town5x5.json"),
    ]
    if fault:
        args += ["--fault", fault]
    return main(args)


def test_execute_and_validate_honest_flow(tmp_path, capsys):
    lid = _town_order(tmp_path, capsys)
    assert _execute(tmp_path, lid) == 0
    capsys.readouterr()
    code = main(["validate", "--ledger", str(tmp_path / "ledger.jsonl"),
                 "--store", str(tmp_path / "store")])
    out = capsys.readouterr().out
    assert code == 0
    assert f"liability {lid}: Confirmed" in out
    assert "1 processed" in out


def test_execute_wrong_status_is_code_2(tmp_path, capsys):
    lid = _town_order(tmp_path, capsys)
    assert _execute(tmp_path, lid) == 0
    assert _execute(tmp_path, lid) == 2  # already ResultSubmitted


def test_execute_forged_then_validate_rejects(tmp_path, capsys):
    lid = _town_order(tmp_path, capsys)
    assert _execute(tmp_path, lid, fault="forge:2,k,0") == 0
    capsys.readouterr()
    code = main(["validate", "--ledger", str(tmp_path / "ledger.jsonl"),
                 "--store", str(tmp_path / "store")])
    out = capsys.readouterr().out
    assert code == 1
    assert f"liability {lid}: Rejected" in out


def test_interrupted_watch_reports_and_exits_by_the_verdicts_it_wrote(tmp_path, capsys, monkeypatch):
    from traceval import lifecycle

    lid = _town_order(tmp_path, capsys)
    assert _execute(tmp_path, lid, fault="wrong-turn:2") == 0
    capsys.readouterr()

    def interrupt(seconds):
        raise KeyboardInterrupt

    monkeypatch.setattr(lifecycle.time, "sleep", interrupt)
    code = main(["validate", "--ledger", str(tmp_path / "ledger.jsonl"),
                 "--store", str(tmp_path / "store"), "--watch"])
    assert capsys.readouterr().out == f"liability {lid}: Rejected (property-failed)\n1 processed\n"
    assert code == 1
    assert Ledger(tmp_path / "ledger.jsonl").events[-1]["verdict"] == "Rejected"


def test_validate_single_liability_by_id(tmp_path, capsys):
    lid = _town_order(tmp_path, capsys)
    assert _execute(tmp_path, lid) == 0
    capsys.readouterr()
    code = main(["validate", "--ledger", str(tmp_path / "ledger.jsonl"),
                 "--store", str(tmp_path / "store"), "--liability", str(lid)])
    assert code == 0
    assert f"liability {lid}: Confirmed" in capsys.readouterr().out
    # a second validation of the same id is a usage error, not a verdict
    code = main(["validate", "--ledger", str(tmp_path / "ledger.jsonl"),
                 "--store", str(tmp_path / "store"), "--liability", str(lid)])
    assert code == 2


def test_execute_unknown_id_is_code_2(tmp_path, capsys):
    _town_order(tmp_path, capsys)
    assert _execute(tmp_path, 42) == 2


def test_validate_nothing_pending(tmp_path, capsys):
    Ledger(tmp_path / "ledger.jsonl")  # touch nothing; empty workspace
    (tmp_path / "store").mkdir()
    code = main(["validate", "--ledger", str(tmp_path / "ledger.jsonl"),
                 "--store", str(tmp_path / "store")])
    assert code == 0
    assert "0 processed" in capsys.readouterr().out


@pytest.fixture
def demo_tmp(tmp_path, monkeypatch):
    """Make ``demo``'s workspace under the test's own directory, which pytest
    removes, instead of the system temporary directory."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


def test_demo_honest_confirms(capsys, demo_tmp):
    code = main(["demo", "--town", str(SAMPLES / "town5x5.json"),
                 "--objective", str(SAMPLES / "objective.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "Confirmed" in out
    workspace = Path(out.splitlines()[0].removeprefix("workspace: "))
    assert workspace.parent == demo_tmp and workspace.name.startswith("traceval-demo-")


def test_demo_wrong_turn_rejects(capsys, demo_tmp):
    code = main(["demo", "--town", str(SAMPLES / "town5x5.json"),
                 "--objective", str(SAMPLES / "objective.json"),
                 "--fault", "wrong-turn:2"])
    assert code == 1
    assert "Rejected" in capsys.readouterr().out


def test_demo_wrong_turn_ledger_names_the_row(capsys, demo_tmp):
    main(["demo", "--town", str(SAMPLES / "town5x5.json"),
          "--objective", str(SAMPLES / "objective.json"),
          "--fault", "wrong-turn:2"])
    out = capsys.readouterr().out
    workspace = Path(out.splitlines()[0].removeprefix("workspace: "))
    verdict = Ledger(workspace / "ledger.jsonl").events[-1]
    # the robot turns the wrong way at the second stop, row 3, and row 4
    # is a position the model never reaches; the bundled town's reduced
    # model has 8 states and 8 edges
    assert verdict == {
        "seq": 3, "kind": "Verdict", "id": 1, "verdict": "Rejected",
        "reason": "property-failed", "row": 4, "check": "not-a-model-state",
        "states": 8, "edges": 8,
    }
    assert "validate: liability 1 Rejected (property-failed)\n" in out


def test_demo_skip_with_weak_confirms(capsys, demo_tmp):
    code = main(["demo", "--town", str(SAMPLES / "town5x5.json"),
                 "--objective", str(SAMPLES / "objective.json"),
                 "--fault", "skip:3", "--type", "weak"])
    assert code == 0
    assert "Confirmed" in capsys.readouterr().out


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["gen-model"])  # missing required flags
    assert err.value.code == 2


def test_demo_town_with_null_nodes_is_code_2(tmp_path, capsys, demo_tmp):
    import json

    town = json.loads((SAMPLES / "town5x5.json").read_text())
    town["nodes"] = None
    (tmp_path / "town.json").write_text(json.dumps(town))
    code = main(["demo", "--town", str(tmp_path / "town.json"),
                 "--objective", str(SAMPLES / "objective.json")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: town JSON missing or malformed field: 'NoneType' object is not iterable\n"
    )


@pytest.mark.parametrize("town_nodes, objective, fault", [
    (None, None, None),
    ([], None, None),
    (False, '{"sequence": []}', None),
    (False, '{"sequence": [{"tag": 99, "action": "left"}]}', None),
    (False, None, "sideways:2"),
    (False, None, "wrong-turn:99"),
], ids=["null-nodes", "no-nodes", "no-steps", "absent-tag", "unknown-fault", "fault-out-of-range"])
def test_demo_refused_input_leaves_no_workspace(tmp_path, monkeypatch, capsys,
                                                town_nodes, objective, fault):
    import json

    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)  # read TMPDIR again
    town = json.loads((SAMPLES / "town5x5.json").read_text())
    if town_nodes is not False:
        town["nodes"] = town_nodes
    (tmp_path / "town.json").write_text(json.dumps(town))
    (tmp_path / "objective.json").write_text(objective or (SAMPLES / "objective.json").read_text())
    args = ["demo", "--town", str(tmp_path / "town.json"),
            "--objective", str(tmp_path / "objective.json")]
    if fault:
        args += ["--fault", fault]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not list(tmp_path.glob("traceval-demo-*"))


def test_check_init_constraint_over_a_wide_domain_is_code_2(tmp_path, capsys):
    model, prop = tmp_path / "wide.gcm", tmp_path / "p.ctl"
    model.write_text("var x : 0..1 init 0;\nvar y : 0..9223372036854775807 init 0;\n"
                     "init x==0;\n[] x==0 -> skip;\n")
    prop.write_text("AG(x==0)\n")
    assert main(["check", "--model", str(model), "--property", str(prop)]) == 2
    assert capsys.readouterr().err == (
        "error: state explosion: init constraint enumeration exceeded 1000000 candidates\n"
    )


def test_validate_with_a_failed_ledger_write_is_code_2(tmp_path, capsys, full_disk):
    lid = _town_order(tmp_path, capsys)
    assert _execute(tmp_path, lid) == 0
    capsys.readouterr()
    full_disk()
    code = main(["validate", "--ledger", str(tmp_path / "ledger.jsonl"),
                 "--store", str(tmp_path / "store")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: [Errno 28] No space left on device\n"
    assert Ledger(tmp_path / "ledger.jsonl").liability(lid).status == "ResultSubmitted"


def test_warnings_are_relayed_to_stderr(tmp_path, capsys, demo_tmp):
    log = tmp_path / "log.csv"
    log.write_text("x\n0\n1\n")
    assert main(["gen-property", "--log", str(log), "-o", str(tmp_path / "p.ctl")]) == 0
    assert capsys.readouterr().err == (
        "warning: faithful base pins rows 1 and 2 at one state but they differ; "
        "the property is unsatisfiable on any graph\n"
    )
    code = main(["demo", "--town", str(SAMPLES / "town5x5.json"),
                 "--objective", str(SAMPLES / "objective.json"), "--fault", "wrong-turn:4"])
    assert code == 1
    assert capsys.readouterr().err == (
        "warning: wrong turn at stop 4 leads off the map; log truncated\n"
    )
