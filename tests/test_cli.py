"""End-to-end CLI behavior and exit codes."""

import json

import pytest

from price_display_auctions import random_instance, random_profile, save_instance
from price_display_auctions.cli import main
from price_display_auctions.scenarios import VerdictReport, Check


@pytest.fixture
def instance_file(tmp_path):
    inst = random_instance(5)
    prof = random_profile(inst, 5)
    path = tmp_path / "instance.json"
    save_instance(path, inst, prof)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_allocate_text(instance_file, capsys):
    code, out, _ = run(capsys, "allocate", instance_file)
    assert code == 0
    assert "assigned agents" in out
    assert "declared welfare" in out


def test_allocate_direct_oracle_agrees(instance_file, capsys):
    code, fast, _ = run(capsys, "allocate", instance_file, "--mode", "direct",
                        "--json")
    code2, slow, _ = run(capsys, "allocate", instance_file, "--mode", "direct",
                         "--oracle", "--json")
    assert code == code2 == 0
    a, b = json.loads(fast), json.loads(slow)
    assert a["declared_welfare"] == pytest.approx(b["declared_welfare"],
                                                  abs=1e-9)
    assert a["schema_version"] == 1


def test_pay_all_mechanisms(instance_file, capsys):
    for mech in ("direct-vcg", "indirect-vcg", "indirect-gsp"):
        code, out, _ = run(capsys, "pay", instance_file, "--mechanism", mech,
                           "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["mechanism"] == mech
        assert "payments" in payload["outcome"]


def test_pay_star_defaults_to_truthful(tmp_path, capsys):
    from price_display_auctions import smooth_instance
    path = tmp_path / "smooth.json"
    save_instance(path, smooth_instance(2))
    code, out, _ = run(capsys, "pay", str(path),
                       "--mechanism", "indirect-vcg-star", "--json")
    assert code == 0
    assert json.loads(out)["mechanism"] == "indirect-vcg-star"


def test_pay_unknown_mechanism(instance_file, capsys):
    code, _, err = run(capsys, "pay", instance_file, "--mechanism", "magic")
    assert code == 2
    assert "unknown mechanism" in err


def test_equilibria_and_report(instance_file, capsys):
    code, out, _ = run(capsys, "equilibria", instance_file,
                       "--gain-levels", "0,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["searched"] >= 1
    code, out, _ = run(capsys, "report", instance_file,
                       "--gain-levels", "0,1", "--json")
    assert code == 0
    report = json.loads(out)["report"]
    for key in ("poa_sw", "pos_sw", "poa_rev", "pos_rev", "benchmark_sw"):
        assert key in report


def test_reproduce_pass_and_export(tmp_path, capsys):
    export = tmp_path / "t7.json"
    code, out, _ = run(capsys, "reproduce", "T7", "--export", str(export))
    assert code == 0
    assert "verdict: PASS" in out
    from price_display_auctions import load_instance
    inst, prof = load_instance(export)
    assert inst.m == 2
    assert prof is not None


def test_reproduce_param_override(capsys):
    code, out, _ = run(capsys, "reproduce", "T9", "--param", "delta=0.2",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["params"]["delta"] == 0.2


def test_reproduce_bad_param(capsys):
    code, _, err = run(capsys, "reproduce", "T9", "--param", "delta")
    assert code == 2
    assert "key=value" in err
    code, _, err = run(capsys, "reproduce", "T9", "--param", "delta=fast")
    assert code == 2


@pytest.mark.parametrize("scenario, param, message", [
    ("T5", "foo=1", "unknown parameter 'foo'"),
    ("T10", "interior_points=1.5", "must be an integer"),
    ("T10", "interior_points=-5", "interior_points >= 0"),
])
def test_reproduce_bad_param_value_exits_two(capsys, scenario, param, message):
    code, out, err = run(capsys, "reproduce", scenario, "--param", param)
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert out == ""


def test_reproduce_constraint_violation(capsys):
    code, _, err = run(capsys, "reproduce", "T10", "--param", "delta=0.9")
    assert code == 2
    assert "constraint" in err


def test_reproduce_failing_verdict_exits_one(monkeypatch, capsys):
    from price_display_auctions import cli
    bad = VerdictReport("T7-poa-m", {}, (Check("made-up", False, "0", "1"),))
    monkeypatch.setattr(cli, "reproduce", lambda *a, **k: bad)
    code, out, _ = run(capsys, "reproduce", "T7")
    assert code == 1
    assert "verdict: FAIL" in out


def test_audit_pass(instance_file, capsys):
    code, out, _ = run(capsys, "audit", instance_file, "--seed", "7",
                       "--probes", "10")
    assert code == 0
    assert "audit: PASS" in out


def test_audit_json_deterministic(instance_file, capsys):
    code, out1, _ = run(capsys, "audit", instance_file, "--seed", "3", "--json")
    code2, out2, _ = run(capsys, "audit", instance_file, "--seed", "3", "--json")
    assert code == code2 == 0
    assert json.loads(out1) == json.loads(out2)


def test_audit_fail_exits_one(instance_file, capsys, monkeypatch):
    from price_display_auctions import cli
    from price_display_auctions.quality import AuditReport, AuditViolation
    bad = AuditReport((AuditViolation("range", "q out of range"),))
    monkeypatch.setattr(cli, "audit_quality", lambda *a, **k: bad)
    code, out, _ = run(capsys, "audit", instance_file)
    assert code == 1
    assert "audit: FAIL" in out


def test_missing_file(capsys):
    code, _, err = run(capsys, "allocate", "/nonexistent/file.json")
    assert code == 2
    assert "error" in err


def test_indirect_needs_profile(tmp_path, capsys):
    path = tmp_path / "bare.json"
    save_instance(path, random_instance(4))
    code, _, err = run(capsys, "pay", str(path), "--mechanism", "indirect-vcg")
    assert code == 2
    assert "profile" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("command", ["equilibria", "report"])
@pytest.mark.parametrize("levels", ["a,b", "0,nan", "inf"])
def test_bad_gain_levels_exit_two(instance_file, capsys, command, levels):
    code, out, err = run(capsys, command, instance_file,
                         "--gain-levels", levels)
    assert code == 2
    assert "--gain-levels" in err
    assert "Traceback" not in err
    assert out == ""
