"""End-to-end CLI behavior and exit codes."""

import argparse
import contextlib
import copy
import functools
import io
import json
import math
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from price_display_auctions import (
    AgentType,
    AuctionInstance,
    HyperbolaQuality,
    OnlyMinQuality,
    PriceThresholdQuality,
    SlotProfile,
    __version__,
    profile,
    random_instance,
    random_profile,
    save_instance,
    smooth_instance,
)
from price_display_auctions.cli import main
from price_display_auctions.scenarios import VerdictReport, Check, build


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


def test_allocate_indirect_oracle_agrees(instance_file, capsys):
    code, fast, _ = run(capsys, "allocate", instance_file, "--json")
    code2, slow, _ = run(capsys, "allocate", instance_file, "--oracle",
                         "--json")
    assert code == code2 == 0
    a, b = json.loads(fast), json.loads(slow)
    assert (a["mode"], b["mode"], b["oracle"]) == ("indirect", "indirect", True)
    assert a["declared_welfare"] == pytest.approx(b["declared_welfare"],
                                                  abs=1e-9)


@pytest.mark.parametrize("flags", [(), ("--mode", "direct"), ("--oracle",)],
                         ids=["indirect", "direct", "oracle"])
def test_allocate_refuses_an_overflowing_welfare(tmp_path, capsys, flags):
    # Two finite bids whose welfare sums past the float maximum.
    agents = ((AgentType(1.0, 0.0), OnlyMinQuality()),) * 2
    inst = AuctionInstance(agents, SlotProfile((1.0, 1.0)), (1e308,))
    path = tmp_path / "overflow.json"
    save_instance(path, inst, profile((1e308, 1e308), (1e308, 1e308)))
    code, out, err = run(capsys, "allocate", str(path), *flags)
    assert code == 2
    assert "result is not finite" in err
    assert out == ""


def test_pay_all_mechanisms(instance_file, capsys):
    for mech in ("direct-vcg", "indirect-vcg", "indirect-gsp"):
        code, out, _ = run(capsys, "pay", instance_file, "--mechanism", mech,
                           "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["mechanism"] == mech
        assert "payments" in payload["outcome"]


def _hyperbola_instance():
    """Three psi-hyperbola agents: their standalone prices come from the
    generic search, not from a closed form, and lie strictly between the
    hyperbola's jumps (1.02, 1.11 and 1.21)."""
    agents = tuple((AgentType(alpha, cost),
                    HyperbolaQuality(low=1.0, high=2.5, delta=0.1))
                   for alpha, cost in ((0.9, 0.1), (0.7, 0.2), (0.5, 0.3)))
    return AuctionInstance(agents, SlotProfile((1.0, 0.6)),
                           (1.0, 1.5, 2.0, 2.5))


@pytest.mark.parametrize("make", [lambda: smooth_instance(2),
                                  _hyperbola_instance],
                         ids=["smooth-decay", "psi-hyperbola"])
def test_pay_star_defaults_to_truthful(tmp_path, capsys, monkeypatch, make):
    # The library needs no third-party module at run time.
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    path = tmp_path / "star.json"
    save_instance(path, make())
    code, out, _ = run(capsys, "pay", str(path),
                       "--mechanism", "indirect-vcg-star", "--json")
    assert code == 0
    assert json.loads(out)["mechanism"] == "indirect-vcg-star"


def test_pay_star_refuses_a_flat_standalone_price(tmp_path, capsys):
    # Both costs lie below the kinks, so each standalone price sits on the
    # flat side of its kink, where no cost can be inferred.
    agents = ((AgentType(1.0, 0.5), PriceThresholdQuality(1.5)),
              (AgentType(1.0, 0.5), OnlyMinQuality(cap=2.0)))
    path = tmp_path / "kink.json"
    save_instance(path, AuctionInstance(agents, SlotProfile((1.0, 0.5)),
                                        (1.0, 1.5, 2.0)))
    code, out, err = run(capsys, "pay", str(path),
                         "--mechanism", "indirect-vcg-star")
    assert code == 2
    assert "agent 0: the price-threshold quality is flat at its standalone " \
           "price 1.4999" in err
    assert "Traceback" not in err
    assert out == ""


def test_pay_star_refuses_t10s_kinks(tmp_path, capsys):
    # T10's agents sit at a kink (only-min's cap) and a jump (the
    # hyperbola's low price): neither diagonal states a slope there.
    path = tmp_path / "t10.json"
    save_instance(path, build("T10").instance)
    code, out, err = run(capsys, "pay", str(path),
                         "--mechanism", "indirect-vcg-star")
    assert code == 2
    assert "agent 0: the only-min quality is flat at its standalone " \
           "price 2.5" in err
    assert out == ""


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


def test_reproduce_export_builds_scenario_once(tmp_path, monkeypatch, capsys):
    from price_display_auctions import scenarios
    calls = []
    builder = scenarios._BUILDERS["T7-poa-m"]

    @functools.wraps(builder)
    def counting(*args, **kwargs):
        calls.append(1)
        return builder(*args, **kwargs)

    monkeypatch.setitem(scenarios._BUILDERS, "T7-poa-m", counting)
    export = tmp_path / "t7.json"
    code, _, _ = run(capsys, "reproduce", "T7", "--export", str(export))
    assert code == 0
    assert export.exists()
    assert len(calls) == 1


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
    ("T7", "m=101", "m <= 100"),
    ("T5", "eps=nan", "eps must be a finite number"),
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


@pytest.mark.parametrize("params", [
    ("T7", "--param", "m=2", "--param", "p_high=1e-320"),
    ("T9", "--param", "p_high=1e-320"),
    ("T5", "--param", "p_low=1e-300", "--param", "eps=1e-302"),
])
def test_reproduce_zero_welfare_reference_fails_cleanly(capsys, params):
    # The reference outcome's welfare underflows to 0, so its welfare
    # ratio cannot be computed: the check fails instead of raising.
    code, out, err = run(capsys, "reproduce", *params)
    assert code in (1, 2)
    assert "Traceback" not in err
    assert "welfare ratio: inf" in out


@pytest.mark.parametrize("params,failing", [
    (("T7", "--param", "m=2", "--param", "p_high=1e-320"),
     ["optimal social welfare", "equilibrium welfare under indirect-vcg",
      "equilibrium welfare under indirect-gsp"]),
    (("T9", "--param", "p_high=1e-320"),
     ["optimal social welfare", "equilibrium welfare"]),
    (("T5", "--param", "p_low=1e-300", "--param", "eps=1e-302"),
     ["optimal social welfare"]),
])
def test_reproduce_value_checks_scale_with_the_prices(capsys, params,
                                                      failing):
    # Welfare scales with the prices, and so does the value tolerance: at
    # these scales a welfare that underflows to 0 fails its value checks,
    # which an absolute 1e-9 would pass.  The verdict still prints the
    # relative tolerance.
    code, out, _ = run(capsys, "reproduce", *params)
    assert code == 1
    for name in failing:
        assert f"[FAIL] {name}: 0 (expected " in out
    assert "(tol 1e-09)" in out


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
    from price_display_auctions.quality import AuditViolation
    bad = (AuditViolation("range", "q out of range"),)
    monkeypatch.setattr(cli, "audit_quality", lambda *a, **k: bad)
    code, out, _ = run(capsys, "audit", instance_file)
    assert code == 1
    assert "audit: FAIL" in out


@pytest.mark.parametrize("probes", ["-1", "-3"])
def test_audit_refuses_negative_probes(instance_file, capsys, probes):
    code, out, err = run(capsys, "audit", instance_file, "--probes", probes)
    assert code == 2
    assert f"--probes must be >= 0, got {probes}" in err
    assert out == ""


def test_audit_refuses_probes_over_the_limit(instance_file, capsys,
                                            monkeypatch):
    from price_display_auctions import cli

    def unreachable(points):
        raise AssertionError("probe_grid called")

    monkeypatch.setattr(cli, "probe_grid", unreachable)
    code, out, err = run(capsys, "audit", instance_file, "--probes", "100000")
    assert code == 2
    assert "--probes 100000" in err
    assert f"limit of {cli.AUDIT_CHECK_LIMIT}" in err
    assert out == ""


def test_audit_limit_counts_pairs_times_agents(instance_file, capsys,
                                               monkeypatch):
    from price_display_auctions import cli, load_instance
    instance, _ = load_instance(instance_file)
    points = len(instance.price_grid) + 2
    monkeypatch.setattr(cli, "AUDIT_CHECK_LIMIT",
                        points * (points + 1) // 2 * instance.n)
    code, _, _ = run(capsys, "audit", instance_file, "--probes", "2")
    assert code == 0
    code, _, err = run(capsys, "audit", instance_file, "--probes", "3")
    assert code == 2
    assert "--probes 3" in err


def test_audit_zero_probes_checks_the_grid_alone(instance_file, capsys):
    from price_display_auctions import load_instance
    from price_display_auctions.quality import probe_grid
    instance, _ = load_instance(instance_file)
    code, out, _ = run(capsys, "audit", instance_file, "--probes", "0",
                       "--json")
    assert code == 0
    assert json.loads(out)["probe_count"] == len(
        probe_grid(set(instance.price_grid)))


def test_main_builds_its_parser_once(instance_file, capsys, monkeypatch):
    assert main(["reproduce", "T7", "--json"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["allocate", instance_file]) == 0
    assert main(["pay", instance_file, "--mechanism", "indirect-gsp"]) == 0
    assert main(["audit", instance_file, "--probes", "2", "--json"]) == 0
    capsys.readouterr()
    assert built == []


def test_main_keeps_no_state_between_calls(instance_file, capsys,
                                           monkeypatch):
    from price_display_auctions import cli
    seen = []

    def recording(handler):
        def record(args):
            seen.append(args)
            return handler(args)
        return record

    for name in ("cmd_allocate", "cmd_reproduce"):
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))

    code, out, _ = run(capsys, "reproduce", "T7", "--param", "m=3", "--json")
    assert code == 0
    assert json.loads(out)["params"]["m"] == 3
    code, out, _ = run(capsys, "reproduce", "T7", "--json")
    assert code == 0
    assert json.loads(out)["params"] == {"m": 2, "p_high": 1.0}

    code, out, _ = run(capsys, "allocate", instance_file, "--json")
    assert code == 0
    assert json.loads(out)["command"] == "allocate"
    code, out, _ = run(capsys, "allocate", instance_file)
    assert code == 0
    assert out.startswith("mode: indirect\n")

    with pytest.raises(SystemExit) as exc:
        main(["reproduce"])
    assert exc.value.code == 2
    assert "usage: pda reproduce" in capsys.readouterr().err
    code, out, err = run(capsys, "reproduce", "T7")
    assert code == 0
    assert "verdict: PASS" in out
    assert err == ""

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("pda ")

    # Each call gets a fresh namespace holding its own subcommand's fields
    # only, not one carried over from an earlier call.
    fields = {"allocate": {"command", "instance", "mode", "oracle", "json"},
              "reproduce": {"command", "scenario", "param", "export", "json"}}
    assert len(seen) == 5
    assert len({id(args) for args in seen}) == len(seen)
    assert [set(vars(args)) for args in seen] == [
        fields[args.command] for args in seen]


def test_handler_rebound_after_the_parser_is_built_runs(capsys, monkeypatch):
    from price_display_auctions import cli
    assert main(["reproduce", "T7", "--json"]) == 0
    capsys.readouterr()
    seen = []
    monkeypatch.setattr(cli, "cmd_reproduce",
                        lambda args: seen.append(args.scenario) or 7)
    assert main(["reproduce", "T9"]) == 7
    assert seen == ["T9"]


def test_missing_file(capsys):
    code, _, err = run(capsys, "allocate", "/nonexistent/file.json")
    assert code == 2
    assert "error" in err


def test_empty_outcome_welfare_prints_as_float(tmp_path, capsys):
    # Two zero-gain bids: nothing is displayed, and both welfare sums over
    # no agent print 0.0, as the direct search's does, not the int 0.
    inst = AuctionInstance(
        ((AgentType(1.0, 0.0), OnlyMinQuality()),
         (AgentType(1.0, 0.0), PriceThresholdQuality(threshold=3.0))),
        SlotProfile((1.0, 0.5)), (1.0, 2.0))
    path = tmp_path / "zero.json"
    save_instance(path, inst, profile((1.0, 0.0), (2.0, 0.0)))
    code, out, _ = run(capsys, "pay", str(path), "--mechanism",
                       "indirect-vcg", "--json")
    outcome = json.loads(out)["outcome"]
    assert code == 0 and outcome["allocation"]["slot_agents"] == []
    assert '"declared_welfare": 0.0,' in out and '"true_welfare": 0.0,' in out
    assert type(outcome["declared_welfare"]) is type(outcome["true_welfare"]) \
        is float
    code, out, _ = run(capsys, "allocate", str(path), "--json")
    assert code == 0
    assert type(json.loads(out)["declared_welfare"]) is float


def test_unknown_quality_key_exits_two(tmp_path, capsys):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({
        "agents": [{"alpha": 1.0, "cost": 0.0,
                    "quality": {"kind": "only-min", "capp": 2.0}}],
        "prominences": [1.0], "price_grid": [1.0, 2.0]}))
    code, out, err = run(capsys, "allocate", str(path))
    assert code == 2 and out == ""
    assert "$.agents[0].quality.capp" in err
    assert "Traceback" not in err


def test_indirect_needs_profile(tmp_path, capsys):
    path = tmp_path / "bare.json"
    save_instance(path, random_instance(4))
    code, _, err = run(capsys, "pay", str(path), "--mechanism", "indirect-vcg")
    assert code == 2
    assert "profile" in err


HUGE_THRESHOLD_AGENT = {"alpha": 1.0, "cost": 0.0,
                        "quality": {"kind": "price-threshold",
                                    "threshold": 1.7e308, "level": 1.0}}


@pytest.mark.parametrize("fmt", [["--json"], []])
def test_overflowing_welfare_exits_two(tmp_path, capsys, fmt):
    # Finite inputs whose welfare overflows to inf: nothing may be printed
    # (JSON has no Infinity), and the error is an input error, not a crash.
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"agents": [HUGE_THRESHOLD_AGENT] * 2,
                                "prominences": [1.0, 1.0],
                                "price_grid": [1e308, 1.7e308]}))
    code, out, err = run(capsys, "pay", str(path), "--mechanism",
                         "direct-vcg", *fmt)
    assert code == 2
    assert out == ""
    assert "not finite" in err
    assert "Traceback" not in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (f"pda {__version__}\n", "")


@pytest.mark.parametrize("command", ["equilibria", "report"])
@pytest.mark.parametrize("levels", ["a,b", "0,nan", "inf"])
def test_bad_gain_levels_exit_two(instance_file, capsys, command, levels):
    code, out, err = run(capsys, command, instance_file,
                         "--gain-levels", levels)
    assert code == 2
    assert "--gain-levels" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("command", ["equilibria", "report"])
@pytest.mark.parametrize("mechanism, message", [
    ("direct-vcg", "direct-vcg"),
    ("indirect-vcg-star", "standalone price"),
])
def test_engine_refuses_mechanisms_without_strategy_menus(
        instance_file, capsys, command, mechanism, message):
    # Direct VCG takes types, not (price, gain) strategies; the starred
    # mechanism needs standalone prices, which built menus do not carry.
    code, out, err = run(capsys, command, instance_file,
                         "--mechanism", mechanism, "--gain-levels", "0,1")
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert out == ""


# One agent per quality kind, two slots, two prices and a profile: a valid
# file that every command below accepts.
VALID_FILE = {
    "agents": [
        {"alpha": 1.0, "cost": 0.0,
         "quality": {"kind": "only-min", "cap": "inf", "level": 1.0}},
        {"alpha": 0.8, "cost": 0.1,
         "quality": {"kind": "price-threshold", "threshold": 1.5,
                     "level": 0.9}},
        {"alpha": 0.9, "cost": 0.0,
         "quality": {"kind": "psi-hyperbola", "low": 1.0, "high": 2.5,
                     "delta": 0.1}},
        {"alpha": 0.7, "cost": 0.2,
         "quality": {"kind": "smooth-decay", "price_slope": 0.2,
                     "gap_slope": 0.1, "intercept": 0.9}},
        {"alpha": 0.6, "cost": 0.0,
         "quality": {"kind": "tabulated", "prices": [1.0, 2.0],
                     "min_prices": [1.0, 2.0],
                     "values": [[0.6, 0.8], [0.4, 0.5]]}},
    ],
    "prominences": [1.0, 0.5],
    "price_grid": [1.0, 2.0],
    "tie_break": [4, 3, 2, 1, 0],
    "profile": [{"price": p, "gain": 0.5, "standalone_price": 1.0}
                for p in (1.0, 2.0, 1.0, 2.0, 1.0)],
}
COMMANDS = (
    ["allocate"], ["allocate", "--mode", "direct"],
    ["pay", "--mechanism", "indirect-vcg"],
    ["pay", "--mechanism", "indirect-gsp"],
    ["pay", "--mechanism", "direct-vcg"],
    ["pay", "--mechanism", "indirect-vcg-star"],
    ["audit", "--probes", "3"],
    ["equilibria", "--gain-levels", "1"],
    ["report", "--gain-levels", "1", "--json"],
)
HUGE = 10 ** 400
OVERFLOW_FILE = json.dumps(VALID_FILE).replace(
    '"cost": 0.1', f'"cost": {HUGE}').encode()
NOT_UTF8_FILE = b'{"agents": "\xff"}'
DEEP_FILE = b'{"agents": ' + b"[" * 200_000 + b"]" * 200_000 + b"}"


def nested_tie_break_file(depth):
    """VALID_FILE with a tie_break entry that is an array nested ``depth``
    deep."""
    nested = "[" * depth + "]" * depth
    return json.dumps(VALID_FILE).replace(
        '"tie_break": [4, 3, 2, 1, 0]', f'"tie_break": [{nested}]').encode()


def tabulated_file(prices, min_prices, values):
    """VALID_FILE with the tabulated agent's table replaced."""
    data = copy.deepcopy(VALID_FILE)
    data["agents"][4]["quality"].update(prices=prices, min_prices=min_prices,
                                        values=values)
    return json.dumps(data).encode()


JUNK = st.one_of(
    st.booleans(), st.none(), st.just(math.nan),
    st.sampled_from(["inf", "0.5", ""]), st.text(max_size=3),
    st.sampled_from([HUGE, -HUGE]),
    st.recursive(st.integers(-1, 3), lambda inner: st.lists(inner, max_size=3),
                 max_leaves=5))


def _mutate(draw, node):
    """Replace, delete or append one value somewhere inside ``node``."""
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = draw(st.sampled_from(keys)) if keys else None
        child = None if key is None else node[key]
        if not (isinstance(child, (dict, list)) and draw(st.booleans())):
            break
        node = child
    action = draw(st.sampled_from(("replace", "delete", "append")))
    if key is None or action == "append":
        if isinstance(node, list):
            node.append(draw(JUNK))
        else:
            node[draw(st.text(max_size=3))] = draw(JUNK)
    elif action == "delete":
        del node[key]
    else:
        node[key] = draw(JUNK)


@st.composite
def mutated_files(draw):
    data = copy.deepcopy(VALID_FILE)
    for _ in range(draw(st.integers(1, 3))):
        _mutate(draw, data)
    return json.dumps(data).encode()


@pytest.mark.parametrize("content, path", [
    (OVERFLOW_FILE, "$.agents[1].cost"),
    (NOT_UTF8_FILE, "$: invalid JSON"),
    (DEEP_FILE, "$: invalid JSON"),
], ids=["huge-integer", "not-utf8", "deep-nesting"])
def test_undecodable_instance_file_exits_two(tmp_path, capsys, content, path):
    file = tmp_path / "instance.json"
    file.write_bytes(content)
    code, out, err = run(capsys, "allocate", str(file))
    assert code == 2
    assert path in err
    assert "Traceback" not in err
    assert out == ""


def test_deepest_decodable_tie_break_entry_exits_two(tmp_path, capsys):
    # Walk down from the recursion limit to the deepest tie_break entry the
    # decoder accepts: it is refused at its own path, named by its type.
    file = tmp_path / "instance.json"
    for depth in range(sys.getrecursionlimit(), 0, -1):
        file.write_bytes(nested_tie_break_file(depth))
        code, out, err = run(capsys, "allocate", str(file))
        assert code == 2 and out == ""
        if "invalid JSON" not in err:
            break
    assert "$.tie_break[0]: expected an integer, got list" in err
    assert depth > sys.getrecursionlimit() - 300


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(content=mutated_files(), command=st.sampled_from(COMMANDS))
@example(content=OVERFLOW_FILE, command=COMMANDS[0])
@example(content=NOT_UTF8_FILE, command=COMMANDS[0])
@example(content=DEEP_FILE, command=COMMANDS[0])
@example(content=nested_tie_break_file(sys.getrecursionlimit() - 200),
         command=COMMANDS[0])
@example(content=tabulated_file([], [], []), command=COMMANDS[0])
@example(content=tabulated_file([1.0], [], [[]]), command=COMMANDS[6])
def test_mutated_instance_files_never_raise(tmp_path_factory, content,
                                            command):
    file = tmp_path_factory.getbasetemp() / "mutated.json"
    file.write_bytes(content)
    argv = [command[0], str(file), *command[1:]]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
