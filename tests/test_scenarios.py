"""Benchmark scenario builders and verdict reports."""

import dataclasses

import pytest

from price_display_auctions import (
    AuctionError,
    ConstraintViolationError,
    MechanismKind,
    build,
    reproduce,
)
from price_display_auctions import scenarios
from price_display_auctions.model import EMPTY_ALLOCATION, Outcome, profile
from price_display_auctions.scenarios import SCENARIO_IDS

VCG = MechanismKind.INDIRECT_VCG
GSP = MechanismKind.INDIRECT_GSP


def test_ids_and_aliases():
    assert set(SCENARIO_IDS) == {"T5-gsp-pos-sw", "T7-poa-m", "T9-overbid",
                                 "T10-rev-pos", "T12-gsp-rev"}
    assert build("T7").scenario_id == build("T7-poa-m").scenario_id
    assert build("t9").scenario_id == "T9-overbid"
    with pytest.raises(AuctionError):
        build("T99")


def test_constraint_violations_name_the_inequality():
    with pytest.raises(ConstraintViolationError) as err:
        build("T10", delta=0.6)
    assert "delta < p_low / p_high" in str(err.value)
    with pytest.raises(ConstraintViolationError):
        build("T10", p_low=2.0, p_high=2.5)
    with pytest.raises(ConstraintViolationError):
        build("T7", m=1)
    with pytest.raises(ConstraintViolationError) as err:
        build("T7", m=101)
    assert "m <= 100" in str(err.value)
    assert build("T7", m=100).instance.m == 100
    with pytest.raises(ConstraintViolationError):
        build("T9", delta=1.5)
    with pytest.raises(ConstraintViolationError):
        build("T5", eps=0.5)


def test_t7_scales_with_slot_count():
    scenario = build("T7", m=3)
    assert scenario.instance.m == 3
    assert scenario.instance.n == 4
    verdict = reproduce(build("T7", m=3))
    assert verdict.passed
    ratio = [c for c in verdict.checks if c.name == "welfare ratio"]
    assert ratio and ratio[0].observed == "3"


def test_t9_parametric_ratio():
    verdict = reproduce(build("T9", delta=0.25))
    assert verdict.passed
    ratio = [c for c in verdict.checks if c.name == "welfare ratio"]
    assert ratio[0].observed == "4"


def test_t12_defaults_pass():
    verdict = reproduce(build("T12"))
    assert verdict.passed
    assert verdict.params == {"p_low": 1.0, "p_high": 2.5}


def test_t5_reference_profile_is_recorded():
    scenario = build("T5")
    gsp = MechanismKind.INDIRECT_GSP
    ref = scenario.reference_profiles[gsp]
    assert ref[0].price == pytest.approx(1.0)
    assert ref[1].price == pytest.approx(1.5 * 0.99)
    assert gsp in scenario.spaces


def test_t10_space_has_interior_prices():
    scenario = build("T10")
    assert len(scenario.instance.price_grid) == 7
    assert scenario.gsp_allow_zero_gain


def test_t10_direct_revenue_with_interior_optimum():
    # Alone, agent 1 is shown at an interior grid price here, so the
    # direct revenue exceeds p_low - delta * p_high.
    params = dict(p_low=1.311, p_high=3.662, delta=0.2424, interior_points=3)
    scenario = build("T10", **params)
    assert scenario.expected["direct_revenue"] == pytest.approx(
        0.508743932225, abs=1e-9)
    verdict = reproduce(build("T10", **params))
    assert verdict.passed, [c for c in verdict.checks if not c.passed]
    flat = build("T10", **{**params, "interior_points": 0})
    assert flat.expected["direct_revenue"] == pytest.approx(
        1.311 - 0.2424 * 3.662)
    assert build("T10").expected["direct_revenue"] == pytest.approx(0.75)


def test_verdict_report_shape():
    verdict = reproduce(build("T12"))
    assert verdict.scenario_id == "T12-gsp-rev"
    for check in verdict.checks:
        assert check.name and check.observed and check.expected
    assert all(c.passed for c in verdict.checks) == verdict.passed


# Each scenario's checks at its defaults: (name, observed, passed), in order.
PINNED_CHECKS = {
    "T5-gsp-pos-sw": [
        ("optimal social welfare", "1.98", True),
        ("reference profile is Nash under indirect-gsp", "Nash", True),
        ("equilibrium welfare at most p_low + eps", "1.01", True),
        ("welfare ratio", "1.9603960396", True),
    ],
    "T7-poa-m": [
        ("optimal social welfare", "2", True),
        ("reference profile is Nash under indirect-vcg", "Nash", True),
        ("equilibrium welfare under indirect-vcg", "1", True),
        ("reference profile is Nash under indirect-gsp", "Nash", True),
        ("equilibrium welfare under indirect-gsp", "1", True),
        ("welfare ratio", "2", True),
    ],
    "T9-overbid": [
        ("optimal social welfare", "1", True),
        ("reference profile is Nash under indirect-vcg", "Nash", True),
        ("reference profile is Nash under indirect-gsp", "Nash", True),
        ("equilibrium welfare", "0.1", True),
        ("welfare ratio", "10", True),
    ],
    "T10-rev-pos": [
        ("optimal social welfare", "2.75", True),
        ("direct mechanism revenue", "0.75", True),
        ("reference profile is Nash under indirect-vcg", "Nash", True),
        ("equilibria exist under indirect-vcg", "8 found", True),
        ("every indirect-vcg equilibrium has zero revenue",
         "max |revenue| 0", True),
        ("every indirect-vcg equilibrium has equal prices",
         "0 unequal-price", True),
        ("reference profile is Nash under indirect-gsp", "Nash", True),
        ("equilibria exist under indirect-gsp", "2 found", True),
        ("every indirect-gsp equilibrium has zero revenue",
         "max |revenue| 0", True),
        ("revenue stability ratio is infinite", "+inf", True),
    ],
    "T12-gsp-rev": [
        ("direct mechanism revenue", "1", True),
        ("reference profile is Nash under indirect-gsp", "Nash", True),
        ("equilibria exist", "18 found", True),
        ("every equilibrium has zero revenue", "max |revenue| 0", True),
        ("revenue stability ratio is infinite", "+inf", True),
    ],
}


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_checks_at_the_defaults_are_pinned(scenario_id):
    verdict = reproduce(build(scenario_id))
    assert [(c.name, c.observed, c.passed) for c in verdict.checks] == \
        PINNED_CHECKS[scenario_id]
    assert verdict.passed


def test_failing_stability_ratio_shows_the_direct_revenue():
    # The ratio is infinite only while the direct mechanism earns revenue;
    # when it earns none, the check shows that revenue, not "+inf".
    scenario = build("T12")
    direct = Outcome(EMPTY_ALLOCATION, (0.0, 0.0), 0.0, 0.0)
    check = next(c for c in scenario.check(scenario, direct)
                 if c.name == "revenue stability ratio is infinite")
    assert not check.passed
    assert check.observed == "direct revenue 0"
    assert check.expected == "+inf"


def _count_is_nash(monkeypatch):
    calls = []
    original = scenarios.is_nash

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(scenarios, "is_nash", counted)
    return calls


@pytest.mark.parametrize("scenario_id, expected", [
    ("T5", 1), ("T7", 2), ("T9", 2), ("T10", 0), ("T12", 0)])
def test_is_nash_runs_only_where_nothing_was_enumerated(
        monkeypatch, scenario_id, expected):
    calls = _count_is_nash(monkeypatch)
    assert reproduce(build(scenario_id)).passed
    assert len(calls) == expected


def _nash_check(verdict, kind):
    name = f"reference profile is Nash under {kind.value}"
    return next(c for c in verdict.checks if c.name == name)


def _with_reference(scenario, kind, reference):
    return dataclasses.replace(scenario, reference_profiles={
        **scenario.reference_profiles, kind: reference})


def test_unlisted_reference_on_the_menu_names_its_witness(monkeypatch):
    calls = _count_is_nash(monkeypatch)
    scenario = _with_reference(build("T10"), VCG,
                               profile((2.5, 2.5), (1.0, 0.0)))
    verdict = reproduce(scenario)
    check = _nash_check(verdict, VCG)
    assert not check.passed and not verdict.passed
    assert check.observed == (
        "improving deviation (1, Strategy(price=2.5, gain=1.25, "
        "standalone_price=None), 0.25)")
    assert calls == [VCG]
    assert _nash_check(verdict, GSP).passed


def test_reference_off_the_menu_is_judged_by_is_nash(monkeypatch):
    calls = _count_is_nash(monkeypatch)
    reference = profile((2.5, 2.4999), (2.5, 2.5))
    scenario = _with_reference(build("T10"), VCG, reference)
    assert reference[0] not in scenario.spaces[VCG].options[0]
    verdict = reproduce(scenario)
    assert _nash_check(verdict, VCG).observed == "Nash"
    assert verdict.passed
    assert calls == [VCG]


def test_t12_unlisted_reference_names_its_witness(monkeypatch):
    calls = _count_is_nash(monkeypatch)
    scenario = _with_reference(build("T12"), GSP,
                               profile((1.0, 0.0), (2.5, 2.5)))
    check = _nash_check(reproduce(scenario), GSP)
    assert not check.passed
    assert check.observed == (
        "improving deviation (0, Strategy(price=1.0, gain=0.5, "
        "standalone_price=None), 1.0)")
    assert calls == [GSP]


def test_scenario_needs_an_instance_and_a_check():
    with pytest.raises(TypeError):
        scenarios.Scenario("T0", {})
    with pytest.raises(TypeError):
        scenarios.Scenario("T0", {}, build("T7").instance)
