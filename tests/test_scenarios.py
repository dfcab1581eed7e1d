"""Benchmark scenario builders and verdict reports."""

import pytest

from price_display_auctions import (
    AuctionError,
    ConstraintViolationError,
    MechanismKind,
    build,
    reproduce,
)
from price_display_auctions.scenarios import SCENARIO_IDS


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
