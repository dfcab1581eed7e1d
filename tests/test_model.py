"""Domain type validation and welfare arithmetic."""

import math

import pytest

from price_display_auctions import (
    AgentType,
    Allocation,
    AuctionError,
    AuctionInstance,
    EMPTY_ALLOCATION,
    OnlyMinQuality,
    Outcome,
    PriceThresholdQuality,
    SlotProfile,
    Strategy,
    declared_value,
    declared_welfare,
    profile,
    true_value,
    true_welfare,
    truthful_gains,
)


def make_instance():
    agents = (
        (AgentType(1.0, 0.0), OnlyMinQuality()),
        (AgentType(0.5, 0.2), PriceThresholdQuality(threshold=2.0)),
    )
    return AuctionInstance(agents, SlotProfile((1.0, 0.5)), (1.0, 2.0))


def test_agent_type_validation():
    with pytest.raises(AuctionError):
        AgentType(1.5, 0.0)
    with pytest.raises(AuctionError):
        AgentType(0.5, -0.1)
    assert AgentType(0.5, 0.2).gain(1.0) == pytest.approx(0.4)



NON_FINITE = (float("nan"), float("inf"), float("-inf"))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_agent_type_rejects_non_finite(bad):
    with pytest.raises(AuctionError, match="finite"):
        AgentType(bad, 0.0)
    with pytest.raises(AuctionError, match="finite"):
        AgentType(0.5, bad)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_price_grid_rejects_non_finite(bad):
    inst = make_instance()
    with pytest.raises(AuctionError, match="finite"):
        AuctionInstance(inst.agents, inst.slots, (1.0, bad))
    with pytest.raises(AuctionError, match="finite"):
        AuctionInstance(inst.agents, inst.slots, (bad,))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_strategy_rejects_non_finite(bad):
    with pytest.raises(AuctionError, match="finite"):
        Strategy(bad, 0.0)
    with pytest.raises(AuctionError, match="finite"):
        Strategy(1.0, bad)
    with pytest.raises(AuctionError, match="finite"):
        Strategy(1.0, 0.5, bad)

def test_slot_profile_validation():
    with pytest.raises(AuctionError):
        SlotProfile(())
    with pytest.raises(AuctionError):
        SlotProfile((0.5, 0.9))  # must be non-increasing
    with pytest.raises(AuctionError):
        SlotProfile((1.2,))
    slots = SlotProfile((1.0, 0.5))
    assert slots.prominences[0] == 1.0
    assert len(slots) == 2


def test_instance_validation():
    inst = make_instance()
    assert (inst.n, inst.m) == (2, 2)
    with pytest.raises(AuctionError):
        AuctionInstance(inst.agents, inst.slots, (2.0, 1.0))
    with pytest.raises(AuctionError):
        AuctionInstance(inst.agents, inst.slots, ())
    with pytest.raises(AuctionError):
        AuctionInstance(inst.agents, inst.slots, (1.0, 2.0), tie_break=(0, 0))


def test_tie_break_rank():
    inst = make_instance()
    assert inst.rank(0) == 0
    flipped = AuctionInstance(inst.agents, inst.slots, inst.price_grid, (1, 0))
    assert flipped.rank(1) == 0
    assert flipped.rank(0) == 1


def test_tie_break_must_hold_integer_indices():
    inst = make_instance()
    for bad in ((1.0, 0.0), (True, False), (0, 0), (0, 2)):
        with pytest.raises(AuctionError, match="permutation"):
            AuctionInstance(inst.agents, inst.slots, inst.price_grid, bad)
    three = inst.agents + inst.agents[:1]
    shuffled = AuctionInstance(three, inst.slots, inst.price_grid, (2, 0, 1))
    assert [shuffled.rank(i) for i in range(3)] == [1, 2, 0]
    assert shuffled == AuctionInstance(three, inst.slots, inst.price_grid,
                                       (2, 0, 1))


def test_strategy_validation():
    with pytest.raises(AuctionError):
        Strategy(-1.0, 0.0)
    with pytest.raises(AuctionError):
        Strategy(1.0, 0.0, -0.5)
    s = Strategy(1.0, 0.5)
    assert s.standalone_price is None


def test_profile_helpers():
    prof = profile((1.0, 0.5), (2.0, 0.0, 1.5))
    assert prof.gains == (0.5, 0.0)
    assert prof[1].standalone_price == 1.5
    swapped = prof.replace(0, Strategy(2.0, 0.1))
    assert swapped[0].price == 2.0
    assert prof[0].price == 1.0  # original untouched


def test_allocation_accessors():
    alloc = Allocation((1, 0), (2.0, 1.0))
    assert alloc.p_min == 1.0
    assert alloc.slot_of(1) == 1
    assert alloc.slot_of(0) == 2
    assert alloc.slot_of(7) is None
    assert alloc.price_of(0) == 1.0
    assert alloc.price_of(7) is None
    assert EMPTY_ALLOCATION.p_min is None
    with pytest.raises(AuctionError):
        Allocation((0, 0), (1.0, 1.0))
    with pytest.raises(AuctionError):
        Allocation((0,), (1.0, 2.0))


def test_welfare_arithmetic():
    inst = make_instance()
    # Agent 0 in slot 1 at price 1, agent 1 in slot 2 at price 2.
    alloc = Allocation((0, 1), (1.0, 2.0))
    # q_0(1, 1) = 1; q_1(2, 1) = 1.
    assert declared_value(inst, alloc, 0, 0.7) == pytest.approx(0.7)
    assert declared_value(inst, alloc, 1, 0.8) == pytest.approx(0.5 * 0.8)
    assert declared_value(inst, alloc, 5, 1.0) == 0.0
    assert true_value(inst, alloc, 0) == pytest.approx(1.0)  # alpha (p - c)
    assert true_value(inst, alloc, 1) == pytest.approx(0.5 * 0.5 * 1.8)
    gains = (1.0, 0.9)
    assert declared_welfare(inst, alloc, gains) == pytest.approx(1.0 + 0.45)
    assert true_welfare(inst, alloc) == pytest.approx(1.0 + 0.45)


def test_social_welfare_modes():
    inst = make_instance()
    alloc = Allocation((0,), (1.0,))
    prof = profile((1.0, 0.4), (2.0, 0.0))
    assert declared_welfare(inst, alloc, prof.gains) == pytest.approx(0.4)
    assert true_welfare(inst, alloc) == pytest.approx(1.0)


def test_outcome_accessors():
    inst = make_instance()
    alloc = Allocation((0,), (1.0,))
    out = Outcome(alloc, (0.3, 0.0), 1.0, 1.0)
    assert out.revenue == pytest.approx(0.3)
    assert out.utility(inst, 0) == pytest.approx(1.0 - 0.3)
    assert out.utility(inst, 1) == 0.0
    assert out.utilities(inst) == (pytest.approx(0.7), 0.0)


@pytest.mark.parametrize("payments, sw, true_sw", [
    ((0.0,), math.inf, math.inf),
    ((0.0,), 1.0, math.nan),
    ((-math.inf,), 1.0, 1.0),
])
def test_outcome_refuses_non_finite_values(payments, sw, true_sw):
    with pytest.raises(AuctionError, match="not finite"):
        Outcome(EMPTY_ALLOCATION, payments, sw, true_sw)


def test_outcome_keeps_finite_values_whose_sum_overflows():
    big = 1.7e308
    out = Outcome(EMPTY_ALLOCATION, (big, big), big, big)
    assert (out.declared_welfare, out.true_welfare) == (big, big)


def test_truthful_gains():
    inst = make_instance()
    alloc = Allocation((1,), (2.0,))
    gains = truthful_gains(inst, alloc)
    assert gains[0] == 0.0
    assert gains[1] == pytest.approx(0.5 * 1.8)
