"""Domain type validation and welfare arithmetic."""

import math

import pytest

from price_display_auctions import (
    AgentType,
    Allocation,
    AuctionError,
    AuctionInstance,
    EMPTY_ALLOCATION,
    MechanismKind,
    OnlyMinQuality,
    Outcome,
    PriceThresholdQuality,
    SlotProfile,
    Strategy,
    StrategyProfile,
    StrategySpace,
    brute_force_allocate,
    declared_value,
    declared_welfare,
    direct_allocate,
    direct_pivots,
    efficiency_report,
    enumerate_pure_nash,
    indirect_allocate,
    indirect_pivots,
    is_nash,
    profile,
    run_direct_vcg,
    run_indirect_gsp,
    run_indirect_vcg,
    run_indirect_vcg_star,
    run_mechanism,
    true_value,
    true_welfare,
)
from sampling import (
    random_instance,
    random_profile,
    replace_strategy,
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
    swapped = replace_strategy(prof, 0, Strategy(2.0, 0.1))
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
    assert out.utilities(inst) == (pytest.approx(0.7), 0.0)


def test_revenue_adds_left_to_right_on_every_python():
    # These GSP payments (random_instance and random_profile, seed 294)
    # add to ...948 left to right, and to ...9477 under the compensated
    # float sum() of Python 3.12 on.
    inst = random_instance(294)
    out = run_indirect_gsp(inst, random_profile(inst, 294))
    assert out.payments == (0.0, 0.0155988365821558, 0.05974419647083889,
                            0.3122316566415001)
    assert out.revenue == 0.3875746896944948


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


def _one_per_agent_calls():
    """Every public entry point that takes a profile, a report list or a
    strategy space: call(instance, profile, reports, space), by name."""
    vcg, gsp, star, direct = (MechanismKind.INDIRECT_VCG,
                              MechanismKind.INDIRECT_GSP,
                              MechanismKind.INDIRECT_VCG_STAR,
                              MechanismKind.DIRECT_VCG)
    calls = [
        ("indirect_allocate", lambda i, p, r, s: indirect_allocate(i, p)),
        ("indirect_pivots", lambda i, p, r, s: indirect_pivots(i, p)),
        ("direct_allocate", lambda i, p, r, s: direct_allocate(i, r)),
        ("direct_pivots", lambda i, p, r, s: direct_pivots(i, r)),
        ("brute_force indirect",
         lambda i, p, r, s: brute_force_allocate(i, p, "indirect")),
        ("brute_force direct",
         lambda i, p, r, s: brute_force_allocate(i, r, "direct")),
        ("run_direct_vcg", lambda i, p, r, s: run_direct_vcg(i, r)),
        ("run_indirect_vcg", lambda i, p, r, s: run_indirect_vcg(i, p)),
        ("run_indirect_gsp", lambda i, p, r, s: run_indirect_gsp(i, p)),
        ("run_indirect_vcg_star",
         lambda i, p, r, s: run_indirect_vcg_star(i, p)),
        *[(f"run_mechanism {kind.value}",
           lambda i, p, r, s, kind=kind: run_mechanism(
               i, kind, r if kind is direct else p))
          for kind in (vcg, gsp, star, direct)],
        ("is_nash profile", lambda i, p, r, s: is_nash(
            i, vcg, StrategySpace.build(i), p)),
        ("is_nash space", lambda i, p, r, s: is_nash(
            i, vcg, s, random_profile(i, 0))),
        ("enumerate_pure_nash",
         lambda i, p, r, s: enumerate_pure_nash(i, gsp, s)),
        ("efficiency_report",
         lambda i, p, r, s: efficiency_report(i, vcg, s)),
    ]
    return [pytest.param(call, id=name) for name, call in calls]


@pytest.mark.parametrize("size", [1, 3])
@pytest.mark.parametrize("call", _one_per_agent_calls())
def test_every_entry_point_refuses_a_profile_of_the_wrong_length(call, size):
    # Two agents; too few entries used to drop the last agent silently or
    # raise IndexError, and extra ones were ignored or raised IndexError.
    inst = make_instance()
    strategies = random_profile(inst, 0).strategies
    prof = StrategyProfile((strategies * 2)[:size])
    reports = [inst.atype(0), inst.atype(1), inst.atype(0)][:size]
    menus = StrategySpace.build(inst).options
    space = StrategySpace((menus * 2)[:size])
    with pytest.raises(AuctionError, match=f"has length {size}, but the "
                       f"instance has 2 agents"):
        call(inst, prof, reports, space)
