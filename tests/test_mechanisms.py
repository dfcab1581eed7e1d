"""Payment rules: pivot payments, next-slot payments, type inference."""

import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from price_display_auctions import (
    AgentType,
    AuctionError,
    AuctionInstance,
    HyperbolaQuality,
    InferenceError,
    MechanismKind,
    OnlyMinQuality,
    PriceThresholdQuality,
    SlotProfile,
    SmoothDecayQuality,
    Strategy,
    StrategyProfile,
    brute_force_allocate,
    direct_pivots,
    indirect_allocate,
    indirect_pivots,
    infer_type,
    profile,
    run_direct_vcg,
    run_indirect_gsp,
    run_indirect_vcg,
    run_indirect_vcg_star,
    run_mechanism,
    random_instance,
    random_profile,
    smooth_instance,
    truthful_gains,
    truthful_star_profile,
)
from price_display_auctions.allocation import _allocation_from
from price_display_auctions.model import (
    declared_value,
    declared_welfare,
)
from price_display_auctions.sampling import SAMPLED_QUALITY_KINDS, _random_quality


def t10_instance():
    agents = (
        (AgentType(1.0, 0.0), OnlyMinQuality(cap=2.5)),
        (AgentType(1.0, 0.0), HyperbolaQuality(1.0, 2.5, 0.1)),
    )
    grid = (1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5)
    return AuctionInstance(agents, SlotProfile((1.0, 1.0)), grid)


def test_direct_vcg_payment_numbers():
    inst = t10_instance()
    out = run_direct_vcg(inst)
    assert out.allocation.display_prices == (2.5, 2.5)
    assert out.declared_welfare == pytest.approx(2.75, abs=1e-9)
    # Removing the strong agent leaves the price-sensitive one at the
    # floor (welfare 1.0); removing the weak one changes nothing above
    # her 0.25 contribution.
    assert out.payments[0] == pytest.approx(0.75, abs=1e-9)
    assert out.payments[1] == pytest.approx(0.0, abs=1e-9)
    assert out.revenue == pytest.approx(0.75, abs=1e-9)


def test_direct_vcg_single_agent_pays_nothing():
    agents = ((AgentType(1.0, 0.0), OnlyMinQuality()),)
    inst = AuctionInstance(agents, SlotProfile((1.0,)), (1.0, 2.0))
    out = run_direct_vcg(inst)
    assert out.payments == (0.0,)
    assert out.declared_welfare == pytest.approx(2.0)


def test_indirect_vcg_pivot_payment():
    inst = t10_instance()
    out = run_indirect_vcg(inst, profile((2.5, 2.5), (2.5, 2.5)))
    # Both displayed at 2.5; dropping either leaves the other's value
    # unchanged, so the externalities are zero.
    assert out.allocation.p_min == 2.5
    assert out.payments == (pytest.approx(0.0), pytest.approx(0.0))


def test_indirect_vcg_charges_displaced_value():
    agents = (
        (AgentType(1.0, 0.0), PriceThresholdQuality(threshold=5.0)),
        (AgentType(1.0, 0.0), PriceThresholdQuality(threshold=5.0)),
    )
    inst = AuctionInstance(agents, SlotProfile((1.0,)), (1.0, 2.0))
    out = run_indirect_vcg(inst, profile((2.0, 1.5), (2.0, 0.9)))
    assert out.allocation.slot_agents == (0,)
    # Winner displaces the loser's 0.9.
    assert out.payments[0] == pytest.approx(0.9)


def test_gsp_degenerate_second_price():
    # One slot, price-insensitive qualities: plain second-price auction.
    agents = (
        (AgentType(1.0, 0.0), PriceThresholdQuality(threshold=5.0)),
        (AgentType(1.0, 0.0), PriceThresholdQuality(threshold=5.0)),
    )
    inst = AuctionInstance(agents, SlotProfile((1.0,)), (1.0, 2.0))
    out = run_indirect_gsp(inst, profile((2.0, 1.5), (2.0, 0.9)))
    assert out.allocation.slot_agents == (0,)
    assert out.payments[0] == pytest.approx(0.9)
    # With one slot and equal prices, GSP and VCG payments coincide.
    vcg = run_indirect_vcg(inst, profile((2.0, 1.5), (2.0, 0.9)))
    assert out.payments == vcg.payments


def test_gsp_next_slot_payments():
    agents = tuple(
        (AgentType(1.0, 0.0), PriceThresholdQuality(threshold=5.0))
        for _ in range(3))
    inst = AuctionInstance(agents, SlotProfile((1.0, 0.5)), (1.0, 2.0))
    out = run_indirect_gsp(inst, profile((2.0, 1.0), (2.0, 0.6), (2.0, 0.4)))
    assert out.allocation.slot_agents == (0, 1)
    # Slot 1 pays the next occupant's weighted value; slot 2 pays the
    # best unassigned one.
    assert out.payments[0] == pytest.approx(1.0 * 0.6)
    assert out.payments[1] == pytest.approx(0.5 * 0.4)


def test_gsp_min_price_filter_keeps_ir():
    # Unassigned low-price ad: with the filter it cannot set the last
    # slot's payment; without it, the payment would exceed the slot value.
    agents = (
        (AgentType(1.0, 0.0), OnlyMinQuality()),
        (AgentType(1.0, 0.0), OnlyMinQuality()),
        (AgentType(1.0, 0.0), PriceThresholdQuality(threshold=1.0)),
    )
    inst = AuctionInstance(agents, SlotProfile((1.0, 1.0)), (1.0, 2.0))
    prof = profile((2.0, 1.0), (2.0, 1.0), (1.0, 1.5))
    filtered = run_indirect_gsp(inst, prof)
    assert filtered.allocation.slot_agents == (0, 1)
    assert filtered.payments[1] == 0.0
    # Agent 2 shows 1.0, below the page minimum 2.0.  Unfiltered, she
    # would set the last slot's price at her standalone weighted value.
    unfiltered = (inst.slots.prominences[1] * inst.quality(2).q(1.0, 1.0)
                  * prof[2].gain)
    v = declared_value(inst, filtered.allocation, 1, prof[1].gain)
    assert (unfiltered, v) == (1.5, 1.0)  # individual rationality broken


def test_gsp_zero_gain_display():
    agents = (
        (AgentType(1.0, 0.0), OnlyMinQuality(cap=2.5)),
        (AgentType(1.0, 0.0), HyperbolaQuality(1.0, 2.5, 0.1)),
    )
    inst = AuctionInstance(agents, SlotProfile((1.0, 1.0)), (1.0, 2.5))
    prof = profile((2.5, 2.5), (2.5, 0.0))
    without = run_indirect_gsp(inst, prof)
    assert without.allocation.slot_agents == (0,)
    assert without.payments[0] == pytest.approx(0.0)
    with_fill = run_indirect_gsp(inst, prof, allow_zero_gain=True)
    assert with_fill.allocation.slot_agents == (0, 1)
    # The filler bids zero, so nobody pays anything...
    assert with_fill.payments == (pytest.approx(0.0), pytest.approx(0.0))
    # ...but the page still earns her true value.
    assert with_fill.true_welfare == pytest.approx(2.5 + 0.1 * 2.5)


def test_infer_type_linear_diagonal():
    # Diagonal q(p, p) = 1 - p; truthful bid of (alpha, c) = (0.7, 0.2).
    q = SmoothDecayQuality(price_slope=1.0, gap_slope=0.0, intercept=1.0)
    p_star = q.standalone_price(0.7, 0.2)
    assert p_star == pytest.approx(0.6)
    p = 0.5
    b = 0.7 * (p - 0.2)
    it = infer_type(q, (b, p, p_star))
    assert it.c_hat == pytest.approx(0.2, abs=1e-9)
    assert it.alpha_hat == pytest.approx(0.7, abs=1e-9)
    assert not it.alpha_clamped


def test_infer_type_clamps_inconsistent_bids():
    q = SmoothDecayQuality(price_slope=1.0, intercept=1.0)
    it = infer_type(q, (5.0, 0.5, 0.6))  # bid far above any valid gain
    assert it.alpha_hat == 1.0
    assert it.alpha_clamped


def test_infer_type_zero_derivative_errors():
    q = PriceThresholdQuality(threshold=2.0)
    with pytest.raises(InferenceError):
        infer_type(q, (0.5, 1.0, 1.0))


def test_star_truthful_matches_direct_vcg():
    inst = smooth_instance(7)
    direct = run_direct_vcg(inst)
    star = run_indirect_vcg_star(inst, truthful_star_profile(inst))
    assert star.allocation.slot_agents == direct.allocation.slot_agents
    for a, b in zip(star.payments, direct.payments):
        assert a == pytest.approx(b, abs=1e-9)


def test_star_refuses_a_flat_diagonal_by_agent_and_kind():
    # Agent 0's cost is inferable; agent 1's only-min diagonal is flat at
    # her standalone price, so the mechanism refuses her truthful bid.
    agents = ((AgentType(1.0, 0.0), SmoothDecayQuality(0.4, 0.0, 1.0)),
              (AgentType(1.0, 0.5), OnlyMinQuality(cap=2.0)))
    inst = AuctionInstance(agents, SlotProfile((1.0,)), (1.0, 1.5, 2.0))
    with pytest.raises(InferenceError, match="agent 1: the only-min quality "
                       "is flat at its standalone price"):
        run_indirect_vcg_star(inst, truthful_star_profile(inst))


def test_star_requires_standalone_price():
    inst = smooth_instance(7)
    from price_display_auctions import AuctionError
    with pytest.raises(AuctionError):
        run_indirect_vcg_star(inst, profile(*(((1.0, 0.5),) * inst.n)))


def test_star_fallback_withholds_allocation():
    # The submitted prices waste so much welfare that the inferred
    # optimum without some agent beats the whole allocation: nothing is
    # shown and nobody pays.
    agents = (
        (AgentType(1.0, 0.0), SmoothDecayQuality(0.4, 0.0, 1.0)),
        (AgentType(1.0, 0.0), SmoothDecayQuality(0.4, 0.0, 1.0)),
    )
    inst = AuctionInstance(agents, SlotProfile((1.0,)), (0.5, 1.25, 2.0))
    p_star = agents[0][1].standalone_price(1.0, 0.0)
    # Truthful standalone prices, but a terrible submitted price and a
    # zero bid from the rival.
    prof = profile((2.0, 0.3, p_star), (2.0, 0.0, p_star))
    out = run_indirect_vcg_star(inst, prof)
    assert out.allocation.slot_agents == ()
    assert out.payments == (0.0, 0.0)
    assert any("fallback" in d for d in out.diagnostics)


def test_star_payments_clamped_to_declared_value():
    inst = smooth_instance(3)
    from price_display_auctions import random_profile
    for seed in range(20):
        prof = random_profile(inst, seed, with_standalone=True)
        try:
            out = run_indirect_vcg_star(inst, prof)
        except InferenceError:
            continue
        from price_display_auctions.model import declared_value
        for i in range(inst.n):
            v = declared_value(inst, out.allocation, i, prof[i].gain)
            assert -1e-12 <= out.payments[i] <= v + 1e-9


def test_run_mechanism_dispatch():
    inst = t10_instance()
    prof = profile((2.5, 2.5), (2.5, 2.5))
    direct = run_mechanism(inst, MechanismKind.DIRECT_VCG, None)
    assert direct.revenue == pytest.approx(0.75, abs=1e-9)
    ivcg = run_mechanism(inst, MechanismKind.INDIRECT_VCG, prof)
    assert ivcg.revenue == pytest.approx(0.0)
    gsp = run_mechanism(inst, MechanismKind.INDIRECT_GSP, prof)
    assert gsp.revenue == pytest.approx(0.25)


def _oracle_payments(instance, out, gains, welfare_without):
    """Pivot payments rebuilt from the exhaustive oracle: each agent the
    outcome assigns pays the oracle's best welfare without her, minus the
    oracle's optimum less her declared value in the outcome."""
    payments = [0.0] * instance.n
    for i in out.allocation.slot_agents:
        v_hat = declared_value(instance, out.allocation, i, gains[i])
        payments[i] = max(0.0, welfare_without(frozenset({i}))
                          - (welfare_without(frozenset()) - v_hat))
    return payments


def test_direct_vcg_payments_match_oracle():
    for seed in range(40):
        inst = random_instance(seed, max_agents=5, max_slots=3, max_prices=4)
        reported = [inst.atype(i) for i in range(inst.n)]
        out = run_direct_vcg(inst)
        gains = [t.gain(out.allocation.price_of(i) or 0.0)
                 for i, t in enumerate(reported)]
        expected = _oracle_payments(
            inst, out, gains,
            lambda ex: brute_force_allocate(inst, reported, "direct",
                                            exclude=ex).declared_welfare)
        assert out.payments == pytest.approx(expected, abs=1e-9), seed


def test_indirect_vcg_payments_match_oracle():
    for seed in range(300):
        inst = random_instance(seed, max_agents=6, max_slots=4, max_prices=6)
        prof = random_profile(inst, seed)
        out = run_indirect_vcg(inst, prof)
        expected = _oracle_payments(
            inst, out, prof.gains,
            lambda ex: declared_welfare(
                inst, brute_force_allocate(inst, prof, "indirect", exclude=ex),
                prof.gains))
        assert out.payments == pytest.approx(expected, abs=1e-9), seed


def test_outcome_welfare_is_declared_welfare_exactly():
    # The welfare a search maximizes is the welfare that prices its
    # outcome: every mechanism's declared welfare equals the model's,
    # recomputed from the allocation, bit for bit.
    for seed in range(3000):
        inst = random_instance(seed, max_agents=6, max_slots=4, max_prices=6)
        prof = random_profile(inst, seed)
        direct = run_direct_vcg(inst)
        for out, gains in ((direct, truthful_gains(inst, direct.allocation)),
                           (run_indirect_vcg(inst, prof), prof.gains),
                           (run_indirect_gsp(inst, prof), prof.gains)):
            assert out.declared_welfare == declared_welfare(
                inst, out.allocation, gains), seed


def test_direct_vcg_pivots_add_no_quality_evaluations(count_q_calls):
    # The pivots reuse the optimum's search table and its welfare, each
    # payer's declared value (the v_hat of the payment rule) is her search
    # entry's weight, and her true value reads the q her entry carries: a
    # whole run costs direct_pivots' evaluations and no more.
    agents = tuple(
        (AgentType(1.0, 0.05 * i), SmoothDecayQuality(0.2, 0.1, 1.0))
        for i in range(8))
    inst = AuctionInstance(agents, SlotProfile((1.0, 0.8, 0.6)),
                           (0.5, 0.9, 1.3, 1.7, 2.1))
    reported = [inst.atype(i) for i in range(inst.n)]
    with count_q_calls() as calls:
        direct_pivots(inst, reported)
    search = calls()
    with count_q_calls() as calls:
        out = run_direct_vcg(inst)
    assert len(out.allocation.slot_agents) == 3
    assert calls() == search


def test_direct_vcg_quality_evaluations_are_pinned(count_q_calls):
    # A work budget that a noisy host still shows.  On README's seeded
    # n=30, m=5, 8-price instance a run costs the direct table's 487
    # evaluations plus the row solves' re-scorings at a page's actual
    # minimum: 180 over the optimum and its five pivots.
    inst = random_instance(238, max_agents=30, max_slots=5, max_prices=8)
    assert (inst.n, inst.m, len(inst.price_grid)) == (30, 5, 8)
    with count_q_calls() as calls:
        out = run_direct_vcg(inst)
    assert len(out.allocation.slot_agents) == 5
    assert calls() == 487 + 180


def _counting_instance():
    agents = tuple(
        (AgentType(1.0, 0.05 * i), SmoothDecayQuality(0.2, 0.1, 1.0))
        for i in range(24))
    return AuctionInstance(agents, SlotProfile((1.0, 0.8, 0.6)),
                           (0.5, 0.9, 1.3, 1.7, 2.1))


def test_indirect_vcg_pivots_add_few_quality_evaluations(count_q_calls):
    # The pivots reuse the optimum's search table, the payments price from
    # the search's own welfare and entry weights, and each payer's true
    # value reads the q her entry carries: a whole run costs
    # indirect_pivots' evaluations and no more.  Neither the optimum nor
    # any pivot allocation is re-scored.
    inst = _counting_instance()
    prof = random_profile(inst, 1)
    with count_q_calls() as calls:
        _, entries, _ = indirect_pivots(inst, prof)
    search = calls()
    with count_q_calls() as calls:
        out = run_indirect_vcg(inst, prof)
    assert out.allocation == _allocation_from(entries)
    assert len(entries) == 3
    assert (search, calls()) == (43, 43)


def test_indirect_gsp_adds_few_quality_evaluations(count_q_calls):
    # GSP prices each slot from the next occupant's search weight and the
    # last slot from the best agent left out in the search's own table at
    # the page minimum, and each displayed agent's true value reads the q
    # her entry carries, so a run costs the search's evaluations and no
    # more.
    inst = _counting_instance()
    prof = random_profile(inst, 1)
    with count_q_calls() as calls:
        alloc = indirect_allocate(inst, prof)
    search = calls()
    with count_q_calls() as calls:
        out = run_indirect_gsp(inst, prof)
    assert out.allocation == alloc
    assert len(alloc.slot_agents) == 3
    assert (search, calls()) == (34, 34)


@st.composite
def guarded_auctions(draw, max_agents, max_slots, max_prices):
    """An instance within the given sizes: round grid prices, types and
    prominences (so that welfare ties occur), qualities from the package
    sampler on a drawn seed, and an optional shuffled tie-break."""
    grid = tuple(sorted(draw(st.sets(
        st.sampled_from((0.5, 0.8, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0)),
        min_size=1, max_size=max_prices))))
    m = draw(st.integers(1, max_slots))
    prominences = sorted(draw(st.lists(st.sampled_from((0.3, 0.5, 0.8, 1.0)),
                                       min_size=m, max_size=m)), reverse=True)
    n = draw(st.integers(1, max_agents))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    agents = tuple(
        (AgentType(draw(st.sampled_from((0.5, 1.0))),
                   draw(st.sampled_from((0.0, 0.25, 0.5)))),
         _random_quality(rng, grid, SAMPLED_QUALITY_KINDS))
        for _ in range(n))
    order = draw(st.none() | st.permutations(range(n)))
    return AuctionInstance(agents, SlotProfile(tuple(prominences)), grid,
                           None if order is None else tuple(order))


def _bids(inst):
    return st.lists(
        st.builds(Strategy, st.sampled_from(inst.price_grid),
                  st.sampled_from((-0.5, 0.0, 0.3, 0.5, 1.0, 2.0))),
        min_size=inst.n, max_size=inst.n).map(
            lambda s: StrategyProfile(tuple(s)))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data())
def test_indirect_vcg_payments_match_oracle_property(data):
    inst = data.draw(guarded_auctions(6, 4, 6))
    prof = data.draw(_bids(inst))
    out = run_indirect_vcg(inst, prof)
    expected = _oracle_payments(
        inst, out, prof.gains,
        lambda ex: declared_welfare(
            inst, brute_force_allocate(inst, prof, "indirect", exclude=ex),
            prof.gains))
    assert out.payments == pytest.approx(expected, abs=1e-9)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(inst=guarded_auctions(4, 3, 4))
def test_direct_vcg_payments_match_oracle_property(inst):
    reported = [inst.atype(i) for i in range(inst.n)]
    out = run_direct_vcg(inst)
    gains = [t.gain(out.allocation.price_of(i) or 0.0)
             for i, t in enumerate(reported)]
    expected = _oracle_payments(
        inst, out, gains,
        lambda ex: brute_force_allocate(inst, reported, "direct",
                                        exclude=ex).declared_welfare)
    assert out.payments == pytest.approx(expected, abs=1e-9)


def test_direct_vcg_refuses_overflowing_welfare():
    # Each agent's value is a finite 1.7e308, their sum is not.
    agents = ((AgentType(1.0, 0.0), PriceThresholdQuality(1.7e308)),) * 2
    inst = AuctionInstance(agents, SlotProfile((1.0, 1.0)), (1e308, 1.7e308))
    with pytest.raises(AuctionError, match="not finite"):
        run_direct_vcg(inst)


# Round numbers and finite floats near the float maximum, where welfare
# sums can overflow.
SMALL_OR_HUGE = st.sampled_from((0.5, 1.0, 2.0)) | st.floats(
    1e307, sys.float_info.max)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data())
def test_mechanisms_near_float_max_return_finite_outcomes(data):
    grid = tuple(sorted(data.draw(st.sets(SMALL_OR_HUGE, min_size=1,
                                          max_size=3))))
    qualities = (st.builds(PriceThresholdQuality, SMALL_OR_HUGE)
                 | st.just(OnlyMinQuality())
                 | st.just(SmoothDecayQuality(0.2, 0.1, 1.0)))
    n = data.draw(st.integers(1, 3))
    agents = tuple((AgentType(data.draw(st.sampled_from((0.5, 1.0))),
                              data.draw(st.sampled_from((0.0, 0.25)))),
                    data.draw(qualities)) for _ in range(n))
    m = data.draw(st.integers(1, 2))
    inst = AuctionInstance(agents, SlotProfile((1.0,) * m), grid)
    prof = StrategyProfile(tuple(
        Strategy(data.draw(st.sampled_from(grid)), data.draw(SMALL_OR_HUGE),
                 data.draw(SMALL_OR_HUGE)) for _ in range(n)))
    types = [inst.atype(i) for i in range(n)]
    for kind in MechanismKind:
        bids = types if kind is MechanismKind.DIRECT_VCG else prof
        try:
            out = run_mechanism(inst, kind, bids)
        except AuctionError:
            continue
        terms = (out.declared_welfare, out.true_welfare, *out.payments)
        assert all(map(math.isfinite, terms)), (kind, terms)
