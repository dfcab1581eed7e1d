"""Equilibrium engine: spaces, Nash checks, enumeration, ratios."""

import itertools
import math

import pytest

from price_display_auctions import (
    AgentType,
    AuctionError,
    AuctionInstance,
    GuardExceededError,
    MechanismKind,
    OnlyMinQuality,
    PriceThresholdQuality,
    SlotProfile,
    Strategy,
    StrategyProfile,
    StrategySpace,
    efficiency_report,
    enumerate_pure_nash,
    is_nash,
    profile,
    random_instance,
    run_mechanism,
    smooth_instance,
    truthful_direct_profile,
    truthful_star_profile,
)
from price_display_auctions.equilibrium import ENUMERATION_GUARD, _payoffs
from price_display_auctions.model import true_value

VCG = MechanismKind.INDIRECT_VCG


def second_price_instance():
    agents = (
        (AgentType(1.0, 0.0), PriceThresholdQuality(threshold=5.0)),
        (AgentType(1.0, 0.5), PriceThresholdQuality(threshold=5.0)),
    )
    return AuctionInstance(agents, SlotProfile((1.0,)), (1.0, 2.0))


def test_space_build_levels_and_pruning():
    inst = second_price_instance()
    space = StrategySpace.build(inst, gain_levels=(0.0, 0.5, 1.0))
    # Agent 0 at price 2 has truthful gain 2: menu {0, 1, 2}.
    opts = {(s.price, s.gain) for s in space.options[0]}
    assert (2.0, 2.0) in opts and (2.0, 1.0) in opts and (2.0, 0.0) in opts
    # No overbidding: nothing above the truthful cap.
    for i in range(inst.n):
        for s in space.options[i]:
            assert s.gain <= inst.atype(i).gain(s.price) + 1e-9
    bigger = StrategySpace.build(inst, overbidding=True, extra_gains=(9.0,))
    assert any(s.gain == 9.0 for s in bigger.options[1])
    assert space.size == len(space.options[0]) * len(space.options[1])


def test_is_nash_witness():
    inst = second_price_instance()
    space = StrategySpace.build(inst, gain_levels=(0.0, 1.0))
    ok, witness = is_nash(inst, VCG, space, profile((2.0, 2.0), (2.0, 0.0)))
    assert ok and witness is None
    ok, witness = is_nash(inst, VCG, space, profile((2.0, 0.0), (2.0, 1.5)))
    assert not ok
    agent, strategy, gain = witness
    assert agent == 0
    assert gain == pytest.approx(0.5)


def test_enumeration_against_hand_check():
    """Cross-check enumerate_pure_nash against a from-scratch double loop."""
    inst = second_price_instance()
    space = StrategySpace.build(inst, prices=(2.0,), gain_levels=(0.0, 1.0))
    found = enumerate_pure_nash(inst, VCG, space)

    def utility(prof, i):
        out = run_mechanism(inst, VCG, prof)
        return out.utility(inst, i)

    expected = []
    import itertools
    for combo in itertools.product(*space.options):
        prof = StrategyProfile(combo)
        nash = True
        for i in range(inst.n):
            base = utility(prof, i)
            for s in space.options[i]:
                if utility(prof.replace(i, s), i) > base + 1e-9:
                    nash = False
        if nash:
            expected.append(tuple((s.price, s.gain) for s in combo))
    got = [tuple((s.price, s.gain) for s in prof.strategies) for prof in found]
    assert got == expected
    assert len(got) >= 1


def test_enumeration_guard(count_q_calls):
    # 41 gain levels at each of 2 prices: 82 strategies per agent and
    # 82**4 = 45,212,176 joint profiles, refused before any profile runs.
    inst = random_instance(1, max_agents=4)
    space = StrategySpace.build(inst, gain_levels=[k / 40 for k in range(41)])
    assert space.size == 45_212_176 > ENUMERATION_GUARD
    with count_q_calls() as calls, pytest.raises(GuardExceededError):
        enumerate_pure_nash(inst, VCG, space)
    assert calls() == 0


def test_efficiency_report_ratios():
    agents = tuple((AgentType(1.0, 0.0), OnlyMinQuality(cap=1.0))
                   for _ in range(3))
    inst = AuctionInstance(agents, SlotProfile((1.0, 1.0)), (0.5, 0.75, 1.0))
    space = StrategySpace.build(inst, gain_levels=(0.0, 0.5, 1.0))
    report = efficiency_report(inst, VCG, space)
    assert report.benchmark_sw == pytest.approx(2.0)
    # The all-at-0.5 equilibrium earns 1.0; the best equilibria reach 2.0.
    assert report.poa_sw == pytest.approx(2.0, abs=1e-9)
    assert report.pos_sw == pytest.approx(1.0, abs=1e-9)
    assert report.grid_resolution == pytest.approx(0.25)
    assert any("direct VCG" in note for note in report.notes)


def test_report_infinite_revenue_ratio():
    # Direct revenue positive, every equilibrium revenue zero.
    agents = (
        (AgentType(1.0, 0.0), OnlyMinQuality(cap=2.5)),
        (AgentType(1.0, 0.0), PriceThresholdQuality(threshold=1.0)),
    )
    inst = AuctionInstance(agents, SlotProfile((1.0,)), (1.0, 1.75, 2.5))
    space = StrategySpace.build(inst, gain_levels=(0.0, 0.5, 1.0))
    report = efficiency_report(inst, MechanismKind.INDIRECT_GSP, space)
    assert report.benchmark_rev == pytest.approx(1.0)
    assert math.isinf(report.pos_rev)


def test_singleton_space_is_trivially_nash():
    inst = second_price_instance()
    space = StrategySpace(((Strategy(2.0, 2.0),), (Strategy(2.0, 1.5),)))
    report = efficiency_report(inst, VCG, space)
    assert len(report.equilibria) == 1
    assert report.outcomes[0].revenue == pytest.approx(1.5)


def test_truthful_direct_profile_structure():
    inst = random_instance(11)
    prof = truthful_direct_profile(inst)
    from price_display_auctions import run_direct_vcg
    direct = run_direct_vcg(inst)
    for i in range(inst.n):
        p = direct.allocation.price_of(i)
        if p is None:
            assert prof[i] == Strategy(0.0, 0.0)
        else:
            assert prof[i].price == p
            assert prof[i].gain == pytest.approx(inst.atype(i).gain(p))


def _plain_nash(inst, kind, space, allow_zero_gain):
    """Reference enumeration: run every profile once, then look up every
    unilateral deviation in a dict.  Shares no code with the engine."""
    import itertools
    from price_display_auctions.equilibrium import NASH_TOL
    utilities = {
        combo: run_mechanism(inst, kind, StrategyProfile(combo),
                             gsp_allow_zero_gain=allow_zero_gain
                             ).utilities(inst)
        for combo in itertools.product(*space.options)}
    found = []
    for combo, u in utilities.items():
        stable = True
        for i, menu in enumerate(space.options):
            for s in menu:
                deviation = combo[:i] + (s,) + combo[i + 1:]
                if utilities[deviation][i] > u[i] + NASH_TOL:
                    stable = False
        if stable:
            found.append(StrategyProfile(combo))
    return found


def _differential_spaces(inst):
    plain = StrategySpace.build(inst, gain_levels=(0.0, 0.5, 1.0))
    # Agent 0 keeps only its first strategy: a menu of size 1.
    single = StrategySpace((plain.options[0][:1],) + plain.options[1:])
    over = StrategySpace.build(inst, gain_levels=(0.0, 1.0), overbidding=True,
                               extra_gains=(2.5,))
    # Agent 0 has no strategy at all: the game has no profile.
    empty = StrategySpace(((),) + plain.options[1:])
    return {"plain": plain, "single": single, "overbidding": over,
            "empty": empty}


def _differential_instances():
    """Seeded games with n = 2-3, m = 1-2, 2-4 grid prices and mixed
    quality kinds."""
    out = {2: [], 3: []}
    seed = 0
    while min(len(group) for group in out.values()) < 4:
        inst = random_instance(seed, max_agents=3, max_slots=2, max_prices=4)
        seed += 1
        if inst.n in out and len(out[inst.n]) < 4:
            out[inst.n].append(inst)
    return out[2] + out[3]


@pytest.mark.parametrize("kind,allow_zero_gain", [
    (VCG, False),
    (MechanismKind.INDIRECT_GSP, False),
    (MechanismKind.INDIRECT_GSP, True),
])
def test_engine_matches_plain_enumeration(kind, allow_zero_gain):
    kinds_seen = set()
    for inst in _differential_instances():
        kinds_seen.update(inst.quality(i).kind for i in range(inst.n))
        for name, space in _differential_spaces(inst).items():
            want = _plain_nash(inst, kind, space, allow_zero_gain)
            got = enumerate_pure_nash(inst, kind, space,
                                      gsp_allow_zero_gain=allow_zero_gain)
            assert got == want, name
            report = efficiency_report(inst, kind, space,
                                       gsp_allow_zero_gain=allow_zero_gain)
            assert list(report.equilibria) == want, name
            for eq, outcome in zip(report.equilibria, report.outcomes):
                assert outcome == run_mechanism(
                    inst, kind, eq, gsp_allow_zero_gain=allow_zero_gain)
            assert len(report.outcomes) == len(report.equilibria)
    assert len(kinds_seen) >= 3


def test_enumeration_of_an_empty_menu_finds_nothing():
    inst = second_price_instance()
    space = StrategySpace(((), (Strategy(2.0, 1.5),)))
    assert enumerate_pure_nash(inst, VCG, space) == []


@pytest.mark.parametrize("kind,allow_zero_gain", [
    (VCG, False),
    (MechanismKind.INDIRECT_GSP, False),
    (MechanismKind.INDIRECT_GSP, True),
])
def test_engine_utilities_equal_the_outcomes_exactly(kind, allow_zero_gain):
    # The engine never builds an Outcome per profile; the utility row it
    # uses must still be the outcome's, and true value less payment, bit
    # for bit.
    for inst in _differential_instances():
        payoff = _payoffs(inst, kind, allow_zero_gain)
        for name, space in _differential_spaces(inst).items():
            for combo in itertools.product(*space.options):
                prof = StrategyProfile(combo)
                row = payoff(prof)
                out = run_mechanism(inst, kind, prof,
                                    gsp_allow_zero_gain=allow_zero_gain)
                assert row == out.utilities(inst), name
                assert row == tuple(
                    true_value(inst, out.allocation, i) - out.payments[i]
                    for i in range(inst.n)), name


@pytest.mark.parametrize("kind", [
    MechanismKind.DIRECT_VCG, MechanismKind.INDIRECT_VCG_STAR])
def test_engine_refuses_mechanisms_without_strategy_menus(kind):
    inst = second_price_instance()
    space = StrategySpace.build(inst, gain_levels=(0.0, 1.0))
    prof = profile((2.0, 2.0), (2.0, 0.0))
    message = ("direct-vcg" if kind is MechanismKind.DIRECT_VCG
               else "standalone price")
    for analyse in (lambda: enumerate_pure_nash(inst, kind, space),
                    lambda: is_nash(inst, kind, space, prof),
                    lambda: efficiency_report(inst, kind, space)):
        with pytest.raises(AuctionError, match=message):
            analyse()


def test_starred_mechanism_enumerates_menus_with_standalone_prices():
    inst = smooth_instance(2)
    truthful = truthful_star_profile(inst)
    space = StrategySpace(tuple(
        (s, Strategy(s.price, 0.5 * s.gain, s.standalone_price))
        for s in truthful.strategies))
    star = MechanismKind.INDIRECT_VCG_STAR
    want = _plain_nash(inst, star, space, False)
    assert want
    assert enumerate_pure_nash(inst, star, space) == want
    assert all(is_nash(inst, star, space, eq)[0] for eq in want)


def test_enumeration_quality_evaluations_are_pinned(count_q_calls):
    # Per profile, the engine makes the mechanism's own evaluations (its
    # search) plus one true value per displayed agent.  Re-scoring the
    # optimum, building an Outcome per profile or scoring GSP's last-slot
    # rivals would raise these counts.
    inst = random_instance(22, max_agents=3, max_slots=2, max_prices=4)
    space = StrategySpace.build(inst, gain_levels=(0.0, 0.5, 1.0))
    counts = []
    for kind in (VCG, MechanismKind.INDIRECT_GSP):
        with count_q_calls() as calls:
            enumerate_pure_nash(inst, kind, space)
        counts.append(calls())
    assert (inst.n, inst.m, space.size) == (3, 2, 216)
    assert counts == [927, 904]
