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
    TabulatedQuality,
    efficiency_report,
    enumerate_pure_nash,
    is_nash,
    profile,
    run_mechanism,
    truthful_star_profile,
)
from price_display_auctions import allocation, equilibrium, mechanisms
from price_display_auctions.equilibrium import (
    ENUMERATION_GUARD,
    NASH_TOL,
    _menu_classes,
)
from price_display_auctions.model import true_value
from sampling import (
    random_instance,
    replace_strategy,
    smooth_instance,
    truthful_direct_profile,
)

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
        return out.utilities(inst)[i]

    expected = []
    import itertools
    for combo in itertools.product(*space.options):
        prof = StrategyProfile(combo)
        nash = True
        for i in range(inst.n):
            base = utility(prof, i)
            for s in space.options[i]:
                if utility(replace_strategy(prof, i, s), i) > base + 1e-9:
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


def test_report_ratios_are_one_when_nothing_can_be_earned():
    # Both costs exceed every grid price: the benchmarks and every
    # equilibrium earn nothing, and 0 / 0 reads as no loss.
    agents = ((AgentType(1.0, 5.0), OnlyMinQuality()),) * 2
    inst = AuctionInstance(agents, SlotProfile((1.0,)), (1.0, 2.0))
    space = StrategySpace.build(inst, gain_levels=(0.0, 0.5, 1.0))
    report = efficiency_report(inst, VCG, space)
    assert len(report.equilibria) == 4
    assert (report.benchmark_sw, report.benchmark_rev) == (0.0, 0.0)
    assert (report.poa_sw, report.pos_sw, report.poa_rev,
            report.pos_rev) == (1.0, 1.0, 1.0, 1.0)


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


def _line_games():
    """The differential games, a one-agent game, whose walk has no other
    agent, and a 4-agent game whose collapsed menus hold different price
    sets: agent 3's lacks 0.147, which agent 0 bids, so a line agent
    scored only at her own menu's prices misses rows."""
    games = [(inst, space) for inst in _differential_instances()
             for space in _differential_spaces(inst).values()]
    inst = random_instance(5, max_agents=1, max_slots=2, max_prices=4)
    assert (inst.n, len(inst.price_grid)) == (1, 4)
    games.append((inst, StrategySpace.build(inst,
                                            gain_levels=(0.0, 0.5, 1.0))))
    inst = random_instance(145, max_agents=4, max_prices=4)
    space = StrategySpace.build(inst, gain_levels=(0.0, 0.5, 1.0))
    classes = _menu_classes(inst, VCG, space.options, False)
    assert 0.147 in {s.price for s in space.options[0]}
    assert 0.147 not in {space.options[3][stands_for[0]].price
                         for stands_for in classes[3]}
    games.append((inst, space))
    return games


STAR = MechanismKind.INDIRECT_VCG_STAR


def _star_game(seed):
    """A smooth instance whose agents each choose between the truthful
    starred bid and the same bid at half the gain, with its standalone
    price: a game the starred mechanism can run."""
    inst = smooth_instance(seed)
    truthful = truthful_star_profile(inst)
    return inst, StrategySpace(tuple(
        (s, Strategy(s.price, 0.5 * s.gain, s.standalone_price))
        for s in truthful.strategies))


def _walk_games(kind):
    """The games that the walk tests enumerate under ``kind``: the
    starred mechanism's hold one to four agents."""
    if kind is STAR:
        return [_star_game(seed) for seed in range(12)]
    return _line_games()


@pytest.mark.parametrize("kind,allow_zero_gain", [
    (VCG, False),
    (MechanismKind.INDIRECT_GSP, False),
    (MechanismKind.INDIRECT_GSP, True),
    (STAR, False),
])
def test_engine_utilities_equal_the_outcomes_exactly(
        monkeypatch, kind, allow_zero_gain):
    # The engine and is_nash never build an Outcome per profile, nor a
    # profile's table from scratch: they walk lines, merging the line
    # agent's bid into the other agents' rows.  Every utility row of every
    # line they walk must still be the outcome's, and true value less
    # payment, bit for bit.
    walk = equilibrium._lines
    checked = 0

    def checked_lines(inst, kind, allow_zero_gain, agent, strategies,
                      cands):
        line = walk(inst, kind, allow_zero_gain, agent, strategies, cands)

        def checked_line(start):
            nonlocal checked
            for s, row in zip(strategies, line(start)):
                prof = replace_strategy(StrategyProfile(start), agent, s)
                if prof not in wanted:
                    out = run_mechanism(inst, kind, prof,
                                        gsp_allow_zero_gain=allow_zero_gain)
                    wanted[prof] = (out.utilities(inst), tuple(
                        true_value(inst, out.allocation, i) - out.payments[i]
                        for i in range(inst.n)))
                assert wanted[prof] == (row, row), (agent, prof)
                checked += 1
                yield row
        return checked_line

    monkeypatch.setattr(equilibrium, "_lines", checked_lines)
    for inst, space in _walk_games(kind):
        wanted: dict = {}
        enumerate_pure_nash(inst, kind, space,
                            gsp_allow_zero_gain=allow_zero_gain)
        for combo in list(itertools.product(*space.options))[::7]:
            is_nash(inst, kind, space, StrategyProfile(combo),
                    gsp_allow_zero_gain=allow_zero_gain)
    assert checked > (150 if kind is STAR else 10_000)


@pytest.mark.parametrize("kind,allow_zero_gain", [
    (VCG, False),
    (MechanismKind.INDIRECT_GSP, False),
    (MechanismKind.INDIRECT_GSP, True),
    (STAR, False),
])
def test_walk_tables_are_the_profiles_own_tables(
        monkeypatch, kind, allow_zero_gain):
    # A walk merges each profile's table: the line agent's bid into the
    # other agents' rows, which are agent j's bid merged into the rest's
    # rows, built at every price the walk can hold and cut to the
    # profile's candidates.  Every table it hands the mechanism's core
    # must be the profile's own, exactly: an extra row, or a row that
    # misses a bid, can leave every utility as it is.  The games hold one
    # agent (no j), two (no rest) and more, with one menu of size 1.
    build = allocation._indirect_table
    name = {VCG: "_indirect_pivots", STAR: "_vcg_star"}.get(kind,
                                                           "_indirect_gsp")
    core = getattr(mechanisms, name)
    checked = 0

    def checked_core(instance, strategies, table, *args):
        nonlocal checked
        assert table == build(instance, enumerate(strategies)), strategies
        checked += 1
        return core(instance, strategies, table, *args)

    monkeypatch.setattr(mechanisms, name, checked_core)
    games = _walk_games(kind)
    assert {inst.n for inst, _ in games} == {1, 2, 3, 4}
    for inst, space in games:
        enumerate_pure_nash(inst, kind, space,
                            gsp_allow_zero_gain=allow_zero_gain)
        for combo in list(itertools.product(*space.options))[::7]:
            is_nash(inst, kind, space, StrategyProfile(combo),
                    gsp_allow_zero_gain=allow_zero_gain)
    assert checked > (150 if kind is STAR else 10_000)


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
    inst, space = _star_game(2)
    want = _plain_nash(inst, STAR, space, False)
    assert want
    assert enumerate_pure_nash(inst, STAR, space) == want
    assert all(is_nash(inst, STAR, space, eq)[0] for eq in want)


def test_enumeration_quality_evaluations_are_pinned(count_q_calls):
    # Per game, the engine scores each strategy of the line agent and of
    # agent j, the other agent whose strategy changes on every line; per
    # change of the rest's strategies, their rows; per profile, only the
    # solves' re-scoring.  A true value reads the q its search entry
    # carries, so it costs no evaluation.  Building each profile's table,
    # re-scoring the optimum or a true value, building an Outcome per
    # profile or scoring GSP's last-slot rivals would raise these counts.
    inst = random_instance(22, max_agents=3, max_slots=2, max_prices=4)
    space = StrategySpace.build(inst, gain_levels=(0.0, 0.5, 1.0))
    counts = []
    for kind in (VCG, MechanismKind.INDIRECT_GSP):
        with count_q_calls() as calls:
            enumerate_pure_nash(inst, kind, space)
        counts.append(calls())
    assert (inst.n, inst.m, space.size) == (3, 2, 216)
    assert counts == [32, 32]


def test_efficiency_report_runs_once_per_collapsed_equilibrium(monkeypatch):
    # Six VCG equilibria, which differ only in which zero-gain bid (a
    # non-participant) some agent submits, collapse to three: the report
    # runs the mechanism once for each and lists every equilibrium with
    # its class's outcome.
    inst = random_instance(22, max_agents=3, max_slots=2, max_prices=4)
    space = StrategySpace.build(inst, gain_levels=(0.0, 0.5, 1.0))
    runs = []

    def counted(*args, **kwargs):
        runs.append(args[2])
        return run_mechanism(*args, **kwargs)

    monkeypatch.setattr(equilibrium, "run_mechanism", counted)
    report = efficiency_report(inst, VCG, space)
    menus = _menu_classes(inst, VCG, space.options, False)

    def collapsed(eq):
        return tuple(next(k for k, stands_for in enumerate(classes)
                          if options.index(s) in stands_for)
                     for s, options, classes
                     in zip(eq.strategies, space.options, menus))

    classes = {collapsed(eq) for eq in report.equilibria}
    assert (len(report.equilibria), len(classes)) == (6, 3)
    assert sorted(map(collapsed, runs)) == sorted(classes)
    for eq, outcome in zip(report.equilibria, report.outcomes):
        assert outcome == run_mechanism(inst, VCG, eq)


def _collapse_edge_games():
    """Hand-built games at the edges of the engine's collapse of
    non-participating strategies: (name, instance, space, kind, zero fill).
    """
    one = SlotProfile((1.0,))
    # (a) Agent 0's row at price 2 dips inside the table's 1e-12 slack:
    # q(2, 2) = 0 but q(2, 1) = 5e-13, so her overbid (2, 2e12) weighs
    # 1.0 at page minimum 1, where re-scoring at her own price leaves
    # nothing to show.  It shuts agent 1 out, as no zero-gain bid does.
    dip = TabulatedQuality((1.0, 2.0), (1.0, 2.0), ((1.0, 1.0), (5e-13, 0.0)))
    dip_game = AuctionInstance(
        ((AgentType(1.0, 0.0), dip),
         (AgentType(1.0, 0.0), PriceThresholdQuality(5.0))),
        one, (1.0, 2.0))
    dip_space = StrategySpace((
        (Strategy(1.0, 1.0), Strategy(1.0, 0.0), Strategy(2.0, 2e12),
         Strategy(2.0, 0.0)),
        (Strategy(1.0, 0.0), Strategy(1.0, 0.5), Strategy(2.0, 1.0),
         Strategy(2.0, 0.0))))
    # (b) Zero-gain bids that the zero-gain fill shows, beside agent 0's
    # negative truthful gain at price 1 (her cost is 1.5).
    fill_game = AuctionInstance(
        ((AgentType(1.0, 1.5), OnlyMinQuality()),
         (AgentType(1.0, 0.0), PriceThresholdQuality(threshold=1.5))),
        SlotProfile((1.0, 0.5)), (1.0, 2.0))
    fill_space = StrategySpace.build(fill_game, gain_levels=(0.0, 1.0))
    # (c) Agent 0 can never be shown: her whole menu collapses.
    idle_space = StrategySpace((
        (Strategy(1.0, 0.0), Strategy(2.0, 0.0), Strategy(2.0, -1.0)),
        StrategySpace.build(second_price_instance()).options[1]))
    # (d) Agent 3's dead bid (1, 0) shares agent 0's price.  Without
    # agent 0, a solve that still tried page minimum 1 would pick agent 2
    # (0.5 * 1 < 1 - 1e-12 there), re-score her at 2 and keep her, 1e-12
    # short of agent 1's 1.0: agent 0's VCG payment would move with agent
    # 3's dead bid.
    shared_game = AuctionInstance(
        ((AgentType(1.0, 0.0), PriceThresholdQuality(5.0)),
         (AgentType(1.0, 0.0), TabulatedQuality(
             (1.0, 2.0), (1.0, 2.0), ((1.0, 1.0), (0.5, 1.0)))),
         (AgentType(1.0, 0.0), PriceThresholdQuality(5.0, 1.0 - 1e-12)),
         (AgentType(1.0, 0.0), OnlyMinQuality())),
        one, (1.0, 2.0, 3.0))
    shared_space = StrategySpace((
        (Strategy(1.0, 3.0), Strategy(1.0, 0.0)),
        (Strategy(2.0, 1.0),),
        (Strategy(2.0, 1.0),),
        (Strategy(1.0, 0.0), Strategy(3.0, 0.0), Strategy(3.0, -1.0))))
    # (e) Agent 0's zero-gain bid at 2 fits only page minimum 1 (her row
    # dips to 0 at 2).  Agent 2's dead bid at 1 must not let the zero-gain
    # fill of an empty page show agent 0 there in place of agent 1.
    fill_dip_game = AuctionInstance(
        ((AgentType(1.0, 0.0), dip), (AgentType(1.0, 0.0), OnlyMinQuality()),
         (AgentType(1.0, 0.0), OnlyMinQuality())),
        one, (1.0, 2.0, 3.0))
    fill_dip_space = StrategySpace((
        (Strategy(2.0, 0.0),),
        (Strategy(3.0, 0.0), Strategy(3.0, -1.0)),
        (Strategy(1.0, -1.0), Strategy(3.0, -1.0))))
    return [
        ("diagonal dip", dip_game, dip_space, VCG, False),
        ("zero-gain fill", fill_game, fill_space,
         MechanismKind.INDIRECT_GSP, True),
        ("no participant", second_price_instance(), idle_space, VCG, False),
        ("no participant gsp", second_price_instance(), idle_space,
         MechanismKind.INDIRECT_GSP, False),
        ("dead shares a live price", shared_game, shared_space, VCG, False),
        ("zero-gain fill below a dip", fill_dip_game, fill_dip_space,
         MechanismKind.INDIRECT_GSP, True),
    ]


@pytest.mark.parametrize("name,inst,space,kind,allow_zero_gain", [
    pytest.param(*game, id=game[0]) for game in _collapse_edge_games()])
def test_collapse_matches_plain_enumeration_on_edge_games(
        name, inst, space, kind, allow_zero_gain):
    want = _plain_nash(inst, kind, space, allow_zero_gain)
    assert enumerate_pure_nash(inst, kind, space,
                               gsp_allow_zero_gain=allow_zero_gain) == want
    report = efficiency_report(inst, kind, space,
                               gsp_allow_zero_gain=allow_zero_gain)
    assert list(report.equilibria) == want
    # The strategies of one class leave every outcome, payments included,
    # bit for bit the same.
    menus = _menu_classes(inst, kind, space.options, allow_zero_gain)
    assert any(len(stands_for) > 1 for classes in menus
               for stands_for in classes)
    for i, classes in enumerate(menus):
        for stands_for, combo in itertools.product(
                classes, itertools.product(*space.options)):
            prof = StrategyProfile(combo)
            outcomes = {run_mechanism(
                            inst, kind,
                            replace_strategy(prof, i, space.options[i][k]),
                            gsp_allow_zero_gain=allow_zero_gain)
                        for k in stands_for}
            assert len(outcomes) == 1, (i, combo)


def test_collapse_keeps_the_bids_it_must():
    games = {name: (inst, space) for name, inst, space, _, _
             in _collapse_edge_games()}
    dip_game, dip_space = games["diagonal dip"]
    fill_game, fill_space = games["zero-gain fill"]
    _, idle_space = games["no participant"]
    # (a) The overbid at price 2 has a zero diagonal and a positive peak.
    assert dip_game.quality(0).q(2.0, 2.0) == 0.0
    assert _menu_classes(dip_game, VCG, dip_space.options, False)[0] == \
        [[0], [1, 3], [2]]
    # (b) Under the zero-gain fill, zero gains with a positive peak stay.
    assert [(s.price, s.gain) for s in fill_space.options[0]] == \
        [(1.0, -0.5), (2.0, 0.0), (2.0, 0.5)]
    gsp = MechanismKind.INDIRECT_GSP
    assert _menu_classes(fill_game, gsp, fill_space.options, False)[0] == \
        [[0, 1], [2]]
    assert _menu_classes(fill_game, gsp, fill_space.options, True)[0] == \
        [[0], [1], [2]]
    # (c) A menu with no participant is one class.
    assert _menu_classes(second_price_instance(), VCG,
                         idle_space.options, False)[0] == [[0, 1, 2]]
    # The starred mechanism keeps every strategy alone.
    assert _menu_classes(dip_game, MechanismKind.INDIRECT_VCG_STAR,
                         dip_space.options, False)[0] == [[0], [1], [2], [3]]


def _whole_menu_witness(utilities, space, combo):
    """The first improving deviation from ``combo`` in a scan over every
    strategy of every menu, or None; ``utilities`` maps each profile to
    its utility row."""
    base = utilities[combo]
    for i, menu in enumerate(space.options):
        for s in menu:
            if s == combo[i]:
                continue
            u = utilities[combo[:i] + (s,) + combo[i + 1:]][i]
            if u > base[i] + NASH_TOL:
                return i, s, u - base[i]
    return None


@pytest.mark.parametrize("kind,allow_zero_gain", [
    (VCG, False),
    (MechanismKind.INDIRECT_GSP, False),
    (MechanismKind.INDIRECT_GSP, True),
])
def test_is_nash_witness_matches_the_whole_menu_scan(kind, allow_zero_gain):
    # On every 7th profile of each differential game.
    for inst in _differential_instances():
        for space in _differential_spaces(inst).values():
            combos = list(itertools.product(*space.options))
            utilities = {combo: run_mechanism(
                inst, kind, StrategyProfile(combo),
                gsp_allow_zero_gain=allow_zero_gain).utilities(inst)
                for combo in combos}
            for combo in combos[::7]:
                want = _whole_menu_witness(utilities, space, combo)
                got = is_nash(inst, kind, space, StrategyProfile(combo),
                              gsp_allow_zero_gain=allow_zero_gain)
                assert got == (want is None, want), combo


@pytest.mark.parametrize("kind,allow_zero_gain", [
    (VCG, False),
    (MechanismKind.INDIRECT_GSP, False),
    (MechanismKind.INDIRECT_GSP, True),
])
def test_is_nash_off_the_menus_matches_a_plain_scan(kind, allow_zero_gain):
    # Profiles where one or more agents bid a gain between two menu levels,
    # which no menu holds: the walk codes such a strategy like any other,
    # and it must key no pivot of another profile's.  The verdict and
    # witness must be a plain scan's, built from run_mechanism alone.
    utilities: dict = {}

    def run(inst, combo):
        if combo not in utilities:
            utilities[combo] = run_mechanism(
                inst, kind, StrategyProfile(combo),
                gsp_allow_zero_gain=allow_zero_gain).utilities(inst)
        return utilities[combo]

    checked = off_all = 0
    for inst in _differential_instances():
        utilities.clear()
        space = _differential_spaces(inst)["plain"]
        offs = [tuple(s for s in (Strategy(p, level * inst.atype(i).gain(p))
                                  for p in inst.price_grid
                                  for level in (0.25, 0.75))
                      if s not in menu)
                for i, menu in enumerate(space.options)]
        combos = [combo for combo in itertools.product(*[
            menu[::2] + off for menu, off in zip(space.options, offs)])
            if any(s in off for s, off in zip(combo, offs))]
        for combo in combos[::5]:
            base = run(inst, combo)
            want = None
            for i, menu in enumerate(space.options):
                for s in menu:
                    if s == combo[i]:
                        continue
                    u = run(inst, combo[:i] + (s,) + combo[i + 1:])[i]
                    if u > base[i] + NASH_TOL:
                        want = i, s, u - base[i]
                        break
                if want:
                    break
            got = is_nash(inst, kind, space, StrategyProfile(combo),
                          gsp_allow_zero_gain=allow_zero_gain)
            assert got == (want is None, want), combo
            checked += 1
            off_all += all(s in off for s, off in zip(combo, offs))
    assert checked > 1_000 and off_all > 200


@pytest.mark.parametrize("kind,allow_zero_gain", [
    (VCG, False),
    (MechanismKind.INDIRECT_GSP, True),
])
def test_enumeration_runs_each_collapsed_profile_once(
        monkeypatch, kind, allow_zero_gain):
    # The engine's work, counted as calls of the mechanism's core: one per
    # profile of the game with each agent's non-participating strategies
    # (bound peak * gain <= 0, less the zero gains the fill can show)
    # collapsed into one.
    inst = random_instance(22, max_agents=3, max_slots=2, max_prices=4)
    space = StrategySpace.build(inst, gain_levels=(0.0, 0.5, 1.0))
    collapsed = 1
    for i, menu in enumerate(space.options):
        quality = inst.quality(i)
        peaks = [quality.peak(s.price, quality.q(s.price, s.price))
                 for s in menu]
        live = sum(peak * s.gain > 0.0
                   or (allow_zero_gain and s.gain == 0.0 and peak > 0.0)
                   for s, peak in zip(menu, peaks))
        collapsed *= live + (live < len(menu))
    name = "_indirect_pivots" if kind is VCG else "_indirect_gsp"
    core = getattr(mechanisms, name)
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return core(*args)

    with monkeypatch.context() as patch:
        patch.setattr(mechanisms, name, counted)
        enumerate_pure_nash(inst, kind, space,
                            gsp_allow_zero_gain=allow_zero_gain)
    assert calls == collapsed < space.size


@pytest.mark.parametrize("seed,max_agents,max_prices,shape", [
    (22, 3, 4, (3, 2)),
    # The walk's rest holds two agents (0 and 1), so each pivot key packs
    # three other agents' fields: keys that ran into each other would
    # solve fewer pivots, and keys that split one (payer, others'
    # strategies) more.
    (17, 4, 3, (4, 2)),
], ids=["three-agents", "four-agents"])
def test_enumeration_solves_each_pivot_once(monkeypatch, seed, max_agents,
                                            max_prices, shape):
    # Under VCG a payer's pivot reads only the other agents' bids, so the
    # engine solves it once per (payer, other agents' strategies) among
    # the collapsed profiles, and only for a payer.  Solving it per
    # profile, or the line agent's per line, would raise the count.
    inst = random_instance(seed, max_agents=max_agents, max_slots=2,
                           max_prices=max_prices)
    space = StrategySpace.build(inst, gain_levels=(0.0, 0.5, 1.0))
    reduced = [[menu[stands_for[0]] for stands_for in classes]
               for menu, classes in zip(
                   space.options,
                   _menu_classes(inst, VCG, space.options, False))]
    keys = set()
    payers = 0
    for combo in itertools.product(*reduced):
        for i in run_mechanism(inst, VCG, StrategyProfile(combo)
                               ).allocation.slot_agents:
            keys.add((i, combo[:i] + combo[i + 1:]))
            payers += 1
    solve = allocation._solve_rows
    pivots = 0

    def counted(instance, table, exclude, gain, bids, record=None):
        nonlocal pivots
        pivots += bool(exclude)
        return solve(instance, table, exclude, gain, bids, record)

    with monkeypatch.context() as patch:
        patch.setattr(allocation, "_solve_rows", counted)
        enumerate_pure_nash(inst, VCG, space)
    assert (inst.n, inst.m) == shape
    assert pivots == len(keys) < payers // 2


@pytest.mark.parametrize("kind,allow_zero_gain", [
    (VCG, False),
    (MechanismKind.INDIRECT_GSP, True),
])
def test_enumeration_scores_each_bid_once_and_the_rest_per_change(
        monkeypatch, kind, allow_zero_gain):
    # The engine walks lines along the last agent's axis (agent 2).  Each
    # of her collapsed strategies and of agent j's (agent 1, whose
    # strategy changes on every line) is scored once per game, as a table
    # of its one bid; the rest (agent 0) get their rows once per change of
    # their strategies.  Scoring the other agents' bids per line, or
    # building each profile's table from scratch, would make more calls.
    inst = random_instance(22, max_agents=3, max_slots=2, max_prices=4)
    space = StrategySpace.build(inst, gain_levels=(0.0, 0.5, 1.0))
    rest, j, last = [len(classes) for classes in _menu_classes(
        inst, kind, space.options, allow_zero_gain)]
    build = allocation._indirect_table
    scored = []

    def counted(instance, bids, extra=()):
        bids = list(bids)
        scored.append(tuple([i for i, _ in bids]))
        return build(instance, bids, extra)

    with monkeypatch.context() as patch:
        patch.setattr(allocation, "_indirect_table", counted)
        patch.setattr(mechanisms, "_indirect_table", counted)
        enumerate_pure_nash(inst, kind, space,
                            gsp_allow_zero_gain=allow_zero_gain)
    assert inst.n == 3
    assert scored == [(0,), (1,), *[(2,)] * last, *[(1,)] * (j - 1),
                      *[(0,)] * (rest - 1)]
    assert rest * j * last > 2 * len(scored)
