"""Allocation algorithms against hand-worked cases and the oracle."""

import heapq
import math
import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from price_display_auctions import (
    QUALITY_KINDS,
    AgentType,
    AuctionInstance,
    GuardExceededError,
    HyperbolaQuality,
    OnlyMinQuality,
    PriceThresholdQuality,
    QualityModel,
    SlotProfile,
    SmoothDecayQuality,
    Strategy,
    StrategyProfile,
    TabulatedQuality,
    brute_force_allocate,
    direct_allocate,
    direct_pivots,
    indirect_allocate,
    indirect_pivots,
    profile,
    random_instance,
    random_profile,
    run_indirect_gsp,
)
from price_display_auctions.allocation import (
    DirectAllocationResult,
    _allocation_from,
    _bid_gain,
    _direct_table,
    _indirect_table,
    _merge_bid,
    _ranked,
    _report_gain,
    _score_bid,
    _solve_rows,
)
from price_display_auctions.mechanisms import _fill_zero_gain, _indirect_gsp
from price_display_auctions.model import (
    EMPTY_ALLOCATION,
    WELFARE_TOL,
    declared_welfare,
    truthful_gains,
)
from price_display_auctions.sampling import _monotone


def two_agent_instance():
    agents = (
        (AgentType(1.0, 0.0), OnlyMinQuality()),
        (AgentType(1.0, 0.0), PriceThresholdQuality(threshold=3.0)),
    )
    return AuctionInstance(agents, SlotProfile((1.0, 0.5)), (1.0, 2.0))


def test_indirect_picks_the_better_min_price():
    inst = two_agent_instance()
    # Agent 0 only clicks at the page minimum; agent 1 is insensitive.
    prof = profile((1.0, 0.5), (2.0, 0.9))
    alloc = indirect_allocate(inst, prof)
    # Candidate 1.0: agent 0 weight 0.5, agent 1 weight 0.9 -> SW 0.9 + 0.25.
    # Candidate 2.0: agent 1 alone -> 0.9.  First wins.
    assert alloc.slot_agents == (1, 0)
    assert alloc.display_prices == (2.0, 1.0)
    assert alloc.p_min == 1.0


def test_indirect_excludes_nonpositive_weights():
    inst = two_agent_instance()
    prof = profile((1.0, 0.0), (2.0, 0.9))
    alloc = indirect_allocate(inst, prof)
    assert alloc.slot_agents == (1,)
    assert alloc.p_min == 2.0


def test_indirect_reevaluates_at_actual_minimum():
    # The best candidate min price may not survive into the chosen set;
    # qualities must then be re-evaluated at the true page minimum.
    agents = (
        (AgentType(1.0, 0.0), SmoothDecayQuality(0.1, 0.8, 1.0)),
        (AgentType(1.0, 0.0), SmoothDecayQuality(0.1, 0.0, 1.0)),
        (AgentType(1.0, 0.0), SmoothDecayQuality(0.1, 0.0, 1.0)),
    )
    inst = AuctionInstance(agents, SlotProfile((1.0,)), (0.5, 1.0, 2.0))
    prof = profile((2.0, 1.0), (1.0, 0.2), (0.5, 0.1))
    fast = indirect_allocate(inst, prof)
    oracle = brute_force_allocate(inst, prof, "indirect")
    assert fast.slot_agents == oracle.slot_agents
    sw_fast = declared_welfare(inst, fast, prof.gains)
    sw_oracle = declared_welfare(inst, oracle, prof.gains)
    assert sw_fast == pytest.approx(sw_oracle, abs=1e-9)


def test_indirect_empty_when_nothing_positive():
    inst = two_agent_instance()
    alloc = indirect_allocate(inst, profile((1.0, 0.0), (2.0, 0.0)))
    assert alloc.slot_agents == ()


def test_a_quality_above_one_gets_the_oracle_allocation():
    # Four bids at one price, more than m + 1 per price: a scan that
    # bounded each weight by its gain would stop after agent 0 (3.0)
    # and miss agent 3, whose custom quality of 1.5 weighs 1.5 * 2.1.
    class AboveOne(QualityModel):
        kind = "above-one"

        def _evaluate(self, p, p_min):
            return 1.5

    agents = ((AgentType(1.0, 0.0), PriceThresholdQuality(10.0)),) * 3 + (
        (AgentType(1.0, 0.0), AboveOne()),)
    inst = AuctionInstance(agents, SlotProfile((1.0,)), (1.0,))
    prof = profile((1.0, 3.0), (1.0, 2.5), (1.0, 2.4), (1.0, 2.1))
    oracle = brute_force_allocate(inst, prof, "indirect")
    assert oracle.slot_agents == (3,)
    assert indirect_allocate(inst, prof) == oracle


def test_exclusion():
    inst = two_agent_instance()
    prof = profile((1.0, 0.5), (2.0, 0.9))
    table = _indirect_table(inst, enumerate(prof.strategies))
    sw, entries = _solve_rows(inst, table, frozenset({1}), _bid_gain,
                              prof.strategies)
    expected = _reference_indirect_allocate(inst, prof, exclude=frozenset({1}))
    assert _allocation_from(entries) == expected
    assert expected.slot_agents == (0,)
    _, _, without = indirect_pivots(inst, prof)
    assert without[1] == sw == declared_welfare(inst, expected, prof.gains)


def test_direct_joint_price_choice():
    # One slot: the allocator should place agent 0 at the grid price
    # maximizing q(p, p) * gain(p), not at the largest price.
    agents = ((AgentType(1.0, 0.0), SmoothDecayQuality(0.4, 0.0, 0.8)),)
    inst = AuctionInstance(agents, SlotProfile((1.0,)), (0.5, 1.0, 1.5, 2.0))
    result = direct_allocate(inst, [inst.atype(0)])
    assert result.allocation.display_prices == (1.0,)
    assert result.declared_welfare == pytest.approx((0.8 - 0.4) * 1.0)


def test_direct_designated_agent_holds_min_price():
    inst = two_agent_instance()
    result = direct_allocate(inst, [inst.atype(0), inst.atype(1)])
    # Best: agent 0 shows the minimum 2.0 (q=1, gain 2), agent 1 also 2.0.
    assert result.allocation.p_min == 2.0
    assert set(result.allocation.slot_agents) == {0, 1}
    assert result.declared_welfare == pytest.approx(2.0 + 0.5 * 2.0)
    assert result.allocation.display_prices == (2.0, 2.0)


def test_direct_empty_for_worthless_agents():
    agents = ((AgentType(0.5, 5.0), OnlyMinQuality()),)
    inst = AuctionInstance(agents, SlotProfile((1.0,)), (1.0, 2.0))
    result = direct_allocate(inst, [inst.atype(0)])
    assert result.allocation.slot_agents == ()
    assert result.declared_welfare == 0.0


def test_brute_force_guards():
    inst = random_instance(0, max_agents=4)
    big = AuctionInstance(inst.agents * 3, inst.slots, inst.price_grid)
    with pytest.raises(GuardExceededError):
        brute_force_allocate(big, random_profile(big, 0), "indirect")
    grid = tuple(1.0 + 0.1 * k for k in range(8))
    wide = AuctionInstance(inst.agents, inst.slots, grid)
    with pytest.raises(GuardExceededError):
        brute_force_allocate(wide, [wide.atype(i) for i in range(wide.n)],
                             "direct")


@pytest.mark.parametrize("seed", range(25))
def test_indirect_matches_oracle(seed):
    inst = random_instance(seed)
    prof = random_profile(inst, seed)
    fast = indirect_allocate(inst, prof)
    oracle = brute_force_allocate(inst, prof, "indirect")
    sw_fast = declared_welfare(inst, fast, prof.gains)
    sw_oracle = declared_welfare(inst, oracle, prof.gains)
    assert sw_fast == pytest.approx(sw_oracle, abs=1e-9)


@pytest.mark.parametrize("seed", range(25))
def test_direct_matches_oracle(seed):
    inst = random_instance(seed)
    reported = [inst.atype(i) for i in range(inst.n)]
    fast = direct_allocate(inst, reported)
    oracle = brute_force_allocate(inst, reported, "direct")
    assert fast.declared_welfare == pytest.approx(oracle.declared_welfare,
                                                  abs=1e-9)


def _counting_instance(n, n_prices):
    agents = tuple(
        (AgentType(1.0, 0.05 * i), SmoothDecayQuality(0.2, 0.1, 1.0))
        for i in range(n))
    grid = tuple(0.5 + 1.5 * k / (n_prices - 1) for k in range(n_prices))
    return AuctionInstance(agents, SlotProfile((1.0, 0.8, 0.6)), grid)


def _direct_eval_count(count_q_calls, n, n_prices):
    inst = _counting_instance(n, n_prices)
    reported = [inst.atype(i) for i in range(inst.n)]
    with count_q_calls() as calls:
        direct_allocate(inst, reported)
    return calls()


def test_direct_evaluation_count_scales_quadratically(count_q_calls):
    # The search makes n |P| diagonal evaluations plus the rows of the
    # agents that can still enter each candidate minimum's best m + 1, so
    # at most O(n |P|^2): linear in n (each agent's best price per
    # candidate minimum is found at most once, not once per designated
    # agent) and at most quadratic in |P|.
    base = _direct_eval_count(count_q_calls, 6, 5)
    assert base <= 6 * 5 * 5
    assert _direct_eval_count(count_q_calls, 12, 5) <= 2.3 * base
    assert _direct_eval_count(count_q_calls, 6, 10) <= 4.6 * base


def test_indirect_evaluation_count_scales_quadratically(count_q_calls):
    for n in (6, 12):
        inst = _counting_instance(n, 4)
        prof = random_profile(inst, 1)
        with count_q_calls() as calls:
            indirect_allocate(inst, prof)
        assert calls() <= 5 * n * n


def _weighted_sw(instance, entries):
    """Declared welfare of slot-ordered entries: lam * (q * gain) added
    left to right from 0.0, ``declared_welfare``'s arithmetic.  A loop,
    not ``sum()``, which compensates float sums from Python 3.12 on."""
    sw = 0.0
    for lam, entry in zip(instance.slots.prominences, entries):
        sw += lam * entry[2]
    return sw


def _reference_direct_allocate(instance, reported, *, exclude=frozenset()):
    """The original O(n^2 |P|^2) direct search, kept verbatim as an exact
    oracle: every agent's best price is recomputed per (p_hat, designated)
    pair."""
    agents = [i for i in range(instance.n) if i not in exclude]
    grid = instance.price_grid
    m = instance.m

    best_sw = 0.0
    best_entries: list = []
    for p_hat in grid:
        # Per-agent best price >= p_hat when the minimum displayed price
        # is p_hat (ties to the lowest qualifying price).
        for i in agents:
            w_i = instance.quality(i).q(p_hat, p_hat) * reported[i].gain(p_hat)
            if w_i <= 0.0:
                continue
            entries = [(i, p_hat, w_i)]
            for h in agents:
                if h == i:
                    continue
                best_h = None
                for p in grid:
                    if p < p_hat:
                        continue
                    w = instance.quality(h).q(p, p_hat) * reported[h].gain(p)
                    if w > 0.0 and (best_h is None or w > best_h[1] + WELFARE_TOL):
                        best_h = (p, w)
                if best_h is not None:
                    entries.append((h, best_h[0], best_h[1]))
            others = _ranked(instance, entries[1:])
            pool = _ranked(instance, entries)
            if (i, p_hat, w_i) in pool[:m]:
                chosen = pool[:m]
            else:
                chosen = _ranked(instance, others[:m - 1] + [entries[0]])
            sw = _weighted_sw(instance, chosen)
            if sw > best_sw + WELFARE_TOL:
                best_sw = sw
                best_entries = chosen

    allocation = _allocation_from(best_entries) if best_entries else EMPTY_ALLOCATION
    return DirectAllocationResult(allocation, best_sw)


def _tie_heavy_instance(seed):
    """A random instance with a shuffled tie-break, some agents duplicated
    (exact weight ties) and, for every fourth seed, a single slot."""
    rng = random.Random(seed)
    base = random_instance(seed, max_agents=6, max_slots=4, max_prices=6)
    agents = list(base.agents)
    agents += [rng.choice(base.agents) for _ in range(rng.randint(0, 3))]
    order = list(range(len(agents)))
    rng.shuffle(order)
    slots = SlotProfile((1.0,)) if seed % 4 == 0 else base.slots
    return AuctionInstance(tuple(agents), slots, base.price_grid, tuple(order))


def _fields(result):
    return (result.allocation.slot_agents, result.allocation.display_prices,
            result.declared_welfare)


def test_direct_matches_reference_exactly():
    # Every solve, with and without each single exclusion, returns the
    # entries of the row rule scored on every agent's full row.  Its
    # welfare is also the original designated-agent search's, bit for
    # bit, although on exact ties that search keeps another page.
    for seed, inst in _direct_cases():
        reported = [inst.atype(i) for i in range(inst.n)]
        sw, entries, without = direct_pivots(inst, reported, range(inst.n))
        assert (sw, entries) == _reference_direct_rows(inst, reported), seed
        assert sw.hex() == _reference_direct_allocate(
            inst, reported).declared_welfare.hex(), seed
        assert direct_allocate(inst, reported) == DirectAllocationResult(
            _allocation_from(entries), sw), seed
        table = _direct_table(inst, reported)
        for i in range(inst.n):
            exclude = frozenset({i})
            expected = _reference_direct_rows(inst, reported, exclude)
            assert _solve_rows(inst, table, exclude,
                               _report_gain, reported) == expected, (seed, i)
            assert without[i].hex() == expected[0].hex() == \
                _reference_direct_allocate(
                    inst, reported, exclude=exclude).declared_welfare.hex(), \
                (seed, i)
            alloc = _allocation_from(expected[1])
            assert without[i] == declared_welfare(
                inst, alloc, truthful_gains(inst, alloc)), (seed, i)


def test_direct_best_price_ties_go_to_the_lowest_price():
    # Agent 1's weight is exactly 0.8 at every grid price; her best entry
    # must keep the lowest one.
    flat = TabulatedQuality((1.0, 2.0, 4.0), (1.0, 2.0, 4.0),
                            ((0.8,) * 3, (0.4,) * 3, (0.2,) * 3))
    agents = ((AgentType(1.0, 0.0), OnlyMinQuality(cap=1.0)),
              (AgentType(1.0, 0.0), flat))
    inst = AuctionInstance(agents, SlotProfile((1.0, 0.5)), (1.0, 2.0, 4.0))
    reported = [inst.atype(i) for i in range(inst.n)]
    result = direct_allocate(inst, reported)
    assert result.allocation.slot_agents == (0, 1)
    assert result.allocation.display_prices == (1.0, 1.0)
    expected = _reference_direct_allocate(inst, reported)
    assert _fields(result) == _fields(expected)


def test_direct_pivots_default_to_assigned_agents():
    inst = _tie_heavy_instance(3)
    reported = [inst.atype(i) for i in range(inst.n)]
    _, entries, without = direct_pivots(inst, reported)
    assert set(without) == {e[0] for e in entries}


def _reference_direct_table(instance, reported):
    """The direct table with every agent's full row scored at every p_hat
    and every best entry kept, as before the bound-ordered scan, kept
    verbatim as an exact oracle.  Its one edit since: the diagonal holds
    entries, and every entry carries its q(price, p_hat)."""
    grid = instance.price_grid
    gains = [[reported[h].gain(p) for p in grid] for h in range(instance.n)]
    table = []
    for k, p_hat in enumerate(grid):
        diagonal = []
        best = []
        for h in range(instance.n):
            q = instance.quality(h).q
            best_h = None
            for j in range(k, len(grid)):
                v = q(grid[j], p_hat)
                w = v * gains[h][j]
                if j == k:
                    diagonal.append((h, p_hat, w, v))
                if w > 0.0 and (best_h is None or w > best_h[2] + WELFARE_TOL):
                    best_h = (h, grid[j], w, v)
            if best_h is not None:
                best.append(best_h)
        table.append((p_hat, diagonal, _ranked(instance, best)))
    return table


def _reference_solve_direct(instance, table, exclude):
    """The direct solve with every candidate scored exactly, as before the
    estimate filter, kept verbatim as an exact oracle.  Its one edit
    since: entries carry their q."""
    m = instance.m
    rank = instance.rank
    best_sw = 0.0
    best_entries: list = []
    for p_hat, diagonal, ranked in table:
        top = [e for e in ranked if e[0] not in exclude][:m]
        top_agents = [a for a, _, _, _ in top]
        top_keys = [(-w, rank(a)) for a, _, w, _ in top]
        for i, (_, _, w_i, q_i) in enumerate(diagonal):
            if w_i <= 0.0 or i in exclude:
                continue
            # Drop i's own entry, or else the m-th.
            k = top_agents.index(i) if i in top_agents else m - 1
            others = top[:k] + top[k + 1:]
            keys = top_keys[:k] + top_keys[k + 1:]
            pos = bisect_left(keys, (-w_i, rank(i)))
            chosen = others[:pos] + [(i, p_hat, w_i, q_i)] + others[pos:]
            sw = _weighted_sw(instance, chosen)
            if sw > best_sw + WELFARE_TOL:
                best_sw = sw
                best_entries = chosen
    return best_sw, best_entries


def _reference_direct_rows(instance, reported, exclude=frozenset()):
    """The direct search as the row rule states it, on every agent's full
    row of ``_reference_direct_table``: per grid price p_hat in ascending
    order, the first m best entries of the agents left in, re-scored and
    re-ranked at their actual minimum when none of them shows p_hat; the
    first page that beats the best so far by more than WELFARE_TOL wins.
    Returns (welfare, slot-ordered entries)."""
    m = instance.m
    best_sw = 0.0
    best_entries: list = []
    for p_hat, _, ranked in _reference_direct_table(instance, reported):
        chosen = [e for e in ranked if e[0] not in exclude][:m]
        if not chosen:
            continue
        actual = min(p for _, p, _, _ in chosen)
        if actual != p_hat:
            rescored = []
            for i, p, _, _ in chosen:
                q = instance.quality(i).q(p, actual)
                rescored.append((i, p, q * reported[i].gain(p), q))
            chosen = _ranked(instance, rescored)
        sw = _weighted_sw(instance, chosen)
        if sw > best_sw + WELFARE_TOL:
            best_sw = sw
            best_entries = chosen
    return best_sw, best_entries


def _dipping_coarse_instance(seed):
    """A ``_coarse_case`` instance whose tabulated cells move by 0 or
    +-4e-13, within the table's monotonicity slack, so that a quality may
    fall by a hair as the page minimum rises."""
    rng = random.Random(seed ^ 0xD1B)
    inst = _coarse_case(seed)[0]
    agents = []
    for atype, quality in inst.agents:
        if isinstance(quality, TabulatedQuality):
            nudged = tuple(
                tuple(min(1.0, max(0.0, v + rng.choice((-4e-13, 0.0, 4e-13))))
                      for v in row) for row in quality.values)
            quality = TabulatedQuality(quality.prices, quality.min_prices,
                                       nudged)
        agents.append((atype, quality))
    return AuctionInstance(tuple(agents), inst.slots, inst.price_grid,
                           inst.tie_break)


# (instance, whether every quality is non-decreasing in the page minimum)
_DIRECT_DRAWS = st.one_of(
    st.integers(0, 10 ** 6).map(lambda seed: (random_instance(seed), True)),
    st.integers(0, 10 ** 6).map(lambda seed: (_coarse_case(seed)[0], True)),
    st.integers(0, 10 ** 6).map(lambda seed: (_tie_heavy_instance(seed),
                                              True)),
    st.integers(0, 10 ** 6).map(lambda seed: (_dipping_coarse_instance(seed),
                                              False)))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_DIRECT_DRAWS)
def test_direct_row_solve_keeps_the_designated_agent_welfare_property(case):
    # The row solve on the pruned table, with no exclusion and with each
    # single one, picks the row rule's page on every agent's full row.
    # When every quality is non-decreasing in the page minimum, its
    # welfare is also the designated-agent search's, bit for bit.  A
    # table that dips within its slack breaks that precondition, and the
    # two move apart by about the dip, far inside WELFARE_TOL.
    inst, monotone = case
    reported = [inst.atype(i) for i in range(inst.n)]
    table = _direct_table(inst, reported)
    expected = _reference_direct_table(inst, reported)
    for exclude in [frozenset()] + [frozenset({i}) for i in range(inst.n)]:
        sw, entries = _solve_rows(inst, table, exclude, _report_gain,
                                  reported)
        assert (sw, entries) == \
            _reference_direct_rows(inst, reported, exclude), exclude
        if monotone:
            assert sw.hex() == _reference_solve_direct(
                inst, expected, exclude)[0].hex(), exclude


def _direct_within_slack_instance():
    """Agent 0's table row dips by 5e-13 (inside the constructor's 1e-12
    slack), so at p_hat 1.0 her best weight is 1.0, above every diagonal
    term of hers.  Agents 1 to 3 weigh 1.0 - 5e-13 there.  A scan bounded
    by the diagonal would keep those three and stop before agent 0."""
    dip = TabulatedQuality((1.0, 2.0), (1.0, 2.0),
                           ((0.5, 0.5), (0.5, 0.5 - 5e-13)))
    flat = PriceThresholdQuality(2.0, 0.5 - 2.5e-13)
    agents = ((AgentType(1.0, 0.0), dip),) + ((AgentType(1.0, 0.0), flat),) * 3
    return AuctionInstance(agents, SlotProfile((1.0, 0.5)), (1.0, 2.0))


def _direct_equal_bound_instance():
    """At p_hat 1.0, agent 1's bound (0.75, from her price 2.0) puts her
    in the top three before agent 3, although her weight there is only
    0.375.  Agent 3's bound equals that weight, and she ties it and wins
    on rank, so a scan that stopped on an equal bound would keep agent 1."""
    agents = ((AgentType(1.0, 0.0), PriceThresholdQuality(1.0)),
              (AgentType(1.0, 0.0), OnlyMinQuality(level=0.375)),
              (AgentType(1.0, 0.0), PriceThresholdQuality(1.0, 0.5)),
              (AgentType(1.0, 0.0), PriceThresholdQuality(1.0, 0.375)))
    return AuctionInstance(agents, SlotProfile((1.0, 0.5)), (1.0, 2.0),
                           (0, 3, 2, 1))


def _direct_infinite_instance():
    """Two agents whose values are each a finite 1.7e308 and one rival far
    below: the optimum's welfare is inf, which every solve must still
    return as the reference scores it."""
    big = (AgentType(1.0, 0.0), PriceThresholdQuality(1.7e308))
    rival = (AgentType(1.0, 0.0), PriceThresholdQuality(1.7e308, 1e-300))
    return AuctionInstance((big, big, rival), SlotProfile((1.0, 1.0)),
                           (1e308, 1.7e308))


def _direct_cases():
    for seed in range(120):
        yield seed, _tie_heavy_instance(seed)
    for seed in range(200):
        yield ("coarse", seed), _coarse_case(seed)[0]
    yield "within slack", _direct_within_slack_instance()
    yield "equal bound", _direct_equal_bound_instance()
    yield "infinite welfare", _direct_infinite_instance()


def test_direct_table_matches_full_scoring():
    for seed, inst in _direct_cases():
        reported = [inst.atype(i) for i in range(inst.n)]
        table = _direct_table(inst, reported)
        expected = _reference_direct_table(inst, reported)
        assert [p for p, _, _ in table] == [p for p, _, _ in expected], seed
        assert [r for _, _, r in table] == \
            [r[:inst.m + 1] for _, _, r in expected], seed
        assert [h for _, h, _ in table] == \
            [[e[0] for e in r[:inst.m + 1]] for _, _, r in expected], seed


def test_direct_table_stops_early(count_q_calls):
    # A seeded instance of 30 agents, 5 slots and 8 grid prices: the table
    # scores the 240 diagonals, then the rows of the agents that can still
    # enter each p_hat's best six.  Scoring every agent's full row at
    # every p_hat takes 30 * (8 + 7 + ... + 1) = 1,080 evaluations.
    inst = random_instance(238, max_agents=30, max_slots=5, max_prices=8)
    assert (inst.n, inst.m, len(inst.price_grid)) == (30, 5, 8)
    reported = [inst.atype(i) for i in range(inst.n)]
    with count_q_calls() as calls:
        _reference_direct_table(inst, reported)
    assert calls() == 1080
    with count_q_calls() as calls:
        _direct_table(inst, reported)
    assert calls() == 487


def _reference_indirect_allocate(instance, profile, *, exclude=frozenset()):
    """The original indirect search, kept verbatim as an exact oracle: the
    whole candidate loop runs again for every ``exclude`` set.  Its one
    edit since: only the price of a bid with a positive diagonal weight,
    one that could be shown at it, is a candidate."""
    agents = [i for i in range(instance.n) if i not in exclude]
    m = instance.m
    candidates = sorted({profile[i].price for i in agents
                         if instance.quality(i).q(profile[i].price,
                                                  profile[i].price)
                         * profile[i].gain > 0.0})

    best_entries: list = []
    best_sw = 0.0
    for cand in candidates:
        entries = []
        for i in agents:
            p = profile[i].price
            if p < cand:
                continue
            w = instance.quality(i).q(p, cand) * profile[i].gain
            if w > 0.0:
                entries.append((i, p, w))
        if not entries:
            continue
        chosen = _ranked(instance, entries)[:m]
        actual = min(p for _, p, _ in chosen)
        if actual != cand:
            # No chosen agent priced exactly at the candidate: re-evaluate
            # at the actual minimum (qualities can only rise).
            chosen = _ranked(instance, [
                (i, p, instance.quality(i).q(p, actual) * profile[i].gain)
                for i, p, _ in chosen])
        sw = _weighted_sw(instance, chosen)
        if sw > best_sw + WELFARE_TOL:
            best_sw = sw
            best_entries = chosen

    return _allocation_from(best_entries) if best_entries else EMPTY_ALLOCATION


def _tie_heavy_profile(instance, seed):
    """Grid bids (so submitted prices repeat) with zero and negative gains;
    an agent that duplicates an earlier one usually copies her bid too,
    which makes exact weight ties for the tie-break to settle."""
    rng = random.Random(seed ^ 0xB1D)
    strategies = list(random_profile(instance, seed).strategies)
    for j in range(instance.n):
        twins = [i for i in range(j) if instance.agents[i] == instance.agents[j]]
        if twins and rng.random() < 0.7:
            strategies[j] = strategies[twins[0]]
        elif rng.random() < 0.2:
            strategies[j] = Strategy(strategies[j].price, -rng.uniform(0.0, 1.0))
    return StrategyProfile(tuple(strategies))


def _coarse_case(seed, n_range=(1, 9)):
    """An instance and bids on a few round numbers, so that different
    agents often tie exactly, at one candidate minimum and not at another.
    Tabulated tables draw round levels and are made monotone by the
    sampler's running minimum and maximum, which keeps the exact ties.
    The number of agents is drawn from ``n_range``.
    """
    rng = random.Random(seed)
    levels = (0.25, 0.5, 1.0)
    grid = tuple(sorted(rng.sample((0.5, 1.0, 1.5, 2.0, 3.0),
                                   rng.randint(1, 4))))
    n = rng.randint(*n_range)
    m = 1 if seed % 4 == 0 else rng.randint(2, 4)
    agents = []
    for _ in range(n):
        kind = rng.randrange(3)
        if kind == 0:
            quality = PriceThresholdQuality(rng.choice(grid), rng.choice(levels))
        elif kind == 1:
            quality = OnlyMinQuality(rng.choice(grid + (math.inf,)),
                                     rng.choice(levels))
        else:
            quality = TabulatedQuality(grid, grid, _monotone([
                [rng.choice((0.0,) + levels) for _ in grid] for _ in grid]))
        agents.append((AgentType(1.0, 0.0), quality))
    order = list(range(n))
    rng.shuffle(order)
    slots = SlotProfile(tuple(sorted((rng.choice((0.5, 1.0))
                                      for _ in range(m)), reverse=True)))
    inst = AuctionInstance(tuple(agents), slots, grid, tuple(order))
    prof = StrategyProfile(tuple(
        Strategy(rng.choice(grid), rng.choice((-0.5, 0.0, 0.5, 1.0, 2.0)))
        for _ in range(n)))
    return inst, prof


def _excluded_holder_case():
    """Without agent 2, the only candidate minimum is 2.0, where agent 0
    wins the tie.  A solve that kept agent 2's candidate 1.0 would re-score
    agent 1 there at her actual minimum 2.0 and pick her first."""
    agents = ((AgentType(1.0, 0.0), TabulatedQuality(
                  (1.0, 2.0), (1.0, 2.0), ((1.0, 1.0), (0.5, 1.0)))),
              (AgentType(1.0, 0.0), PriceThresholdQuality(2.0)),
              (AgentType(1.0, 0.0), OnlyMinQuality()))
    inst = AuctionInstance(agents, SlotProfile((1.0,)), (1.0, 2.0))
    return inst, profile((2.0, 1.0), (2.0, 1.0), (1.0, 5.0))


def _within_slack_case():
    """Agent 0's table row dips by 5e-13 (inside the constructor's 1e-12
    slack), so her weight at candidate 1.0 is 0.5, above her diagonal.
    Agents 1 and 2 weigh 0.5 - 2.5e-13 everywhere.  A scan bounded by the
    diagonal would stop at candidate 1.0 before reaching agent 0."""
    dip = TabulatedQuality((1.0, 2.0), (1.0, 2.0),
                           ((1.0, 1.0), (0.5, 0.5 - 5e-13)))
    flat = PriceThresholdQuality(2.0, 0.5 - 2.5e-13)
    agents = ((AgentType(1.0, 0.0), dip), (AgentType(1.0, 0.0), flat),
              (AgentType(1.0, 0.0), flat), (AgentType(1.0, 0.0), OnlyMinQuality()))
    inst = AuctionInstance(agents, SlotProfile((1.0,)), (1.0, 2.0))
    return inst, profile((2.0, 1.0), (2.0, 1.0), (2.0, 1.0), (1.0, 0.1))


class _ScaledDecay:
    """A smooth decay scaled by 1.5, so above 1 near its intercept: not
    a built-in kind, and still non-decreasing in the minimum.  It is no
    ``QualityModel`` subclass, so the registry of kinds stays as it is."""

    def __init__(self, price_slope, gap_slope):
        self.decay = SmoothDecayQuality(price_slope, gap_slope)

    def q(self, p, p_min):
        return 1.5 * self.decay.q(p, p_min)

    def peak(self, p, diagonal):
        return diagonal


def _custom_model_case(seed):
    """A page of 10 to 14 bids on three prices with round gains, where
    agent 0's model is a ``_ScaledDecay``: the table scores every bid at
    every candidate, and cuts the lowest candidate's row from more than
    m + 1 positive weights to its first m + 1."""
    rng = random.Random(seed)
    grid = (1.0, 1.5, 2.0, 3.0)
    n = rng.randint(10, 14)
    m = rng.randint(1, 3)
    agents = [(AgentType(1.0, 0.0), _ScaledDecay(0.1, 0.1))]
    for _ in range(n - 1):
        if rng.random() < 0.5:
            quality = PriceThresholdQuality(rng.choice(grid),
                                            rng.choice((0.5, 1.0)))
        else:
            quality = SmoothDecayQuality(0.1, rng.choice((0.0, 0.1)))
        agents.append((AgentType(1.0, 0.0), quality))
    inst = AuctionInstance(tuple(agents), SlotProfile((1.0,) * m), grid)
    prices = [grid[k % 3 + (seed % 2)] for k in range(n)]
    rng.shuffle(prices)
    prof = StrategyProfile(tuple(
        Strategy(p, rng.choice((0.0, 0.5, 1.0, 2.0))) for p in prices))
    assert not inst._unit_qualities
    assert len(set(prices)) == 3
    uncut = _reference_indirect_table(inst, prof, n)[0][2]
    assert len(uncut) > inst.m + 1
    return inst, prof


def _indirect_cases():
    for seed in range(120):
        inst = _tie_heavy_instance(seed)
        yield seed, inst, _tie_heavy_profile(inst, seed)
    # Seed 114 is the first to catch a solve that re-scores without
    # re-ranking; seed 1656 the first to catch one that never re-scores.
    for seed in (*range(200), 1656):
        yield ("coarse", seed), *_coarse_case(seed)
    # Only this case catches a pivot solve that tries the candidate of an
    # excluded agent.
    yield "excluded holder", *_excluded_holder_case()
    yield "within slack", *_within_slack_case()
    # Pages of 40 to 200 bids, where the table's scan stops early.
    for seed in range(12):
        yield ("large", seed), *_coarse_case(seed, n_range=(40, 200))
    for seed in range(8):
        yield ("custom model", seed), *_custom_model_case(seed)


def test_indirect_matches_reference_exactly():
    for seed, inst, prof in _indirect_cases():
        sw, entries, without = indirect_pivots(inst, prof)
        alloc = _allocation_from(entries)
        expected = _reference_indirect_allocate(inst, prof)
        assert alloc == expected, seed
        assert sw == declared_welfare(inst, expected, prof.gains), seed
        assert indirect_allocate(inst, prof) == expected, seed
        assert run_indirect_gsp(inst, prof, allow_zero_gain=True).allocation \
            == _allocation_from(_fill_zero_gain(inst, prof.strategies,
                                                entries)), seed
        assert set(without) == set(alloc.slot_agents)
        table = _indirect_table(inst, enumerate(prof.strategies))
        for i in range(inst.n):
            expected = _reference_indirect_allocate(inst, prof,
                                                    exclude=frozenset({i}))
            _, entries = _solve_rows(inst, table, frozenset({i}),
                                     _bid_gain, prof.strategies)
            assert _allocation_from(entries) == expected, (seed, i)
            if i in without:
                assert without[i] == declared_welfare(
                    inst, expected, prof.gains), (seed, i)


def _reference_indirect_table(instance, profile, keep):
    """The indirect table with every agent scored at every candidate, as
    before the bound-ordered scan, kept verbatim as an exact oracle.  Its
    two edits since: a candidate lists only its live holders, those with
    a positive diagonal weight, and every entry carries its q(p, cand)."""
    strategies = profile.strategies
    bids = sorted([(strategies[i].price, i, strategies[i].gain,
                    instance.quality(i).q, instance.rank(i))
                   for i in range(instance.n)])
    table = []
    for start, (cand, holder, gain, q, _) in enumerate(bids):
        live = [holder] if q(cand, cand) * gain > 0.0 else []
        if table and table[-1][0] == cand:
            table[-1][1].extend(live)
            continue
        scored = []
        for p, i, gain, q, rank in bids[start:]:
            v = q(p, cand)
            w = v * gain
            if w > 0.0:
                scored.append((-w, rank, i, p, w, v))
        # (-w, rank) is unique per agent, so sorting gives _ranked's order;
        # a heap is cheaper only for long lists.
        if len(scored) > 4 * keep:
            scored = heapq.nsmallest(keep, scored)
        else:
            scored.sort()
        table.append((cand, live,
                      [(i, p, w, v) for _, _, i, p, w, v in scored[:keep]]))
    return table


def _reference_rows(instance, profile):
    """``_reference_indirect_table`` with each candidate's live holders cut
    to the first two, all that a solve excluding one agent reads."""
    return [(cand, live[:2], ranked) for cand, live, ranked
            in _reference_indirect_table(instance, profile, instance.m + 1)]


def test_indirect_table_matches_full_scoring():
    for seed, inst, prof in _indirect_cases():
        assert _indirect_table(inst, enumerate(prof.strategies)) == \
            _reference_rows(inst, prof), seed


_LEVELS = (0.25, 0.5, 1.0)


@st.composite
def _pages(draw):
    """A page of round bids on at most four grid prices, so that weights
    tie: every quality kind, tables whose rows may dip within the slack,
    gains <= 0 beside the positive ones, an optional shuffled tie-break,
    and often exactly keep or keep + 1 positive bids, the sizes on either
    side of pruning."""
    grid = tuple(sorted(draw(st.sets(st.sampled_from(
        (1.0, 1.5, 2.0, 3.0, 4.0)), min_size=1, max_size=4))))
    m = draw(st.integers(1, 3))
    positive = draw(st.sampled_from((m + 1, m + 2)) | st.integers(0, 12))
    gains = [draw(st.sampled_from((0.25, 0.5, 1.0, 2.0)))
             for _ in range(positive)]
    gains += draw(st.lists(st.sampled_from((0.0, -0.5)),
                           min_size=0 if gains else 1, max_size=4))
    gains = draw(st.permutations(gains))
    level = st.sampled_from(_LEVELS)
    agents = []
    for _ in gains:
        kind = draw(st.sampled_from(sorted(QUALITY_KINDS)))
        if kind == "only-min":
            quality = OnlyMinQuality(draw(st.sampled_from(grid + (math.inf,))),
                                     draw(level))
        elif kind == "price-threshold":
            quality = PriceThresholdQuality(draw(st.sampled_from(grid)),
                                            draw(level))
        elif kind == "psi-hyperbola":
            low = draw(st.sampled_from(grid))
            high = draw(st.sampled_from((2.5, 3.0))) * low
            quality = HyperbolaQuality(
                low, high, draw(st.sampled_from((0.2, 0.3))) * low / high)
        elif kind == "smooth-decay":
            slope = st.sampled_from((0.0, 0.1, 0.25))
            quality = SmoothDecayQuality(draw(slope), draw(slope), draw(level))
        else:
            values = _monotone([[draw(st.sampled_from((0.0,) + _LEVELS))
                                 for _ in grid] for _ in grid])
            if draw(st.booleans()):
                nudge = st.sampled_from((-4e-13, 0.0, 4e-13))
                values = tuple(tuple(min(1.0, max(0.0, v + draw(nudge)))
                                     for v in row) for row in values)
            quality = TabulatedQuality(grid, grid, values)
        agents.append((AgentType(1.0, 0.0), quality))
    order = draw(st.none() | st.permutations(range(len(agents))))
    inst = AuctionInstance(tuple(agents), SlotProfile((1.0,) * m), grid,
                           None if order is None else tuple(order))
    return inst, StrategyProfile(tuple(
        Strategy(draw(st.sampled_from(grid)), gain) for gain in gains))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_pages())
def test_indirect_table_matches_full_scoring_property(page):
    inst, prof = page
    assert _indirect_table(inst, enumerate(prof.strategies)) == \
        _reference_rows(inst, prof)


def test_merged_table_equals_the_profiles_own_table():
    # The equilibrium engine builds a profile's table as the other bids'
    # rows plus the one bid it varies, scored once at a superset of the
    # candidates (here every grid price too).
    for seed, inst, prof in _indirect_cases():
        for agent in range(0, inst.n, max(1, inst.n // 4)):
            others = [(i, s) for i, s in enumerate(prof.strategies)
                      if i != agent]
            held = {s.price for _, s in others}
            price = prof[agent].price
            rows = _indirect_table(inst, others, [price])
            bid = _score_bid(inst, agent, prof[agent],
                             {*held, *inst.price_grid})
            own = _indirect_table(inst, enumerate(prof.strategies))
            assert _merge_bid(inst, rows, bid) == own, (seed, agent)
            # The other bids' rows at every grid price too, cut to the
            # profile's candidates as the engine's lines cut them.
            at = {row[0]: row for row in _indirect_table(
                inst, others, (*inst.price_grid, price))}
            rows = [at[cand] for cand in sorted({*held, price})]
            assert _merge_bid(inst, rows, bid) == own, (seed, agent)


def test_a_scored_bid_gets_a_row_at_its_own_price():
    # The candidates given lack the bid's own price 2.0: the bid is still
    # live there and scored there, as well as at 1.0.
    quality = SmoothDecayQuality(0.1, 0.1, 1.0)
    inst = AuctionInstance(((AgentType(1.0, 0.0), quality),) * 2,
                           SlotProfile((1.0,)), (1.0, 2.0))
    agent, price, live, entries = _score_bid(inst, 1, Strategy(2.0, 1.5),
                                             {1.0})
    assert (agent, price, live) == (1, 2.0, True)
    assert entries == {
        1.0: (1, 2.0, quality.q(2.0, 1.0) * 1.5, quality.q(2.0, 1.0)),
        2.0: (1, 2.0, quality.q(2.0, 2.0) * 1.5, quality.q(2.0, 2.0)),
    }


def test_table_evaluates_a_bid_only_when_its_gain_can_reach_a_row(
        monkeypatch):
    # One slot, so each row keeps two entries.  Agents 0 to 4 bid 1.0
    # with gains 1, 2, 5, 3 and 4 at quality 1, so their bounds are their
    # gains.  The holders at 1.0 are the first two live bids in agent
    # order, agents 0 and 1.  Candidate 1.0's scan evaluates agents 2 and
    # 4 (gains 5 and 4) and stops at agent 3's gain 3, below the second
    # weight 4, so her quality is never evaluated.  Agent 5 bids 2.0 with
    # gain 0.5: the holder walk evaluates her diagonal, the threshold 4
    # skips her bucket at candidate 1.0, and candidate 2.0 reuses it.
    models = [PriceThresholdQuality(2.0) for _ in range(6)]
    inst = AuctionInstance(tuple((AgentType(1.0, 0.0), q) for q in models),
                           SlotProfile((1.0,)), (1.0, 2.0))
    prof = profile(*[(1.0, g) for g in (1.0, 2.0, 5.0, 3.0, 4.0)],
                   (2.0, 0.5))
    calls = []
    q = QualityModel.q

    def recording(self, p, p_min):
        calls.append(([m is self for m in models].index(True), p, p_min))
        return q(self, p, p_min)

    with monkeypatch.context() as patch:
        patch.setattr(QualityModel, "q", recording)
        table = _indirect_table(inst, enumerate(prof.strategies))
    assert sorted(calls) == [(0, 1.0, 1.0), (1, 1.0, 1.0), (2, 1.0, 1.0),
                             (4, 1.0, 1.0), (5, 2.0, 2.0)]
    assert [(cand, holders) for cand, holders, _ in table] == \
        [(1.0, [0, 1]), (2.0, [5])]
    assert table == _reference_rows(inst, prof)


def test_indirect_table_stops_early_on_a_large_page(count_q_calls):
    # A seeded page of 261 bids at m = 5 and 8 distinct prices, 212 of
    # them with a positive gain.  The table evaluates 123 of their
    # diagonals, then 44 more qualities over all candidates.  Scoring
    # every positive bid on its diagonal first took 212 + 44, and every
    # bid at every candidate 1,242.
    inst = random_instance(2, max_agents=300, max_slots=5, max_prices=8)
    prof = random_profile(inst, 2)
    prices = {s.price for s in prof.strategies}
    assert (inst.n, inst.m, len(prices)) == (261, 5, 8)
    assert sum(s.gain > 0.0 for s in prof.strategies) == 212
    with count_q_calls() as calls:
        _indirect_table(inst, enumerate(prof.strategies))
    assert calls() == 123 + 44


def _reference_gsp_payments(instance, profile, allocation):
    """GSP's next-slot payments with the last slot priced by a scan over
    every rival, as before the search table served it, kept verbatim as an
    exact reference."""
    slot_agents = allocation.slot_agents
    payments = [0.0] * instance.n
    if slot_agents:
        p_min = min(allocation.display_prices)
        best_left_out = max(
            (instance.quality(j).q(profile[j].price, p_min) * profile[j].gain
             for j in range(instance.n)
             if j not in slot_agents and profile[j].price >= p_min),
            default=0.0)
        weights = [instance.quality(i).q(p, p_min) * profile[i].gain
                   for i, p in zip(slot_agents, allocation.display_prices)]
        next_values = weights[1:] + [best_left_out]
        for lam, i, value in zip(instance.slots.prominences, slot_agents,
                                 next_values):
            payments[i] = lam * max(0.0, value)
    return tuple(payments)


def test_gsp_last_slot_price_matches_the_rivals_scan():
    for seed, inst, prof in _indirect_cases():
        for allow_zero_gain in (False, True):
            out = run_indirect_gsp(inst, prof, allow_zero_gain=allow_zero_gain)
            assert out.payments == _reference_gsp_payments(
                inst, prof, out.allocation), (seed, allow_zero_gain)


def _carried_q_problems(instance, entries):
    """The entries whose carried q is not, bit for bit, their agent's
    q(price, page minimum), the q a true value reads."""
    if not entries:
        return []
    p_min = min(e[1] for e in entries)
    return [e for e in entries
            if e[3].hex() != instance.quality(e[0]).q(e[1], p_min).hex()]


def _carried_q_cases():
    yield from _indirect_cases()
    for seed in range(100):
        inst = random_instance(seed)
        yield ("random", seed), inst, random_profile(inst, seed)


def test_search_entries_carry_the_quality_at_the_page_minimum():
    # Utilities and true welfare read each displayed agent's q off her
    # search entry: every solve, with and without each single exclusion,
    # and GSP's zero-gain fill must carry q(price, page minimum).
    for seed, inst, prof in _carried_q_cases():
        _, entries, _ = indirect_pivots(inst, prof)
        assert not _carried_q_problems(inst, entries), seed
        table = _indirect_table(inst, enumerate(prof.strategies))
        for i in range(inst.n):
            _, entries = _solve_rows(inst, table, frozenset({i}),
                                     _bid_gain, prof.strategies)
            assert not _carried_q_problems(inst, entries), (seed, i)
        entries, _, _ = _indirect_gsp(inst, prof.strategies, table, True)
        assert not _carried_q_problems(inst, entries), seed
        reported = [inst.atype(i) for i in range(inst.n)]
        _, entries, _ = direct_pivots(inst, reported, ())
        assert not _carried_q_problems(inst, entries), seed
        table = _direct_table(inst, reported)
        for i in range(inst.n):
            _, entries = _solve_rows(inst, table, frozenset({i}),
                                     _report_gain, reported)
            assert not _carried_q_problems(inst, entries), (seed, i)


def test_a_re_evaluated_entry_carries_its_new_quality():
    # At candidate 1.0 agent 0 ranks first at q(2, 1), but she alone shows
    # 2.0, so the solve re-evaluates her at 2.0; candidate 2.0 only ties
    # that page, and the first best wins.
    agents = ((AgentType(1.0, 0.0), SmoothDecayQuality(0.1, 0.1, 1.0)),
              (AgentType(1.0, 0.0), SmoothDecayQuality(0.1, 0.0, 1.0)))
    inst = AuctionInstance(agents, SlotProfile((1.0,)), (1.0, 2.0))
    prof = profile((2.0, 1.0), (1.0, 0.5))
    q = agents[0][1].q
    table = _indirect_table(inst, enumerate(prof.strategies))
    assert table[0][0] == 1.0
    assert table[0][2][0] == (0, 2.0, q(2.0, 1.0), q(2.0, 1.0))
    assert q(2.0, 1.0) < q(2.0, 2.0)
    _, entries = _solve_rows(inst, table, frozenset(), _bid_gain,
                             prof.strategies)
    assert entries == [(0, 2.0, q(2.0, 2.0), q(2.0, 2.0))]


def test_the_zero_gain_fill_carries_the_quality_at_its_own_page_minimum():
    # Both bids fit candidate 3.0, the fill's best, and the one slot goes
    # to agent 0 by tie-break: the page shows her alone at 5.0, so she
    # carries q(5, 5) = 0.5, not q(5, 3) = 0.1.
    quality = SmoothDecayQuality(0.1, 0.2, 1.0)
    inst = AuctionInstance(((AgentType(1.0, 1.0), quality),) * 2,
                           SlotProfile((1.0,)), (3.0, 5.0))
    prof = profile((5.0, 0.0), (3.0, 0.0))
    assert (quality.q(5.0, 5.0), round(quality.q(5.0, 3.0), 12)) == (0.5, 0.1)
    assert _fill_zero_gain(inst, prof.strategies, []) == [(0, 5.0, 0.0, 0.5)]
    out = run_indirect_gsp(inst, prof, allow_zero_gain=True)
    assert out.true_welfare == 0.5 * (5.0 - 1.0)
    assert out.utilities(inst) == (out.true_welfare, 0.0)
