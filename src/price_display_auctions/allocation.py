"""Welfare-maximizing allocation: the two fast searches, each with a
pivot variant for VCG, and the brute-force oracle that checks them.

The indirect search fixes submitted prices and only chooses the
assignment; the direct search additionally chooses a display price per
agent from the finite price grid.  Both resolve near-ties (within
WELFARE_TOL) with a deterministic rule: candidates are enumerated in
ascending (p_min, designated agent) order and the first best wins, and
agents sort by descending weighted value with the instance tie-break.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left
from dataclasses import dataclass

from .errors import GuardExceededError
from .model import (
    EMPTY_ALLOCATION,
    WELFARE_TOL,
    Allocation,
    AuctionInstance,
    StrategyProfile,
)

BRUTE_FORCE_MAX_AGENTS = 6
BRUTE_FORCE_MAX_SLOTS = 4
BRUTE_FORCE_MAX_PRICES = 6


@dataclass(frozen=True)
class DirectAllocationResult:
    """Allocation and its declared welfare as the search scored it."""

    allocation: Allocation
    declared_welfare: float


def _ranked(instance, entries):
    """Sort (agent, price, weight) triples for slot filling: descending
    weight, instance tie-break on near-ties."""
    return sorted(entries, key=lambda e: (-e[2], instance.rank(e[0])))


def _weighted_sw(instance, entries):
    """Declared welfare of slot-ordered entries: the sum of
    lam * (q * gain), ``declared_welfare``'s arithmetic."""
    lams = instance.slots.prominences
    return sum(lam * w for lam, (_, _, w) in zip(lams, entries))


def _allocation_from(entries):
    return Allocation(tuple(a for a, _, _ in entries),
                      tuple(p for _, p, _ in entries))


def _indirect_table(instance, profile):
    """Per candidate minimum: (cand, holders, ranked entries).

    The candidates are the distinct submitted prices, in ascending order,
    and a candidate's holders are the agents who submitted exactly it.
    Its entries are the (agent, price, weight) triples of the agents
    priced at or above it with a positive weight q(price, cand) * gain,
    the first keep = m + 1 in ``_ranked`` order.  A solve that excludes
    one agent still finds its first m entries there; and as at most m
    entries are displayed, so does the best agent left out at the page
    minimum.

    Qualities are non-decreasing in the minimum price, so an agent's
    weight at any candidate is at most her bound, peak * gain (see
    ``QualityModel.peak``).  Each candidate scans the agents in descending
    bound order and stops once it holds ``keep`` entries and the next
    bound is strictly below the keep-th weight (Fagin, Lotem and Naor's
    threshold algorithm); an equal bound may still tie and win on rank.
    An agent with a bound <= 0 is never scored.
    """
    keep = instance.m + 1
    holders: dict = {}
    scored = []
    for i, s in enumerate(profile.strategies):
        p, gain = s.price, s.gain
        holders.setdefault(p, []).append(i)
        if gain > 0.0:
            quality = instance.quality(i)
            diagonal = quality.q(p, p)
            bound = quality.peak(p, diagonal) * gain
            if bound > 0.0:
                scored.append((-bound, instance.rank(i), i, p, gain,
                               quality.q, diagonal * gain))
    # (-bound, rank) and (w, -rank) are unique per agent; the kept
    # (w, -rank, agent, price) in descending order are in _ranked's order.
    scored.sort()
    table = []
    for cand in sorted(holders):
        top: list = []
        if len(scored) <= keep:
            # Nothing can be pruned: score every agent.
            for _, rank, i, p, gain, q, d in scored:
                if p >= cand:
                    w = d if p == cand else q(p, cand) * gain
                    if w > 0.0:
                        top.append((w, -rank, i, p))
        else:
            # A min-heap whose root is the worst entry kept.
            for neg_bound, rank, i, p, gain, q, d in scored:
                if len(top) == keep and -neg_bound < top[0][0]:
                    break
                if p < cand:
                    continue
                w = d if p == cand else q(p, cand) * gain
                if w > 0.0:
                    entry = (w, -rank, i, p)
                    if len(top) < keep:
                        heapq.heappush(top, entry)
                    elif entry > top[0]:
                        heapq.heapreplace(top, entry)
        top.sort(reverse=True)
        table.append((cand, holders[cand], [(i, p, w) for w, _, i, p in top]))
    return table


def _solve_indirect(instance, profile, table, exclude):
    """Best (welfare, entries) over the table without ``exclude``.

    A candidate whose holders are all excluded is skipped, so the
    candidates tried are the distinct prices of the agents left, in
    ascending order, and the first best wins.  Each takes the first m
    entries not excluded; when none of them holds the candidate, they are
    re-evaluated at their actual minimum price (qualities can only rise)
    and re-ranked.
    """
    m = instance.m
    best_entries: list = []
    best_sw = 0.0
    for cand, holders, ranked in table:
        if not exclude:
            chosen = ranked[:m]
        elif exclude.issuperset(holders):
            continue
        else:
            chosen = [e for e in ranked if e[0] not in exclude][:m]
        if not chosen:
            continue
        actual = min(p for _, p, _ in chosen)
        if actual != cand:
            chosen = _ranked(instance, [
                (i, p, instance.quality(i).q(p, actual) * profile[i].gain)
                for i, p, _ in chosen])
        sw = _weighted_sw(instance, chosen)
        if sw > best_sw + WELFARE_TOL:
            best_sw = sw
            best_entries = chosen
    return best_sw, best_entries


def indirect_allocate(instance: AuctionInstance, profile: StrategyProfile
                      ) -> Allocation:
    """Assignment maximizing declared welfare at the submitted prices.

    Every submitted price is tried as the minimum displayed price; only
    agents with strictly positive weighted declared value are assigned.

    The search relies on every quality being non-decreasing in the
    minimum price: it evaluates each positive bid once on its diagonal,
    sorts the bids by that bound, and per candidate (|C| distinct
    submitted prices) scores bids in bound order only until none left can
    enter the best m + 1.  That is n + O(|C| m) quality evaluations when
    weights stay near their bounds and O(n |C|) at worst, then O(|C| m)
    steps and at most m |C| re-evaluations.
    """
    return _allocation_from(_indirect_search(instance, profile)[1])


def _indirect_search(instance, profile):
    """``indirect_allocate``'s (welfare, slot-ordered entries, table).
    Each entry's weight is q(price, p_min) * gain."""
    table = _indirect_table(instance, profile)
    sw, entries = _solve_indirect(instance, profile, table, frozenset())
    return sw, entries, table


def indirect_pivots(instance: AuctionInstance, profile: StrategyProfile
                    ) -> tuple[float, list, dict[int, float]]:
    """The indirect optimum and, for each agent it assigns (the VCG
    pivots), the declared welfare of the indirect optimum without her.

    The optimum comes as its welfare and its slot-ordered (agent, price,
    weight) entries, whose weight is q(price, p_min) * gain.  All solves
    share the search's table, so each pivot adds O(|C| m) steps and at
    most m |C| quality re-evaluations.  The welfare is the search's own
    score, equal bit for bit to ``declared_welfare`` of the allocation it
    picks.
    """
    sw, entries, table = _indirect_search(instance, profile)
    without = {i: _solve_indirect(instance, profile, table, frozenset({i}))[0]
               for i, _, _ in entries}
    return sw, entries, without


def _direct_table(instance, reported):
    """Per grid price p_hat: (p_hat, diagonal weights, ranked best entries).

    An agent's diagonal weight is q(p_hat, p_hat) * gain(p_hat), what she
    brings when designated to show p_hat.  Her best entry is her
    (agent, price, weight) at the first price >= p_hat whose weight beats
    the best so far by more than WELFARE_TOL; it depends on p_hat alone,
    not on the designated agent or on who is excluded, so one table serves
    every solve.  Agents with no positive weight have no entry.
    """
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
                w = q(grid[j], p_hat) * gains[h][j]
                if j == k:
                    diagonal.append(w)
                if w > 0.0 and (best_h is None or w > best_h[2] + WELFARE_TOL):
                    best_h = (h, grid[j], w)
            if best_h is not None:
                best.append(best_h)
        table.append((p_hat, diagonal, _ranked(instance, best)))
    return table


def _solve_direct(instance, table, exclude):
    """Best (welfare, entries) over the table without ``exclude``.

    Candidates run in ascending (p_hat, designated agent) order.  The
    designated agent i shows p_hat; the other slots go to the first m - 1
    ranked entries that are neither i nor excluded: the first m entries
    not excluded (``top``) less i's own entry, or else less the m-th.  The
    designated entry is inserted where ``_ranked`` would put it.
    """
    m = instance.m
    rank = instance.rank
    best_sw = 0.0
    best_entries: list = []
    for p_hat, diagonal, ranked in table:
        top = [e for e in ranked if e[0] not in exclude][:m]
        top_agents = [a for a, _, _ in top]
        top_keys = [(-w, rank(a)) for a, _, w in top]
        for i, w_i in enumerate(diagonal):
            if w_i <= 0.0 or i in exclude:
                continue
            # Drop i's own entry, or else the m-th.
            k = top_agents.index(i) if i in top_agents else m - 1
            others = top[:k] + top[k + 1:]
            keys = top_keys[:k] + top_keys[k + 1:]
            pos = bisect_left(keys, (-w_i, rank(i)))
            chosen = others[:pos] + [(i, p_hat, w_i)] + others[pos:]
            sw = _weighted_sw(instance, chosen)
            if sw > best_sw + WELFARE_TOL:
                best_sw = sw
                best_entries = chosen
    return best_sw, best_entries


def direct_allocate(instance: AuctionInstance, reported
                    ) -> DirectAllocationResult:
    """Joint assignment-and-price optimum over the instance price grid.

    Tries every (candidate minimum price, designated agent) pair: the
    designated agent is fixed at the candidate price, every other agent
    gets her best allowed price (when it yields positive value), and
    slots are filled greedily.  Each agent's best price per candidate is
    computed once and ranked once, so the search makes O(n |P|^2)
    quality evaluations and then O(|P| n m) steps.
    """
    sw, entries, _ = direct_pivots(instance, reported, ())
    return DirectAllocationResult(_allocation_from(entries), sw)


def direct_pivots(instance: AuctionInstance, reported, pivots=None
                  ) -> tuple[float, list, dict[int, float]]:
    """The direct optimum and, for each pivot agent, the declared welfare
    of the direct optimum without her.

    The optimum comes as its welfare and its slot-ordered (agent, price,
    weight) entries, whose weight is q(price, p_hat) * gain(price) at the
    designated minimum price p_hat, the allocation's own minimum.
    ``pivots`` defaults to the agents the optimum assigns (the VCG
    pivots).  All solves share one table, so each pivot adds O(|P| n m)
    steps and no quality evaluations.  The welfare is the search's own
    score, equal bit for bit to ``declared_welfare`` of the allocation it
    picks at its chosen gains.
    """
    table = _direct_table(instance, reported)
    sw, entries = _solve_direct(instance, table, frozenset())
    if pivots is None:
        pivots = [a for a, _, _ in entries]
    without = {i: _solve_direct(instance, table, frozenset({i}))[0]
               for i in pivots}
    return sw, entries, without


def _check_guard(n, m, n_prices=1):
    if n > BRUTE_FORCE_MAX_AGENTS or m > BRUTE_FORCE_MAX_SLOTS \
            or n_prices > BRUTE_FORCE_MAX_PRICES:
        raise GuardExceededError(
            f"brute force refused: n={n}, m={m}, |P|={n_prices} exceeds "
            f"guard ({BRUTE_FORCE_MAX_AGENTS}, {BRUTE_FORCE_MAX_SLOTS}, "
            f"{BRUTE_FORCE_MAX_PRICES})")


def _assignments(agents, m):
    """All injective partial assignments as (agent, slot) tuples."""
    for k in range(min(len(agents), m) + 1):
        for subset in itertools.combinations(agents, k):
            for slots in itertools.permutations(range(1, m + 1), k):
                yield tuple(zip(subset, slots))


def _evaluate(instance, assignment, prices, gains):
    if not assignment:
        return 0.0
    p_min = min(prices[a] for a, _ in assignment)
    sw = 0.0
    for a, slot in assignment:
        lam = instance.slots.prominences[slot - 1]
        sw += lam * instance.quality(a).q(prices[a], p_min) * gains[a]
    return sw


def brute_force_allocate(instance: AuctionInstance, arg, mode: str,
                         *, exclude: frozenset = frozenset()):
    """Exhaustive search oracle.

    mode="indirect": ``arg`` is a StrategyProfile; enumerates every
    injective assignment at the submitted prices.
    mode="direct": ``arg`` is a sequence of reported AgentType; also
    enumerates every display price vector over the grid.  Returns the
    same result types as the fast algorithms.
    """
    agents = [i for i in range(instance.n) if i not in exclude]
    m = instance.m

    if mode == "indirect":
        _check_guard(len(agents), m)
        prices = {i: arg[i].price for i in agents}
        gains = {i: arg[i].gain for i in agents}
        best_sw, best = 0.0, ()
        for assignment in _assignments(agents, m):
            sw = _evaluate(instance, assignment, prices, gains)
            if sw > best_sw + WELFARE_TOL:
                best_sw, best = sw, assignment
        return _canonical(instance, best, prices, gains)

    if mode == "direct":
        _check_guard(len(agents), m, len(instance.price_grid))
        best_sw, best, best_prices = 0.0, (), {}
        for assignment in _assignments(agents, m):
            members = [a for a, _ in assignment]
            for combo in itertools.product(instance.price_grid, repeat=len(members)):
                prices = dict(zip(members, combo))
                gains = {a: arg[a].gain(prices[a]) for a in members}
                sw = _evaluate(instance, assignment, prices, gains)
                if sw > best_sw + WELFARE_TOL:
                    best_sw, best, best_prices = sw, assignment, prices
        gains = {a: arg[a].gain(best_prices[a]) for a, _ in best}
        return DirectAllocationResult(
            _canonical(instance, best, best_prices, gains), best_sw)

    raise ValueError(f"unknown mode {mode!r}")


def _canonical(instance, assignment, prices, gains):
    """Re-pack an oracle assignment into canonical (prefix, sorted) form."""
    if not assignment:
        return EMPTY_ALLOCATION
    p_min = min(prices[a] for a, _ in assignment)
    entries = [(a, prices[a], instance.quality(a).q(prices[a], p_min) * gains[a])
               for a, _ in assignment]
    return _allocation_from(_ranked(instance, entries))
