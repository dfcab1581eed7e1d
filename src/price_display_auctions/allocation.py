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
    """Sort entries, (agent, price, weight, ...) tuples, for slot filling:
    descending weight, instance tie-break on near-ties."""
    return sorted(entries, key=lambda e: (-e[2], instance.rank(e[0])))


def _weighted_sw(instance, entries):
    """Declared welfare of slot-ordered entries: lam * (q * gain) added
    left to right from 0.0, ``declared_welfare``'s arithmetic.  A loop,
    not ``sum()``, which compensates float sums from Python 3.12 on."""
    sw = 0.0
    for lam, entry in zip(instance.slots.prominences, entries):
        sw += lam * entry[2]
    return sw


def _allocation_from(entries):
    return Allocation(tuple([e[0] for e in entries]),
                      tuple([e[1] for e in entries]))


def _threshold_top(scan, keep, score):
    """The best ``keep`` entries of a bound-ordered scan, descending.

    ``scan`` yields tuples in ascending order whose first field is an
    agent's negated bound, so in descending bound order, and ``score``
    maps one to that agent's entry (w, -rank, agent, price, q), w at most
    the bound, or to None.  The scan stops once it holds ``keep`` entries
    and the next bound is strictly below the keep-th weight (Fagin, Lotem
    and Naor's threshold algorithm); an equal bound may still tie and win
    on rank.  It reads one tuple past the last it scores.
    """
    top: list = []  # a min-heap whose root is the worst entry kept
    for item in scan:
        if len(top) == keep and -item[0] < top[0][0]:
            break
        entry = score(item)
        if entry is None:
            continue
        if len(top) < keep:
            heapq.heappush(top, entry)
        elif entry > top[0]:
            heapq.heapreplace(top, entry)
    top.sort(reverse=True)
    return top


def _score_bids(instance, bids):
    """Bucket (agent, strategy) ``bids`` by price for ``_table_rows``:
    (buckets, gains), with no quality evaluation.

    ``buckets`` maps each submitted price to the agents who submitted it
    with a positive gain, in agent order, and ``gains`` maps each of them
    to her gain.  A price bid only with gains <= 0 maps to no agent: such
    a bid is never scored, and its price is a candidate whose row serves
    GSP's page-minimum lookup alone.
    """
    buckets: dict = {}
    gains = {}
    for i, s in bids:
        ids = buckets.get(s.price)
        if ids is None:
            ids = buckets[s.price] = []
        gain = s.gain
        if gain > 0.0:
            ids.append(i)
            gains[i] = gain
    return buckets, gains


def _table_rows(instance, buckets, gains, cands):
    """Per candidate minimum in ``cands``: (cand, holders, ranked entries),
    from ``_score_bids``' ``buckets`` and ``gains``.

    A candidate's entries are the (agent, price, weight, q) of the bids
    priced at or above it with a positive weight q * gain, where q is
    q(price, cand), the first keep = m + 1 in ``_ranked`` order.  Its
    holders are the first two of its live holders in agent order: the
    agents who bid exactly it with a positive diagonal weight
    q(p, p) * gain, the bids that could be shown at it.  A solve excludes
    at most one agent, so two tell it whether one is left.

    A bid's bound, peak * gain (see ``QualityModel.peak``), is the largest
    weight it can take at any candidate, and its gain bounds that in turn,
    as qualities lie in [0, 1].  With at most ``keep`` positive gains per
    price on average, every diagonal is evaluated, and each candidate
    scans the bids sorted by bound until ``_threshold_top`` stops, or
    scores them all when at most ``keep`` have a positive bound, as
    nothing can be pruned.  With more, each price's bucket yields its
    bids in descending (bound, -rank) order through an exact prefix that
    every candidate shares: it holds the bids sorted by gain and
    evaluates a bid's diagonal, then its peak, only once its gain
    reaches the best bound pending in the bucket.
    Each candidate merges the buckets priced at or above it by their
    best bound, reading a bucket while its next bound reaches every other
    bucket's, until the threshold algorithm (Fagin, Lotem and Naor)
    stops: it holds ``keep`` entries and no bucket's bound reaches the
    keep-th weight; an equal bound may still tie and win on rank.  A bid
    whose gain is below the threshold, or below another bucket's bound
    while the scan reads there, is not evaluated.  So the scans read the
    bids in the one descending bound order of all of them, and evaluate
    no quality that the scan of every bid sorted by bound would not.
    """
    keep = instance.m + 1
    agents = instance.agents
    rank = instance.rank
    table = []
    if len(gains) <= keep * len(buckets):
        # Few bids per price: a lazy scan would read nearly every bucket
        # whole, at a higher cost per bid, so evaluate every diagonal.
        holders = {}
        scored = []
        for p, ids in buckets.items():
            live = holders[p] = []
            for i in ids:
                quality = agents[i][1]
                gain = gains[i]
                d = quality.q(p, p)
                if d * gain > 0.0 and len(live) < 2:
                    live.append(i)
                bound = quality.peak(p, d) * gain
                if bound > 0.0:
                    scored.append((-bound, rank(i), i, p, gain, quality, d))
        prunable = len(scored) > keep
        if prunable:
            scored.sort()
        for cand in cands:
            if not prunable:
                top = []
                for _, r, i, p, gain, quality, d in scored:
                    if p >= cand:
                        v = d if p == cand else quality.q(p, cand)
                        w = v * gain
                        if w > 0.0:
                            top.append((w, -r, i, p, v))
                top.sort(reverse=True)
            else:
                def score(item, cand=cand):
                    _, r, i, p, gain, quality, d = item
                    if p >= cand:
                        v = d if p == cand else quality.q(p, cand)
                        w = v * gain
                        if w > 0.0:
                            return (w, -r, i, p, v)
                    return None
                top = _threshold_top(scored, keep, score)
            table.append((cand, holders.get(cand, []),
                          [(i, p, w, v) for w, _, i, p, v in top]))
        return table
    # The holders first, in agent order; their diagonals are kept for
    # the buckets.
    diagonals = {}
    holders = {}
    for p, ids in buckets.items():
        live = holders[p] = []
        for i in ids:
            d = diagonals[i] = agents[i][1].q(p, p)
            if d * gains[i] > 0.0:
                live.append(i)
                if len(live) == 2:
                    break
    # Per price with a positive gain, ascending: (price, exact prefix of
    # (-bound, rank, agent, price, gain, quality model, diagonal) tuples,
    # heap of the bids evaluated but not yet in it, bids not evaluated in
    # ascending gain).  (-bound, rank) and (w, -rank) are unique per agent:
    # a bucket yields one order, and the kept (w, -rank, agent, price, q)
    # in descending order are in _ranked's order.
    states = [(p, [], [], sorted(ids, key=gains.__getitem__))
              for p, ids in sorted(buckets.items()) if ids]
    starts = [state[0] for state in states]
    heappush, heappop, heapreplace = (heapq.heappush, heapq.heappop,
                                      heapq.heapreplace)
    for cand in cands:
        top: list = []  # a min-heap whose root is the worst entry kept
        worst = 0.0  # its weight, once it holds keep entries
        # The buckets priced at or above cand, as (-upper bound, bucket,
        # index of its next bid in the prefix): the root's is the best.
        heads = []
        for b in range(bisect_left(starts, cand), len(states)):
            _, order, pending, queue = states[b]
            if order:
                heads.append((order[0][0], b, 0))
                continue
            u = -pending[0][0] if pending else 0.0
            if queue and gains[queue[-1]] > u:
                u = gains[queue[-1]]
            heads.append((-u, b, 0))
        heapq.heapify(heads)
        while heads:
            key, b, k = heads[0]
            if -key < worst:
                break
            # The best bound of the other buckets, at the root's children.
            nxt = 0.0
            if len(heads) > 1:
                nxt = -heads[1][0]
                if len(heads) > 2 and -heads[2][0] > nxt:
                    nxt = -heads[2][0]
            p, order, pending, queue = states[b]
            while True:
                # Read this bucket while its bids reach both the threshold
                # and the other buckets' best bound.
                floor = worst if worst > nxt else nxt
                if k < len(order):
                    item = order[k]
                    if -item[0] < floor:
                        heapreplace(heads, (item[0], b, k))
                        break
                else:
                    # Extend the prefix: evaluate the bids whose gain
                    # reaches the floor and the best bound pending.
                    while queue:
                        i = queue[-1]
                        gain = gains[i]
                        if gain < floor or (pending
                                            and gain < -pending[0][0]):
                            break
                        queue.pop()
                        quality = agents[i][1]
                        d = diagonals.get(i)
                        if d is None:
                            d = quality.q(p, p)
                        bound = quality.peak(p, d) * gain
                        if bound > 0.0:
                            heappush(pending, (-bound, rank(i), i, p, gain,
                                               quality, d))
                    if not pending or (queue and gains[queue[-1]]
                                       >= -pending[0][0]):
                        # No exact bound reaches the floor: at most the
                        # next gain, or the bucket is spent.
                        if queue:
                            heapreplace(heads, (-gains[queue[-1]], b, k))
                        else:
                            heappop(heads)
                        break
                    if -pending[0][0] < floor:
                        heapreplace(heads, (pending[0][0], b, k))
                        break
                    item = heappop(pending)
                    order.append(item)
                k += 1
                _, r, i, _, gain, quality, d = item
                v = d if p == cand else quality.q(p, cand)
                w = v * gain
                if w > 0.0:
                    entry = (w, -r, i, p, v)
                    if len(top) < keep:
                        heappush(top, entry)
                        if len(top) == keep:
                            worst = top[0][0]
                    elif entry > top[0]:
                        heapreplace(top, entry)
                        worst = top[0][0]
        top.sort(reverse=True)
        table.append((cand, holders.get(cand, []),
                      [(i, p, w, v) for w, _, i, p, v in top]))
    return table


def _indirect_table(instance, profile):
    """Per candidate minimum: (cand, holders, ranked entries).

    The candidates are the distinct submitted prices, in ascending order,
    and the rows are ``_table_rows``' over every bid.  A candidate held
    only by bids that cannot be shown has no live holder, and its row
    serves GSP's page-minimum lookup alone.  A solve that excludes one
    agent still finds its first m entries in a row; and as at most m
    entries are displayed, so does the best agent left out at the page
    minimum.

    Qualities lie in [0, 1] and are non-decreasing in the minimum price,
    so an agent's weight at any candidate is at most her bound, and her
    bound at most her gain: the bound-ordered scan of each row is exact.
    A bid with a gain <= 0 is never evaluated.
    """
    buckets, gains = _score_bids(instance, enumerate(profile.strategies))
    return _table_rows(instance, buckets, gains, sorted(buckets))


def _score_bid(instance, agent, strategy, cands):
    """One bid scored for ``_merge_bid``: (agent, price, live, entries).

    ``live`` says whether the bid could be shown at its own price, and
    ``entries`` maps each of ``cands`` (which should hold the price) at
    which it has a positive weight q(price, cand) * gain to its entry
    (agent, price, weight, q), as ``_table_rows`` scores it.
    """
    entries = {}
    live = False
    for cand, held, ranked in _table_rows(
            instance, *_score_bids(instance, [(agent, strategy)]), cands):
        if ranked:
            entries[cand] = ranked[0]
        if held:  # her own price's row, where she is live
            live = True
    return agent, strategy.price, live, entries


def _merge_bid(instance, rows, bid):
    """``_indirect_table`` of a profile, from the rows of all its bids but
    one and that bid as ``_score_bid`` scored it.

    ``rows`` are the other bids' ``_table_rows`` at the profile's
    candidates, the prices they hold and the bid's, in ascending order.
    The bid joins its own price's holders when it is live, which keep
    the first two in agent order.  Its scored entry joins each row's
    ranked entries, as it is, where ``_ranked`` puts it, if among the
    first m + 1.  Both sides' rows are exact, so each merged row equals
    the profile's own; the merge takes O(|C| m) steps and no quality
    evaluation.
    """
    agent, price, live, entries = bid
    keep = instance.m + 1
    rank = instance.rank(agent)
    table = []
    for cand, holders, ranked in rows:
        if live and cand == price:
            holders = sorted([*holders, agent])[:2]
        entry = entries.get(cand)
        if entry is not None:
            w = entry[2]
            for k, (i, _, v, _) in enumerate(ranked):
                if w > v or (w == v and rank < instance.rank(i)):
                    break
            else:
                k = len(ranked)
            if k < keep:
                ranked = [*ranked[:k], entry, *ranked[k:keep - 1]]
        table.append((cand, holders, ranked))
    return table


def _solve_indirect(instance, profile, table, exclude):
    """Best (welfare, entries) over the table without ``exclude``.

    A candidate whose live holders are all excluded, or that has none, is
    skipped: the candidates tried are the prices at which a bid left in
    could be shown, in ascending order, and the first best wins.  Each
    takes the first m entries not excluded; when none of them holds the
    candidate, they are re-evaluated at their actual minimum price
    (qualities can only rise), each with the new q it carries, and
    re-ranked.  So every entry returned carries q(price, page minimum).

    ``exclude`` holds at most one agent, so every candidate tried takes
    at least one entry: its row holds either m + 1 entries, at least
    m >= 1 of them left in, or every positive weight at the candidate,
    among them the left-in live holder's (her diagonal weight).
    """
    m = instance.m
    lams = instance.slots.prominences
    best_entries: list = []
    best_sw = 0.0
    for cand, holders, ranked in table:
        if exclude.issuperset(holders):
            continue
        if not exclude:
            chosen = ranked[:m]
        else:
            chosen = [e for e in ranked if e[0] not in exclude][:m]
        actual = chosen[0][1]
        for _, p, _, _ in chosen:
            if p < actual:
                actual = p
        if actual != cand:
            rescored = []
            for i, p, _, _ in chosen:
                q = instance.quality(i).q(p, actual)
                rescored.append((i, p, q * profile[i].gain, q))
            chosen = _ranked(instance, rescored)
        # _weighted_sw's sum, inlined: this is the engine's hottest loop.
        sw = 0.0
        for lam, (_, _, w, _) in zip(lams, chosen):
            sw += lam * w
        if sw > best_sw + WELFARE_TOL:
            best_sw = sw
            best_entries = chosen
    return best_sw, best_entries


def indirect_allocate(instance: AuctionInstance, profile: StrategyProfile
                      ) -> Allocation:
    """Assignment maximizing declared welfare at the submitted prices.

    Each submitted price held by a bid with a positive diagonal weight
    q(p, p) * gain is tried as the minimum displayed price (the best
    page's minimum is always such a bid's); only agents with strictly
    positive weighted declared value are assigned.  So a bid that can
    never be shown, with peak * gain <= 0 (see ``QualityModel.peak``),
    moves nothing: the optimum and every pivot are the same whichever such
    bid an agent submits.

    The search relies on every quality lying in [0, 1] and being
    non-decreasing in the minimum price.  It buckets the bids by price,
    each bucket sorted by gain, which bounds every weight a bid can take.
    Per candidate (|C| distinct submitted prices) it reads the bids in
    descending bound order only until none left can enter the best m + 1.
    On a page with more than m + 1 positive gains per price on average it
    evaluates a bid's diagonal only when its gain can still reach the
    row, plus the first two live holders of each price; on others, every
    diagonal.  That is O(n log n) steps, a few evaluations per bid that
    can enter a row and O(|C| m) more when weights stay near their
    bounds, and O(n |C|) at worst; then O(|C| m) steps and at most m |C|
    re-evaluations.
    """
    return _allocation_from(_solve_indirect(
        instance, profile, _indirect_table(instance, profile),
        frozenset())[1])


def indirect_pivots(instance: AuctionInstance, profile: StrategyProfile
                    ) -> tuple[float, list, dict[int, float]]:
    """The indirect optimum and, for each agent it assigns (the VCG
    pivots), the declared welfare of the indirect optimum without her.

    The optimum comes as its welfare and its slot-ordered (agent, price,
    weight, q) entries, where q is q(price, p_min) at the page minimum
    p_min and the weight q * gain.  All solves share the search's table,
    so each pivot adds O(|C| m) steps and at most m |C| quality
    re-evaluations.  The welfare is the search's own score, equal bit for
    bit to ``declared_welfare`` of the allocation it picks, and a true
    value is lam * (q * true gain) with no quality evaluation.
    """
    return _indirect_pivots(instance, profile,
                            _indirect_table(instance, profile), None)


def _indirect_pivots(instance, profile, table, known):
    """``indirect_pivots`` over the profile's prebuilt ``table``.

    ``known`` is None, and every pivot is solved, or (memo, codes): a
    memo that one walk of many profiles owns, and this profile's
    strategies as codes, one int per agent that stands for the same
    strategy in every profile of the walk.  The solve without i tries
    exactly the prices where some other bid is live and reads the
    others' first m entries there, so her pivot depends only on the
    others' strategies: it is stored under their codes and solved only
    on a miss, bit for bit what a fresh solve gives.
    """
    sw, entries = _solve_indirect(instance, profile, table, frozenset())
    without = {}
    for i, _, _, _ in entries:
        if known is None:
            without[i] = _solve_indirect(instance, profile, table,
                                         frozenset((i,)))[0]
            continue
        memo, codes = known
        key = codes[:i], codes[i + 1:]
        pivot = memo.get(key)
        if pivot is None:
            pivot = memo[key] = _solve_indirect(instance, profile, table,
                                                frozenset((i,)))[0]
        without[i] = pivot
    return sw, entries, without


def _direct_table(instance, reported):
    """Per grid price p_hat: (p_hat, diagonal entries, ranked best entries).

    Entries are (agent, price, weight, q), where q is q(price, p_hat) and
    the weight q * gain(price).  An agent's diagonal entry, one per agent
    in agent order, is hers at price p_hat, what she brings when
    designated to show it.  Her best entry is hers at the first price
    >= p_hat whose weight beats the best so far by more than WELFARE_TOL;
    it depends on p_hat alone, not on the designated agent or on who is
    excluded, so one table serves every solve.  Agents with no positive
    weight have no entry, and only the first keep = m + 1 entries in
    ``_ranked`` order are kept: a solve excludes at most one agent, so it
    still finds its first m there.

    Qualities are non-decreasing in the minimum price, so an agent's
    weight at price grid[j] and any p_hat <= grid[j] is at most
    peak(grid[j]) * gain(grid[j]) (see ``QualityModel.peak``), and her
    best entry at p_hat = grid[k] at most the suffix maximum of those
    terms over j >= k, her bound.  Each p_hat scans the agents in
    descending bound order, scoring full rows, until ``_threshold_top``
    stops.  Every agent's diagonal is scored once per grid price and
    serves as her row's first cell, so a table costs n |P| quality
    evaluations plus the rows of the agents scanned.
    """
    grid = instance.price_grid
    keep = instance.m + 1
    ranks = [instance.rank(h) for h in range(instance.n)]
    qs, gains, diagonals, bounds = [], [], [], []
    for h in range(instance.n):
        quality = instance.quality(h)
        gains_h = [reported[h].gain(p) for p in grid]
        diagonal = []
        terms = []
        for p, gain in zip(grid, gains_h):
            d = quality.q(p, p)
            diagonal.append((h, p, d * gain, d))
            terms.append(quality.peak(p, d) * gain)
        # Suffix maxima; a bound <= 0 is never scanned, so start at 0.
        bound = 0.0
        bounds_h = []
        for term in reversed(terms):
            if term > bound:
                bound = term
            bounds_h.append(bound)
        bounds_h.reverse()
        qs.append(quality.q)
        gains.append(gains_h)
        diagonals.append(diagonal)
        bounds.append(bounds_h)

    def entry(item):
        """Agent h's best entry at p_hat = grid[k], as
        (w, -rank, h, price, q), or None."""
        _, rank, h, k = item
        best = None
        for j in range(k, len(grid)):
            v = diagonals[h][k][3] if j == k else qs[h](grid[j], grid[k])
            w = v * gains[h][j]
            if w > 0.0 and (best is None or w > best[0] + WELFARE_TOL):
                best = (w, -rank, h, grid[j], v)
        return best

    table = []
    for k, p_hat in enumerate(grid):
        # (-bound, rank) and (w, -rank) are unique per agent; the kept
        # (w, -rank, agent, price, q) in descending order are in _ranked's
        # order.
        scan = sorted((-b[k], ranks[h], h, k) for h, b in enumerate(bounds)
                      if b[k] > 0.0)
        top = _threshold_top(scan, keep, entry)
        table.append((p_hat, [d[k] for d in diagonals],
                      [(h, p, w, v) for w, _, h, p, v in top]))
    return table


def _solve_direct(instance, table, exclude):
    """Best (welfare, entries) over the table without ``exclude``.

    Candidates run in ascending (p_hat, designated agent) order.  The
    designated agent i shows p_hat; the other slots go to the first m - 1
    ranked entries that are neither i nor excluded: the first m entries
    not excluded (``top``) less i's own entry, or else less the m-th.  Her
    diagonal entry is inserted, as it is, where ``_ranked`` would put it.

    Per p_hat and dropped entry, prefix sums of lam_j * w_j and suffix
    sums of lam_{j+1} * w_j over the others give each candidate's welfare
    as an O(1) estimate.  It adds the same m or fewer non-negative
    products as ``_weighted_sw`` in another order, so the two differ by
    about 2 (m - 1) 2^-53 times the estimate at most.  A candidate is
    skipped when its estimate plus a margin of 4 (m + 2) 2^-53 times it
    still cannot beat the best by more than WELFARE_TOL; every other
    candidate is scored exactly.  A NaN estimate is never skipped, and an
    infinite one only once the best is infinite, which no sum can beat.
    """
    m = instance.m
    lams = instance.slots.prominences
    ranks = [instance.rank(i) for i in range(instance.n)]
    slack = 4 * (m + 2) * 2.0 ** -53
    best_sw = 0.0
    best_entries: list = []
    for p_hat, diagonal, ranked in table:
        top = [e for e in ranked if e[0] not in exclude][:m]
        top_index = {e[0]: k for k, e in enumerate(top)}
        top_keys = [(-w, ranks[a]) for a, _, w, _ in top]
        views: dict = {}
        for i, designated in enumerate(diagonal):
            w_i = designated[2]
            if w_i <= 0.0 or i in exclude:
                continue
            # Drop i's own entry, or else the m-th.
            k = top_index.get(i, m - 1)
            view = views.get(k)
            if view is None:
                others = top[:k] + top[k + 1:]
                pre = [0.0]
                for lam, (_, _, w, _) in zip(lams, others):
                    pre.append(pre[-1] + lam * w)
                suf = [0.0] * len(pre)
                for j in range(len(others) - 1, -1, -1):
                    suf[j] = lams[j + 1] * others[j][2] + suf[j + 1]
                view = views[k] = (others, top_keys[:k] + top_keys[k + 1:],
                                   pre, suf)
            others, keys, pre, suf = view
            pos = bisect_left(keys, (-w_i, ranks[i]))
            est = pre[pos] + lams[pos] * w_i + suf[pos]
            margin = slack * est
            if est + margin <= best_sw + WELFARE_TOL:
                continue
            chosen = others[:pos] + [designated] + others[pos:]
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
    slots are filled greedily.  Each agent's diagonal is scored once per
    grid price, and her best price per candidate only while she can still
    enter the best m + 1 there: n |P| quality evaluations plus the rows of
    those contenders, O(n |P|^2) at worst.  Each pair's welfare is then
    estimated in O(1), and summed exactly only when it can win.
    """
    sw, entries, _ = direct_pivots(instance, reported, ())
    return DirectAllocationResult(_allocation_from(entries), sw)


def direct_pivots(instance: AuctionInstance, reported, pivots=None
                  ) -> tuple[float, list, dict[int, float]]:
    """The direct optimum and, for each pivot agent, the declared welfare
    of the direct optimum without her.

    The optimum comes as its welfare and its slot-ordered (agent, price,
    weight, q) entries, where q is q(price, p_hat) at the designated
    minimum price p_hat, the allocation's own minimum, and the weight
    q * gain(price).  ``pivots`` defaults to the agents the optimum
    assigns (the VCG pivots).  All solves share one table, so each pivot
    adds O(|P| (n log m + m^2)) steps, an exact O(m) sum per pair that
    can win and no quality evaluations.  The welfare is the search's own
    score, equal bit for bit to ``declared_welfare`` of the allocation it
    picks at its chosen gains, and a true value is lam * (q * true gain)
    with no quality evaluation.
    """
    table = _direct_table(instance, reported)
    sw, entries = _solve_direct(instance, table, frozenset())
    if pivots is None:
        pivots = [e[0] for e in entries]
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
