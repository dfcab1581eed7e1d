"""The four mechanisms: direct VCG, indirect VCG, indirect GSP, and the
augmented indirect VCG that infers types from an extra standalone price.

Each mechanism is a pure pipeline: allocate, then price the externality.
Payments are always in [0, declared value] (individual rationality plus
weak budget balance).

The equilibrium engine reads the indirect mechanisms through two helpers
here: ``_menu_classes`` groups the bids that give every agent the same
outcome, and ``_lines`` yields utility rows along one agent's axis.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass

from .allocation import (
    _allocation_from,
    _bid_gain,
    _indirect_pivots,
    _indirect_table,
    _merge_bid,
    _score_bid,
    _solve_rows,
    direct_allocate,
    direct_pivots,
    indirect_pivots,
)
from .errors import AuctionError, InferenceError
from .model import (
    WELFARE_TOL,
    AgentType,
    AuctionInstance,
    Outcome,
    Strategy,
    StrategyProfile,
    require_one_per_agent,
)

# Treat a diagonal derivative smaller than this as zero (inference error).
DERIVATIVE_FLOOR = 1e-12

_FIELD_BITS = 64  # an agent's field in a VCG pivot key (see _lines)


class MechanismKind(enum.Enum):
    DIRECT_VCG = "direct-vcg"
    INDIRECT_VCG = "indirect-vcg"
    INDIRECT_GSP = "indirect-gsp"
    INDIRECT_VCG_STAR = "indirect-vcg-star"


@dataclass(frozen=True)
class InferredType:
    c_hat: float
    alpha_hat: float
    alpha_clamped: bool = False


def _vcg(instance, sw, entries, without):
    """A VCG run's (entries, payments, declared welfare) from a pivot
    search: its welfare ``sw``, its slot-ordered (agent, price, weight, q)
    ``entries`` and each payer's welfare ``without`` her.  Payer i pays
    the welfare the others lose by her presence, max(0, without[i] -
    (sw - v_hat)), where her declared value v_hat is lam * her entry's
    weight, ``declared_value``'s arithmetic.  The payments list is
    fresh, so the caller may overwrite it."""
    payments = [0.0] * len(instance.agents)
    for lam, (i, _, w, _) in zip(instance.slots.prominences, entries):
        payments[i] = max(0.0, without[i] - (sw - lam * w))
    return entries, payments, sw


def _true_values(instance, entries, payments):
    """Each agent's true value on the page of slot-ordered ``entries``
    less her entry of ``payments``, written over ``payments``, which is
    returned.  A displayed agent's true value is lam * (q * true
    gain(price)) from the q her entry carries (``true_value``'s
    arithmetic, bit for bit, with no quality evaluation); the others'
    entries are left as they are.  Given a run's payments, which charge
    no agent who is not displayed, that is every agent's utility; given
    zeros, every agent's true value, as ``v - 0.0 == v``."""
    agents = instance.agents
    for lam, (i, p, _, q) in zip(instance.slots.prominences, entries):
        payments[i] = lam * (q * agents[i][0].gain(p)) - payments[i]
    return payments


def _outcome(instance, entries, payments, sw, diagnostics=()):
    """The ``Outcome`` of a run's slot-ordered ``entries``; the true
    welfare adds the true values in slot order, as ``true_welfare``."""
    values = _true_values(instance, entries, [0.0] * len(instance.agents))
    true_sw = 0.0
    for entry in entries:
        true_sw += values[entry[0]]
    return Outcome(_allocation_from(entries), tuple(payments), sw, true_sw,
                   diagnostics)


def run_direct_vcg(instance: AuctionInstance, reported=None) -> Outcome:
    """Jointly optimize allocation and prices, charge pivot payments.

    ``reported`` is a sequence of AgentType (defaults to the true types).
    Each assigned agent pays her declared value minus the welfare
    improvement her presence brings over the best allocation without her.
    The optimum and every pivot come from one shared direct search; each
    payer's entry weight is her declared value at the page minimum, and
    each displayed agent's true value is read off the quality her entry
    carries, so nothing is re-scored.
    """
    if reported is None:
        reported = [instance.atype(i) for i in range(instance.n)]
    return _outcome(instance, *_vcg(instance,
                                    *direct_pivots(instance, reported)))


def run_indirect_vcg(instance: AuctionInstance, profile: StrategyProfile) -> Outcome:
    """Allocate at the submitted prices, charge pivot payments.

    The optimum, its declared welfare and every pivot's welfare come from
    one shared indirect search, and the true values from the qualities its
    entries carry; nothing is re-scored.
    """
    return _outcome(instance, *_vcg(instance,
                                    *indirect_pivots(instance, profile)))


def _fill_zero_gain(instance, strategies, entries):
    """Append zero-gain agents (b == 0, positive quality) to free slots,
    as entries (agent, price, 0.0, q), from a profile's ``strategies``.

    They join at the page minimum, or on an empty page at the submitted
    price that fits the most of them (ties to the lower price), in
    tie-break order.  On an empty page a price counts only when one of
    the agents it fits holds it, as they set the page minimum; so, as in
    the search, a bid that cannot be shown moves nothing.  Each extra
    carries q at the minimum of the page as cut to the free slots.  On an
    empty page, when the cut drops every extra that holds the chosen
    price, that minimum is higher, and the extras are re-evaluated there.
    """
    free = len(instance.slots.prominences) - len(entries)
    if free <= 0:
        return entries
    candidates = ([min([e[1] for e in entries])] if entries
                  else sorted({s.price for s in strategies}))
    taken = {e[0] for e in entries}
    extras, at = [], None
    for cand in candidates:
        fit = []
        for i, s in enumerate(strategies):
            if i not in taken and s.gain == 0.0 and s.price >= cand:
                q = instance.quality(i).q(s.price, cand)
                if q > 0.0:
                    fit.append((i, s.price, 0.0, q))
        if len(fit) > len(extras) and (
                entries or any(e[1] == cand for e in fit)):
            extras, at = fit, cand
    extras = sorted(extras, key=lambda e: instance.rank(e[0]))[:free]
    if extras and not entries:
        p_min = min([e[1] for e in extras])
        if p_min != at:
            extras = [(i, p, 0.0, instance.quality(i).q(p, p_min))
                      for i, p, _, _ in extras]
    return entries + extras


def _indirect_gsp(instance, strategies, table, allow_zero_gain):
    """Indirect GSP's (entries, payments, declared welfare), from a
    profile's ``strategies`` and its indirect ``table``.  The next slot's
    occupant's weighted value is her search entry's weight.  The best
    agent left out is the first entry at the page minimum (always a
    candidate) that is not displayed: at most m positive weights are
    displayed and the table keeps m + 1, so she is there unless no
    positive weight is left out (then 0.0).  ``allow_zero_gain`` fills
    free slots with zero-gain agents.  The payments list is fresh, so the
    caller may overwrite it."""
    sw, entries = _solve_rows(instance, table, frozenset(), _bid_gain,
                              strategies)
    if allow_zero_gain:
        entries = _fill_zero_gain(instance, strategies, entries)
    payments = [0.0] * len(instance.agents)
    if entries:
        shown = []
        p_min = entries[0][1]
        for i, p, _, _ in entries:
            shown.append(i)
            if p < p_min:
                p_min = p
        for cand, _, ranked in table:
            if cand == p_min:
                break
        value = 0.0  # the best agent left out's weight
        for i, _, w, _ in ranked:
            if i not in shown:
                value = w
                break
        lams = instance.slots.prominences
        for k in range(len(entries) - 1, -1, -1):
            payments[shown[k]] = lams[k] * max(0.0, value)
            value = entries[k][2]
    return entries, payments, sw


def run_indirect_gsp(instance: AuctionInstance, profile: StrategyProfile,
                     *, allow_zero_gain: bool = False) -> Outcome:
    """Allocate at the submitted prices, charge next-slot payments.

    Each displayed agent pays her slot's prominence times the weighted
    value q(p, p_min) * b of the next slot's occupant.  The occupant of
    the last assigned slot pays it for the best unassigned agent whose
    price is at least the minimum displayed price; that filter is what
    keeps the mechanism individually rational.  ``allow_zero_gain`` lets
    ads with a declared gain of exactly zero occupy leftover slots.  The
    declared welfare and the occupants' weighted values are the search's
    own scores.
    """
    require_one_per_agent(instance, profile, "the profile")
    return _outcome(instance, *_indirect_gsp(
        instance, profile.strategies,
        _indirect_table(instance, enumerate(profile.strategies)),
        allow_zero_gain))


def infer_type(quality, bid) -> InferredType:
    """Recover (cost, conversion probability) from a (b, p, p*) bid.

    Inverts the first-order condition of the standalone price: the cost
    estimate follows from the diagonal value and derivative at p*, and
    the conversion probability from the declared gain at (p, cost).
    """
    b, p, p_star = bid
    d = quality.diagonal_derivative(p_star)
    if abs(d) < DERIVATIVE_FLOOR:
        raise InferenceError(
            f"the {quality.kind} quality is flat at its standalone price "
            f"{p_star}, so its cost cannot be inferred")
    c_hat = quality.q(p_star, p_star) / d + p_star
    if p == c_hat:
        return InferredType(c_hat, 0.0)
    alpha_hat = b / (p - c_hat)
    clamped = not 0.0 <= alpha_hat <= 1.0
    if clamped:
        alpha_hat = min(1.0, max(0.0, alpha_hat))
    return InferredType(c_hat, alpha_hat, clamped)


def _vcg_star(instance, strategies, table):
    """The starred mechanism's (entries, payments, declared welfare,
    diagnostics), from a profile's ``strategies`` and its indirect
    ``table``.  Each agent's type is inferred from her bid, and every
    agent's pivot is the direct optimum without her on the inferred
    types.  The payments list is fresh, so the caller may overwrite
    it."""
    diagnostics = []
    inferred = []
    for i, s in enumerate(strategies):
        if s.standalone_price is None:
            raise AuctionError(f"agent {i} did not submit a standalone price")
        try:
            it = infer_type(instance.quality(i),
                            (s.gain, s.price, s.standalone_price))
        except InferenceError as e:
            raise InferenceError(f"agent {i}: {e}") from e
        if it.alpha_clamped:
            diagnostics.append(f"agent {i}: inferred alpha clamped into [0, 1]")
        inferred.append(AgentType(it.alpha_hat, max(0.0, it.c_hat)))

    sw, entries = _solve_rows(instance, table, frozenset(), _bid_gain,
                              strategies)
    *_, sw_without = direct_pivots(instance, inferred, range(instance.n))
    payments = [0.0] * instance.n

    if sw < max(sw_without.values(), default=0.0) - WELFARE_TOL:
        return [], payments, 0.0, (*diagnostics, "fallback: no ad allocated")

    for lam, (i, _, w, _) in zip(instance.slots.prominences, entries):
        v_hat = lam * w
        pi = sw_without[i] - (sw - v_hat)
        if pi < -WELFARE_TOL or pi > v_hat + WELFARE_TOL:
            diagnostics.append(
                f"agent {i}: payment {pi} clamped into [0, declared value]")
        payments[i] = min(max(0.0, pi), max(0.0, v_hat))
    return entries, payments, sw, tuple(diagnostics)


def run_indirect_vcg_star(instance: AuctionInstance,
                          profile: StrategyProfile) -> Outcome:
    """Indirect allocation with direct-style payments on inferred types.

    If the declared welfare of the indirect allocation falls below the
    best inferred welfare achievable without some agent, nothing is
    allocated and all payments are zero (the individual-rationality
    fallback).
    """
    require_one_per_agent(instance, profile, "the profile")
    return _outcome(instance, *_vcg_star(
        instance, profile.strategies,
        _indirect_table(instance, enumerate(profile.strategies))))


def truthful_star_profile(instance: AuctionInstance) -> StrategyProfile:
    """Truthful input for the starred mechanism.

    Assigned agents take the price the direct mechanism would choose for
    them; the rest use their best grid price when displayed alone.  Gains
    are truthful at those prices, and the standalone price is the
    unconstrained optimizer of the diagonal value.  Where an agent's
    diagonal states no slope there, as for the piecewise-constant kinds
    (only-min, price-threshold, tabulated) on their flat pieces, kinks and
    jumps alike, the starred mechanism refuses the profile:
    ``infer_type`` cannot recover her cost.
    """
    reported = [instance.atype(i) for i in range(instance.n)]
    result = direct_allocate(instance, reported)
    strategies = []
    for i in range(instance.n):
        t = instance.atype(i)
        p = result.allocation.price_of(i)
        if p is None:
            p = max(instance.price_grid,
                    key=lambda x: instance.quality(i).q(x, x) * t.gain(x))
        p_star = instance.quality(i).standalone_price(t.alpha, t.cost)
        strategies.append(Strategy(p, t.gain(p), p_star))
    return StrategyProfile(tuple(strategies))


def run_mechanism(instance: AuctionInstance, kind: MechanismKind, bids,
                  *, gsp_allow_zero_gain: bool = False) -> Outcome:
    """Dispatch on mechanism kind.  ``bids`` is a StrategyProfile for the
    indirect mechanisms and a sequence of AgentType for the direct one."""
    if kind is MechanismKind.DIRECT_VCG:
        return run_direct_vcg(instance, bids)
    if kind is MechanismKind.INDIRECT_VCG:
        return run_indirect_vcg(instance, bids)
    if kind is MechanismKind.INDIRECT_GSP:
        return run_indirect_gsp(instance, bids,
                                allow_zero_gain=gsp_allow_zero_gain)
    if kind is MechanismKind.INDIRECT_VCG_STAR:
        return run_indirect_vcg_star(instance, bids)
    raise AuctionError(f"unknown mechanism kind {kind!r}")


def _lines(instance, kind, gsp_allow_zero_gain, agent, strategies, cands):
    """A walk of ``agent``'s lines under ``kind``: a function from a
    profile's strategies, a tuple, to a generator of every agent's
    utilities at each profile of its line, the profile with her strategy
    replaced by each of ``strategies`` in turn.

    A profile's indirect table is the other bids' rows with her bid
    merged in (``_merge_bid``), and along a line only her bid changes.
    So each of her strategies is scored once, on its first line, at
    ``cands`` (the prices the other agents can hold) and at its own price.
    The other agents' rows are built by merging too.  Agent j, the
    highest-indexed other agent, changes strategy on every line of an
    ``itertools.product`` walk, and the rest of them only every |S_j|
    lines.  So the walk keeps the rest's rows, at every price it can hold
    (``cands`` and hers), until the rest's strategies change, and scores
    each of j's strategies once, at those prices; a line's rows are j's
    bid merged into the rest's rows at the prices the other agents hold
    and at hers, cut once to the former, with each price of hers given
    that cut and its own row inserted in order.  With no rest (two
    agents) each of j's strategies starts one line only, so her scored
    bids are kept only when there is a rest.  Per profile, her bid is
    merged into those rows and the mechanism's core solves the merged
    table for the entries and a fresh payments list from the profile's
    strategies, so no ``StrategyProfile`` or ``Outcome`` is built.  The
    utility row is ``_true_values`` written over that payments list:
    each displayed agent's true value, read off the quality her entry
    carries with no quality evaluation, less her payment, and 0.0 for
    the others.  Under VCG a payer's pivot reads only the other agents'
    bids, so the walk keeps one memo of pivots, each solved once per walk
    and only when its payer pays, under one int: the sum, over agents h
    but the payer, of (1 + h's code) << ``_FIELD_BITS`` * h, a code being
    ``agent``'s index in ``strategies`` or an interned int.  Codes are
    below 2**63, so no field carries into the next: each (payer, others'
    strategies) has its own key.
    """
    vcg = kind is MechanismKind.INDIRECT_VCG
    star = kind is MechanismKind.INDIRECT_VCG_STAR
    n = len(instance.agents)
    j = n - 1 if agent < n - 1 else agent - 1  # -1 when she plays alone
    bids = [None] * len(strategies)
    j_bids: dict = {}  # j's strategies, scored at every walk price
    prices = {s.price for s in strategies}
    walk_prices = {*cands, *prices}
    rest_key, rest_rows = None, {}  # the rest's strategies, rows by price
    memo: dict = {}  # VCG pivots, keyed as in _indirect_pivots
    codes: dict = {}  # the other agents' strategies, as ints
    shift = _FIELD_BITS * agent  # her field's offset in a pivot key

    def line(start):
        nonlocal rest_key, rest_rows
        head = start[:agent]
        tail = start[agent + 1:]
        if vcg:
            fields = [(codes.setdefault(s, len(codes)) + 1) << _FIELD_BITS * i
                      if i != agent else 0 for i, s in enumerate(start)]
            others = sum(fields)
        rest = [(i, s) for i, s in enumerate(start) if i != agent and i != j]
        key = [s for _, s in rest]
        if key != rest_key:
            rest_key = key
            rest_rows = {row[0]: row for row in _indirect_table(
                instance, rest, walk_prices)}
        held = sorted({s.price for s in (*head, *tail)})
        at = rest_rows
        if j >= 0:
            s_j = start[j]
            bid_j = j_bids.get(s_j)
            if bid_j is None:
                bid_j = _score_bid(instance, j, s_j, walk_prices)
                if rest:
                    j_bids[s_j] = bid_j
            at = {row[0]: row for row in _merge_bid(
                instance, [at[cand] for cand in sorted({*held, *prices})],
                bid_j)}
        cut = [at[cand] for cand in held]
        rows = {}
        for p in prices:
            k = bisect_left(held, p)
            rows[p] = (cut if k < len(held) and held[k] == p
                       else [*cut[:k], at[p], *cut[k:]])
        for k, s in enumerate(strategies):
            bid = bids[k]
            if bid is None:
                bid = bids[k] = _score_bid(instance, agent, s, cands)
            strats = (*head, s, *tail)
            table = _merge_bid(instance, rows[s.price], bid)
            if vcg:
                fields[agent] = field = (k + 1) << shift
                out = _vcg(instance, *_indirect_pivots(
                    instance, strats, table, (memo, others + field, fields)))
            elif star:
                out = _vcg_star(instance, strats, table)
            else:
                out = _indirect_gsp(instance, strats, table,
                                    gsp_allow_zero_gain)
            entries, payments = out[0], out[1]
            yield tuple(_true_values(instance, entries, payments))
    return line


def _menu_classes(instance, kind, options, gsp_allow_zero_gain):
    """Per agent, her menu's indices in classes of strategies that give
    every agent the same utilities, ordered by their first index: all her
    non-participating strategies in one class, each other one alone.

    A non-participant is a bid that no run can show: its table bound
    peak(p, q(p, p)) * gain is <= 0, unless GSP's zero-gain fill can show
    it (gain 0 and a positive peak).  Neither the indirect search nor the
    fill tries a page minimum that only such bids hold, so the outcome is
    the same whichever of them an agent submits.  The starred mechanism's
    payments read every bid, so its strategies each stay alone.
    """
    if kind is MechanismKind.INDIRECT_VCG_STAR:
        return [[[k] for k in range(len(menu))] for menu in options]
    zero_fill = kind is MechanismKind.INDIRECT_GSP and gsp_allow_zero_gain
    menus = []
    for i, menu in enumerate(options):
        quality = instance.quality(i)
        peaks: dict = {}
        classes: list = []
        dead = None
        for k, s in enumerate(menu):
            peak = peaks.get(s.price)
            if peak is None:
                peak = peaks[s.price] = quality.peak(
                    s.price, quality.q(s.price, s.price))
            if peak * s.gain > 0.0 or (zero_fill and s.gain == 0.0
                                       and peak > 0.0):
                classes.append([k])
            elif dead is None:
                dead = [k]
                classes.append(dead)
            else:
                dead.append(k)
        menus.append(classes)
    return menus
