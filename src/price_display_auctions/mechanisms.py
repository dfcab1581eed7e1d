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
from dataclasses import dataclass

from .allocation import (
    _allocation_from,
    _indirect_pivots,
    _indirect_table,
    _merge_bid,
    _score_bid,
    _score_bids,
    _solve_indirect,
    _table_rows,
    direct_allocate,
    direct_pivots,
    indirect_pivots,
)
from .errors import AuctionError, InferenceError
from .model import (
    EMPTY_ALLOCATION,
    WELFARE_TOL,
    AgentType,
    AuctionInstance,
    Outcome,
    Strategy,
    StrategyProfile,
)

# Treat a diagonal derivative smaller than this as zero (inference error).
DERIVATIVE_FLOOR = 1e-12


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
    weight, ``declared_value``'s arithmetic."""
    payments = [0.0] * instance.n
    for lam, (i, _, w, _) in zip(instance.slots.prominences, entries):
        payments[i] = max(0.0, without[i] - (sw - lam * w))
    return entries, payments, sw


def _true_values(instance, entries):
    """Each agent's true value on the page of slot-ordered ``entries``:
    lam * (q * true gain(price)) for a displayed agent, from the q her
    entry carries (``true_value``'s arithmetic, bit for bit, with no
    quality evaluation), and 0.0 for the others."""
    values = [0.0] * instance.n
    agents = instance.agents
    for lam, (i, p, _, q) in zip(instance.slots.prominences, entries):
        values[i] = lam * (q * agents[i][0].gain(p))
    return values


def _outcome(instance, entries, payments, sw, diagnostics=()):
    """The ``Outcome`` of a run's slot-ordered ``entries``; the true
    welfare adds the true values in slot order, as ``true_welfare``."""
    values = _true_values(instance, entries)
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
    payer's entry weight is her declared value at the designated minimum
    price, and each displayed agent's true value is read off the quality
    her entry carries, so nothing is re-scored.
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


def _fill_zero_gain(instance, profile, entries):
    """Append zero-gain agents (b == 0, positive quality) to free slots,
    as entries (agent, price, 0.0, q).

    They join at the page minimum, or on an empty page at the submitted
    price that fits the most of them (ties to the lower price), in
    tie-break order.  On an empty page a price counts only when one of
    the agents it fits holds it, as they set the page minimum; so, as in
    the search, a bid that cannot be shown moves nothing.  Each extra
    carries q at the minimum of the page as cut to the free slots.  On an
    empty page, when the cut drops every extra that holds the chosen
    price, that minimum is higher, and the extras are re-evaluated there.
    """
    free = instance.m - len(entries)
    if free <= 0:
        return entries
    candidates = ([min([e[1] for e in entries])] if entries
                  else sorted({s.price for s in profile.strategies}))
    taken = {e[0] for e in entries}
    extras, at = [], None
    for cand in candidates:
        fit = []
        for i, s in enumerate(profile.strategies):
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


def _indirect_gsp(instance, profile, table, allow_zero_gain):
    """Indirect GSP's (entries, payments, declared welfare), from the
    profile's indirect ``table``.  The next slot's occupant's weighted
    value is her search entry's weight.  The best agent left out is the
    first entry at the page minimum (always a candidate) that is not
    displayed: at most m positive weights are displayed and the table
    keeps m + 1, so she is there unless no positive weight is left out
    (then 0.0).  ``allow_zero_gain`` fills free slots with zero-gain
    agents."""
    sw, entries = _solve_indirect(instance, profile, table, frozenset())
    if allow_zero_gain:
        entries = _fill_zero_gain(instance, profile, entries)
    payments = [0.0] * instance.n
    if entries:
        shown = [e[0] for e in entries]
        p_min = min([e[1] for e in entries])
        for cand, _, ranked in table:
            if cand == p_min:
                break
        best_left_out = 0.0
        for i, _, w, _ in ranked:
            if i not in shown:
                best_left_out = w
                break
        next_values = [e[2] for e in entries[1:]] + [best_left_out]
        for lam, i, value in zip(instance.slots.prominences, shown,
                                 next_values):
            payments[i] = lam * max(0.0, value)
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
    return _outcome(instance, *_indirect_gsp(
        instance, profile, _indirect_table(instance, profile),
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


def run_indirect_vcg_star(instance: AuctionInstance,
                          profile: StrategyProfile) -> Outcome:
    """Indirect allocation with direct-style payments on inferred types.

    If the declared welfare of the indirect allocation falls below the
    best inferred welfare achievable without some agent, nothing is
    allocated and all payments are zero (the individual-rationality
    fallback).
    """
    diagnostics = []
    inferred = []
    for i in range(instance.n):
        s = profile[i]
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

    sw, entries = _solve_indirect(instance, profile,
                                  _indirect_table(instance, profile),
                                  frozenset())
    *_, sw_without = direct_pivots(instance, inferred, range(instance.n))

    if sw < max(sw_without.values(), default=0.0) - WELFARE_TOL:
        payments = (0.0,) * instance.n
        return Outcome(EMPTY_ALLOCATION, payments, 0.0, 0.0,
                       tuple(diagnostics + ["fallback: no ad allocated"]))

    payments = [0.0] * instance.n
    for lam, (i, _, w, _) in zip(instance.slots.prominences, entries):
        v_hat = lam * w
        pi = sw_without[i] - (sw - v_hat)
        if pi < -WELFARE_TOL or pi > v_hat + WELFARE_TOL:
            diagnostics.append(
                f"agent {i}: payment {pi} clamped into [0, declared value]")
        payments[i] = min(max(0.0, pi), max(0.0, v_hat))
    return _outcome(instance, entries, payments, sw, tuple(diagnostics))


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
    profile to a generator of every agent's utilities at each profile of
    its line, the profile with her strategy replaced by each of
    ``strategies`` in turn.

    A profile's indirect table is the other bids' rows with her bid
    merged in (``_merge_bid``), and along a line only her bid changes.
    So each of her strategies is scored once, on its first line, at
    ``cands`` (the prices the other agents can hold) and at its own price.
    Per line, the other agents' bids are scored once and their rows built
    at the prices they hold and at hers.  Per profile, her bid is merged
    into their rows and the mechanism's core solves the merged table for
    the entries and payments, so no ``Outcome`` is built, and each
    displayed agent's true value is read off the quality her entry
    carries, with no quality evaluation.  Under VCG a
    payer's pivot reads only the other agents' bids, so the walk keeps
    one memo of pivots under the others' strategies, coded as ints (her
    strategies by their index in ``strategies``): each is solved once
    per walk, and only when its payer pays.  The starred mechanism runs
    in full per profile.
    """
    if kind is MechanismKind.INDIRECT_VCG_STAR:
        def star_line(start):
            for s in strategies:
                yield run_indirect_vcg_star(instance, start.replace(agent, s)
                                            ).utilities(instance)
        return star_line
    vcg = kind is MechanismKind.INDIRECT_VCG
    bids = [None] * len(strategies)
    prices = {s.price for s in strategies}
    memo: dict = {}  # VCG pivots, keyed as in _indirect_pivots
    codes: dict = {}  # the other agents' strategies, as ints

    def line(start):
        head = start.strategies[:agent]
        tail = start.strategies[agent + 1:]
        if vcg:
            head_codes = tuple([codes.setdefault(s, len(codes))
                                for s in head])
            tail_codes = tuple([codes.setdefault(s, len(codes))
                                for s in tail])
        held, gains = _score_bids(instance, [
            (i, s) for i, s in enumerate(start.strategies) if i != agent])
        theirs = _table_rows(instance, held, gains,
                             sorted(prices.union(held)))
        at = {row[0]: row for row in theirs}
        rows = {p: [at[cand] for cand in sorted({*held, p})] for p in prices}
        for k, s in enumerate(strategies):
            bid = bids[k]
            if bid is None:
                bid = bids[k] = _score_bid(instance, agent, s,
                                           sorted(cands | {s.price}))
            prof = StrategyProfile((*head, s, *tail))
            table = _merge_bid(instance, rows[s.price], bid)
            if vcg:
                known = memo, (*head_codes, k, *tail_codes)
                out = _vcg(instance, *_indirect_pivots(instance, prof, table,
                                                       known))
            else:
                out = _indirect_gsp(instance, prof, table,
                                    gsp_allow_zero_gain)
            entries, payments, _ = out
            yield tuple([v - pay for v, pay in zip(
                _true_values(instance, entries), payments)])
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
