"""The four mechanisms: direct VCG, indirect VCG, indirect GSP, and the
augmented indirect VCG that infers types from an extra standalone price.

Each mechanism is a pure pipeline: allocate, then price the externality.
Payments are always in [0, declared value] (individual rationality plus
weak budget balance).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import quality as quality_mod
from .allocation import (
    direct_allocate,
    direct_pivots,
    indirect_allocate,
    indirect_pivots,
)
from .errors import AuctionError, InferenceError
from .model import (
    EMPTY_ALLOCATION,
    AgentType,
    AuctionInstance,
    Outcome,
    Strategy,
    StrategyProfile,
    declared_value,
    declared_welfare,
    true_welfare,
)

# Treat a diagonal derivative smaller than this as zero (inference error).
DERIVATIVE_FLOOR = 1e-12
# Slack used when comparing welfare maxima inside the starred mechanism.
STAR_TOL = 1e-9


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


def _pivot_outcome(instance, alloc, sw, without, gains):
    """Pivot payments: each assigned agent i pays the welfare the others
    lose by her presence, max(0, without[i] - (sw - v_hat)), where ``sw``
    and ``without`` are the search's own welfare scores."""
    payments = [0.0] * instance.n
    for i in alloc.slot_agents:
        v_hat = declared_value(instance, alloc, i, gains[i])
        payments[i] = max(0.0, without[i] - (sw - v_hat))
    return Outcome(alloc, tuple(payments), sw, true_welfare(instance, alloc))


def run_direct_vcg(instance: AuctionInstance, reported=None) -> Outcome:
    """Jointly optimize allocation and prices, charge pivot payments.

    ``reported`` is a sequence of AgentType (defaults to the true types).
    Each assigned agent pays her declared value minus the welfare
    improvement her presence brings over the best allocation without her.
    The optimum and every pivot come from one shared direct search.
    """
    if reported is None:
        reported = [instance.atype(i) for i in range(instance.n)]
    result, without = direct_pivots(instance, reported)
    return _pivot_outcome(instance, result.allocation, result.declared_welfare,
                          without, result.gains)


def run_indirect_vcg(instance: AuctionInstance, profile: StrategyProfile) -> Outcome:
    """Allocate at the submitted prices, charge pivot payments.

    The optimum and every pivot come from one shared indirect search.
    """
    alloc, without = indirect_pivots(instance, profile)
    gains = profile.gains
    return _pivot_outcome(instance, alloc,
                          declared_welfare(instance, alloc, gains), without,
                          gains)


def run_indirect_gsp(instance: AuctionInstance, profile: StrategyProfile,
                     *, allow_zero_gain: bool = False) -> Outcome:
    """Allocate at the submitted prices, charge next-slot payments.

    Each displayed agent pays her slot's prominence times the weighted
    value q(p, p_min) * b of the next slot's occupant.  The occupant of
    the last assigned slot pays it for the best unassigned agent whose
    price is at least the minimum displayed price; that filter is what
    keeps the mechanism individually rational.  ``allow_zero_gain`` lets
    ads with a declared gain of exactly zero occupy leftover slots.
    """
    alloc = indirect_allocate(instance, profile,
                              include_zero_gain=allow_zero_gain)
    sw = declared_welfare(instance, alloc, profile.gains)
    payments = [0.0] * instance.n
    assigned = alloc.slot_agents
    p_min = alloc.p_min
    for pos, i in enumerate(assigned):
        if pos + 1 < len(assigned):
            rivals = [assigned[pos + 1]]
        else:
            rivals = [j for j in range(instance.n)
                      if j not in assigned and profile[j].price >= p_min]
        best = max((instance.quality(j).q(profile[j].price, p_min)
                    * profile[j].gain for j in rivals), default=0.0)
        payments[i] = instance.slots.prominences[pos] * max(0.0, best)
    return Outcome(alloc, tuple(payments), sw, true_welfare(instance, alloc))


def infer_type(quality, bid) -> InferredType:
    """Recover (cost, conversion probability) from a (b, p, p*) bid.

    Inverts the first-order condition of the standalone price: the cost
    estimate follows from the diagonal value and derivative at p*, and
    the conversion probability from the declared gain at (p, cost).
    """
    b, p, p_star = bid
    d = quality_mod.diagonal_derivative(quality, p_star)
    if abs(d) < DERIVATIVE_FLOOR:
        raise InferenceError(
            f"diagonal derivative is zero at standalone price {p_star}")
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
        it = infer_type(instance.quality(i), (s.gain, s.price, s.standalone_price))
        if it.alpha_clamped:
            diagnostics.append(f"agent {i}: inferred alpha clamped into [0, 1]")
        inferred.append(AgentType(it.alpha_hat, max(0.0, it.c_hat)))

    alloc = indirect_allocate(instance, profile)
    sw = declared_welfare(instance, alloc, profile.gains)
    _, sw_without = direct_pivots(instance, inferred, range(instance.n))

    if sw < max(sw_without.values(), default=0.0) - STAR_TOL:
        payments = (0.0,) * instance.n
        return Outcome(EMPTY_ALLOCATION, payments, 0.0, 0.0,
                       tuple(diagnostics + ["fallback: no ad allocated"]))

    payments = [0.0] * instance.n
    for i in alloc.slot_agents:
        v_hat = declared_value(instance, alloc, i, profile[i].gain)
        pi = sw_without[i] - (sw - v_hat)
        if pi < -STAR_TOL or pi > v_hat + STAR_TOL:
            diagnostics.append(
                f"agent {i}: payment {pi} clamped into [0, declared value]")
        payments[i] = min(max(0.0, pi), max(0.0, v_hat))
    return Outcome(alloc, tuple(payments), sw, true_welfare(instance, alloc),
                   tuple(diagnostics))


def truthful_star_profile(instance: AuctionInstance) -> StrategyProfile:
    """Truthful input for the starred mechanism.

    Assigned agents take the price the direct mechanism would choose for
    them; the rest use their best grid price when displayed alone.  Gains
    are truthful at those prices, and the standalone price is the
    unconstrained optimizer of the diagonal value.
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
