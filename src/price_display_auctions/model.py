"""Core domain types and welfare arithmetic.

All types are immutable after construction and every operation is a pure
function of its inputs, so everything here is safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import AuctionError, InstanceFormatError
from .quality import QUALITY_KINDS, QualityModel

# Absolute tolerance used whenever two welfare values are compared while
# selecting an argmax; ties within this band fall through to the
# deterministic tie-break rule.
WELFARE_TOL = 1e-9

# The built-in quality models, whose values lie in [0, 1].
_UNIT_KINDS = frozenset(QUALITY_KINDS.values())


@dataclass(frozen=True)
class AgentType:
    """Private pair: conversion probability and unit supply cost."""

    alpha: float
    cost: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.cost)):
            raise AuctionError(f"alpha and cost must be finite, got "
                               f"{self.alpha}, {self.cost}")
        if not 0.0 <= self.alpha <= 1.0:
            raise AuctionError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.cost < 0.0:
            raise AuctionError(f"cost must be >= 0, got {self.cost}")

    def gain(self, price: float) -> float:
        """Expected gain per click at the given selling price."""
        return self.alpha * (price - self.cost)


@dataclass(frozen=True)
class SlotProfile:
    """Ordered slot prominences; unassigned ads see prominence 0."""

    prominences: tuple[float, ...]

    def __post_init__(self):
        lams = self.prominences
        if not lams:
            raise AuctionError("need at least one slot")
        for lam in lams:
            if not 0.0 <= lam <= 1.0:
                raise AuctionError(f"prominence {lam} outside [0, 1]")
        for a, b in zip(lams, lams[1:]):
            if b > a:
                raise AuctionError(f"prominences must be non-increasing ({a} < {b})")

    def __len__(self):
        return len(self.prominences)


@dataclass(frozen=True)
class AuctionInstance:
    """Agents, their quality models, slots, and the allowed price set."""

    agents: tuple[tuple[AgentType, QualityModel], ...]
    slots: SlotProfile
    price_grid: tuple[float, ...]
    # Priority permutation: agents earlier in this tuple win ties.  None
    # means ascending agent index.
    tie_break: tuple[int, ...] | None = None

    def __post_init__(self):
        if not self.agents:
            raise AuctionError("need at least one agent")
        # Errors name their field, so that a loader can report its path.
        grid = self.price_grid
        if not grid:
            raise InstanceFormatError("price_grid", "price grid must be non-empty")
        if not all(math.isfinite(p) for p in grid):
            raise InstanceFormatError("price_grid",
                                      "price grid values must be finite")
        if any(p < 0 for p in grid):
            raise InstanceFormatError("price_grid",
                                      "price grid values must be >= 0")
        if list(grid) != sorted(set(grid)):
            raise InstanceFormatError("price_grid",
                                      "price grid must be strictly ascending")
        order = self.tie_break
        if order is not None and (
                any(isinstance(a, bool) or not isinstance(a, int)
                    for a in order)
                or sorted(order) != list(range(len(self.agents)))):
            raise InstanceFormatError(
                "tie_break", "tie_break must be a permutation of agent indices")

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def m(self) -> int:
        return len(self.slots)

    def atype(self, agent: int) -> AgentType:
        return self.agents[agent][0]

    def quality(self, agent: int) -> QualityModel:
        return self.agents[agent][1]

    def rank(self, agent: int) -> int:
        """Tie-break priority; lower rank wins."""
        if self.tie_break is None:
            return agent
        return self._ranks[agent]

    @cached_property
    def _ranks(self) -> dict[int, int]:
        """The inverse of ``tie_break``: each agent's position in it."""
        return {agent: pos for pos, agent in enumerate(self.tie_break)}

    @cached_property
    def _unit_qualities(self) -> bool:
        """Whether every agent's quality model is exactly one of
        ``QUALITY_KINDS``, whose values lie in [0, 1] by construction; a
        custom model's need not."""
        return {type(quality) for _, quality in self.agents} <= _UNIT_KINDS


@dataclass(frozen=True)
class Strategy:
    """One agent's submitted bid for the indirect mechanisms."""

    price: float
    gain: float
    standalone_price: float | None = None

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.price, self.gain)):
            raise AuctionError(f"price and gain must be finite, got "
                               f"{self.price}, {self.gain}")
        if self.price < 0:
            raise AuctionError(f"price must be >= 0, got {self.price}")
        s = self.standalone_price
        if s is not None and not (math.isfinite(s) and s >= 0):
            raise AuctionError(f"standalone price must be finite and >= 0, "
                               f"got {s}")


@dataclass(frozen=True)
class StrategyProfile:
    strategies: tuple[Strategy, ...]

    def __len__(self):
        return len(self.strategies)

    def __getitem__(self, agent: int) -> Strategy:
        return self.strategies[agent]

    @property
    def gains(self) -> tuple[float, ...]:
        return tuple(s.gain for s in self.strategies)

    def replace(self, agent: int, strategy: Strategy) -> "StrategyProfile":
        strategies = list(self.strategies)
        strategies[agent] = strategy
        return StrategyProfile(tuple(strategies))


def require_one_per_agent(instance: AuctionInstance, items, what: str) -> None:
    """Raise ``AuctionError`` unless ``items`` (a strategy profile, a list
    of reported types or a strategy space's menus) has one entry per
    agent of ``instance``."""
    if len(items) != instance.n:
        raise AuctionError(f"{what} has length {len(items)}, but the "
                           f"instance has {instance.n} agents")


def profile(*pairs) -> StrategyProfile:
    """Build a StrategyProfile from (price, gain[, standalone]) tuples."""
    return StrategyProfile(tuple(Strategy(*p) for p in pairs))


@dataclass(frozen=True)
class Allocation:
    """Canonical allocation: ``slot_agents[j]`` occupies slot j+1.

    Display prices align with ``slot_agents``.  The canonical form keeps
    assigned agents in the slot prefix, in non-increasing weighted
    declared value order (the allocators enforce the ordering).
    """

    slot_agents: tuple[int, ...]
    display_prices: tuple[float, ...]

    def __post_init__(self):
        if len(self.slot_agents) != len(self.display_prices):
            raise AuctionError("one display price per assigned agent required")
        if len(set(self.slot_agents)) != len(self.slot_agents):
            raise AuctionError("at most one ad per slot / agent")

    @property
    def p_min(self) -> float | None:
        if not self.display_prices:
            return None
        return min(self.display_prices)

    def slot_of(self, agent: int) -> int | None:
        """1-based slot of an agent, or None if not displayed."""
        try:
            return self.slot_agents.index(agent) + 1
        except ValueError:
            return None

    def price_of(self, agent: int) -> float | None:
        slot = self.slot_of(agent)
        if slot is None:
            return None
        return self.display_prices[slot - 1]


EMPTY_ALLOCATION = Allocation((), ())


def declared_value(instance: AuctionInstance, allocation: Allocation,
                   agent: int, gain: float) -> float:
    """lambda_{f(i)} * (q_i(p_i, p_min) * b_i); 0 when not displayed.

    The allocators score entries in this order, so ``declared_welfare``
    of an allocation equals their welfare bit for bit."""
    slot = allocation.slot_of(agent)
    if slot is None:
        return 0.0
    p = allocation.display_prices[slot - 1]
    lam = instance.slots.prominences[slot - 1]
    return lam * (instance.quality(agent).q(p, allocation.p_min) * gain)


def true_value(instance: AuctionInstance, allocation: Allocation,
               agent: int) -> float:
    """Declared value with the gain replaced by the agent's true gain."""
    slot = allocation.slot_of(agent)
    if slot is None:
        return 0.0
    p = allocation.display_prices[slot - 1]
    return declared_value(instance, allocation, agent, instance.atype(agent).gain(p))


def declared_welfare(instance: AuctionInstance, allocation: Allocation,
                     gains) -> float:
    """Sum of declared values; ``gains`` holds one gain per agent.  The
    values are added left to right from 0.0, as the searches add them, so
    an empty allocation's welfare is a float.  A loop, not ``sum()``,
    which compensates float sums from Python 3.12 on."""
    sw = 0.0
    for i in allocation.slot_agents:
        sw += declared_value(instance, allocation, i, gains[i])
    return sw


def true_welfare(instance: AuctionInstance, allocation: Allocation) -> float:
    """Sum of true values, added as ``declared_welfare`` adds."""
    sw = 0.0
    for i in allocation.slot_agents:
        sw += true_value(instance, allocation, i)
    return sw


@dataclass(frozen=True)
class Outcome:
    """Allocation plus payments and the headline aggregates, all finite."""

    allocation: Allocation
    payments: tuple[float, ...]
    declared_welfare: float
    true_welfare: float
    diagnostics: tuple[str, ...] = field(default=())

    def __post_init__(self):
        # A finite sum proves every term finite; only a sum that overflows
        # (or a non-finite term) needs the term-by-term check.
        sw, true_sw, payments = (self.declared_welfare, self.true_welfare,
                                 self.payments)
        if not math.isfinite(sw + true_sw + sum(payments)) and not all(
                map(math.isfinite, (sw, true_sw, *payments))):
            raise AuctionError(f"outcome is not finite (float overflow): "
                               f"declared welfare {sw}, true welfare "
                               f"{true_sw}, payments {payments}")

    @property
    def revenue(self) -> float:
        """Sum of the payments, added left to right from 0.0 as
        ``declared_welfare`` adds, so the same on every Python version."""
        total = 0.0
        for payment in self.payments:
            total += payment
        return total

    def utility(self, instance: AuctionInstance, agent: int) -> float:
        return self.utilities(instance)[agent]

    def utilities(self, instance: AuctionInstance) -> tuple[float, ...]:
        """Each agent's true value less her payment.

        A displayed agent's true value is lam * (q(p, p_min) * true
        gain(p)), ``true_value``'s arithmetic; an agent not displayed has
        value 0.
        """
        alloc = self.allocation
        values = [0.0] * instance.n
        if alloc.display_prices:
            p_min = min(alloc.display_prices)
            for lam, i, p in zip(instance.slots.prominences,
                                 alloc.slot_agents, alloc.display_prices):
                atype, quality = instance.agents[i]
                values[i] = lam * (quality.q(p, p_min) * atype.gain(p))
        return tuple([v - pay for v, pay in zip(values, self.payments)])


def truthful_gains(instance: AuctionInstance, allocation: Allocation) -> list[float]:
    """Per-agent true gain at the allocation's display prices (0 if unassigned)."""
    out = []
    for i in range(instance.n):
        p = allocation.price_of(i)
        out.append(0.0 if p is None else instance.atype(i).gain(p))
    return out
