"""Seeded random instance generators for property tests and audits."""

from __future__ import annotations

import random

from .model import (
    AgentType,
    AuctionInstance,
    SlotProfile,
    Strategy,
    StrategyProfile,
)
from .quality import (
    QUALITY_KINDS,
    HyperbolaQuality,
    OnlyMinQuality,
    PriceThresholdQuality,
    SmoothDecayQuality,
    TabulatedQuality,
)


def _random_grid(rng: random.Random, max_points: int):
    k = rng.randint(2, max_points)
    points = sorted({round(rng.uniform(0.1, 2.0), 3) for _ in range(k)})
    while len(points) < 2:
        points.append(round(points[-1] + 0.5, 3))
    return tuple(points)


def _random_slots(rng: random.Random, max_slots: int) -> SlotProfile:
    m = rng.randint(1, max_slots)
    lams = sorted((rng.uniform(0.2, 1.0) for _ in range(m)), reverse=True)
    return SlotProfile(tuple(lams))


def _random_type(rng: random.Random) -> AgentType:
    return AgentType(rng.uniform(0.2, 1.0), rng.uniform(0.0, 0.5))


def _tabulated(rng: random.Random, grid) -> TabulatedQuality:
    """Random table, made monotone the right way in both axes."""
    rows = [[rng.uniform(0.0, 1.0) for _ in grid] for _ in grid]
    return TabulatedQuality(tuple(grid), tuple(grid), _monotone(rows))


def _monotone(rows):
    """The table ``rows`` (a list of lists, changed in place) made monotone
    as the quality model requires, as a tuple of tuples."""
    n_p, n_m = len(rows), len(rows[0])
    # Non-increasing in price (down the rows)...
    for j in range(n_m):
        for i in range(1, n_p):
            rows[i][j] = min(rows[i][j], rows[i - 1][j])
    # ...and non-decreasing in the minimum price (across the columns).  A
    # running row maximum keeps the columns non-increasing, as each row is
    # entrywise at most the row above it.
    for i in range(n_p):
        for j in range(1, n_m):
            rows[i][j] = max(rows[i][j], rows[i][j - 1])
    return tuple(tuple(r) for r in rows)


# The kinds ``_random_quality`` draws, in ``QUALITY_KINDS`` order: all but
# psi-hyperbola, whose floor and ceiling prices it has no rule to draw.
SAMPLED_QUALITY_KINDS = tuple(kind for kind in QUALITY_KINDS
                              if kind != HyperbolaQuality.kind)


def _random_quality(rng: random.Random, grid, kinds):
    kind = rng.choice(kinds)
    if kind == "only-min":
        cap = rng.choice(list(grid) + [float("inf")])
        return OnlyMinQuality(cap=cap, level=rng.uniform(0.3, 1.0))
    if kind == "price-threshold":
        return PriceThresholdQuality(threshold=rng.choice(grid),
                                     level=rng.uniform(0.3, 1.0))
    if kind == "smooth-decay":
        return SmoothDecayQuality(price_slope=rng.uniform(0.1, 0.4),
                                  gap_slope=rng.uniform(0.0, 0.3),
                                  intercept=rng.uniform(0.8, 1.0))
    return _tabulated(rng, grid)


def random_instance(seed: int, *, max_agents: int = 4, max_slots: int = 3,
                    max_prices: int = 4,
                    quality_kinds=SAMPLED_QUALITY_KINDS) -> AuctionInstance:
    """A small random instance; same seed, same instance."""
    rng = random.Random(seed)
    grid = _random_grid(rng, max_prices)
    slots = _random_slots(rng, max_slots)
    n = rng.randint(1, max_agents)
    agents = tuple((_random_type(rng), _random_quality(rng, grid, quality_kinds))
                   for _ in range(n))
    return AuctionInstance(agents, slots, grid)


def random_profile(instance: AuctionInstance, seed: int, *,
                   with_standalone: bool = False) -> StrategyProfile:
    """Random submitted strategies: grid prices and gains in [0, cap]
    where cap is the larger of the truthful gain and 1.  With
    ``with_standalone``, each strategy also carries a (noisy) standalone
    price so the type-inferring mechanism accepts it."""
    rng = random.Random(seed ^ 0x5EED)
    strategies = []
    for i in range(instance.n):
        t = instance.atype(i)
        p = rng.choice(instance.price_grid)
        cap = max(t.gain(p), 1.0)
        b = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, cap)
        standalone = None
        if with_standalone:
            base = instance.quality(i).standalone_price(t.alpha, t.cost)
            standalone = max(0.0, base + rng.uniform(-0.2, 0.2))
        strategies.append(Strategy(p, b, standalone))
    return StrategyProfile(tuple(strategies))


def smooth_instance(seed: int, *, max_agents: int = 4,
                    max_slots: int = 3) -> AuctionInstance:
    """Random instance with smoothly decaying qualities only; these have
    exact diagonal derivatives and standalone prices, which the
    type-inferring mechanism needs."""
    rng = random.Random(seed)
    grid = _random_grid(rng, 4)
    slots = _random_slots(rng, max_slots)
    n = rng.randint(1, max_agents)
    agents = []
    for _ in range(n):
        t = _random_type(rng)
        q = SmoothDecayQuality(price_slope=rng.uniform(0.2, 0.6),
                               gap_slope=rng.uniform(0.0, 0.3),
                               intercept=rng.uniform(0.7, 1.0))
        agents.append((t, q))
    return AuctionInstance(tuple(agents), slots, grid)
