"""Complete-information pure Nash analysis over finite strategy spaces.

The engine enumerates profiles exhaustively, so every ratio it reports
is relative to the supplied grids; callers who care about specific
off-grid deviations must put them on the grid.  It consumes utility
rows: the mechanisms walk each agent's line (``mechanisms._lines``) and
say which bids give the same outcome (``mechanisms._menu_classes``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import AuctionError, GuardExceededError
from .mechanisms import (
    MechanismKind,
    _lines,
    _menu_classes,
    run_direct_vcg,
    run_mechanism,
)
from .model import (
    AuctionInstance,
    Outcome,
    Strategy,
    StrategyProfile,
    require_one_per_agent,
)

# An agent must gain strictly more than this to count as an improving
# deviation; keeps floating-point welfare ties from manufacturing
# spurious instability.
NASH_TOL = 1e-9

ENUMERATION_GUARD = 10_000_000


@dataclass(frozen=True)
class StrategySpace:
    """Per-agent finite menus of (price, gain) strategies."""

    options: tuple[tuple[Strategy, ...], ...]

    @property
    def size(self) -> int:
        out = 1
        for opts in self.options:
            out *= len(opts)
        return out

    @staticmethod
    def build(instance: AuctionInstance, *, prices=None,
              gain_levels=(0.0, 0.5, 1.0), overbidding: bool = False,
              extra_gains=()) -> "StrategySpace":
        """Menus from a price set and fractions of the truthful gain.

        For each allowed price p, the gain options are
        ``level * truthful_gain(p)`` for each level, plus ``extra_gains``
        verbatim (useful for overbidding menus).  Without overbidding,
        pairs violating b <= alpha * (p - c) are pruned.
        """
        if prices is None:
            prices = instance.price_grid
        menus = []
        for i in range(instance.n):
            t = instance.atype(i)
            opts = []
            for p in prices:
                cap = t.gain(p)
                gains = {round(level * cap, 15) for level in gain_levels}
                gains.update(extra_gains)
                for b in sorted(gains):
                    if not overbidding and b > cap + 1e-12:
                        continue
                    opts.append(Strategy(p, b))
            menus.append(tuple(dict.fromkeys(opts)))
        return StrategySpace(tuple(menus))


def _refuse_types(kind):
    """Direct VCG is refused: its bids are agent types, not (price, gain)
    strategies."""
    if kind is MechanismKind.DIRECT_VCG:
        raise AuctionError(
            f"the equilibrium engine cannot analyse {kind.value}: its bids "
            f"are agent types, not (price, gain) strategies")


def is_nash(instance: AuctionInstance, kind: MechanismKind,
            space: StrategySpace, profile: StrategyProfile,
            *, gsp_allow_zero_gain: bool = False):
    """True iff no agent has a strictly improving unilateral deviation.

    Returns (verdict, witness); the witness is (agent, strategy, gain in
    utility) for the first improving deviation found in menu order, else
    None.  An agent's non-participating strategies give every agent the
    same utilities (see ``_menu_classes``), so only her first one is
    tried, and none when she already plays one.  Each agent's deviations
    are one line of ``_lines`` from ``profile.strategies``: per agent,
    the other agents' rows are one table of n - 2 bids with the
    highest-indexed other agent's bid merged in, and the profile itself
    is run once, on the first line walked.  A VCG pivot's int key codes
    the other agents' strategies, on their menus or off them.
    """
    _refuse_types(kind)
    require_one_per_agent(instance, space.options, "the strategy space")
    require_one_per_agent(instance, profile, "the profile")
    menus = _menu_classes(instance, kind, space.options, gsp_allow_zero_gain)
    base = None
    for i, (options, classes) in enumerate(zip(space.options, menus)):
        tried = [options[stands_for[0]] for stands_for in classes
                 if profile[i] not in [options[k] for k in stands_for]]
        line = tried if base is not None else [profile[i], *tried]
        if not line:
            continue
        others = {s.price for k, s in enumerate(profile.strategies) if k != i}
        rows = _lines(instance, kind, gsp_allow_zero_gain, i, line,
                      others)(profile.strategies)
        if base is None:
            base = next(rows)
        for s, row in zip(tried, rows):
            if row[i] > base[i] + NASH_TOL:
                return False, (i, s, row[i] - base[i])
    return True, None


def enumerate_pure_nash(instance: AuctionInstance, kind: MechanismKind,
                        space: StrategySpace,
                        *, gsp_allow_zero_gain: bool = False,
                        ) -> list[StrategyProfile]:
    """All pure Nash profiles of the finite game, in lexicographic order.

    Each agent's non-participating strategies (see ``_menu_classes``)
    give every agent the same utilities, so only her first one is
    enumerated.  Each profile of that collapsed game runs through the
    mechanism's core once, filling a table of every agent's utility
    (memory is O(collapsed profiles)).  ``itertools.product`` varies the
    last agent fastest, so the table fills line by line along her axis
    (see ``_lines``), each from its ``itertools.product`` tuple: the
    second-last agent's strategies and hers are each scored once, and
    the rows of the agents before them built once per change of their
    strategies; per line, the second-last agent's bid is merged into
    those rows; per profile, her pre-scored bid is merged in, the optimum
    is solved and the utilities read, and no ``StrategyProfile`` or
    ``Outcome`` is built.  Under VCG each payer's pivot is solved once per
    set of the other agents' strategies, kept under one int.  A
    profile is Nash iff each agent's utility is within NASH_TOL of the
    maximum along that agent's axis of the table, which is the test
    ``is_nash`` applies; an axis maximum is the same over the collapsed
    menu as over the whole one.  Each collapsed equilibrium then stands
    for every profile that swaps in other non-participants, and all are
    listed.  Direct VCG raises ``AuctionError``; over
    ``ENUMERATION_GUARD`` profiles of the whole game, no run is made and
    ``GuardExceededError`` is raised.
    """
    return [_profile_at(space, index) for index, _ in _nash_indices(
        instance, kind, space, gsp_allow_zero_gain)]


def _nash_indices(instance, kind, space, gsp_allow_zero_gain):
    """``enumerate_pure_nash``'s profiles as sorted (index, class) pairs:
    the profile's menu indices, and the number of the collapsed
    equilibrium it stands for."""
    _refuse_types(kind)
    require_one_per_agent(instance, space.options, "the strategy space")
    if space.size > ENUMERATION_GUARD:
        raise GuardExceededError(f"joint strategy space has {space.size} "
                                 f"profiles (guard {ENUMERATION_GUARD})")
    menus = _menu_classes(instance, kind, space.options, gsp_allow_zero_gain)
    reduced = [[options[stands_for[0]] for stands_for in classes]
               for options, classes in zip(space.options, menus)]
    if not all(reduced):  # some menu is empty
        return []
    *heads, last = reduced
    walk = _lines(instance, kind, gsp_allow_zero_gain, len(heads), last,
                  {s.price for menu in heads for s in menu})
    rows = []
    for start in itertools.product(*heads, last[:1]):
        rows.extend(walk(start))
    nash = bytearray(b"\x01") * len(rows)
    # Axis i has stride prod(|S_j| for j > i); each line along it starts
    # at a profile whose axis-i strategy is the menu's first.
    stride = len(rows)
    for column, menu in zip(zip(*rows), reduced):
        block, stride = stride, stride // len(menu)
        for start in range(0, len(rows), block):
            for first in range(start, start + stride):
                line = column[first:first + block:stride]
                best = max(line)
                for k, u in enumerate(line):
                    if best > u + NASH_TOL:
                        nash[first + k * stride] = 0
    found = []
    for c, stands_for in enumerate(itertools.compress(
            itertools.product(*menus), nash)):
        found.extend((index, c) for index in itertools.product(*stands_for))
    found.sort()
    return found


def _profile_at(space, index):
    return StrategyProfile(tuple(options[k] for options, k
                                 in zip(space.options, index)))


def _equilibria_and_outcomes(instance, kind, space, gsp_allow_zero_gain):
    """``enumerate_pure_nash``'s profiles and each one's ``Outcome``.  The
    profiles of one collapsed equilibrium differ only in non-participating
    bids, which move no outcome, so the mechanism runs once per collapsed
    equilibrium, on its first listed profile, and the others share it."""
    eqs, outcomes, runs = [], [], {}
    for index, c in _nash_indices(instance, kind, space,
                                  gsp_allow_zero_gain):
        eq = _profile_at(space, index)
        outcome = runs.get(c)
        if outcome is None:
            outcome = runs[c] = run_mechanism(
                instance, kind, eq, gsp_allow_zero_gain=gsp_allow_zero_gain)
        eqs.append(eq)
        outcomes.append(outcome)
    return eqs, outcomes


@dataclass(frozen=True)
class EquilibriumReport:
    equilibria: tuple[StrategyProfile, ...]
    outcomes: tuple[Outcome, ...]
    benchmark_sw: float
    benchmark_rev: float  # direct-VCG revenue at truthful reports
    poa_sw: float
    pos_sw: float
    poa_rev: float
    pos_rev: float
    grid_resolution: float
    notes: tuple[str, ...] = field(default=(
        "revenue benchmark is the direct VCG mechanism's truthful revenue",
    ))


def _ratio(benchmark: float, achieved: float) -> float:
    if benchmark <= NASH_TOL and achieved <= NASH_TOL:
        return 1.0
    if achieved <= NASH_TOL:
        return math.inf
    return benchmark / achieved


def efficiency_report(instance: AuctionInstance, kind: MechanismKind,
                      space: StrategySpace,
                      *, gsp_allow_zero_gain: bool = False) -> EquilibriumReport:
    """Enumerate equilibria and compare them to the truthful benchmarks.

    PoA divides the benchmark by the worst equilibrium objective, PoS by
    the best; no equilibria (or a zero equilibrium objective against a
    positive benchmark) reports +inf.  The mechanism runs once more per
    collapsed equilibrium (see ``enumerate_pure_nash``), for the
    ``Outcome`` that all the profiles it stands for share.
    """
    equilibria, outcomes = _equilibria_and_outcomes(
        instance, kind, space, gsp_allow_zero_gain)
    direct = run_direct_vcg(instance)
    benchmark_sw = direct.true_welfare
    benchmark_rev = direct.revenue
    if not equilibria:
        poa_sw = pos_sw = poa_rev = pos_rev = math.inf
    else:
        sws = [o.true_welfare for o in outcomes]
        revs = [o.revenue for o in outcomes]
        poa_sw = _ratio(benchmark_sw, min(sws))
        pos_sw = _ratio(benchmark_sw, max(sws))
        poa_rev = _ratio(benchmark_rev, min(revs))
        pos_rev = _ratio(benchmark_rev, max(revs))
    grid = instance.price_grid
    resolution = min((b - a for a, b in zip(grid, grid[1:])), default=0.0)
    return EquilibriumReport(tuple(equilibria), tuple(outcomes),
                             benchmark_sw, benchmark_rev,
                             poa_sw, pos_sw, poa_rev, pos_rev,
                             grid_resolution=resolution)
