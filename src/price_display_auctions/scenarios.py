"""Parametric benchmark scenarios with known equilibrium behavior.

Each scenario pins down an auction instance, reference strategy
profiles, finite strategy menus, and the numeric conclusions expected of
them, with their checks beside the builder; ``reproduce`` replays the
analysis and reports a per-check verdict.  Scenario ids follow the
T<number> naming used throughout the test suite and CLI.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from .equilibrium import (
    StrategySpace,
    _equilibria_and_outcomes,
    is_nash,
)
from .errors import AuctionError, ConstraintViolationError
from .mechanisms import MechanismKind, run_direct_vcg, run_mechanism
from .model import (
    AgentType,
    AuctionInstance,
    SlotProfile,
    Strategy,
    StrategyProfile,
)
from .quality import HyperbolaQuality, OnlyMinQuality, PriceThresholdQuality

RATIO_TOL = 1e-6
# Welfare and revenue scale with the prices, so value checks allow
# VALUE_TOL times the scenario's largest grid price (``_scale``); the
# verdicts print VALUE_TOL itself.
VALUE_TOL = 1e-9

VCG = MechanismKind.INDIRECT_VCG
GSP = MechanismKind.INDIRECT_GSP


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    params: dict = field(compare=False)
    instance: AuctionInstance
    check: Callable = field(compare=False)  # (scenario, direct) -> checks
    reference_profiles: dict = field(default_factory=dict, compare=False)
    spaces: dict = field(default_factory=dict, compare=False)
    gsp_allow_zero_gain: bool = False
    expected: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    observed: str
    expected: str


@dataclass(frozen=True)
class VerdictReport:
    scenario_id: str
    params: dict = field(compare=False)
    checks: tuple = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _require(condition: bool, constraint: str):
    if not condition:
        raise ConstraintViolationError(constraint)


def _uniform_instance(qualities, m, price_grid, costs=None):
    n = len(qualities)
    costs = costs or [0.0] * n
    agents = tuple((AgentType(1.0, c), q) for c, q in zip(costs, qualities))
    return AuctionInstance(agents, SlotProfile((1.0,) * m), tuple(price_grid))


def _scale(scenario):
    """The price scale that VALUE_TOL is relative to."""
    return max(scenario.instance.price_grid)


def _check_close(name, observed, expected, tol, scale=1.0):
    return Check(name, abs(observed - expected) <= tol * scale,
                 f"{observed:.12g}", f"{expected:.12g} (tol {tol:g})")


def _check_nash(scenario, kind, equilibria=()):
    """A reference listed in ``equilibria``, enumerated on the same space,
    passed ``is_nash``'s own test; only an unlisted one runs ``is_nash``,
    to name its witness or to judge a reference off the menus."""
    reference = scenario.reference_profiles[kind]
    ok, witness = (True, None) if reference in equilibria else is_nash(
        scenario.instance, kind, scenario.spaces[kind], reference,
        gsp_allow_zero_gain=scenario.gsp_allow_zero_gain)
    return Check(f"reference profile is Nash under {kind.value}", ok,
                 "Nash" if ok else f"improving deviation {witness}", "Nash")


def _reference_outcome(scenario, kind):
    return run_mechanism(scenario.instance, kind,
                         scenario.reference_profiles[kind],
                         gsp_allow_zero_gain=scenario.gsp_allow_zero_gain)


def _check_ratio(scenario, direct, outcome):
    """An outcome with zero welfare fails, with an observed ratio of inf."""
    achieved = outcome.true_welfare
    ratio = direct.true_welfare / achieved if achieved else math.inf
    return _check_close("welfare ratio", ratio, scenario.expected["ratio"],
                        RATIO_TOL)


def build_t5(p_low: float = 1.0, eps: float = 0.01) -> Scenario:
    """Two slots, three sellers, price-matching-only clicks: the only
    stable outcomes keep prices at the floor, halving welfare."""
    _require(eps > 0, "eps > 0")
    _require(p_low > 3 * eps, "p_low > 3 * eps (ratio above 1 needs it)")
    p_high = 1.5 * (p_low - eps)
    q = OnlyMinQuality()  # clicks only the minimum displayed price
    inst = _uniform_instance([q, q, q], m=2, price_grid=[p_low, p_high],
                             costs=[0.0, p_low - eps, p_low - eps])
    # One low-priced seller is undercut-proof, one guard sits at the cap.
    ref = StrategyProfile((
        Strategy(p_low, p_low),
        Strategy(p_high, p_high - (p_low - eps)),
        Strategy(p_low, eps),
    ))
    space = StrategySpace.build(inst, gain_levels=(0.0, 1.0))
    opt = 2.0 * (p_low - eps)
    eq_sw = p_low + eps
    return Scenario(
        "T5-gsp-pos-sw", {"p_low": p_low, "eps": eps}, inst, _t5_checks,
        reference_profiles={GSP: ref},
        spaces={GSP: space},
        expected={
            "optimal_sw": opt,
            "equilibrium_sw": eq_sw,
            "ratio": opt / eq_sw,
        },
    )


def _t5_checks(scenario, direct):
    bound = scenario.expected["equilibrium_sw"]
    nash = _check_nash(scenario, GSP)
    out = _reference_outcome(scenario, GSP)
    return [nash,
            Check("equilibrium welfare at most p_low + eps",
                  out.true_welfare <= bound + VALUE_TOL * _scale(scenario),
                  f"{out.true_welfare:.12g}", f"<= {bound:.12g}"),
            _check_ratio(scenario, direct, out)]


def build_t7(m: int = 2, p_high: float = 1.0) -> Scenario:
    """m slots, m+1 identical sellers: everyone at the low price is
    stable but earns only 1/m of the optimum."""
    _require(m >= 2, "m >= 2")
    # The Nash checks grow about as m**3, so this guard bounds the time:
    # at m = 100 ``reproduce`` takes about 1.3 s on a 2-core host.
    _require(m <= 100, "m <= 100")
    _require(p_high > 0, "p_high > 0")
    p_low = p_high / m
    q = OnlyMinQuality(cap=p_high)
    inst = _uniform_instance([q] * (m + 1), m=m,
                             price_grid=[p_low, (p_low + p_high) / 2, p_high])
    ref = StrategyProfile(tuple(Strategy(p_low, p_low) for _ in range(m + 1)))
    space = StrategySpace.build(inst, gain_levels=(0.0, 0.5, 1.0))
    return Scenario(
        "T7-poa-m", {"m": m, "p_high": p_high}, inst, _t7_checks,
        reference_profiles={VCG: ref, GSP: ref},
        spaces={VCG: space, GSP: space},
        expected={
            "optimal_sw": m * p_high,
            "equilibrium_sw": p_high,
            "ratio": float(m),
        },
    )


def _t7_checks(scenario, direct):
    checks, outs = [], {}
    for kind in (VCG, GSP):
        checks.append(_check_nash(scenario, kind))
        outs[kind] = out = _reference_outcome(scenario, kind)
        checks.append(_check_close(
            f"equilibrium welfare under {kind.value}", out.true_welfare,
            scenario.expected["equilibrium_sw"], VALUE_TOL,
            _scale(scenario)))
    return checks + [_check_ratio(scenario, direct, outs[VCG])]


def build_t9(delta: float = 0.1, p_high: float = 1.0) -> Scenario:
    """Single slot where a low-quality seller overbids her way in."""
    _require(0 < delta < 1, "0 < delta < 1")
    _require(p_high > 0, "p_high > 0")
    q1 = OnlyMinQuality(cap=p_high)
    q2 = OnlyMinQuality(cap=p_high, level=delta)
    inst = _uniform_instance([q1, q2], m=1, price_grid=[p_high / 2, p_high])
    overbid = 2.0 * p_high / delta
    ref = StrategyProfile((
        Strategy(p_high, 0.0),
        Strategy(p_high, overbid),
    ))
    space_vcg = StrategySpace.build(inst, gain_levels=(0.0, 1.0),
                                    overbidding=True, extra_gains=(overbid,))
    # GSP deviation payments ignore undercutting rivals entirely, so only
    # the single-price menu keeps the reference profile stable.
    space_gsp = StrategySpace.build(inst, prices=(p_high,),
                                    gain_levels=(0.0, 1.0),
                                    overbidding=True, extra_gains=(overbid,))
    return Scenario(
        "T9-overbid", {"delta": delta, "p_high": p_high}, inst, _t9_checks,
        reference_profiles={VCG: ref, GSP: ref},
        spaces={VCG: space_vcg, GSP: space_gsp},
        expected={
            "optimal_sw": p_high,
            "equilibrium_sw": delta * p_high,
            "ratio": 1.0 / delta,
        },
    )


def _t9_checks(scenario, direct):
    checks = [_check_nash(scenario, kind) for kind in (VCG, GSP)]
    out = _reference_outcome(scenario, VCG)
    return checks + [
        _check_close("equilibrium welfare", out.true_welfare,
                     scenario.expected["equilibrium_sw"], VALUE_TOL,
                     _scale(scenario)),
        _check_ratio(scenario, direct, out)]


def build_t10(delta: float = 0.1, p_low: float = 1.0, p_high: float = 2.5,
              interior_points: int = 5) -> Scenario:
    """Two slots where the direct mechanism collects revenue but every
    stable indirect outcome collects none."""
    _require(1.0 <= p_low, "1 <= p_low")
    _require(p_low < p_high / 2, "p_low < p_high / 2")
    _require(0 < delta < p_low / p_high, "0 < delta < p_low / p_high")
    _require(interior_points >= 0, "interior_points >= 0")
    # ``reproduce`` enumerates each space's equilibria, a game that grows
    # as the grid squared, so this guard bounds the time: at 150 it takes
    # about 3 s (100 about 1.5 s) on a 2-core host, direct VCG 4 ms of it.
    _require(interior_points <= 150, "interior_points <= 150")
    q1 = OnlyMinQuality(cap=p_high)
    q2 = HyperbolaQuality(p_low, p_high, delta)
    step = (p_high - p_low) / (interior_points + 1)
    grid = [p_low + k * step for k in range(interior_points + 2)]
    grid[-1] = p_high
    inst = _uniform_instance([q1, q2], m=2, price_grid=grid)
    ref_vcg = StrategyProfile((Strategy(p_high, p_high),
                               Strategy(p_high, p_high)))
    ref_gsp = StrategyProfile((Strategy(p_high, p_high),
                               Strategy(p_high, 0.0)))
    space = StrategySpace.build(inst, gain_levels=(0.0, 0.5, 1.0))
    return Scenario(
        "T10-rev-pos",
        {"delta": delta, "p_low": p_low, "p_high": p_high,
         "interior_points": interior_points},
        inst,
        partial(_zero_revenue_checks, per_kind=True),
        reference_profiles={VCG: ref_vcg, GSP: ref_gsp},
        spaces={VCG: space, GSP: space},
        gsp_allow_zero_gain=True,
        expected={
            # Without agent 0 the direct mechanism shows agent 1 alone at
            # its best grid price, which can be interior; agent 1 pays 0.
            "direct_revenue": max(q2.q(p, p) * p for p in grid)
                              - delta * p_high,
            "optimal_sw": (1.0 + delta) * p_high,
        },
    )


def _zero_revenue_checks(scenario, direct, per_kind):
    """T10 and T12: direct revenue, then per kind in ``spaces`` a Nash
    reference and equilibria with zero revenue (named per kind in T10), and
    in T10's VCG space equal prices."""
    scale = _scale(scenario)
    checks = [_check_close("direct mechanism revenue", direct.revenue,
                           scenario.expected["direct_revenue"], VALUE_TOL,
                           scale)]
    for kind in scenario.spaces:
        eqs, outs = _equilibria_and_outcomes(
            scenario.instance, kind, scenario.spaces[kind],
            scenario.gsp_allow_zero_gain)
        under = f" under {kind.value}" if per_kind else ""
        every = f"every {kind.value}" if per_kind else "every"
        checks.append(_check_nash(scenario, kind, eqs))
        checks.append(Check(f"equilibria exist{under}", bool(eqs),
                            f"{len(eqs)} found", ">= 1"))
        worst = max((abs(o.revenue) for o in outs), default=0.0)
        checks.append(Check(f"{every} equilibrium has zero revenue",
                            worst <= VALUE_TOL * scale,
                            f"max |revenue| {worst:.3g}", "0"))
        if kind is VCG:
            mismatched = [eq for eq in eqs if eq[0].price != eq[1].price]
            checks.append(Check(
                "every indirect-vcg equilibrium has equal prices",
                not mismatched, f"{len(mismatched)} unequal-price",
                "0 unequal-price"))
    stable = direct.revenue > VALUE_TOL * scale
    checks.append(Check("revenue stability ratio is infinite", stable,
                        "+inf" if stable
                        else f"direct revenue {direct.revenue:.12g}", "+inf"))
    return checks


def build_t12(p_low: float = 1.0, p_high: float = 2.5) -> Scenario:
    """Single slot where the runner-up's clicks ignore the minimum price,
    so the winner never owes anything at equilibrium."""
    _require(0 < p_low < 0.5 * p_high, "0 < p_low < 0.5 * p_high")
    q1 = OnlyMinQuality(cap=p_high)
    q2 = PriceThresholdQuality(threshold=p_low)
    inst = _uniform_instance([q1, q2], m=1,
                             price_grid=[p_low, (p_low + p_high) / 2, p_high])
    ref = StrategyProfile((Strategy(p_high, p_high), Strategy(p_low, p_low)))
    space = StrategySpace.build(inst, gain_levels=(0.0, 0.5, 1.0))
    return Scenario(
        "T12-gsp-rev", {"p_low": p_low, "p_high": p_high}, inst,
        partial(_zero_revenue_checks, per_kind=False),
        reference_profiles={GSP: ref},
        spaces={GSP: space},
        expected={"direct_revenue": p_low},
    )


_BUILDERS = {
    "T5-gsp-pos-sw": build_t5,
    "T7-poa-m": build_t7,
    "T9-overbid": build_t9,
    "T10-rev-pos": build_t10,
    "T12-gsp-rev": build_t12,
}
_ALIASES = {bid.split("-")[0]: bid for bid in _BUILDERS}

SCENARIO_IDS = tuple(_BUILDERS)


def build(scenario_id: str, **params) -> Scenario:
    """Build a scenario by id or alias.  Each parameter must be one the
    builder takes: an integer where its default is an integer, else a
    finite number."""
    key = _ALIASES.get(scenario_id.upper(), scenario_id)
    builder = _BUILDERS.get(key)
    if builder is None:
        raise AuctionError(f"unknown scenario id {scenario_id!r}; "
                           f"known: {', '.join(SCENARIO_IDS)}")
    accepted = inspect.signature(builder).parameters
    for name, value in params.items():
        if name not in accepted:
            raise AuctionError(f"{key}: unknown parameter {name!r}; "
                               f"known: {', '.join(accepted)}")
        if isinstance(accepted[name].default, int):
            if isinstance(value, bool) or not isinstance(value, int):
                raise AuctionError(f"{key}: parameter {name} must be an "
                                   f"integer, got {value!r}")
        elif (isinstance(value, bool) or not isinstance(value, (int, float))
              or not math.isfinite(value)):
            raise AuctionError(f"{key}: parameter {name} must be a finite "
                               f"number, got {value!r}")
    return builder(**params)


def reproduce(scenario: Scenario) -> VerdictReport:
    """Rerun the mechanisms and equilibrium engine on a built scenario and
    assert its expected conclusions: the optimal welfare when it is
    expected, then the scenario's own checks."""
    direct = run_direct_vcg(scenario.instance)
    checks = []
    if "optimal_sw" in scenario.expected:
        checks.append(_check_close("optimal social welfare",
                                   direct.true_welfare,
                                   scenario.expected["optimal_sw"],
                                   VALUE_TOL, _scale(scenario)))
    checks += scenario.check(scenario, direct)
    return VerdictReport(scenario.scenario_id, dict(scenario.params),
                         tuple(checks))
