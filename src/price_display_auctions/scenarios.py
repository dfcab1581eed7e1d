"""Parametric benchmark scenarios with known equilibrium behavior.

Each scenario pins down an auction instance, reference strategy
profiles, finite strategy menus, and the numeric conclusions expected of
them; ``reproduce`` replays the whole analysis and reports a per-check
verdict.  Scenario ids follow the T<number> naming used throughout the
test suite and CLI.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

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
VALUE_TOL = 1e-9

VCG = MechanismKind.INDIRECT_VCG
GSP = MechanismKind.INDIRECT_GSP


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    params: dict = field(compare=False)
    instance: AuctionInstance = None
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
        "T5-gsp-pos-sw", {"p_low": p_low, "eps": eps}, inst,
        reference_profiles={GSP: ref},
        spaces={GSP: space},
        expected={
            "optimal_sw": opt,
            "equilibrium_sw": eq_sw,
            "ratio": opt / eq_sw,
        },
    )


def build_t7(m: int = 2, p_high: float = 1.0) -> Scenario:
    """m slots, m+1 identical sellers: everyone at the low price is
    stable but earns only 1/m of the optimum."""
    _require(m >= 2, "m >= 2")
    _require(p_high > 0, "p_high > 0")
    p_low = p_high / m
    q = OnlyMinQuality(cap=p_high)
    inst = _uniform_instance([q] * (m + 1), m=m,
                             price_grid=[p_low, (p_low + p_high) / 2, p_high])
    ref = StrategyProfile(tuple(Strategy(p_low, p_low) for _ in range(m + 1)))
    space = StrategySpace.build(inst, gain_levels=(0.0, 0.5, 1.0))
    return Scenario(
        "T7-poa-m", {"m": m, "p_high": p_high}, inst,
        reference_profiles={VCG: ref, GSP: ref},
        spaces={VCG: space, GSP: space},
        expected={
            "optimal_sw": m * p_high,
            "equilibrium_sw": p_high,
            "ratio": float(m),
        },
    )


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
        "T9-overbid", {"delta": delta, "p_high": p_high}, inst,
        reference_profiles={VCG: ref, GSP: ref},
        spaces={VCG: space_vcg, GSP: space_gsp},
        expected={
            "optimal_sw": p_high,
            "equilibrium_sw": delta * p_high,
            "ratio": 1.0 / delta,
        },
    )


def build_t10(delta: float = 0.1, p_low: float = 1.0, p_high: float = 2.5,
              interior_points: int = 5) -> Scenario:
    """Two slots where the direct mechanism collects revenue but every
    stable indirect outcome collects none."""
    _require(1.0 <= p_low, "1 <= p_low")
    _require(p_low < p_high / 2, "p_low < p_high / 2")
    _require(0 < delta < p_low / p_high, "0 < delta < p_low / p_high")
    _require(interior_points >= 0, "interior_points >= 0")
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


def _check_close(name, observed, expected, tol):
    return Check(name, abs(observed - expected) <= tol,
                 f"{observed:.12g}", f"{expected:.12g} (tol {tol:g})")


def _check_nash(scenario, kind):
    ok, witness = is_nash(
        scenario.instance, kind, scenario.spaces[kind],
        scenario.reference_profiles[kind],
        gsp_allow_zero_gain=scenario.gsp_allow_zero_gain)
    return Check(f"reference profile is Nash under {kind.value}", ok,
                 "Nash" if ok else f"improving deviation {witness}", "Nash")


def _reference_outcome(scenario, kind):
    return run_mechanism(scenario.instance, kind,
                         scenario.reference_profiles[kind],
                         gsp_allow_zero_gain=scenario.gsp_allow_zero_gain)


def reproduce(scenario: Scenario) -> VerdictReport:
    """Rerun the mechanisms and equilibrium engine on a built scenario and
    assert its expected conclusions."""
    exp = scenario.expected
    checks: list[Check] = []
    direct = run_direct_vcg(scenario.instance)

    if "optimal_sw" in exp:
        checks.append(_check_close("optimal social welfare",
                                   direct.true_welfare, exp["optimal_sw"],
                                   VALUE_TOL))

    sid = scenario.scenario_id
    if sid == "T5-gsp-pos-sw":
        checks.append(_check_nash(scenario, GSP))
        out = _reference_outcome(scenario, GSP)
        checks.append(Check(
            "equilibrium welfare at most p_low + eps",
            out.true_welfare <= exp["equilibrium_sw"] + VALUE_TOL,
            f"{out.true_welfare:.12g}", f"<= {exp['equilibrium_sw']:.12g}"))
        checks.append(_check_close(
            "welfare ratio", direct.true_welfare / out.true_welfare,
            exp["ratio"], RATIO_TOL))

    elif sid == "T7-poa-m":
        outs = {}
        for kind in (VCG, GSP):
            checks.append(_check_nash(scenario, kind))
            outs[kind] = out = _reference_outcome(scenario, kind)
            checks.append(_check_close(
                f"equilibrium welfare under {kind.value}",
                out.true_welfare, exp["equilibrium_sw"], VALUE_TOL))
        checks.append(_check_close(
            "welfare ratio", direct.true_welfare / outs[VCG].true_welfare,
            exp["ratio"], RATIO_TOL))

    elif sid == "T9-overbid":
        for kind in (VCG, GSP):
            checks.append(_check_nash(scenario, kind))
        out = _reference_outcome(scenario, VCG)
        checks.append(_check_close("equilibrium welfare", out.true_welfare,
                                   exp["equilibrium_sw"], VALUE_TOL))
        checks.append(_check_close(
            "welfare ratio", direct.true_welfare / out.true_welfare,
            exp["ratio"], RATIO_TOL))

    elif sid == "T10-rev-pos":
        checks.append(_check_close("direct mechanism revenue",
                                   direct.revenue, exp["direct_revenue"],
                                   VALUE_TOL))
        for kind in (VCG, GSP):
            checks.append(_check_nash(scenario, kind))
            eqs, outs = _equilibria_and_outcomes(
                scenario.instance, kind, scenario.spaces[kind],
                scenario.gsp_allow_zero_gain)
            checks.append(Check(
                f"equilibria exist under {kind.value}", bool(eqs),
                f"{len(eqs)} found", ">= 1"))
            worst = max((abs(o.revenue) for o in outs), default=0.0)
            checks.append(Check(
                f"every {kind.value} equilibrium has zero revenue",
                worst <= VALUE_TOL, f"max |revenue| {worst:.3g}", "0"))
            if kind is VCG:
                mismatched = [eq for eq in eqs
                              if eq[0].price != eq[1].price]
                checks.append(Check(
                    "every indirect-vcg equilibrium has equal prices",
                    not mismatched, f"{len(mismatched)} unequal-price",
                    "0 unequal-price"))
        checks.append(Check("revenue stability ratio is infinite",
                            direct.revenue > VALUE_TOL, "+inf", "+inf"))

    elif sid == "T12-gsp-rev":
        checks.append(_check_close("direct mechanism revenue",
                                   direct.revenue, exp["direct_revenue"],
                                   VALUE_TOL))
        checks.append(_check_nash(scenario, GSP))
        eqs, outs = _equilibria_and_outcomes(
            scenario.instance, GSP, scenario.spaces[GSP],
            scenario.gsp_allow_zero_gain)
        checks.append(Check("equilibria exist", bool(eqs),
                            f"{len(eqs)} found", ">= 1"))
        worst = max((abs(o.revenue) for o in outs), default=0.0)
        checks.append(Check("every equilibrium has zero revenue",
                            worst <= VALUE_TOL,
                            f"max |revenue| {worst:.3g}", "0"))
        checks.append(Check("revenue stability ratio is infinite",
                            direct.revenue > VALUE_TOL, "+inf", "+inf"))

    return VerdictReport(scenario.scenario_id, dict(scenario.params),
                         tuple(checks))
