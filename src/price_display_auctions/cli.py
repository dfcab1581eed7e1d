"""Command-line interface.

Exit codes: 0 on success, 1 when an analysis reaches a failing verdict
(a reproduction check fails or an audit finds violations), 2 on usage or
input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from dataclasses import asdict

from . import __version__
from .allocation import brute_force_allocate, direct_allocate, indirect_allocate
from .equilibrium import StrategySpace, efficiency_report, enumerate_pure_nash
from .errors import AuctionError
from .mechanisms import MechanismKind, run_mechanism, truthful_star_profile
from .model import declared_welfare
from .quality import audit_quality, probe_grid
from .scenarios import SCENARIO_IDS, build, reproduce
from .serialization import (
    allocation_to_dict,
    envelope,
    outcome_to_dict,
    profile_to_dict,
    report_to_dict,
    load_instance,
    save_instance,
)

_MECHANISMS = {k.value: k for k in MechanismKind}

# ``audit`` checks every (p, p_min) pair of its points on every agent; this
# many checks take about 5 s on a 2-core host (700 probes on 4 agents).
AUDIT_CHECK_LIMIT = 1_000_000


def _parse_mechanism(name: str) -> MechanismKind:
    if name not in _MECHANISMS:
        raise AuctionError(f"unknown mechanism {name!r}; "
                           f"choose from {', '.join(_MECHANISMS)}")
    return _MECHANISMS[name]


def _parse_params(pairs):
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise AuctionError(f"--param expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            out[key] = int(raw)
        except ValueError:
            try:
                out[key] = float(raw)
            except ValueError:
                raise AuctionError(f"--param {key}: {raw!r} is not a number")
    return out


def _emit(args, command, payload, text_lines):
    # Serialized in both modes so that a non-finite result (a float
    # overflow) is refused, not printed; intended infinities are strings.
    try:
        text = json.dumps(envelope(command, payload), indent=2,
                          allow_nan=False)
    except ValueError:
        raise AuctionError(f"{command}: result is not finite "
                           f"(float overflow)") from None
    if args.json:
        print(text)
    else:
        for line in text_lines:
            print(line)


def _need_profile(profile, what):
    if profile is None:
        raise AuctionError(f"{what} needs a 'profile' entry in the instance file")
    return profile


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return f"{x:.6g}"


def cmd_allocate(args) -> int:
    instance, profile = load_instance(args.instance)
    if args.mode == "direct":
        reported = [instance.atype(i) for i in range(instance.n)]
        if args.oracle:
            result = brute_force_allocate(instance, reported, "direct")
        else:
            result = direct_allocate(instance, reported)
        alloc, sw = result.allocation, result.declared_welfare
    else:
        profile = _need_profile(profile, "indirect allocation")
        if args.oracle:
            alloc = brute_force_allocate(instance, profile, "indirect")
        else:
            alloc = indirect_allocate(instance, profile)
        sw = declared_welfare(instance, alloc, profile.gains)
    lines = [f"mode: {args.mode}" + (" (oracle)" if args.oracle else ""),
             f"assigned agents (by slot): {list(alloc.slot_agents)}",
             f"display prices: {[_fmt(p) for p in alloc.display_prices]}",
             f"min displayed price: "
             f"{_fmt(alloc.p_min) if alloc.p_min is not None else 'none'}",
             f"declared welfare: {_fmt(sw)}"]
    _emit(args, "allocate",
          {"mode": args.mode, "oracle": args.oracle,
           "allocation": allocation_to_dict(alloc), "declared_welfare": sw},
          lines)
    return 0


def cmd_pay(args) -> int:
    instance, profile = load_instance(args.instance)
    kind = _parse_mechanism(args.mechanism)
    if kind is MechanismKind.DIRECT_VCG:
        bids = [instance.atype(i) for i in range(instance.n)]
    elif kind is MechanismKind.INDIRECT_VCG_STAR and profile is None:
        bids = truthful_star_profile(instance)
    else:
        bids = _need_profile(profile, f"mechanism {kind.value}")
    outcome = run_mechanism(instance, kind, bids,
                            gsp_allow_zero_gain=args.allow_zero_gain)
    lines = [f"mechanism: {kind.value}",
             f"assigned agents (by slot): {list(outcome.allocation.slot_agents)}",
             f"display prices: {[_fmt(p) for p in outcome.allocation.display_prices]}",
             f"payments: {[_fmt(p) for p in outcome.payments]}",
             f"revenue: {_fmt(outcome.revenue)}",
             f"declared welfare: {_fmt(outcome.declared_welfare)}",
             f"true welfare: {_fmt(outcome.true_welfare)}"]
    lines += [f"note: {d}" for d in outcome.diagnostics]
    _emit(args, "pay",
          {"mechanism": kind.value, "outcome": outcome_to_dict(outcome)},
          lines)
    return 0


def _build_space(args, instance):
    try:
        levels = tuple(float(x) for x in args.gain_levels.split(","))
    except ValueError:
        levels = ()
    if not levels or not all(math.isfinite(x) for x in levels):
        raise AuctionError(f"--gain-levels expects comma-separated finite "
                           f"numbers, got {args.gain_levels!r}")
    return StrategySpace.build(instance, gain_levels=levels,
                               overbidding=args.overbidding)


def cmd_equilibria(args) -> int:
    instance, _ = load_instance(args.instance)
    kind = _parse_mechanism(args.mechanism)
    space = _build_space(args, instance)
    eqs = enumerate_pure_nash(instance, kind, space,
                              gsp_allow_zero_gain=args.allow_zero_gain)
    lines = [f"mechanism: {kind.value}",
             f"joint profiles searched: {space.size}",
             f"pure Nash equilibria: {len(eqs)}"]
    for eq in eqs:
        lines.append("  " + ", ".join(
            f"agent {i}: (p={_fmt(s.price)}, b={_fmt(s.gain)})"
            for i, s in enumerate(eq.strategies)))
    _emit(args, "equilibria",
          {"mechanism": kind.value, "searched": space.size,
           "equilibria": [profile_to_dict(eq) for eq in eqs]},
          lines)
    return 0


def cmd_report(args) -> int:
    instance, _ = load_instance(args.instance)
    kind = _parse_mechanism(args.mechanism)
    space = _build_space(args, instance)
    report = efficiency_report(instance, kind, space,
                               gsp_allow_zero_gain=args.allow_zero_gain)
    lines = [f"mechanism: {kind.value}",
             f"pure Nash equilibria: {len(report.equilibria)}",
             f"benchmark welfare: {_fmt(report.benchmark_sw)}",
             f"benchmark revenue: {_fmt(report.benchmark_rev)}",
             f"PoA (welfare): {_fmt(report.poa_sw)}",
             f"PoS (welfare): {_fmt(report.pos_sw)}",
             f"PoA (revenue): {_fmt(report.poa_rev)}",
             f"PoS (revenue): {_fmt(report.pos_rev)}"]
    lines += [f"note: {n}" for n in report.notes]
    _emit(args, "report",
          {"mechanism": kind.value, "report": report_to_dict(report)},
          lines)
    return 0


def cmd_reproduce(args) -> int:
    scenario = build(args.scenario, **_parse_params(args.param))
    verdict = reproduce(scenario)
    if args.export:
        ref = next(iter(scenario.reference_profiles.values()), None)
        save_instance(args.export, scenario.instance, ref)
    lines = [f"scenario: {verdict.scenario_id}",
             f"params: {verdict.params}"]
    for c in verdict.checks:
        mark = "PASS" if c.passed else "FAIL"
        lines.append(f"  [{mark}] {c.name}: {c.observed} (expected {c.expected})")
    lines.append("verdict: " + ("PASS" if verdict.passed else "FAIL"))
    _emit(args, "reproduce",
          {"scenario": verdict.scenario_id, "params": verdict.params,
           "passed": verdict.passed,
           "checks": [asdict(c) for c in verdict.checks]},
          lines)
    return 0 if verdict.passed else 1


def cmd_audit(args) -> int:
    if args.probes < 0:
        raise AuctionError(f"--probes must be >= 0, got {args.probes}")
    instance, _ = load_instance(args.instance)
    # Bounded before any point is drawn; duplicates only lower the count.
    size = len(instance.price_grid) + args.probes
    checks = size * (size + 1) // 2 * instance.n
    if checks > AUDIT_CHECK_LIMIT:
        raise AuctionError(
            f"--probes {args.probes}: {size} prices on {instance.n} agents "
            f"make {checks} checks, over the limit of {AUDIT_CHECK_LIMIT}")
    rng = random.Random(args.seed)
    points = set(instance.price_grid)
    lo, hi = min(points), max(points)
    points.update(round(rng.uniform(lo, hi + 1.0), 6)
                  for _ in range(args.probes))
    probes = probe_grid(points)
    lines = []
    agents = []
    total = 0
    for i in range(instance.n):
        violations = audit_quality(instance.quality(i), probes)
        total += len(violations)
        agents.append({"agent": i, "ok": not violations,
                       "violations": [asdict(v) for v in violations]})
        lines.append(f"agent {i}: " +
                     (f"{len(violations)} violation(s)" if violations else "ok"))
        for v in violations:
            lines.append(f"  {v.constraint}: {v.detail}")
    lines.append(f"probes per model: {len(probes)}")
    lines.append("audit: " + ("PASS" if total == 0 else "FAIL"))
    _emit(args, "audit",
          {"seed": args.seed, "probe_count": len(probes),
           "passed": total == 0, "agents": agents},
          lines)
    return 0 if total == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pda",
        description="Ad auctions with displayed prices: allocation, "
                    "payments, equilibria, and benchmark scenarios.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true",
                       help="emit structured JSON instead of text")

    p = sub.add_parser("allocate", help="welfare-maximizing allocation")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--mode", choices=("indirect", "direct"), default="indirect")
    p.add_argument("--oracle", action="store_true",
                   help="use the exhaustive-search oracle")
    add_common(p)

    p = sub.add_parser("pay", help="run a mechanism and show payments")
    p.add_argument("instance")
    p.add_argument("--mechanism", default="indirect-vcg",
                   help=", ".join(_MECHANISMS))
    p.add_argument("--allow-zero-gain", action="store_true",
                   help="let zero-gain ads fill leftover slots (GSP only)")
    add_common(p)

    def add_game(p):
        p.add_argument("instance")
        p.add_argument("--mechanism", default="indirect-vcg")
        p.add_argument("--gain-levels", default="0,0.5,1",
                       help="comma-separated fractions of the truthful gain")
        p.add_argument("--overbidding", action="store_true")
        p.add_argument("--allow-zero-gain", action="store_true")
        add_common(p)

    p = sub.add_parser("equilibria", help="enumerate pure Nash equilibria")
    add_game(p)

    p = sub.add_parser("report", help="equilibrium efficiency report")
    add_game(p)

    p = sub.add_parser("reproduce", help="replay a benchmark scenario")
    p.add_argument("scenario", help=f"one of {', '.join(SCENARIO_IDS)} "
                                    "(or its T<number> alias)")
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="override a scenario parameter")
    p.add_argument("--export", metavar="PATH",
                   help="write the scenario instance to a JSON file")
    add_common(p)

    p = sub.add_parser("audit", help="check quality-model assumptions")
    p.add_argument("instance")
    p.add_argument("--probes", type=int, default=25,
                   help="random probe prices added to the grid")
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first ``main`` call,
    not at import.  ``parse_args`` leaves it unchanged and writes to the
    ``sys.stdout`` and ``sys.stderr`` of the moment."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Looked up per call, so a ``cmd_*`` rebound after the parser was built
    # (as perfbench's tracer does) is the one that runs.
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except (AuctionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
