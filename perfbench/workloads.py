"""Seeded inputs, operations and output checks for the four workloads.

Every input is built from public constructors (``AgentType``, the quality
classes, ``SlotProfile``, ``AuctionInstance``, ``Strategy``) with this
module's own generator, so sizes are fixed by the workload and values by
the seed.  Program functions are always looked up as module attributes at
call time (``mechanisms.run_indirect_vcg``), never bound here, so the
traced run can rebind them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import re

from price_display_auctions import (
    cli,
    equilibrium,
    mechanisms,
    serialization,
)
from price_display_auctions.equilibrium import NASH_TOL, StrategySpace
from price_display_auctions.mechanisms import MechanismKind
from price_display_auctions.model import (
    AgentType,
    Allocation,
    AuctionInstance,
    Outcome,
    SlotProfile,
    Strategy,
    StrategyProfile,
)
from price_display_auctions.quality import (
    HyperbolaQuality,
    OnlyMinQuality,
    PriceThresholdQuality,
    SmoothDecayQuality,
    TabulatedQuality,
)

ALL_KINDS = ("only-min", "price-threshold", "psi-hyperbola", "smooth-decay",
             "tabulated")
VCG = MechanismKind.INDIRECT_VCG
GSP = MechanismKind.INDIRECT_GSP
# Output checks: invariants hold, and floats agree with the golden digest,
# within this relative-or-absolute tolerance.
CHECK_TOL = 1e-9


# ---------------------------------------------------------------- inputs

def op_rng(workload: str, seed: int, index) -> random.Random:
    """Independent generator for one op; string seeds hash the same way in
    every process."""
    return random.Random(f"{workload}/{seed}/{index}")


def price_grid(rng, k):
    """k distinct prices in [1, 4] with two decimals."""
    return tuple(c / 100 for c in sorted(rng.sample(range(100, 401), k)))


def make_quality(rng, kind, grid):
    if kind == "only-min":
        return OnlyMinQuality(cap=rng.choice(grid[1:] + (math.inf,)),
                              level=rng.uniform(0.5, 1.0))
    if kind == "price-threshold":
        return PriceThresholdQuality(threshold=rng.choice(grid[1:]),
                                     level=rng.uniform(0.5, 1.0))
    if kind == "psi-hyperbola":
        low = grid[0]
        high = max(grid[-1], 2.2 * low)
        return HyperbolaQuality(low, high, rng.uniform(0.1, 0.9) * low / high)
    if kind == "smooth-decay":
        return SmoothDecayQuality(price_slope=rng.uniform(0.05, 0.2),
                                  gap_slope=rng.uniform(0.0, 0.2),
                                  intercept=rng.uniform(0.85, 1.0))
    if kind == "tabulated":
        # Linear in the cell indices: non-increasing down the rows (price),
        # non-decreasing across the columns (minimum price), as audited.
        top, down, up = (rng.uniform(0.6, 1.0), rng.uniform(0.02, 0.15),
                         rng.uniform(0.0, 0.1))
        values = tuple(tuple(min(1.0, max(0.0, top - down * i + up * j))
                             for j in range(len(grid)))
                       for i in range(len(grid)))
        return TabulatedQuality(grid, grid, values)
    raise ValueError(f"unknown quality kind {kind!r}")


def make_agent(rng, kind, grid):
    """A type whose truthful gain is positive at every grid price."""
    atype = AgentType(rng.uniform(0.5, 1.0), rng.uniform(0.0, 0.9 * grid[0]))
    return atype, make_quality(rng, kind, grid)


def make_slots(rng, m):
    tail = sorted((rng.uniform(0.3, 0.95) for _ in range(m - 1)), reverse=True)
    return SlotProfile((1.0,) + tuple(tail))


def make_instance(rng, n, m, k, kinds):
    grid = price_grid(rng, k)
    agents = tuple(make_agent(rng, rng.choice(kinds), grid) for _ in range(n))
    return AuctionInstance(agents, make_slots(rng, m), grid)


def random_bids(rng, instance):
    return StrategyProfile(tuple(
        Strategy(rng.choice(instance.price_grid), rng.uniform(0.05, 3.0))
        for _ in range(instance.n)))


# ---------------------------------------------------------------- checks

def close(a, b):
    return math.isclose(a, b, rel_tol=CHECK_TOL, abs_tol=CHECK_TOL)


def digest(exact, floats):
    """Golden record of one op: [hash, projections].

    The hash covers the parts that must match exactly, the number of
    floats and any non-finite ones.  The finite floats enter through two
    fixed random projections with weights in [1, 2]; ``digests_match``
    accepts a projection within ``2 * CHECK_TOL * max(1, max |x|)``, so a
    single float off by more than twice CHECK_TOL at that scale fails,
    while rounding noise from reordered arithmetic (about 1e-16 per
    float) passes.
    """
    finite = [x for x in floats if math.isfinite(x)]
    special = [(i, repr(x)) for i, x in enumerate(floats)
               if not math.isfinite(x)]
    text = json.dumps([exact, len(floats), special], sort_keys=True,
                      separators=(",", ":"))
    scale = max([1.0] + [abs(x) for x in finite])
    return [hashlib.sha256(text.encode()).hexdigest()[:16], scale,
            *(math.fsum(w * x for w, x in zip(_weights(j, len(finite)), finite))
              for j in range(2))]


def _weights(j, n):
    rng = random.Random(f"projection/{j}")
    return [rng.uniform(1.0, 2.0) for _ in range(n)]


def digests_match(got, want):
    tol = 2 * CHECK_TOL * max(got[1], want[1])
    return got[0] == want[0] and all(abs(a - b) <= tol
                                     for a, b in zip(got[2:], want[2:]))


def allocation_key(allocation):
    return [list(allocation.slot_agents), list(allocation.display_prices)]


def outcome_problems(instance, outcome, gains, label):
    """Invariants every outcome must meet: each payment lies in
    [0, declared value], and declared and true welfare match a
    recomputation from the allocation.  ``gains[i]`` is agent i's declared
    gain at its display price."""
    problems = []
    alloc = outcome.allocation
    p_min = alloc.p_min
    declared = [0.0] * instance.n
    true_sw = 0.0
    for pos, agent in enumerate(alloc.slot_agents):
        price = alloc.display_prices[pos]
        weight = (instance.slots.prominences[pos]
                  * instance.quality(agent).q(price, p_min))
        declared[agent] = weight * gains[agent]
        true_sw += weight * instance.atype(agent).gain(price)
    for agent, paid in enumerate(outcome.payments):
        if not -CHECK_TOL <= paid <= declared[agent] + CHECK_TOL:
            problems.append(f"{label}: agent {agent} pays {paid!r}, declared "
                            f"value {declared[agent]!r}")
    if not close(outcome.declared_welfare, math.fsum(declared)):
        problems.append(f"{label}: declared welfare {outcome.declared_welfare!r}"
                        f" != recomputed {math.fsum(declared)!r}")
    if not close(outcome.true_welfare, true_sw):
        problems.append(f"{label}: true welfare {outcome.true_welfare!r}"
                        f" != recomputed {true_sw!r}")
    return problems


def truthful_gains_at(instance, allocation):
    gains = [0.0] * instance.n
    for agent, price in zip(allocation.slot_agents, allocation.display_prices):
        gains[agent] = instance.atype(agent).gain(price)
    return gains


def outcome_floats(outcome):
    alloc = outcome.allocation
    return ([outcome.payments[a] for a in alloc.slot_agents]
            + [outcome.declared_welfare, outcome.true_welfare])


# ------------------------------------------------------------- workloads

class Workload:
    """One op kind.  ``make_input`` builds op inputs in set-up, ``run`` is
    the timed op, ``record`` and ``problems`` check its output afterwards."""

    name = ""
    pool_size = 0
    trace_ops = 0
    reference_every = 0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def build_pool(self, indices):
        """The inputs numbered ``indices`` (of ``range(pool_size)``), keyed
        by number.  Input k is the same whichever others are built."""
        return {k: self.make_input(op_rng(self.name, self.seed, k), k)
                for k in indices}

    def warmup_input(self):
        """The same for every seed, so that set-up time does not depend on
        which input a seed happens to draw for the warm-up op."""
        return self.make_input(op_rng(self.name, 0, "warmup"), "warmup")

    def make_input(self, rng, index):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def record(self, inp, result):
        raise NotImplementedError

    def problems(self, inp, result):
        return []

    def stdout_bytes(self, result):
        """Bytes the op's CLI commands printed to stdout."""
        return 0

    def reference_problems(self, inp, result):
        """Independent re-check, run on every ``reference_every``-th op."""
        return []


class NashEnum(Workload):
    """One game, analysed under indirect VCG and indirect GSP."""

    name = "nash-enum"
    pool_size = 400
    trace_ops = 4
    reference_every = 16
    kinds = ("only-min", "price-threshold", "smooth-decay", "tabulated")

    def make_input(self, rng, index):
        instance = make_instance(rng, n=3, m=2, k=4, kinds=self.kinds)
        return instance, StrategySpace.build(instance,
                                             gain_levels=(0.0, 0.5, 1.0))

    def run(self, inp):
        instance, space = inp
        return tuple(equilibrium.efficiency_report(instance, kind, space)
                     for kind in (VCG, GSP))

    def record(self, inp, result):
        exact, floats = [], []
        for report in result:
            exact.append([[[s.price, s.gain] for s in eq.strategies]
                          for eq in report.equilibria])
            exact.append([allocation_key(o.allocation) for o in report.outcomes])
            floats += [report.benchmark_sw, report.benchmark_rev, report.poa_sw,
                       report.pos_sw, report.poa_rev, report.pos_rev]
            for o in report.outcomes:
                floats += outcome_floats(o)
        return digest(exact, floats)

    def problems(self, inp, result):
        instance, _ = inp
        out = []
        for report in result:
            if len(report.outcomes) != len(report.equilibria):
                out.append("one outcome per equilibrium expected")
            for eq, o in zip(report.equilibria, report.outcomes):
                out += outcome_problems(instance, o, eq.gains, "equilibrium")
        return out

    def reference_problems(self, inp, result):
        instance, space = inp
        out = []
        for kind, report in zip((VCG, GSP), result):
            want = reference_equilibria(instance, kind, space)
            got = [eq.strategies for eq in report.equilibria]
            if got != want:
                out.append(f"{kind.value}: engine found {len(got)} equilibria, "
                           f"reference {len(want)}")
        return out


def reference_equilibria(instance, kind, space):
    """Pure Nash profiles by plain enumeration: every profile is run once
    through ``run_mechanism``, then every unilateral deviation is looked up.
    Shares no code with the equilibrium engine beyond the mechanisms."""
    options = space.options
    utilities = {}
    for combo in itertools.product(*options):
        outcome = mechanisms.run_mechanism(instance, kind,
                                           StrategyProfile(combo))
        utilities[combo] = outcome.utilities(instance)
    found = []
    for combo, u in utilities.items():
        if all(utilities[combo[:i] + (s,) + combo[i + 1:]][i] <= u[i] + NASH_TOL
               for i in range(len(options)) for s in options[i]):
            found.append(combo)
    return found


class ClearIndirect(Workload):
    """One page of 1000 bids, cleared by indirect VCG then indirect GSP.

    Advertisers and bids come from seeded populations of prime size; each
    page takes 1000 of each along its own random stride, with its own
    prominences, so no instance or profile repeats within the pool and
    building a page costs little.
    """

    name = "clear-indirect"
    pool_size = 2000
    trace_ops = 40
    advertisers = 5003
    bids = 20011
    n, m, k = 1000, 5, 10

    def build_pool(self, indices):
        rng = op_rng(self.name, self.seed, "population")
        self.grid = price_grid(rng, self.k)
        self.population = [make_agent(rng, rng.choice(ALL_KINDS), self.grid)
                           for _ in range(self.advertisers)]
        self.palette = [Strategy(rng.choice(self.grid), rng.uniform(0.05, 3.0))
                        for _ in range(self.bids)]
        return super().build_pool(indices)

    def make_input(self, rng, index):
        agents = _stride(rng, self.population, self.n)
        instance = AuctionInstance(agents, make_slots(rng, self.m), self.grid)
        return instance, StrategyProfile(_stride(rng, self.palette, self.n))

    def run(self, inp):
        instance, bids = inp
        return (mechanisms.run_indirect_vcg(instance, bids),
                mechanisms.run_indirect_gsp(instance, bids))

    def record(self, inp, result):
        return digest([allocation_key(o.allocation) for o in result],
                      [x for o in result for x in outcome_floats(o)])

    def problems(self, inp, result):
        instance, bids = inp
        return [p for label, o in zip(("vcg", "gsp"), result)
                for p in outcome_problems(instance, o, bids.gains, label)]


def _stride(rng, items, n):
    """n distinct items: a random start and a random step, modulo a prime
    length."""
    start, step = rng.randrange(len(items)), rng.randrange(1, len(items))
    return tuple(items[(start + step * j) % len(items)] for j in range(n))


class ClearDirect(Workload):
    """One truthful direct-VCG run on a distinct instance."""

    name = "clear-direct"
    pool_size = 400
    trace_ops = 6

    def make_input(self, rng, index):
        return make_instance(rng, n=30, m=5, k=8, kinds=ALL_KINDS)

    def run(self, instance):
        return mechanisms.run_direct_vcg(instance)

    def record(self, instance, outcome):
        return digest(allocation_key(outcome.allocation), outcome_floats(outcome))

    def problems(self, instance, outcome):
        return outcome_problems(instance, outcome,
                                truthful_gains_at(instance, outcome.allocation),
                                "direct-vcg")


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def split_payload(value, floats):
    """Replace every float in a JSON payload, including numbers written
    inside strings, by a marker, collecting them in ``floats``."""
    if isinstance(value, float):
        floats.append(value)
        return "#"
    if isinstance(value, str):
        for match in _NUMBER.findall(value):
            floats.append(float(match))
        return _NUMBER.sub("#", value)
    if isinstance(value, list):
        return [split_payload(v, floats) for v in value]
    if isinstance(value, dict):
        return {k: split_payload(v, floats) for k, v in value.items()}
    return value


class CliMix(Workload):
    """One CLI session run in-process through ``cli.main`` with ``--json``."""

    name = "cli-mix"
    pool_size = 600
    trace_ops = 6

    def make_input(self, rng, index):
        main = make_instance(rng, n=6, m=3, k=5, kinds=ALL_KINDS)
        main_bids = random_bids(rng, main)
        grid = price_grid(rng, 4)
        smooth = AuctionInstance(
            tuple((AgentType(rng.uniform(0.5, 1.0), rng.uniform(0.0, 0.9)),
                   SmoothDecayQuality(price_slope=rng.uniform(0.15, 0.35),
                                      gap_slope=rng.uniform(0.0, 0.2),
                                      intercept=rng.uniform(0.85, 1.0)))
                  for _ in range(4)),
            make_slots(rng, 2), grid)
        game = make_instance(rng, n=2, m=rng.choice((1, 2)), k=3,
                             kinds=ALL_KINDS)
        paths = [os.path.join(self.workdir, f"{index}-{tag}.json")
                 for tag in ("main", "smooth", "game")]
        serialization.save_instance(paths[0], main, main_bids)
        serialization.save_instance(paths[1], smooth)
        serialization.save_instance(paths[2], game)
        # T10's expected direct revenue holds for p_high / p_low up to about
        # 2.5 and small delta; outside that the scenario's own check fails
        # for parameters that build_t10 accepts.  CHANGES.md lists fixing
        # that expectation as open; widen these ranges once it is fixed.
        p_low = round(rng.uniform(1.0, 1.5), 3)
        p_high = round(p_low * rng.uniform(2.2, 2.5), 3)
        scenarios = [
            ("T5", f"p_low={round(rng.uniform(1.0, 2.0), 3)}",
             f"eps={round(rng.uniform(0.01, 0.1), 3)}"),
            ("T7", f"m={rng.choice((2, 3))}",
             f"p_high={round(rng.uniform(0.5, 2.0), 3)}"),
            ("T9", f"delta={round(rng.uniform(0.05, 0.5), 3)}",
             f"p_high={round(rng.uniform(0.5, 2.0), 3)}"),
            ("T10", f"p_low={p_low}", f"p_high={p_high}",
             f"delta={round(rng.uniform(0.1, 0.4) * p_low / p_high, 4)}",
             f"interior_points={rng.choice((1, 2, 3))}"),
            ("T12", f"p_low={p_low}", f"p_high={p_high}"),
        ]
        main_path, smooth_path, game_path = paths
        commands = [
            ["allocate", main_path],
            ["allocate", main_path, "--mode", "direct"],
            ["pay", main_path, "--mechanism", "indirect-vcg"],
            ["pay", main_path, "--mechanism", "indirect-gsp"],
            ["pay", main_path, "--mechanism", "direct-vcg"],
            ["pay", smooth_path, "--mechanism", "indirect-vcg-star"],
            ["audit", main_path, "--seed", str(rng.randrange(1000)),
             "--probes", "10"],
            ["equilibria", game_path, "--mechanism", "indirect-gsp"],
            ["report", game_path, "--mechanism", "indirect-vcg"],
        ]
        for sid, *params in scenarios:
            argv = ["reproduce", sid]
            for p in params:
                argv += ["--param", p]
            commands.append(argv)
        commands = [argv + ["--json"] for argv in commands]
        return {"commands": commands, "main": main, "bids": main_bids,
                "smooth": smooth}

    def run(self, inp):
        """Each command's (exit code, stdout, stderr)."""
        out = []
        for argv in inp["commands"]:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            out.append((code, stdout.getvalue(), stderr.getvalue()))
        return out

    def stdout_bytes(self, result):
        return sum(len(stdout.encode()) for _, stdout, _ in result)

    @staticmethod
    def payloads(result):
        return [json.loads(stdout) for _, stdout, _ in result]

    def record(self, inp, result):
        floats = []
        structure = [split_payload(p, floats) for p in self.payloads(result)]
        return digest(structure, floats)

    def problems(self, inp, result):
        out = [f"{' '.join(argv[:2])}: exit {code}: {stderr.strip()}"
               for argv, (code, _, stderr) in zip(inp["commands"], result)
               if code != 0]
        if out:
            return out
        try:
            payloads = self.payloads(result)
        except json.JSONDecodeError as exc:
            return [f"stdout is not JSON: {exc}"]
        for argv, payload in zip(inp["commands"], payloads):
            if argv[0] != "pay":
                if payload.get("passed") is False:
                    out.append(f"{' '.join(argv[:2])}: verdict failed")
                continue
            mech = payload["mechanism"]
            instance = inp["smooth"] if mech == "indirect-vcg-star" else inp["main"]
            outcome = payload["outcome"]
            alloc = outcome["allocation"]
            o = Outcome(Allocation(tuple(alloc["slot_agents"]),
                                   tuple(alloc["display_prices"])),
                        tuple(outcome["payments"]), outcome["declared_welfare"],
                        outcome["true_welfare"])
            if mech in ("indirect-vcg", "indirect-gsp"):
                gains = inp["bids"].gains
            else:
                gains = truthful_gains_at(instance, o.allocation)
            out += outcome_problems(instance, o, gains, mech)
        return out


WORKLOADS = {w.name: w for w in (NashEnum, ClearIndirect, ClearDirect, CliMix)}
