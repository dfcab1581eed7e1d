"""Metamorphic relations of the mechanisms on tie-heavy instances.

The model has no order of agents beyond the instance tie-break, so
renaming the agents, and the tie-break with them, must rename every
outcome: the same pages, prices, payments and welfare.  And an agent who
gains nothing from a click, last in the tie-break, must change no
outcome and pay nothing.  Both are checked under direct VCG, indirect
VCG and indirect GSP on the coarse pool of ``test_allocation``, whose
round bids tie exactly, so that the tie rules decide many outcomes.
"""

import random

from test_allocation import _coarse_case

from price_display_auctions import (
    AgentType,
    AuctionInstance,
    Strategy,
    StrategyProfile,
    run_direct_vcg,
    run_indirect_gsp,
    run_indirect_vcg,
)

CASES = 1000


def _cases():
    for seed in range(CASES):
        yield (seed, *_coarse_case(seed, n_range=(1, 6)))


def _runs(instance, prof):
    return {"direct-vcg": run_direct_vcg(instance),
            "indirect-vcg": run_indirect_vcg(instance, prof),
            "indirect-gsp": run_indirect_gsp(instance, prof)}


def _fields(outcome):
    return (outcome.allocation.slot_agents, outcome.allocation.display_prices,
            outcome.payments, outcome.declared_welfare, outcome.true_welfare)


def _order(instance):
    """The tie-break as a tuple of agents, highest priority first."""
    if instance.tie_break is None:
        return tuple(range(instance.n))
    return instance.tie_break


def _relabeled(instance, prof, perm):
    """The instance and profile with agent perm[k] renamed k, and the
    tie-break renamed with them."""
    new = {old: k for k, old in enumerate(perm)}
    return (AuctionInstance(tuple(instance.agents[a] for a in perm),
                            instance.slots, instance.price_grid,
                            tuple(new[a] for a in _order(instance))),
            StrategyProfile(tuple(prof[a] for a in perm)))


def _mapped_back(outcome, perm):
    """``_fields`` of an outcome of the relabeled instance, with every
    agent under her original name."""
    payments = [0.0] * len(perm)
    for k, old in enumerate(perm):
        payments[old] = outcome.payments[k]
    return (tuple(perm[k] for k in outcome.allocation.slot_agents),
            outcome.allocation.display_prices, tuple(payments),
            outcome.declared_welfare, outcome.true_welfare)


def test_relabeling_the_agents_relabels_every_outcome():
    failures = []
    for seed, inst, prof in _cases():
        perm = list(range(inst.n))
        random.Random(seed).shuffle(perm)
        renamed = _runs(*_relabeled(inst, prof, perm))
        for name, outcome in _runs(inst, prof).items():
            if _mapped_back(renamed[name], perm) != _fields(outcome):
                failures.append((name, seed))
    assert failures == []


def test_a_null_agent_changes_no_outcome_and_pays_nothing():
    # The appended agent's true gain, alpha * (p - cost), and her bid's
    # gain are 0 at every price, and she is last in the tie-break.
    failures = []
    for seed, inst, prof in _cases():
        null = (AgentType(0.0, 0.0), inst.agents[-1][1])
        with_null = AuctionInstance(inst.agents + (null,), inst.slots,
                                    inst.price_grid, (*_order(inst), inst.n))
        bids = StrategyProfile(prof.strategies
                               + (Strategy(inst.price_grid[0], 0.0),))
        joined = _runs(with_null, bids)
        for name, outcome in _runs(inst, prof).items():
            got = joined[name]
            if got.payments[inst.n] != 0.0 or _fields(got) != (
                    *_fields(outcome)[:2], outcome.payments + (0.0,),
                    *_fields(outcome)[3:]):
                failures.append((name, seed))
    assert failures == []
