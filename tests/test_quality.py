"""Quality model behavior: domains, shapes, derivatives, audits."""

import math

import pytest
from hypothesis import given, strategies as st

from price_display_auctions import (
    AgentType,
    AuctionError,
    AuctionInstance,
    AuditViolation,
    HyperbolaQuality,
    InferenceError,
    OnlyMinQuality,
    PriceThresholdQuality,
    QualityDomainError,
    QualityModel,
    SlotProfile,
    SmoothDecayQuality,
    TabulatedQuality,
    audit_quality,
    indirect_allocate,
    infer_type,
    probe_grid,
    profile,
)


def test_domain_guard():
    q = OnlyMinQuality()
    with pytest.raises(QualityDomainError):
        q.q(1.0, 2.0)


def test_only_min_shape():
    q = OnlyMinQuality(cap=2.0, level=0.8)
    assert q.q(1.5, 1.5) == 0.8
    assert q.q(1.5, 1.0) == 0.0  # not the minimum displayed price
    assert q.q(2.5, 2.5) == 0.0  # above the cap
    assert OnlyMinQuality().q(100.0, 100.0) == 1.0  # no cap


def test_min_price_match_is_exact_float_equality():
    # "p == p_min" is float equality, not a tolerance: a price a hair off
    # the page minimum earns nothing, so prices must come from the grid or
    # the strategy menu.  If this ever changes, change both docstrings.
    off = 1.0000000001
    for model in (OnlyMinQuality(), HyperbolaQuality(1.0, 2.5, 0.1)):
        assert model.q(1.0, 1.0) == 1.0
        assert model.q(off, 1.0) == 0.0
        assert model.q(off, off) > 0.99
    agents = ((AgentType(1.0, 0.0), OnlyMinQuality()),) * 2
    inst = AuctionInstance(agents, SlotProfile((1.0, 1.0)), (1.0, 2.0))
    same = indirect_allocate(inst, profile((1.0, 1.0), (1.0, 1.0)))
    assert same.slot_agents == (0, 1)
    near = indirect_allocate(inst, profile((1.0, 1.0), (off, 1.0)))
    assert near.slot_agents == (0,)


def test_price_threshold_ignores_min_price():
    q = PriceThresholdQuality(threshold=1.0, level=0.5)
    assert q.q(1.0, 0.2) == 0.5
    assert q.q(1.01, 0.2) == 0.0


def test_hyperbola_endpoints_exact():
    q = HyperbolaQuality(low=1.0, high=2.5, delta=0.1)
    assert abs(q.psi(1.0) - 1.0) <= 1e-12
    assert abs(q.psi(2.5) - 0.1) <= 1e-12
    # Endpoint values also match the closed form, not just the shortcut.
    a = 1.0 - 1.1 / 2.0
    b = 1.1 / 2.0 * 2.5 - 1.0
    for p in (1.0, 2.5):
        formula = 1.1 * 1.5 / (a * p + b) - 1.0
        assert abs(q.psi(p) - formula) <= 1e-12


def test_hyperbola_diagonal_regions():
    q = HyperbolaQuality(low=1.0, high=2.5, delta=0.1)
    assert q.q(0.5, 0.5) == 1.0
    assert q.q(3.0, 3.0) == 0.0
    assert q.q(2.0, 1.0) == 0.0  # off the diagonal
    vals = [q.q(p, p) for p in (1.0, 1.3, 1.7, 2.1, 2.5)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_hyperbola_parameter_constraints():
    with pytest.raises(ValueError):
        HyperbolaQuality(low=0.5, high=2.5, delta=0.1)
    with pytest.raises(ValueError):
        HyperbolaQuality(low=1.0, high=1.5, delta=0.1)
    with pytest.raises(ValueError):
        HyperbolaQuality(low=1.0, high=2.5, delta=0.5)  # delta >= low/high


def test_hyperbola_derivative_matches_finite_difference():
    q = HyperbolaQuality(low=1.0, high=2.5, delta=0.1)
    for p in (1.2, 1.8, 2.3):
        fd = (q.psi(p + 1e-6) - q.psi(p - 1e-6)) / 2e-6
        assert abs(q.psi_derivative(p) - fd) <= 1e-5
        assert q.diagonal_derivative(p) == q.psi_derivative(p)


def test_smooth_decay_values_and_derivative():
    q = SmoothDecayQuality(price_slope=0.3, gap_slope=0.2, intercept=0.9)
    assert abs(q.q(1.0, 0.5) - (0.9 - 0.3 - 0.1)) <= 1e-12
    assert q.q(10.0, 10.0) == 0.0
    assert q.diagonal_derivative(1.0) == -0.3


def test_smooth_decay_standalone_price_closed_form():
    q = SmoothDecayQuality(price_slope=0.4, intercept=0.8)
    c = 0.25
    p_star = q.standalone_price(0.7, c)
    assert abs(p_star - (0.8 + 0.4 * c) / 0.8) <= 1e-12
    # First-order optimality of alpha * q(p, p) * (p - c).
    f = lambda p: 0.7 * q.q(p, p) * (p - c)
    assert f(p_star) >= max(f(p_star - 1e-4), f(p_star + 1e-4))


def test_generic_standalone_price_search():
    q = HyperbolaQuality(low=1.0, high=2.5, delta=0.1)
    p_star = q.standalone_price(1.0, 0.0)
    f = lambda p: q.q(p, p) * p
    grid = [1.0 + 1.5 * k / 400 for k in range(401)]
    assert f(p_star) >= max(f(p) for p in grid) - 1e-6


@pytest.mark.parametrize("model, kink", [
    (PriceThresholdQuality(threshold=3.7, level=0.6), 3.7),
    (OnlyMinQuality(cap=2.345, level=0.8), 2.345),
    (PriceThresholdQuality(threshold=0.301), 0.301),
], ids=["price-threshold", "only-min", "within-first-step"])
def test_generic_standalone_price_reaches_the_kink(model, kink):
    """The value rises up to the kink and drops to 0 past it; the kink is
    off the 400-step presample, so only the refinement can reach it.  In
    the last case every presample point is worth 0."""
    alpha, cost = 0.7, 0.3
    p_star = model.standalone_price(alpha, cost)
    assert abs(p_star - kink) <= 1e-9
    value = lambda p: alpha * model.q(p, p) * (p - cost)
    lo, hi = cost, max(cost + 1.0, 10.0)
    step = (hi - lo) / 400
    presample = [lo + k * step for k in range(401)]
    assert kink not in presample
    assert value(p_star) >= max(value(p) for p in presample)


def test_a_model_that_states_no_slope_is_refused():
    # A model's diagonal slope is what it states, never estimated from q:
    # a custom model with a sloped diagonal that does not override
    # diagonal_derivative states none, and its cost is not inferred.
    class Linear(QualityModel):
        kind = "linear"

        def _evaluate(self, p, p_min):
            return max(0.0, 0.9 - 0.3 * p)

    model = Linear()
    assert model.q(1.0, 1.0) != model.q(1.1, 1.1)
    assert model.diagonal_derivative(1.0) == 0.0
    with pytest.raises(InferenceError, match="the linear quality is flat at "
                       "its standalone price 1.0"):
        infer_type(model, (0.5, 2.0, 1.0))
    assert PriceThresholdQuality(threshold=1.0).diagonal_derivative(0.5) == 0.0
    # Smooth decay states a one-sided slope at p = 0, where the clip at 1
    # binds from the left.
    smooth = SmoothDecayQuality(price_slope=0.3)
    assert smooth.q(0.0, 0.0) == 1.0
    assert smooth.diagonal_derivative(0.0) == -0.3


def test_kinks_and_jumps_state_no_slope():
    # At a kink or a jump the first-order condition identifies no cost, so
    # the diagonal states no slope there and inference refuses.
    hyperbola = HyperbolaQuality(low=1.0, high=2.5, delta=0.1)
    table = TabulatedQuality(prices=(1.0, 3.0), min_prices=(1.0,),
                             values=((0.9,), (0.0,)))
    kinks = [(OnlyMinQuality(cap=2.0), 2.0),
             (PriceThresholdQuality(threshold=1.5), 1.5),
             (hyperbola, 1.0), (hyperbola, 2.5),
             (table, 3.0),
             # The clip binds at 0 (raw exactly 0 at p = 2) and at 1 (no
             # slope).
             (SmoothDecayQuality(price_slope=0.5), 2.0),
             (SmoothDecayQuality(price_slope=0.0), 1.0)]
    for model, p in kinks:
        assert model.diagonal_derivative(p) == 0.0, (model, p)
        with pytest.raises(InferenceError, match="is flat at its standalone "
                           "price"):
            infer_type(model, (0.5, p + 1.0, p))


def test_tabulated_lookup_and_clamping():
    q = TabulatedQuality(prices=(1.0, 2.0), min_prices=(1.0, 2.0),
                         values=((0.9, 0.9), (0.4, 0.8)))
    assert q.q(1.0, 1.0) == 0.9
    assert q.q(1.5, 1.2) == 0.9
    assert q.q(2.0, 1.0) == 0.4
    assert q.q(2.5, 2.5) == 0.8
    assert q.q(0.5, 0.5) == 0.9  # clamps below the first grid point


def test_tabulated_validation():
    with pytest.raises(ValueError):
        TabulatedQuality((2.0, 1.0), (1.0,), ((0.5,), (0.5,)))
    with pytest.raises(ValueError):
        TabulatedQuality((1.0, 2.0), (1.0,), ((0.5,),))


def test_audit_flags_bad_table_cells():
    # The constructor refuses the table at its first bad cell.
    with pytest.raises(AuctionError) as err:
        TabulatedQuality(prices=(1.0, 2.0), min_prices=(1.0, 2.0),
                         values=((0.2, 0.9), (0.5, 0.1)))
    assert "price-monotone" in str(err.value)  # 0.5 > 0.2 down a column
    assert "cell [1][0]" in str(err.value)


@pytest.mark.parametrize("table, message", [
    (((1.0, 2.0), (1.0, 2.0), ((0.9, 0.1), (0.5, 0.2))),
     "min-price-monotone: cell [0][1] < cell [0][0]"),
    (((1.0, 2.0), (1.0, 2.0), ((1.0, 1.0), (0.5, 0.2))),
     "min-price-monotone: cell [1][1] < cell [1][0]"),
    (((1.0,), (1.0,), ((1.5,),)), "range: cell [0][0]"),
    (((1.0, 2.0), (1.0,), ((0.5,), (-0.1,))), "range: cell [1][0]"),
    (((1.0, 2.0), (1.0,), ((0.5,), (0.5 + 1e-9,))),
     "price-monotone: cell [1][0] > cell [0][0]"),
    (((), (), ()), "non-empty"),
    (((1.0,), (), ((),)), "non-empty"),
], ids=["falls-with-p_min", "falls-with-p_min-row-1", "above-one",
        "below-zero", "rises-with-p", "empty", "no-min-prices"])
def test_bad_tables_refused_at_construction(table, message):
    with pytest.raises(AuctionError) as err:
        TabulatedQuality(*table)
    assert message in str(err.value)


def test_table_monotonicity_slack():
    # Steps within 1e-12 of flat are accepted, as rounding noise.
    TabulatedQuality((1.0, 2.0), (1.0, 2.0),
                     ((0.5, 0.5 - 1e-13), (0.5 + 1e-13, 0.5)))


def test_peak_bounds_every_minimum_price(count_q_calls):
    # The indirect search bounds an agent's weight at every candidate
    # minimum by peak(p, q(p, p)); it must hold exactly, with no q() call.
    dip = TabulatedQuality((1.0, 2.0), (1.0, 2.0),
                           ((0.5, 0.5 - 1e-13), (0.5 + 1e-13, 0.5)))
    models = [OnlyMinQuality(cap=2.0), PriceThresholdQuality(1.0),
              HyperbolaQuality(1.0, 2.5, 0.1),
              SmoothDecayQuality(0.3, 0.2, 0.9), dip]
    points = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    for m in models:
        for p in points:
            diagonal = m.q(p, p)
            with count_q_calls() as calls:
                peak = m.peak(p, diagonal)
            assert calls() == 0
            assert peak == max(m.q(p, pm) for pm in points if pm <= p), (m, p)
    # Inside the slack, the row's peak is above its diagonal.
    assert dip.peak(2.0, dip.q(2.0, 2.0)) == 0.5 + 1e-13 > dip.q(2.0, 2.0)


def test_audit_passes_for_valid_models():
    models = [OnlyMinQuality(cap=2.0), PriceThresholdQuality(1.0),
              HyperbolaQuality(1.0, 2.5, 0.1),
              SmoothDecayQuality(0.3, 0.2, 0.9)]
    probes = probe_grid([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    for m in models:
        assert audit_quality(m, probes) == (), m


def test_audit_range_violation():
    class TooEager(SmoothDecayQuality):
        def _evaluate(self, p, p_min):
            return 1.5
    violations = audit_quality(TooEager(0.1), probe_grid([1.0, 2.0]))
    assert any(v.constraint == "range" for v in violations)


def test_audit_monotonicity_violations():
    # Computed models are checked on the probe grid: one whose clicks rise
    # with its own price, one whose clicks fall with the minimum price.
    class RisesWithPrice(QualityModel):
        def _evaluate(self, p, p_min):
            return min(1.0, 0.2 * p)

    class FallsWithMinPrice(QualityModel):
        def _evaluate(self, p, p_min):
            return max(0.0, 0.9 - 0.2 * p_min)

    probes = probe_grid([1, 2, 3])
    rises = audit_quality(RisesWithPrice(), probes)
    assert rises[0] == AuditViolation(
        "price-monotone", "q(2.0, 1.0) = 0.4 > q(1.0, 1.0) = 0.2")
    assert {v.constraint for v in rises} == {"price-monotone"}
    falls = audit_quality(FallsWithMinPrice(), probes)
    assert falls[0] == AuditViolation(
        "min-price-monotone", "q(2.0, 2.0) = 0.5 < q(2.0, 1.0) = 0.7")
    assert {v.constraint for v in falls} == {"min-price-monotone"}


@given(st.floats(0.01, 3.0), st.floats(0.01, 3.0),
       st.floats(0.01, 3.0), st.floats(0.01, 3.0))
def test_smooth_decay_monotonicity(p1, p2, pm1, pm2):
    q = SmoothDecayQuality(price_slope=0.3, gap_slope=0.2, intercept=0.9)
    lo_p, hi_p = sorted((p1, p2))
    lo_m, hi_m = sorted((pm1, pm2))
    pm = min(lo_p, lo_m)
    assert q.q(hi_p, pm) <= q.q(lo_p, pm) + 1e-12
    pm_lo, pm_hi = min(lo_m, hi_p), min(hi_m, hi_p)
    assert q.q(hi_p, pm_lo) <= q.q(hi_p, pm_hi) + 1e-12


@given(st.floats(1.0, 2.5), st.floats(1.0, 2.5))
def test_hyperbola_diagonal_monotone(p1, p2):
    q = HyperbolaQuality(low=1.0, high=2.5, delta=0.1)
    lo, hi = sorted((p1, p2))
    assert q.q(hi, hi) <= q.q(lo, lo) + 1e-12
    assert 0.0 <= q.q(lo, lo) <= 1.0


def test_infinite_cap_survives_math():
    q = OnlyMinQuality(cap=math.inf)
    assert q.q(1e9, 1e9) == 1.0


NON_FINITE_MODELS = {
    "only-min cap nan": lambda: OnlyMinQuality(cap=math.nan),
    "only-min cap -inf": lambda: OnlyMinQuality(cap=-math.inf),
    "threshold nan": lambda: PriceThresholdQuality(threshold=math.nan),
    "threshold inf": lambda: PriceThresholdQuality(threshold=math.inf),
    "price_slope nan": lambda: SmoothDecayQuality(price_slope=math.nan),
    "gap_slope inf": lambda: SmoothDecayQuality(0.1, gap_slope=math.inf),
    "hyperbola high inf": lambda: HyperbolaQuality(1.0, math.inf, 0.1),
    "table cell nan": lambda: TabulatedQuality((1.0,), (1.0,), ((math.nan,),)),
    "table price inf": lambda: TabulatedQuality((math.inf,), (1.0,),
                                                ((0.5,),)),
}


@pytest.mark.parametrize("name", NON_FINITE_MODELS)
def test_non_finite_parameters_refused(name):
    with pytest.raises(AuctionError, match="finite"):
        NON_FINITE_MODELS[name]()


def test_constructor_errors_are_auction_errors():
    assert OnlyMinQuality(cap=math.inf).q(5.0, 5.0) == 1.0
    with pytest.raises(AuctionError):
        OnlyMinQuality(level=0.0)
    with pytest.raises(AuctionError):
        SmoothDecayQuality(price_slope=-0.1)
    with pytest.raises(AuctionError):
        HyperbolaQuality(low=0.5, high=2.5, delta=0.1)
