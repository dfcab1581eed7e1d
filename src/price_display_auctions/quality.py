"""Click-probability (quality) models.

A quality model maps a displayed price ``p`` and the minimum displayed
price ``p_min`` to a click probability in [0, 1].  Every model must be
non-increasing in ``p`` (for fixed ``p_min``) and non-decreasing in
``p_min`` (for fixed ``p``), and is only defined for ``p >= p_min``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .errors import AuctionError, InstanceFormatError, QualityDomainError

# How far a table cell or an audited value may break monotonicity before
# it counts as a violation: steps this small are rounding noise.
_MONOTONE_SLACK = 1e-12


def _require_finite(model, *names):
    """Reject NaN and infinite values of the named fields."""
    for name in names:
        value = getattr(model, name)
        if not math.isfinite(value):
            raise AuctionError(f"{model.kind}: {name} must be finite, "
                               f"got {value}")


def _require_level(level):
    if not 0.0 < level <= 1.0:
        raise AuctionError(f"level must be in (0, 1], got {level}")


class QualityModel:
    """Base class; subclasses implement ``_evaluate`` on the valid domain."""

    kind = "abstract"

    def q(self, p: float, p_min: float) -> float:
        """Click probability for displayed price ``p`` given ``p_min``."""
        if p < p_min:
            raise QualityDomainError(
                f"quality evaluated at p={p} < p_min={p_min}"
            )
        return self._evaluate(p, p_min)

    def _evaluate(self, p: float, p_min: float) -> float:
        raise NotImplementedError

    def peak(self, p: float, diagonal: float) -> float:
        """The largest q(p, p_min) over p_min <= p, given ``diagonal`` =
        q(p, p); makes no ``q`` call.

        A model non-decreasing in ``p_min`` peaks on its diagonal, so the
        base class returns ``diagonal``; the computed kinds meet this
        exactly in floating point, and so does a table none of whose rows
        dips.  A table with a row that dips within its monotonicity slack
        returns the largest cell of p's row up to p's own column.  The
        indirect search bounds an agent's weight at every candidate
        minimum by it, so a model whose ``q`` can exceed its peak breaks
        that search.
        """
        return diagonal

    def diagonal_derivative(self, p: float) -> float:
        """Slope of p -> q(p, p) as the model states it; 0.0 (none) on a
        flat piece, at a kink or at a jump, where no cost can be inferred."""
        return 0.0

    def standalone_price(self, alpha: float, cost: float) -> float:
        """Price maximizing alpha * q(p, p) * (p - cost) over p >= 0.

        Subclasses with a closed form override this.  The generic version
        searches the diagonal on [max(cost, 0), max(cost + 1, 10)], so an
        unbounded diagonal value, such as ``OnlyMinQuality(cap=inf)``'s,
        returns the upper end of that interval.
        """
        lo = max(cost, 0.0)
        hi = max(cost + 1.0, 10.0)
        objective = lambda p: -alpha * self.q(p, p) * (p - cost)
        # Diagonals are often flat or discontinuous, so a local search
        # alone can stall: presample coarsely, then shrink the step by 4
        # around the best point.  The best point stays a candidate, so no
        # refinement makes it worse.
        samples = 400
        step = (hi - lo) / samples
        best = min((lo + k * step for k in range(samples + 1)), key=objective)
        while step > 1e-12:
            step /= 4.0
            best = min((p for p in (best + k * step for k in range(-4, 5))
                        if lo <= p <= hi), key=objective)
        return best


@dataclass(frozen=True)
class OnlyMinQuality(QualityModel):
    """Positive only when the agent's price is the minimum displayed one.

    q = level if p <= cap and p == p_min, else 0.  A cap of +inf drops
    the price ceiling.  ``p == p_min`` is exact float equality, with no
    tolerance: prices must come from the price grid or the strategy menu,
    as a price a rounding error off the page minimum earns nothing.
    """

    cap: float = math.inf
    level: float = 1.0
    kind = "only-min"

    def __post_init__(self):
        if self.cap != math.inf:
            _require_finite(self, "cap")
        _require_level(self.level)

    def _evaluate(self, p, p_min):
        return self.level if p <= self.cap and p == p_min else 0.0


@dataclass(frozen=True)
class PriceThresholdQuality(QualityModel):
    """Depends on the agent's own price only: q = level if p <= threshold."""

    threshold: float
    level: float = 1.0
    kind = "price-threshold"

    def __post_init__(self):
        _require_finite(self, "threshold")
        _require_level(self.level)

    def _evaluate(self, p, p_min):
        return self.level if p <= self.threshold else 0.0


@dataclass(frozen=True)
class HyperbolaQuality(QualityModel):
    """Hyperbolic decay between a floor price and a ceiling price.

    q = 1 for p < low (when p == p_min); psi(p) on [low, high] (when
    p == p_min); 0 otherwise, where psi is the hyperbola with
    psi(low) = 1 and psi(high) = delta.  Requires 1 <= low < high / 2 and
    0 < delta < low / high.  ``p == p_min`` is exact float equality, so
    prices must come from the price grid or the strategy menu.
    """

    low: float
    high: float
    delta: float
    kind = "psi-hyperbola"

    def __post_init__(self):
        _require_finite(self, "low", "high", "delta")
        if not 1.0 <= self.low:
            raise AuctionError(f"low must be >= 1, got {self.low}")
        if not self.low < self.high / 2.0:
            raise AuctionError(f"need low < high/2, got {self.low}, {self.high}")
        if not 0.0 < self.delta < self.low / self.high:
            raise AuctionError(
                f"delta must be in (0, low/high), got {self.delta}"
            )

    def psi(self, p: float) -> float:
        if p == self.low:
            return 1.0
        if p == self.high:
            return self.delta
        a = 1.0 - (1.0 + self.delta) / 2.0
        b = (1.0 + self.delta) / 2.0 * self.high - self.low
        v = (1.0 + self.delta) * (self.high - self.low) / (a * p + b) - 1.0
        # A few ulps above ``low`` the formula can round above 1.
        return 1.0 if v > 1.0 else v

    def psi_derivative(self, p: float) -> float:
        a = 1.0 - (1.0 + self.delta) / 2.0
        b = (1.0 + self.delta) / 2.0 * self.high - self.low
        return -(1.0 + self.delta) * (self.high - self.low) * a / (a * p + b) ** 2

    def _evaluate(self, p, p_min):
        if p != p_min:
            return 0.0
        if p < self.low:
            return 1.0
        if p <= self.high:
            return self.psi(p)
        return 0.0

    def diagonal_derivative(self, p):
        if self.low < p < self.high:
            return self.psi_derivative(p)
        return 0.0


@dataclass(frozen=True)
class SmoothDecayQuality(QualityModel):
    """Linear decay in the price and in the gap to the minimum price.

    q = clip(intercept - price_slope * p - gap_slope * (p - p_min), 0, 1).
    The diagonal is intercept - price_slope * p, so the diagonal
    derivative is -price_slope wherever the clip is inactive, and at
    p = 0, the edge of the domain, as a one-sided slope.
    """

    price_slope: float
    gap_slope: float = 0.0
    intercept: float = 1.0
    kind = "smooth-decay"

    def __post_init__(self):
        _require_finite(self, "price_slope", "gap_slope", "intercept")
        if self.price_slope < 0 or self.gap_slope < 0:
            raise AuctionError("slopes must be non-negative")
        if not 0.0 < self.intercept <= 1.0:
            raise AuctionError(f"intercept must be in (0, 1], got {self.intercept}")

    def _evaluate(self, p, p_min):
        raw = self.intercept - self.price_slope * p - self.gap_slope * (p - p_min)
        # min(1.0, max(0.0, raw)), bit for bit (-0.0 and NaN give 0.0),
        # with no builtin call.
        if raw > 0.0:
            return raw if raw < 1.0 else 1.0
        return 0.0

    def diagonal_derivative(self, p):
        if p == 0.0 or 0.0 < self.intercept - self.price_slope * p < 1.0:
            return -self.price_slope
        return 0.0

    def standalone_price(self, alpha, cost):
        if self.price_slope == 0.0:
            return super().standalone_price(alpha, cost)
        # Interior maximum of (intercept - price_slope * p) * (p - cost).
        p_star = (self.intercept + self.price_slope * cost) / (2.0 * self.price_slope)
        if 0.0 < self.intercept - self.price_slope * p_star < 1.0:
            return p_star
        return super().standalone_price(alpha, cost)


@dataclass(frozen=True)
class TabulatedQuality(QualityModel):
    """Piecewise-constant lookup on a (p, p_min) sample grid.

    ``values[i][j]`` is the quality for prices in [prices[i], prices[i+1])
    and minimum prices in [min_prices[j], min_prices[j+1]).  Queries below
    the first grid point clamp to it.
    """

    prices: tuple[float, ...]
    min_prices: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]
    kind = "tabulated"

    def __post_init__(self):
        cells = [x for row in self.values for x in row]
        if not all(math.isfinite(x)
                   for x in (*self.prices, *self.min_prices, *cells)):
            raise AuctionError("tabulated: prices, min_prices and values "
                               "must be finite")
        if not self.prices or not self.min_prices:
            raise AuctionError("tabulated: prices and min_prices must be "
                               "non-empty")
        if list(self.prices) != sorted(set(self.prices)):
            raise AuctionError("prices must be strictly ascending")
        if list(self.min_prices) != sorted(set(self.min_prices)):
            raise AuctionError("min_prices must be strictly ascending")
        if len(self.values) != len(self.prices):
            raise AuctionError("values must have one row per price")
        for row in self.values:
            if len(row) != len(self.min_prices):
                raise AuctionError("values rows must match min_prices length")
        # The model's assumptions, cell by cell: values in [0, 1],
        # non-increasing down a column (price) and non-decreasing along a
        # row (minimum price).  The error names its field, "values", so the
        # instance loader can report it at that JSON path.  A row may dip
        # by up to _MONOTONE_SLACK; ``_dips`` records whether one does.
        dips = False
        for i, row in enumerate(self.values):
            for j, v in enumerate(row):
                if j and v < row[j - 1]:
                    dips = True
                if not 0.0 <= v <= 1.0:
                    bad = (f"range: cell [{i}][{j}] (p={self.prices[i]}, "
                           f"p_min={self.min_prices[j]}) = {v}")
                elif i and v > self.values[i - 1][j] + _MONOTONE_SLACK:
                    bad = (f"price-monotone: cell [{i}][{j}] > cell "
                           f"[{i - 1}][{j}] ({v} > {self.values[i - 1][j]})")
                elif j and v < row[j - 1] - _MONOTONE_SLACK:
                    bad = (f"min-price-monotone: cell [{i}][{j}] < cell "
                           f"[{i}][{j - 1}] ({v} < {row[j - 1]})")
                else:
                    continue
                raise InstanceFormatError("values", f"table violates {bad}")
        # Not a field: out of equality, repr and the file format.
        object.__setattr__(self, "_dips", dips)

    def _cell(self, p, p_min):
        i = max(bisect_right(self.prices, p) - 1, 0)
        j = max(bisect_right(self.min_prices, p_min) - 1, 0)
        return i, j

    def _evaluate(self, p, p_min):
        # _cell's lookup, inlined and clamped with no max(): every
        # table q() call runs it.
        i = bisect_right(self.prices, p) - 1
        j = bisect_right(self.min_prices, p_min) - 1
        return self.values[i if i > 0 else 0][j if j > 0 else 0]

    def peak(self, p, diagonal):
        if not self._dips:
            return diagonal
        # A row dips within _MONOTONE_SLACK, so the largest cell up to
        # p's own column can exceed the diagonal.
        i, j = self._cell(p, p)
        return max(self.values[i][:j + 1])


# Each concrete model under its ``kind``: the one list of quality kinds
# that the instance file format reads and writes.
QUALITY_KINDS = {cls.kind: cls for cls in (
    OnlyMinQuality, PriceThresholdQuality, HyperbolaQuality,
    SmoothDecayQuality, TabulatedQuality)}


@dataclass(frozen=True)
class AuditViolation:
    constraint: str  # "range" | "price-monotone" | "min-price-monotone"
    detail: str


def audit_quality(model: QualityModel, probes) -> tuple[AuditViolation, ...]:
    """Check range and both monotonicity assumptions on a probe grid.

    ``probes`` is an iterable of (p, p_min) pairs with p >= p_min.
    Returns the violations, collected, not raised: none means a pass.  A
    ``TabulatedQuality`` checks every cell when it is built, so this
    audit can only fault models whose ``q`` is computed.
    """
    probes = sorted(set((float(p), float(pm)) for p, pm in probes))
    out: list[AuditViolation] = []
    values = {}
    for p, pm in probes:
        v = model.q(p, pm)
        values[(p, pm)] = v
        if not 0.0 <= v <= 1.0:
            out.append(AuditViolation("range", f"q({p}, {pm}) = {v} outside [0, 1]"))

    by_pmin: dict[float, list[float]] = {}
    by_p: dict[float, list[float]] = {}
    for p, pm in probes:
        by_pmin.setdefault(pm, []).append(p)
        by_p.setdefault(p, []).append(pm)
    for pm, ps in by_pmin.items():
        for a, b in zip(ps, ps[1:]):
            if values[(b, pm)] > values[(a, pm)] + _MONOTONE_SLACK:
                out.append(AuditViolation(
                    "price-monotone",
                    f"q({b}, {pm}) = {values[(b, pm)]} > q({a}, {pm}) = {values[(a, pm)]}",
                ))
    for p, pms in by_p.items():
        for a, b in zip(pms, pms[1:]):
            if values[(p, b)] < values[(p, a)] - _MONOTONE_SLACK:
                out.append(AuditViolation(
                    "min-price-monotone",
                    f"q({p}, {b}) = {values[(p, b)]} < q({p}, {a}) = {values[(p, a)]}",
                ))
    return tuple(out)


def probe_grid(points) -> list[tuple[float, float]]:
    """All (p, p_min) pairs with p >= p_min drawn from ``points``."""
    pts = sorted(set(float(x) for x in points))
    return [(p, pm) for pm in pts for p in pts if p >= pm]

