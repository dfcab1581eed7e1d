"""JSON (de)serialization for instances, profiles, and result payloads.

Validation errors always carry the JSON path of the offending field.
Tabulated quality tables are audited for monotonicity on load; a table
that violates the model assumptions is refused.
"""

from __future__ import annotations

import json
import math

from .errors import InstanceFormatError
from .model import (
    AgentType,
    Allocation,
    AuctionInstance,
    Outcome,
    SlotProfile,
    Strategy,
    StrategyProfile,
)
from .quality import (
    HyperbolaQuality,
    OnlyMinQuality,
    PriceThresholdQuality,
    SmoothDecayQuality,
    TabulatedQuality,
    _audit_table_cells,
)

SCHEMA_VERSION = 1


def _require(data, key, path, types=None):
    if key not in data:
        raise InstanceFormatError(f"{path}.{key}", "missing required field")
    value = data[key]
    if types is not None and not isinstance(value, types):
        raise InstanceFormatError(
            f"{path}.{key}", f"expected {types}, got {type(value).__name__}")
    return value


def _number(data, key, path, default=None):
    if default is not None and key not in data:
        return default
    v = _require(data, key, path)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise InstanceFormatError(f"{path}.{key}", f"expected a number, got {v!r}")
    return float(v)


def _number_list(data, key, path):
    v = _require(data, key, path, list)
    out = []
    for idx, x in enumerate(v):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise InstanceFormatError(
                f"{path}.{key}[{idx}]", f"expected a number, got {x!r}")
        out.append(float(x))
    return tuple(out)


def quality_from_dict(data: dict, path: str = "quality"):
    kind = _require(data, "kind", path, str)
    try:
        if kind == "only-min":
            cap = data.get("cap", "inf")
            cap = math.inf if cap in ("inf", None) else float(cap)
            return OnlyMinQuality(cap=cap, level=_number(data, "level", path, 1.0))
        if kind == "price-threshold":
            return PriceThresholdQuality(
                threshold=_number(data, "threshold", path),
                level=_number(data, "level", path, 1.0))
        if kind == "psi-hyperbola":
            return HyperbolaQuality(low=_number(data, "low", path),
                                    high=_number(data, "high", path),
                                    delta=_number(data, "delta", path))
        if kind == "smooth-decay":
            return SmoothDecayQuality(
                price_slope=_number(data, "price_slope", path),
                gap_slope=_number(data, "gap_slope", path, 0.0),
                intercept=_number(data, "intercept", path, 1.0))
        if kind == "tabulated":
            model = TabulatedQuality(
                prices=_number_list(data, "prices", path),
                min_prices=_number_list(data, "min_prices", path),
                values=tuple(tuple(float(x) for x in row)
                             for row in _require(data, "values", path, list)))
            bad = _audit_table_cells(model)
            if bad:
                v = bad[0]
                raise InstanceFormatError(
                    f"{path}.values",
                    f"table violates {v.constraint}: {v.detail}")
            return model
    except InstanceFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(path, str(exc)) from exc
    raise InstanceFormatError(f"{path}.kind", f"unknown quality kind {kind!r}")


def quality_to_dict(model) -> dict:
    if isinstance(model, OnlyMinQuality):
        cap = "inf" if math.isinf(model.cap) else model.cap
        return {"kind": model.kind, "cap": cap, "level": model.level}
    if isinstance(model, PriceThresholdQuality):
        return {"kind": model.kind, "threshold": model.threshold,
                "level": model.level}
    if isinstance(model, HyperbolaQuality):
        return {"kind": model.kind, "low": model.low, "high": model.high,
                "delta": model.delta}
    if isinstance(model, SmoothDecayQuality):
        return {"kind": model.kind, "price_slope": model.price_slope,
                "gap_slope": model.gap_slope, "intercept": model.intercept}
    if isinstance(model, TabulatedQuality):
        return {"kind": model.kind, "prices": list(model.prices),
                "min_prices": list(model.min_prices),
                "values": [list(r) for r in model.values]}
    raise InstanceFormatError("quality", f"cannot serialize {type(model).__name__}")


def instance_from_dict(data: dict) -> AuctionInstance:
    if not isinstance(data, dict):
        raise InstanceFormatError("$", "top level must be a JSON object")
    agents_raw = _require(data, "agents", "$", list)
    if not agents_raw:
        raise InstanceFormatError("$.agents", "need at least one agent")
    agents = []
    for idx, a in enumerate(agents_raw):
        path = f"$.agents[{idx}]"
        if not isinstance(a, dict):
            raise InstanceFormatError(path, "agent must be an object")
        try:
            t = AgentType(_number(a, "alpha", path), _number(a, "cost", path))
        except InstanceFormatError:
            raise
        except ValueError as exc:
            raise InstanceFormatError(path, str(exc)) from exc
        q = quality_from_dict(_require(a, "quality", path, dict),
                              f"{path}.quality")
        agents.append((t, q))
    try:
        slots = SlotProfile(_number_list(data, "prominences", "$"))
    except InstanceFormatError:
        raise
    except ValueError as exc:
        raise InstanceFormatError("$.prominences", str(exc)) from exc
    grid = _number_list(data, "price_grid", "$")
    tie_break = None
    if data.get("tie_break") is not None:
        tie_break = _require(data, "tie_break", "$", list)
        for idx, x in enumerate(tie_break):
            if isinstance(x, bool) or not isinstance(x, int):
                raise InstanceFormatError(
                    f"$.tie_break[{idx}]", f"expected an integer, got {x!r}")
        tie_break = tuple(tie_break)
    try:
        return AuctionInstance(tuple(agents), slots, grid, tie_break)
    except ValueError as exc:
        raise InstanceFormatError("$", str(exc)) from exc


def instance_to_dict(instance: AuctionInstance) -> dict:
    out = {
        "agents": [
            {"alpha": instance.atype(i).alpha, "cost": instance.atype(i).cost,
             "quality": quality_to_dict(instance.quality(i))}
            for i in range(instance.n)
        ],
        "prominences": list(instance.slots.prominences),
        "price_grid": list(instance.price_grid),
    }
    if instance.tie_break is not None:
        out["tie_break"] = list(instance.tie_break)
    return out


def profile_from_dict(data: list, n: int) -> StrategyProfile:
    if not isinstance(data, list):
        raise InstanceFormatError("$.profile", "must be a list")
    if len(data) != n:
        raise InstanceFormatError(
            "$.profile", f"expected {n} strategies, got {len(data)}")
    strategies = []
    for idx, s in enumerate(data):
        path = f"$.profile[{idx}]"
        if not isinstance(s, dict):
            raise InstanceFormatError(path, "strategy must be an object")
        standalone = None
        if s.get("standalone_price") is not None:
            standalone = _number(s, "standalone_price", path)
        try:
            strategies.append(Strategy(_number(s, "price", path),
                                       _number(s, "gain", path), standalone))
        except InstanceFormatError:
            raise
        except ValueError as exc:
            raise InstanceFormatError(path, str(exc)) from exc
    return StrategyProfile(tuple(strategies))


def profile_to_dict(profile: StrategyProfile) -> list:
    out = []
    for s in profile.strategies:
        d = {"price": s.price, "gain": s.gain}
        if s.standalone_price is not None:
            d["standalone_price"] = s.standalone_price
        out.append(d)
    return out


def load_instance(path):
    """Read an instance file; returns (instance, profile or None)."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError("$", f"invalid JSON: {exc}") from exc
    instance = instance_from_dict(data)
    prof = None
    if data.get("profile") is not None:
        prof = profile_from_dict(data["profile"], instance.n)
    return instance, prof


def save_instance(path, instance: AuctionInstance,
                  profile: StrategyProfile | None = None) -> None:
    data = instance_to_dict(instance)
    if profile is not None:
        data["profile"] = profile_to_dict(profile)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _finite(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return x


def allocation_to_dict(allocation: Allocation) -> dict:
    return {
        "slot_agents": list(allocation.slot_agents),
        "display_prices": list(allocation.display_prices),
        "min_displayed_price": allocation.p_min,
    }


def outcome_to_dict(outcome: Outcome) -> dict:
    return {
        "allocation": allocation_to_dict(outcome.allocation),
        "payments": list(outcome.payments),
        "revenue": outcome.revenue,
        "declared_welfare": outcome.declared_welfare,
        "true_welfare": outcome.true_welfare,
        "diagnostics": list(outcome.diagnostics),
    }


def report_to_dict(report) -> dict:
    """Serialize an EquilibriumReport."""
    return {
        "equilibria": [profile_to_dict(eq) for eq in report.equilibria],
        "outcomes": [outcome_to_dict(o) for o in report.outcomes],
        "benchmark_sw": report.benchmark_sw,
        "benchmark_rev": report.benchmark_rev,
        "poa_sw": _finite(report.poa_sw),
        "pos_sw": _finite(report.pos_sw),
        "poa_rev": _finite(report.poa_rev),
        "pos_rev": _finite(report.pos_rev),
        "grid_resolution": report.grid_resolution,
        "notes": list(report.notes),
    }


def envelope(command: str, payload: dict) -> dict:
    """Wrap a payload in the versioned output envelope the CLI emits."""
    return {"schema_version": SCHEMA_VERSION, "command": command, **payload}
