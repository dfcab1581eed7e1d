"""JSON (de)serialization for instances, profiles, and result payloads.

Validation errors always carry the JSON path of the offending field.
Each model object checks its own assumptions when it is built (a
tabulated quality table its range and monotonicity too); the loader
reports a refused object at its JSON path.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields

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
from .quality import QUALITY_KINDS

SCHEMA_VERSION = 1


def _require(data, key, path, types=None):
    if key not in data:
        raise InstanceFormatError(f"{path}.{key}", "missing required field")
    value = data[key]
    if types is not None and not isinstance(value, types):
        raise InstanceFormatError(
            f"{path}.{key}", f"expected {types}, got {type(value).__name__}")
    return value


def _build(path, cls, *args, **kwargs):
    """``cls(*args, **kwargs)``, its ValueError reported at ``path``; an
    InstanceFormatError, which names one of the object's fields, is
    reported at that field below ``path``."""
    try:
        return cls(*args, **kwargs)
    except InstanceFormatError as exc:
        raise InstanceFormatError(f"{path}.{exc.field_path}",
                                  exc.message) from exc
    except ValueError as exc:
        raise InstanceFormatError(path, str(exc)) from exc


def _refuse_unknown(data, known, path, what):
    """Refuse a key of ``data`` outside ``known``, at its own path, so that
    a misspelt field cannot silently take its default or be ignored."""
    for key in data:
        if key not in known:
            raise InstanceFormatError(f"{path}.{key}",
                                      f"unknown field for {what}")


def _shown(value):
    # Arrays and objects are named by type: a nested array's repr can run
    # to thousands of characters.
    return (type(value).__name__ if isinstance(value, (list, dict))
            else repr(value))


def _as_number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceFormatError(
            path, f"expected a number, got {_shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise InstanceFormatError(
            path, "integer too large for a float") from None


def _number(data, key, path):
    return _as_number(_require(data, key, path), f"{path}.{key}")


def _number_list(data, key, path):
    v = _require(data, key, path, list)
    return tuple(_as_number(x, f"{path}.{key}[{idx}]")
                 for idx, x in enumerate(v))


def _quality_value(value, depth, path):
    """A number ("inf" allowed) at depth 0, else a list of depth-1 values."""
    if depth == 0:
        return math.inf if value == "inf" else _as_number(value, path)
    if not isinstance(value, list):
        raise InstanceFormatError(
            path, f"expected a list, got {type(value).__name__}")
    return tuple(_quality_value(x, depth - 1, f"{path}[{idx}]")
                 for idx, x in enumerate(value))


def quality_from_dict(data: dict, path: str = "quality"):
    """Read a quality model: its keys are ``kind`` and the model's dataclass
    fields, an absent field takes its default, and any other key is
    refused."""
    kind = _require(data, "kind", path, str)
    cls = QUALITY_KINDS.get(kind)
    if cls is None:
        raise InstanceFormatError(f"{path}.kind",
                                  f"unknown quality kind {kind!r}")
    _refuse_unknown(data, {"kind"} | {f.name for f in fields(cls)}, path,
                    f"quality kind {kind!r}")
    # The field's annotation gives its list nesting: float, tuple[float, ...]
    # or a table of those.
    params = {f.name: _quality_value(_require(data, f.name, path),
                                     str(f.type).count("tuple["),
                                     f"{path}.{f.name}")
              for f in fields(cls) if f.name in data or f.default is MISSING}
    return _build(path, cls, **params)


def _quality_json(value):
    if isinstance(value, tuple):
        return [_quality_json(x) for x in value]
    return "inf" if value == math.inf else value


def quality_to_dict(model) -> dict:
    """The model's kind, then its fields in declaration order."""
    cls = QUALITY_KINDS.get(getattr(model, "kind", None))
    if cls is None or not isinstance(model, cls):
        raise InstanceFormatError(
            "quality", f"cannot serialize {type(model).__name__}")
    return {"kind": model.kind,
            **{f.name: _quality_json(getattr(model, f.name))
               for f in fields(cls)}}


# The keys an instance file may hold, per object; ``profile`` is read by
# ``load_instance``.
_INSTANCE_KEYS = {"agents", "prominences", "price_grid", "tie_break",
                  "profile"}
_AGENT_KEYS = {"alpha", "cost", "quality"}
_STRATEGY_KEYS = {"price", "gain", "standalone_price"}


def instance_from_dict(data: dict) -> AuctionInstance:
    if not isinstance(data, dict):
        raise InstanceFormatError("$", "top level must be a JSON object")
    _refuse_unknown(data, _INSTANCE_KEYS, "$", "an instance")
    agents_raw = _require(data, "agents", "$", list)
    if not agents_raw:
        raise InstanceFormatError("$.agents", "need at least one agent")
    agents = []
    for idx, a in enumerate(agents_raw):
        path = f"$.agents[{idx}]"
        if not isinstance(a, dict):
            raise InstanceFormatError(path, "agent must be an object")
        _refuse_unknown(a, _AGENT_KEYS, path, "an agent")
        t = _build(path, AgentType, _number(a, "alpha", path),
                   _number(a, "cost", path))
        q = quality_from_dict(_require(a, "quality", path, dict),
                              f"{path}.quality")
        agents.append((t, q))
    slots = _build("$.prominences", SlotProfile,
                   _number_list(data, "prominences", "$"))
    grid = _number_list(data, "price_grid", "$")
    tie_break = None
    if data.get("tie_break") is not None:
        tie_break = _require(data, "tie_break", "$", list)
        for idx, x in enumerate(tie_break):
            if isinstance(x, bool) or not isinstance(x, int):
                raise InstanceFormatError(
                    f"$.tie_break[{idx}]",
                    f"expected an integer, got {_shown(x)}")
        tie_break = tuple(tie_break)
    return _build("$", AuctionInstance, tuple(agents), slots, grid, tie_break)


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
        _refuse_unknown(s, _STRATEGY_KEYS, path, "a strategy")
        standalone = None
        if s.get("standalone_price") is not None:
            standalone = _number(s, "standalone_price", path)
        strategies.append(_build(path, Strategy, _number(s, "price", path),
                                 _number(s, "gain", path), standalone))
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
    with open(path, encoding="utf-8") as fh:
        # ValueError covers malformed JSON, bytes that are not UTF-8 and
        # integers past the interpreter's digit limit; RecursionError covers
        # arrays or objects nested too deep.
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
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
