"""Instance file round-trips and validation error reporting."""

import json
import math

import pytest

from price_display_auctions import (
    QUALITY_KINDS,
    HyperbolaQuality,
    InstanceFormatError,
    OnlyMinQuality,
    PriceThresholdQuality,
    QualityModel,
    SmoothDecayQuality,
    TabulatedQuality,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    random_instance,
    random_profile,
    save_instance,
)
from price_display_auctions.serialization import (
    profile_from_dict,
    profile_to_dict,
    quality_from_dict,
    quality_to_dict,
)


@pytest.mark.parametrize("seed", range(10))
def test_round_trip(seed, tmp_path):
    inst = random_instance(seed)
    prof = random_profile(inst, seed, with_standalone=(seed % 2 == 0))
    path = tmp_path / "instance.json"
    save_instance(path, inst, prof)
    loaded, loaded_prof = load_instance(path)
    assert loaded == inst
    assert loaded_prof == prof


def test_round_trip_without_profile(tmp_path):
    inst = random_instance(3)
    path = tmp_path / "instance.json"
    save_instance(path, inst)
    loaded, prof = load_instance(path)
    assert loaded == inst
    assert prof is None


def test_infinite_cap_serializes():
    from price_display_auctions import OnlyMinQuality
    d = {"kind": "only-min", "level": 0.5}
    q = quality_from_dict(d)
    assert math.isinf(q.cap)
    inst = instance_from_dict({
        "agents": [{"alpha": 1.0, "cost": 0.0, "quality": d}],
        "prominences": [1.0],
        "price_grid": [1.0, 2.0],
    })
    again = instance_from_dict(instance_to_dict(inst))
    assert isinstance(again.quality(0), OnlyMinQuality)
    assert math.isinf(again.quality(0).cap)


def test_missing_field_paths():
    with pytest.raises(InstanceFormatError) as err:
        instance_from_dict({"prominences": [1.0], "price_grid": [1.0]})
    assert err.value.field_path == "$.agents"
    with pytest.raises(InstanceFormatError) as err:
        instance_from_dict({
            "agents": [{"alpha": 1.0, "quality": {"kind": "only-min"}}],
            "prominences": [1.0], "price_grid": [1.0]})
    assert err.value.field_path == "$.agents[0].cost"
    with pytest.raises(InstanceFormatError) as err:
        instance_from_dict({
            "agents": [{"alpha": 1.0, "cost": 0.0,
                        "quality": {"kind": "whatever"}}],
            "prominences": [1.0], "price_grid": [1.0]})
    assert err.value.field_path == "$.agents[0].quality.kind"


def test_domain_errors_carry_paths():
    with pytest.raises(InstanceFormatError) as err:
        instance_from_dict({
            "agents": [{"alpha": 2.0, "cost": 0.0,
                        "quality": {"kind": "only-min"}}],
            "prominences": [1.0], "price_grid": [1.0]})
    assert "$.agents[0]" in str(err.value)
    with pytest.raises(InstanceFormatError) as err:
        instance_from_dict({
            "agents": [{"alpha": 1.0, "cost": 0.0,
                        "quality": {"kind": "only-min"}}],
            "prominences": [0.5, 1.0], "price_grid": [1.0]})
    assert "$.prominences" in str(err.value)


def test_bad_tabulated_table_refused():
    with pytest.raises(InstanceFormatError) as err:
        quality_from_dict({
            "kind": "tabulated",
            "prices": [1.0, 2.0],
            "min_prices": [1.0, 2.0],
            "values": [[0.2, 0.9], [0.5, 0.1]],
        })
    assert "violates" in str(err.value)
    assert err.value.field_path == "quality.values"


def test_unknown_quality_keys_refused():
    # A misspelt "cap" would otherwise load as an uncapped model.
    with pytest.raises(InstanceFormatError) as err:
        instance_from_dict(_one_agent(agents=[
            {"alpha": 1.0, "cost": 0.0,
             "quality": {"kind": "only-min", "capp": 2.0}}]))
    assert err.value.field_path == "$.agents[0].quality.capp"
    assert "only-min" in str(err.value)
    # A field of another kind is unknown too.
    with pytest.raises(InstanceFormatError) as err:
        quality_from_dict({"kind": "price-threshold", "threshold": 1.0,
                           "cap": 2.0})
    assert err.value.field_path == "quality.cap"


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InstanceFormatError) as err:
        load_instance(path)
    assert "invalid JSON" in str(err.value)


def test_profile_validation():
    with pytest.raises(InstanceFormatError) as err:
        profile_from_dict([{"price": 1.0}], 1)
    assert err.value.field_path == "$.profile[0].gain"
    with pytest.raises(InstanceFormatError):
        profile_from_dict([{"price": 1.0, "gain": 0.5}], 2)
    prof = profile_from_dict(
        [{"price": 1.0, "gain": 0.5, "standalone_price": 0.9}], 1)
    assert profile_to_dict(prof)[0]["standalone_price"] == 0.9


def test_non_numeric_fields():
    with pytest.raises(InstanceFormatError) as err:
        instance_from_dict({
            "agents": [{"alpha": "high", "cost": 0.0,
                        "quality": {"kind": "only-min"}}],
            "prominences": [1.0], "price_grid": [1.0]})
    assert "expected a number" in str(err.value)
    with pytest.raises(InstanceFormatError):
        instance_from_dict({
            "agents": [{"alpha": 1.0, "cost": 0.0,
                        "quality": {"kind": "only-min"}}],
            "prominences": [1.0], "price_grid": [1.0, True]})


def test_written_file_is_plain_json(tmp_path):
    inst = random_instance(1)
    path = tmp_path / "instance.json"
    save_instance(path, inst)
    data = json.loads(path.read_text())
    assert set(data) >= {"agents", "prominences", "price_grid"}


def _one_agent(**extra):
    return {"agents": [{"alpha": 1.0, "cost": 0.0,
                        "quality": {"kind": "only-min"}}],
            "prominences": [1.0], "price_grid": [1.0], **extra}


@pytest.mark.parametrize("tie_break", [["a"], [0.5], [True], [0.0]])
def test_tie_break_must_be_integers(tie_break):
    with pytest.raises(InstanceFormatError) as err:
        instance_from_dict(_one_agent(tie_break=tie_break))
    assert err.value.field_path == "$.tie_break[0]"
    assert "integer" in str(err.value)


def test_tie_break_permutation_round_trips():
    data = _one_agent(tie_break=[0])
    assert instance_to_dict(instance_from_dict(data))["tie_break"] == [0]
    with pytest.raises(InstanceFormatError):
        instance_from_dict(_one_agent(tie_break=[1]))


@pytest.mark.parametrize("data, field_path", [
    (_one_agent(tie_brake=[0]), "$.tie_brake"),
    (_one_agent(agents=[{"alpha": 1.0, "cost": 0.0, "costt": 5,
                         "quality": {"kind": "only-min"}}]),
     "$.agents[0].costt"),
    (_one_agent(profile=[{"price": 1.0, "gain": 0.5, "gian": 0.5}]),
     "$.profile[0].gian"),
])
def test_unknown_keys_refused_at_their_path(tmp_path, capsys, data,
                                            field_path):
    # Each would otherwise load, the misspelt value silently ignored.
    from price_display_auctions.cli import main
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InstanceFormatError, match="unknown field") as err:
        load_instance(path)
    assert err.value.field_path == field_path
    assert main(["allocate", str(path)]) == 2
    err = capsys.readouterr().err
    assert field_path in err
    assert "Traceback" not in err


def test_every_known_key_loads(tmp_path):
    data = _one_agent(tie_break=[0], profile=[
        {"price": 1.0, "gain": 0.5, "standalone_price": 0.9}])
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    instance, prof = load_instance(path)
    assert instance.tie_break == (0,)
    assert prof[0].standalone_price == 0.9


@pytest.mark.parametrize("extra, field_path", [
    ({"tie_break": [1]}, "$.tie_break"),
    ({"price_grid": [2.0, 1.0]}, "$.price_grid"),
    ({"price_grid": []}, "$.price_grid"),
    ({"price_grid": [-1.0]}, "$.price_grid"),
])
def test_instance_errors_name_their_field(extra, field_path):
    with pytest.raises(InstanceFormatError) as err:
        instance_from_dict(_one_agent(**extra))
    assert err.value.field_path == field_path


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_numbers_refused(tmp_path, text):
    good = json.dumps(_one_agent())
    for field, value in (('"cost": 0.0', f'"cost": {text}'),
                         ('"alpha": 1.0', f'"alpha": {text}'),
                         ('"price_grid": [1.0]', f'"price_grid": [{text}]')):
        path = tmp_path / "instance.json"
        path.write_text(good.replace(field, value))
        with pytest.raises(InstanceFormatError, match="finite"):
            load_instance(path)


def test_bad_instance_files_exit_two_without_traceback(tmp_path, capsys):
    from price_display_auctions.cli import main
    path = tmp_path / "instance.json"
    for data in (_one_agent(tie_break=["a"]), _one_agent(tie_break=[0.5])):
        path.write_text(json.dumps(data))
        assert main(["equilibria", str(path)]) == 2
        err = capsys.readouterr().err
        assert "tie_break" in err
        assert "Traceback" not in err


def test_non_finite_quality_parameter_exits_two(tmp_path, capsys):
    from price_display_auctions.cli import main
    path = tmp_path / "instance.json"
    quality = {"kind": "smooth-decay", "price_slope": math.nan}
    path.write_text(json.dumps(_one_agent(agents=[
        {"alpha": 1.0, "cost": 0.0, "quality": quality}])))
    assert "NaN" in path.read_text()
    with pytest.raises(InstanceFormatError, match="finite") as err:
        load_instance(path)
    assert err.value.field_path == "$.agents[0].quality"
    assert main(["allocate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "price_slope" in err
    assert "Traceback" not in err


def _concrete_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _concrete_subclasses(sub)


def test_every_quality_model_is_registered_under_its_kind():
    classes = set(_concrete_subclasses(QualityModel))
    assert set(QUALITY_KINDS.values()) == classes
    for kind, cls in QUALITY_KINDS.items():
        assert cls.kind == kind


@pytest.mark.parametrize("model, text", [
    (OnlyMinQuality(),
     '{"kind": "only-min", "cap": "inf", "level": 1.0}'),
    (OnlyMinQuality(cap=2.0, level=0.5),
     '{"kind": "only-min", "cap": 2.0, "level": 0.5}'),
    (PriceThresholdQuality(threshold=1.5, level=0.9),
     '{"kind": "price-threshold", "threshold": 1.5, "level": 0.9}'),
    (HyperbolaQuality(1.0, 2.5, 0.1),
     '{"kind": "psi-hyperbola", "low": 1.0, "high": 2.5, "delta": 0.1}'),
    (SmoothDecayQuality(0.2, 0.1, 0.9),
     '{"kind": "smooth-decay", "price_slope": 0.2, "gap_slope": 0.1, '
     '"intercept": 0.9}'),
    (TabulatedQuality((1.0, 2.0), (1.0, 2.0), ((0.6, 0.8), (0.4, 0.5))),
     '{"kind": "tabulated", "prices": [1.0, 2.0], "min_prices": [1.0, 2.0], '
     '"values": [[0.6, 0.8], [0.4, 0.5]]}'),
], ids=lambda x: x.kind if isinstance(x, QualityModel) else "")
def test_quality_json_is_pinned(model, text):
    assert json.dumps(quality_to_dict(model)) == text
    assert quality_from_dict(json.loads(text)) == model


@pytest.mark.parametrize("quality, field", [
    ({"kind": "only-min", "cap": True}, "cap"),
    ({"kind": "only-min", "cap": "2.5"}, "cap"),
    ({"kind": "only-min", "cap": None}, "cap"),
    ({"kind": "tabulated", "prices": [1.0], "min_prices": [1.0],
      "values": [["0.5"]]}, "values[0][0]"),
    ({"kind": "tabulated", "prices": [1.0], "min_prices": [1.0],
      "values": [[True]]}, "values[0][0]"),
])
def test_non_number_quality_values_exit_two(tmp_path, capsys, quality, field):
    from price_display_auctions.cli import main
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(_one_agent(agents=[
        {"alpha": 1.0, "cost": 0.0, "quality": quality}])))
    with pytest.raises(InstanceFormatError) as err:
        load_instance(path)
    assert err.value.field_path == f"$.agents[0].quality.{field}"
    assert main(["allocate", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"$.agents[0].quality.{field}: expected a number" in err
    assert "Traceback" not in err
