"""Scenario language: parameters, conditions, aggregation, delta copies."""

from __future__ import annotations

import pytest

from repro.campaign.params import (
    SCENARIO_CONDITIONS,
    Parameter,
    ValidationReport,
    build_room,
    get_parameter,
    load_scenario_file,
    validate_scenario_values,
)
from repro.campaign.scenario import (
    ROOM_PRESETS,
    SCENARIO_PARAMETERS,
    Scenario,
    get_scenario,
)
from repro.errors import ConfigurationError


def _valid_values(**overrides):
    values = {"name": "t", "description": "test spec"}
    values.update(overrides)
    return values


class TestParameter:
    def test_type_enforced(self):
        parameter = get_parameter("num_humans")
        assert parameter.violations(2) == []
        problems = parameter.violations("two")
        assert len(problems) == 1
        assert "expected int" in problems[0]

    def test_bool_is_not_an_int(self):
        # isinstance(True, int) is True in Python; the schema closes
        # that hole so a grid axis of (True, False) cannot masquerade
        # as a num_humans axis.
        problems = get_parameter("num_humans").violations(True)
        assert problems and "expected int" in problems[0]

    def test_int_accepted_where_float_expected(self):
        assert get_parameter("snr_db").violations(9) == []

    def test_bounds_enforced_inclusive(self):
        parameter = get_parameter("num_humans")
        low, high = parameter.bounds
        assert parameter.violations(low) == []
        assert parameter.violations(high) == []
        assert parameter.violations(low - 1)
        assert parameter.violations(high + 1)

    def test_bounds_elementwise_on_tuples(self):
        parameter = get_parameter("speed_range_mps")
        assert parameter.violations((0.3, 0.8)) == []
        problems = parameter.violations((0.3, 99.0))
        assert len(problems) == 1
        assert "99.0" in problems[0]

    def test_tuple_length_enforced(self):
        problems = get_parameter("speed_range_mps").violations(
            (0.3, 0.5, 0.8)
        )
        assert any("entries" in p for p in problems)

    def test_choices_with_label_phrase(self):
        problems = get_parameter("base").violations("huge")
        assert problems and "base preset" in problems[0]
        problems = get_parameter("room").violations("warehouse")
        assert problems and "room preset" in problems[0]

    def test_optional_none_allowed_required_none_rejected(self):
        assert get_parameter("snr_db").violations(None) == []
        problems = get_parameter("stream_links").violations(None)
        assert problems and "required" in problems[0]

    def test_every_violation_reported_not_just_first(self):
        # One bad tuple: wrong element type AND an out-of-range value.
        problems = get_parameter("snr_grid_db").violations(
            ("high", 99.0)
        )
        assert len(problems) == 2

    def test_unknown_parameter_lookup_raises(self):
        with pytest.raises(ConfigurationError, match="num_humans"):
            get_parameter("no-such-parameter")

    def test_custom_parameter_allowed_predicate(self):
        parameter = Parameter(
            name="p",
            type_hint=int,
            description="even only",
            allowed=lambda v: None if v % 2 == 0 else "must be even",
        )
        assert parameter.violations(2) == []
        assert parameter.violations(3) == ["p: must be even"]


class TestConditions:
    def test_declared_evaluation_order(self):
        # Conditions evaluate (and report) in declared order; this pin
        # is the order tests and docs rely on.
        assert [c.name for c in SCENARIO_CONDITIONS] == [
            "speed-range-ordered",
            "grouped-needs-company",
            "solo-crossing",
            "snr-grid-sorted-unique",
            "stream-links-positive",
        ]

    def test_violations_report_in_declared_order(self):
        report = validate_scenario_values(
            _valid_values(
                speed_range_mps=(1.6, 1.0),
                trajectory="grouped",
                num_humans=1,
                snr_grid_db=(9.5, 3.0),
            )
        )
        names = [e.split(":")[0] for e in report.errors]
        assert names == [
            "speed-range-ordered",
            "grouped-needs-company",
            "snr-grid-sorted-unique",
        ]

    def test_condition_skipped_when_required_parameter_failed(self):
        # num_humans is type-broken AND the grouped condition would
        # fire; only the parameter violation must be reported — a
        # type-broken parameter never cascades into condition noise.
        report = validate_scenario_values(
            _valid_values(trajectory="grouped", num_humans="many")
        )
        assert len(report.errors) == 1
        assert "expected int" in report.errors[0]
        assert not any(
            "grouped-needs-company" in e for e in report.errors
        )

    def test_grouped_condition_fires_when_parameters_valid(self):
        report = validate_scenario_values(
            _valid_values(trajectory="grouped", num_humans=1)
        )
        assert len(report.errors) == 1
        assert "grouped-needs-company" in report.errors[0]

    def test_solo_crossing_is_warning_not_error(self):
        report = validate_scenario_values(
            _valid_values(trajectory="crossing", num_humans=1)
        )
        assert report.ok
        assert any("solo-crossing" in w for w in report.warnings)

    def test_snr_grid_must_be_strictly_ascending(self):
        for grid in ((9.5, 3.0), (6.0, 6.0, 9.5)):
            report = validate_scenario_values(
                _valid_values(snr_grid_db=grid)
            )
            assert any(
                "snr-grid-sorted-unique" in e for e in report.errors
            )

    def test_speed_range_min_le_max(self):
        report = validate_scenario_values(
            _valid_values(speed_range_mps=(1.6, 1.0))
        )
        assert any(
            "speed-range-ordered" in e for e in report.errors
        )


class TestAggregation:
    def test_all_violations_listed_in_one_error(self):
        report = validate_scenario_values(
            _valid_values(
                base="huge",
                room="warehouse",
                snr_grid_db=(),
                stream_links=0,
            )
        )
        assert len(report.errors) == 4
        with pytest.raises(
            ConfigurationError, match="4 violation"
        ) as excinfo:
            report.raise_for_errors()
        message = str(excinfo.value)
        for fragment in (
            "base preset",
            "room preset",
            "snr_grid_db",
            "stream_links",
        ):
            assert fragment in message

    def test_unknown_keys_are_errors(self):
        report = validate_scenario_values(
            _valid_values(walkers=3)
        )
        assert any("unknown parameter" in e for e in report.errors)

    def test_ok_report_raises_nothing(self):
        report = validate_scenario_values(_valid_values())
        assert report.ok
        report.raise_for_errors()
        assert report.summary().endswith("ok")

    def test_report_summary_counts(self):
        report = ValidationReport(
            subject="x", errors=("a", "b"), warnings=("c",)
        )
        assert "2 error(s)" in report.summary()
        assert "1 warning(s)" in report.summary()


class TestDeltaCopies:
    def test_delta_overlays_and_validates(self):
        scenario = get_scenario("tiny").variant(
            name="tiny-2h", num_humans=2
        )
        assert scenario.num_humans == 2
        assert scenario.base == "tiny"  # untouched fields survive

    def test_delta_does_not_mutate_the_original(self):
        scenario = get_scenario("tiny")
        before = scenario.canonical_json()
        scenario.variant(num_humans=5)
        assert scenario.canonical_json() == before

    def test_inconsistent_delta_fails_at_materialization(self):
        with pytest.raises(
            ConfigurationError, match="grouped-needs-company"
        ):
            get_scenario("tiny").variant(
                trajectory="grouped", num_humans=1
            )

    def test_scenario_variant_routes_through_the_schema(self):
        scenario = get_scenario("tiny")
        variant = scenario.variant(
            name="tiny-crossing", trajectory="crossing", num_humans=2
        )
        assert isinstance(variant, Scenario)
        assert variant.trajectory == "crossing"
        with pytest.raises(ConfigurationError, match="violation"):
            scenario.variant(name="bad", base="huge", stream_links=0)

    def test_lists_normalize_to_tuples(self):
        values = _valid_values(speed_range_mps=[0.3, 0.8], tags=["a"])
        assert validate_scenario_values(values).ok
        listed = Scenario(**values)
        tupled = Scenario(
            **_valid_values(speed_range_mps=(0.3, 0.8), tags=("a",))
        )
        assert listed.speed_range_mps == (0.3, 0.8)
        assert listed == tupled
        assert hash(listed) == hash(tupled)


class TestRoomSchema:
    def _room_values(self, **overrides):
        values = {
            "width_m": 9.0,
            "depth_m": 7.0,
            "tx_position": (1.0, 3.5, 1.2),
            "rx_position": (8.0, 3.5, 1.2),
            "movement_area": (2.0, 1.0, 7.0, 6.0),
        }
        values.update(overrides)
        return values

    def test_valid_room_builds(self):
        room = build_room(self._room_values(), "test-room")
        assert room.width_m == 9.0

    def test_movement_area_must_fit_the_room(self):
        with pytest.raises(
            ConfigurationError, match="movement-area-in-room"
        ):
            build_room(
                self._room_values(movement_area=(2.0, 1.0, 12.0, 6.0)),
                "test-room",
            )

    def test_devices_must_be_inside(self):
        with pytest.raises(ConfigurationError, match="devices-in-room"):
            build_room(
                self._room_values(tx_position=(20.0, 3.5, 1.2)),
                "test-room",
            )

    def test_aggregates_all_room_violations(self):
        with pytest.raises(ConfigurationError, match="3 violation"):
            build_room(
                self._room_values(
                    width_m=0.1, wall_reflectivity=2.0, bogus=1
                ),
                "test-room",
            )


class TestScenarioFiles:
    def test_toml_round_trip(self, tmp_path):
        path = tmp_path / "extra.toml"
        path.write_text(
            """
[rooms.test-hall]
width_m = 11.0
depth_m = 9.0
tx_position = [1.0, 4.5, 1.2]
rx_position = [10.0, 4.5, 1.2]
movement_area = [2.0, 1.5, 9.0, 7.5]

[[scenarios]]
name = "hall-walk"
description = "one walker in the test hall"
room = "test-hall"
snr_grid_db = [3.0, 9.5]
tags = ["file"]
"""
        )
        try:
            loaded = load_scenario_file(path)
            assert [s.name for s in loaded] == ["hall-walk"]
            assert "test-hall" in ROOM_PRESETS
            config = get_scenario("hall-walk").resolve()
            assert config.room.width_m == 11.0
        finally:
            ROOM_PRESETS.pop("test-hall", None)

    def test_json_files_load_too(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(
            '{"scenarios": [{"name": "json-walk", '
            '"description": "from json", "num_humans": 2}]}'
        )
        loaded = load_scenario_file(path, register=False)
        assert loaded[0].num_humans == 2

    def test_broken_file_registers_nothing(self, tmp_path):
        # The valid dense-office table shadows a built-in room: a
        # failed load must leave the room registry exactly as it was.
        path = tmp_path / "broken.toml"
        path.write_text(
            """
[rooms.dense-office]
width_m = 9.0
depth_m = 7.0
tx_position = [1.0, 3.5, 1.2]
rx_position = [8.0, 3.5, 1.2]
movement_area = [2.0, 1.0, 7.0, 6.0]

[rooms.shoebox]
width_m = 2.0
depth_m = 2.0
tx_position = [1.0, 1.0, 1.2]
rx_position = [1.5, 1.0, 1.2]
movement_area = [0.5, 0.5, 3.5, 1.5]

[[scenarios]]
name = "broken-grouped"
description = "grouped needs company"
trajectory = "grouped"
num_humans = 1
"""
        )
        before = dict(ROOM_PRESETS)
        with pytest.raises(
            ConfigurationError, match="violation"
        ) as excinfo:
            load_scenario_file(path)
        message = str(excinfo.value)
        assert "movement-area-in-room" in message
        assert "grouped-needs-company" in message
        assert ROOM_PRESETS == before
        config = get_scenario("dense-office").resolve()
        assert config.room.width_m == 10.0

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "scenarios.yaml"
        path.write_text("scenarios: []")
        with pytest.raises(ConfigurationError, match="toml"):
            load_scenario_file(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no such"):
            load_scenario_file(tmp_path / "nope.toml")


class TestSchemaCatalog:
    def test_describe_lists_every_parameter_and_condition(self):
        from repro.campaign.params import describe_parameters

        text = describe_parameters()
        for parameter in SCENARIO_PARAMETERS:
            assert parameter.name in text
        for condition in SCENARIO_CONDITIONS:
            assert condition.name in text
