"""Typed job specs: JSON round-trips, submit-time coercion, CLI parity.

The spec dataclass is the one declaration of a campaign kind: its
field metadata renders the ``repro <kind>`` subparser and drives the
coercion of JSON submissions.  These tests pin that both surfaces
build the same spec — and so the same job id — from the same values.
"""

from __future__ import annotations

import json

import pytest

from repro.api.jobs import (
    JOB_KINDS,
    CapacityJob,
    FigureJob,
    GridJob,
    StreamJob,
    SweepJob,
    TrainJob,
    job_from_dict,
)
from repro.api.facade import prepare
from repro.campaign.cli import build_parser, job_from_args
from repro.errors import ConfigurationError

ALL_SPECS = [SweepJob, TrainJob, FigureJob, StreamJob, CapacityJob, GridJob]


def _spec_instance(cls):
    if cls is FigureJob:
        return cls(names=("table2",))
    return cls()


class TestRoundTrip:
    @pytest.mark.parametrize("cls", ALL_SPECS, ids=lambda c: c.kind)
    def test_json_round_trip_is_identity(self, cls):
        spec = _spec_instance(cls)
        data = json.loads(spec.to_json())
        assert data["kind"] == cls.kind
        rebuilt = job_from_dict(data)
        assert rebuilt == spec
        assert rebuilt.to_json() == spec.to_json()

    @pytest.mark.parametrize("cls", ALL_SPECS, ids=lambda c: c.kind)
    def test_canonical_json_is_sorted_and_compact(self, cls):
        text = _spec_instance(cls).to_json()
        data = json.loads(text)
        assert text == json.dumps(
            data, sort_keys=True, separators=(",", ":")
        )

    def test_registry_covers_every_spec(self):
        assert sorted(JOB_KINDS) == sorted(c.kind for c in ALL_SPECS)

    def test_list_fields_normalize_to_tuples(self):
        spec = job_from_dict(
            {"kind": "sweep", "snrs": [0, 5.0], "suite": "quick"}
        )
        assert spec.snrs == (0.0, 5.0)
        spec = job_from_dict({"kind": "train", "horizons": [0, 1, 3]})
        assert spec.horizons == (0, 1, 3)


class TestRejection:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown job kind"):
            job_from_dict({"kind": "bake-cake"})

    def test_missing_kind(self):
        with pytest.raises(ConfigurationError, match="unknown job kind"):
            job_from_dict({"scenario": "reduced"})

    def test_non_dict_payload(self):
        with pytest.raises(ConfigurationError, match="must be an object"):
            job_from_dict(["grid"])

    def test_unknown_field_names_the_field(self):
        with pytest.raises(
            ConfigurationError, match="unknown grid job field.*gird"
        ):
            job_from_dict({"kind": "grid", "gird": "smoke-grid"})

    def test_scalar_where_list_expected(self):
        with pytest.raises(ConfigurationError, match="expects a list"):
            job_from_dict({"kind": "sweep", "snrs": 5.0})

    def test_wrong_element_type_in_list(self):
        with pytest.raises(ConfigurationError, match="expects a list of"):
            job_from_dict({"kind": "train", "horizons": ["soon"]})

    def test_figure_requires_names(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            FigureJob()


def _job_id(spec, tmp_path) -> str:
    return prepare(spec, cache_dir=str(tmp_path)).job_id


class TestSubmitTimeCoercion:
    """JSON values normalize to the form the CLI parser produces."""

    @pytest.mark.parametrize(
        "body, argv",
        [
            ({"duration": 30}, ["--duration", "30"]),
            ({"seed": "7"}, ["--seed", "7"]),
            ({"seed": 7.0}, ["--seed", "7"]),
        ],
        ids=["int-for-float", "str-for-int", "float-for-int"],
    )
    def test_json_forms_get_the_cli_job_id(self, body, argv, tmp_path):
        spec = job_from_dict({"kind": "capacity", **body})
        cli = job_from_args(build_parser().parse_args(["capacity", *argv]))
        assert spec.to_json() == cli.to_json()
        assert _job_id(spec, tmp_path) == _job_id(cli, tmp_path)

    def test_fractional_float_for_int_field_rejected(self):
        with pytest.raises(ConfigurationError, match="expects int"):
            job_from_dict({"kind": "capacity", "seed": 7.5})

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_bool_field_takes_only_json_booleans(self, value):
        with pytest.raises(ConfigurationError, match="expects a boolean"):
            job_from_dict({"kind": "grid", "vvd": value})

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "sweep", "suite": "nope"},
            {"kind": "grid", "suite": "nope"},
            {"kind": "stream", "policies": ["reactive", "nope"]},
            {"kind": "figure", "names": ["nope"]},
        ],
        ids=["sweep-suite", "grid-suite", "stream-policies", "figure-names"],
    )
    def test_choices_checked_at_submit_time(self, payload):
        with pytest.raises(ConfigurationError, match="must be one of"):
            job_from_dict(payload)

    def test_empty_list_for_one_or_more_field_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            job_from_dict({"kind": "train", "horizons": []})


class TestCliJsonParity:
    """The CLI and JSON forms of the same values give one spec and id."""

    #: kind -> (CLI argv, JSON body) with the same non-default values;
    #: the JSON side uses ints for floats where JSON clients do.
    CASES = {
        "sweep": (
            ["sweep", "--scenario", "smoke", "--snrs", "6", "12",
             "--num-sets", "3", "--suite", "quick"],
            {"scenario": "smoke", "snrs": [6, 12], "num_sets": 3,
             "suite": "quick"},
        ),
        "train": (
            ["train", "--scenario", "smoke", "--combinations", "2",
             "--horizons", "0", "1", "--seed", "3"],
            {"scenario": "smoke", "combinations": 2, "horizons": [0, 1],
             "seed": 3},
        ),
        "figure": (
            ["figure", "table2", "fig12", "--scenario", "smoke",
             "--combinations", "2", "--seed", "3"],
            {"names": ["table2", "fig12"], "scenario": "smoke",
             "combinations": 2, "seed": 3},
        ),
        "stream": (
            ["stream", "--links", "3", "--slots", "20", "--policies",
             "reactive", "genie", "--deadline-slots", "2", "--horizon",
             "1", "--seed", "3", "--defer-threshold", "1",
             "--round-deadline", "2", "--traffic", "mixed", "--qos",
             "triple"],
            {"links": 3, "slots": 20, "policies": ["reactive", "genie"],
             "deadline_slots": 2, "horizon": 1, "seed": 3,
             "defer_threshold": 1, "round_deadline": 2,
             "traffic": "mixed", "qos": "triple"},
        ),
        "capacity": (
            ["capacity", "--links", "2", "4", "--duration", "40",
             "--traffic", "poisson:50", "--qos", "uniform", "--seed", "3",
             "--service-pps", "500", "--admission-limit", "64"],
            {"links": [2, 4], "duration": 40, "traffic": "poisson:50",
             "qos": "uniform", "seed": 3.0, "service_pps": 500,
             "admission_limit": 64},
        ),
        "grid": (
            ["grid", "--suite", "baseline", "--vvd", "--horizon", "1",
             "--seed", "3"],
            {"suite": "baseline", "vvd": True, "horizon": 1, "seed": 3},
        ),
    }

    def test_cases_cover_every_kind(self):
        assert sorted(self.CASES) == sorted(JOB_KINDS)

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_cli_and_json_forms_agree(self, kind, tmp_path):
        argv, body = self.CASES[kind]
        cli = job_from_args(build_parser().parse_args(argv))
        rest = job_from_dict({"kind": kind, **body})
        assert cli == rest
        assert cli.to_json() == rest.to_json()
        assert _job_id(cli, tmp_path) == _job_id(rest, tmp_path)
        # Every field was set to a non-default value.
        default = _spec_instance(JOB_KINDS[kind])
        for name in body:
            assert getattr(cli, name) != getattr(default, name), name
