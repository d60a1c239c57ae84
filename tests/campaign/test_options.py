"""Rendered run/host options and REST job-option validation.

Campaign subparsers render :class:`~repro.api.facade.RunOptions` and
:class:`~repro.campaign.options.HostOptions` from their declarations,
filtered by the option groups each kind takes; the daemon validates a
submission's ``options`` against the same declarations.  These tests
pin the rendered defaults and the service-side rules.
"""

from __future__ import annotations

import argparse
from dataclasses import fields

import pytest

from repro.api.facade import RunOptions
from repro.api.jobs import JOB_KINDS, field_default
from repro.campaign.cli import build_parser
from repro.campaign.options import HostOptions, default_workers
from repro.errors import ConfigurationError
from repro.serve.daemon import JOB_HOST_OPTIONS, validate_job_options

OPTION_CLASSES = (RunOptions, HostOptions)


def _parse_defaults(command: str) -> argparse.Namespace:
    argv = {"figure": [command, "table2"]}.get(command, [command])
    return build_parser().parse_args(argv)


class TestParserRendersTable:
    @pytest.mark.parametrize("command", sorted(JOB_KINDS))
    def test_subcommand_defaults_match_table(self, command, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_WORKERS", raising=False)
        args = _parse_defaults(command)
        groups = JOB_KINDS[command].option_groups
        for cls in OPTION_CLASSES:
            for f in fields(cls):
                group = f.metadata["group"]
                # Exactly the options of the groups the kind takes.
                assert hasattr(args, f.name) == (
                    group is None or group in groups
                ), f"{command} --{f.name}"
                if hasattr(args, f.name):
                    assert getattr(args, f.name) == field_default(f)

    @pytest.mark.parametrize("command", sorted(JOB_KINDS))
    def test_subcommand_accepts_common_flags(self, command):
        argv = {"figure": [command, "table2"]}.get(command, [command])
        args = build_parser().parse_args(
            argv + ["--cache-dir", "/tmp/x", "--workers", "4", "--verbose"]
        )
        assert args.cache_dir == "/tmp/x"
        assert args.workers == 4
        assert args.verbose is True

    def test_sweep_has_fresh_but_not_jobs(self):
        args = _parse_defaults("sweep")
        assert hasattr(args, "fresh")
        assert not hasattr(args, "jobs")

    @pytest.mark.parametrize("command", ["stream", "capacity", "grid"])
    def test_parallel_commands_expose_jobs(self, command):
        args = _parse_defaults(command)
        assert args.jobs == 1

    def test_workers_default_tracks_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "0")
        assert default_workers() is None
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "junk")
        assert default_workers() is None


class TestServiceOptions:
    def test_host_side_options_are_excluded(self):
        # The daemon owns its cache/model roots and stdout: these are
        # never accepted inside a job submission.
        for name in ("cache_dir", "quiet", "model_dir"):
            assert name not in JOB_HOST_OPTIONS
            assert name not in validate_job_options(None)

    def test_service_names_are_a_subset_of_the_table(self):
        # Every job option is a flag of the kind taking every group.
        assert set(validate_job_options(None)) <= set(
            vars(_parse_defaults("grid"))
        )

    def test_defaults_fill_missing_options(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_WORKERS", raising=False)
        resolved = validate_job_options(None)
        assert resolved["jobs"] == 1
        assert resolved["retries"] == 3
        assert resolved["fresh"] is False
        assert resolved["faults"] is None
        assert resolved["workers"] is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown job option"):
            validate_job_options({"bogus": 1})

    def test_host_side_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown job option"):
            validate_job_options({"cache_dir": "/tmp/x"})

    def test_bool_flag_requires_bool(self):
        with pytest.raises(ConfigurationError, match="expects a boolean"):
            validate_job_options({"fresh": 1})

    def test_int_option_rejects_bool_and_junk(self):
        with pytest.raises(ConfigurationError, match="expects int"):
            validate_job_options({"jobs": True})
        with pytest.raises(ConfigurationError, match="expects int"):
            validate_job_options({"jobs": "two"})

    def test_valid_payload_coerces_types(self):
        resolved = validate_job_options(
            {"jobs": 2, "step_timeout": "1.5", "faults": "flaky-io"}
        )
        assert resolved["jobs"] == 2
        assert resolved["step_timeout"] == 1.5
        assert resolved["faults"] == "flaky-io"
        resolved = validate_job_options({"step_timeout": 2, "workers": 2})
        assert isinstance(resolved["step_timeout"], float)
        assert resolved["workers"] == 2

    def test_string_option_rejects_non_string(self):
        with pytest.raises(ConfigurationError, match="expects a string"):
            validate_job_options({"faults": 3})
