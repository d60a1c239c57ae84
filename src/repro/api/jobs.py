"""Typed job specifications: the one declaration of every campaign kind.

One frozen dataclass per campaign kind (sweep/train/figure/stream/
capacity/grid).  A job spec is pure data — scenario names, grids,
seeds — and is the same object whether it arrives from an argparse
namespace, a notebook or a ``POST /v1/jobs`` body; the facade
(:func:`repro.api.prepare`) turns it into a runnable campaign.

Each spec field is declared with :func:`arg`, which attaches its
command-line metadata (help text, allowed ``choices``, whether it is
positional) to the field itself; list fields (``tuple[T, ...]``) take
one or more values.  Each spec class names the run-option groups its
kind takes in ``option_groups`` (``model``: ``--model-dir``,
``robustness``: retries/timeouts/quarantine/faults, ``jobs``: DAG
parallelism).  From that one declaration :mod:`repro.campaign.cli`
renders the ``repro <kind>`` subparser, and :func:`coerce_value`
checks and normalizes every value on construction — so the CLI form
and the JSON form of the same values build the same spec, and the
same job id.  :class:`~repro.api.facade.RunOptions` and the host-side
options of :mod:`repro.campaign.options` are declared the same way.

Every spec round-trips through JSON (:meth:`to_dict` /
:func:`job_from_dict`).
"""

from __future__ import annotations

import functools
import json
import typing
from collections.abc import Mapping
from dataclasses import MISSING, Field, asdict, dataclass, field, fields
from typing import ClassVar

from ..campaign.runner import FIGURE_NAMES
from ..errors import ConfigurationError
from ..experiments.suite import SUITE_BUILDERS
from ..stream.policy import POLICY_BUILDERS

#: kind name -> spec class; populated by :func:`_register`.
JOB_KINDS: dict[str, type] = {}


def _register(cls):
    """Class decorator adding a spec to the :data:`JOB_KINDS` registry."""
    JOB_KINDS[cls.kind] = cls
    return cls


def _canonical(data: dict) -> str:
    """Canonical JSON: sorted keys, no whitespace — diff/hash friendly."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def arg(
    default=MISSING,
    *,
    help: str,
    choices=None,
    positional: bool = False,
    group: str | None = None,
    default_factory=MISSING,
) -> Field:
    """A dataclass field carrying its command-line metadata.

    ``choices`` is a tuple (order kept) or a registry mapping (its
    sorted keys, read when used, so late registrations count);
    ``positional`` renders the field as a positional argument instead
    of ``--<name>``; ``group`` names the run-option group a field of an
    option dataclass belongs to (``None`` = every command takes it).
    """
    return field(
        default=default,
        default_factory=default_factory,
        metadata={
            "help": help,
            "choices": choices,
            "positional": positional,
            "group": group,
        },
    )


def field_default(f: Field):
    """The default value of one declared field."""
    if f.default is not MISSING:
        return f.default
    return f.default_factory()


def field_choices(f: Field):
    """The allowed values of one declared field (``None`` = any)."""
    choices = f.metadata["choices"]
    if isinstance(choices, Mapping):
        return sorted(choices)
    return choices


@functools.cache
def _type_hints(cls) -> dict:
    return typing.get_type_hints(cls)


@functools.cache
def field_type(cls, f: Field) -> tuple[type, bool, bool]:
    """``(value type, is a list, accepts None)`` of one declared field."""
    hint = _type_hints(cls)[f.name]
    optional = False
    members = typing.get_args(hint)
    if type(None) in members:
        optional = True
        (hint,) = (m for m in members if m is not type(None))
    if typing.get_origin(hint) is tuple:
        return typing.get_args(hint)[0], True, optional
    return hint, False, optional


def _coerce_scalar(kind: type, value):
    """One value as ``kind``; raises TypeError/ValueError when it is not.

    Booleans must be JSON booleans and strings JSON strings; numbers
    take ints, floats and numeric strings (an int field only an
    integral float), so ``30``, ``30.0`` and ``"30"`` all normalize to
    the value the CLI parser produces.
    """
    if kind is bool or kind is str:
        if isinstance(value, kind):
            return value
        raise TypeError(value)
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(value)
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return kind(value)


def _expected(kind: type) -> str:
    return {bool: "a boolean", str: "a string"}.get(kind, kind.__name__)


def coerce_value(cls, f: Field, value, noun: str):
    """Check and normalize one value of a declared field.

    The one coercion rule of the ``repro`` surface: spec fields, run
    options and the host options a job submission may carry all pass
    through here.  Lists become tuples of one or more elements, every
    element (or the scalar) is coerced per :func:`_coerce_scalar` and
    checked against the field's ``choices``.  ``None`` passes only for
    optional fields.  Failures raise :class:`ConfigurationError` (HTTP
    400 at the service).
    """
    kind, many, optional = field_type(cls, f)
    if value is None and optional:
        return None
    where = f"{noun} {f.name!r}"
    if many:
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(
                f"{where} expects a list, got {type(value).__name__}"
            )
        if not value:
            raise ConfigurationError(f"{where} expects at least one value")
        try:
            items = tuple(_coerce_scalar(kind, v) for v in value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigurationError(
                f"{where} expects a list of {kind.__name__}, got {value!r}"
            ) from None
    else:
        try:
            items = (_coerce_scalar(kind, value),)
        except (TypeError, ValueError, OverflowError):
            got = (
                type(value).__name__ if kind in (bool, str) else repr(value)
            )
            raise ConfigurationError(
                f"{where} expects {_expected(kind)}, got {got}"
            ) from None
    if f.metadata["choices"] is not None:
        choices = field_choices(f)
        for item in items:
            if item not in choices:
                raise ConfigurationError(
                    f"{where} must be one of {', '.join(choices)}, "
                    f"got {item!r}"
                )
    return items if many else items[0]


def reject_unknown(payload: dict, accepted, noun: str) -> None:
    """Raise :class:`ConfigurationError` naming keys not in ``accepted``."""
    unknown = sorted(set(payload) - set(accepted))
    if unknown:
        raise ConfigurationError(
            f"unknown {noun}(s) {', '.join(unknown)}; "
            f"accepted: {', '.join(sorted(accepted))}"
        )


@dataclass(frozen=True)
class Declared:
    """Base of the dataclasses whose fields are declared with :func:`arg`.

    Construction runs every field through :func:`coerce_value`, so a
    spec or option object built from argparse values, JSON or Python
    literals holds the same normalized values.
    """

    #: Error-message noun of one field (``"job option 'jobs' ..."``).
    noun: ClassVar[str] = "job option"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            object.__setattr__(
                self, f.name, coerce_value(type(self), f, value, self.noun)
            )


@dataclass(frozen=True)
class JobSpec(Declared):
    """Base class of all job specs: JSON round-trip plumbing."""

    kind: ClassVar[str] = ""
    #: Run-option groups the kind takes (see the module docstring).
    option_groups: ClassVar[tuple[str, ...]] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.noun = f"{cls.kind} job field"

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        """Build a spec from plain data, rejecting unknown fields."""
        payload = dict(data)
        payload.pop("kind", None)
        reject_unknown(payload, [f.name for f in fields(cls)], cls.noun)
        return cls(**payload)

    def to_dict(self) -> dict:
        """Plain-data form, including the ``kind`` discriminator."""
        data = asdict(self)
        data["kind"] = self.kind
        return data

    def to_json(self) -> str:
        """Canonical JSON form (sorted keys, compact separators)."""
        return _canonical(self.to_dict())


_SCENARIO_HELP = "scenario preset name"


@_register
@dataclass(frozen=True)
class SweepJob(JobSpec):
    """Run the resumable SNR-sweep campaign of a scenario."""

    kind: ClassVar[str] = "sweep"
    option_groups: ClassVar[tuple[str, ...]] = ("robustness",)
    scenario: str = arg("reduced", help=_SCENARIO_HELP)
    snrs: tuple[float, ...] | None = arg(
        None, help="SNR grid in dB (default: the scenario's grid)"
    )
    num_sets: int | None = arg(
        None, help="limit the measurement sets per point"
    )
    suite: str = arg(
        "baseline",
        choices=SUITE_BUILDERS,
        help="estimator line-up evaluated per point",
    )


@_register
@dataclass(frozen=True)
class TrainJob(JobSpec):
    """Train every Table 2 VVD variant through the checkpoint registry."""

    kind: ClassVar[str] = "train"
    option_groups: ClassVar[tuple[str, ...]] = ("model", "robustness")
    scenario: str = arg("reduced", help=_SCENARIO_HELP)
    combinations: int | None = arg(
        None, help="limit the Table 2 combinations trained (default: all)"
    )
    horizons: tuple[int, ...] = arg(
        (0,),
        help="prediction horizons in camera frames (0 = VVD-Current; "
        "'0 1 3' pre-trains every Fig. 11 variant)",
    )
    seed: int = arg(7, help="weight-init / shuffle seed of every variant")


@_register
@dataclass(frozen=True)
class FigureJob(JobSpec):
    """Render paper tables/figures from the cached evaluation bundle."""

    kind: ClassVar[str] = "figure"
    option_groups: ClassVar[tuple[str, ...]] = ("model",)
    names: tuple[str, ...] = arg(
        (),
        positional=True,
        choices=FIGURE_NAMES + ("all",),
        help="figures/tables to render ('all' = the full report)",
    )
    scenario: str = arg("reduced", help=_SCENARIO_HELP)
    combinations: int = arg(
        3, help="Table 2 combinations evaluated (15 = full)"
    )
    seed: int = arg(
        7,
        help="VVD training seed; match the `repro train --seed` that "
        "warmed the model registry so figures retrain nothing",
    )


@_register
@dataclass(frozen=True)
class StreamJob(JobSpec):
    """Run closed-loop link adaptation over N concurrent links."""

    kind: ClassVar[str] = "stream"
    option_groups: ClassVar[tuple[str, ...]] = (
        "model",
        "robustness",
        "jobs",
    )
    scenario: str = arg("stream-smoke", help=_SCENARIO_HELP)
    links: int | None = arg(
        None,
        help="concurrent links replayed (default: the scenario's "
        "stream_links)",
    )
    slots: int | None = arg(
        None,
        help="packet slots per link (default: the scenario's "
        "packets-per-set)",
    )
    policies: tuple[str, ...] = arg(
        ("proactive", "reactive"),
        choices=POLICY_BUILDERS,
        help="link-adaptation policies simulated (each gets its own "
        "pass over the same event stream)",
    )
    deadline_slots: int = arg(
        3,
        help="slots a packet may wait before it counts as a "
        "deadline miss",
    )
    horizon: int = arg(
        0,
        help="prediction horizon in camera frames of the serving model "
        "(compensates camera->decision latency)",
    )
    seed: int = arg(
        7,
        help="serving-model training seed; match `repro train --seed` "
        "to reuse its checkpoints",
    )
    defer_threshold: float | None = arg(
        None,
        help="proactive blockage-probability defer threshold "
        "(default: the policy's 0.9; 1.0 disables deferral)",
    )
    round_deadline: float | None = arg(
        None,
        help="wall-time budget in seconds of one micro-batched "
        "prediction round; an overrunning or failing round degrades "
        "to the reactive fallback for that slot instead of aborting",
    )
    traffic: str | None = arg(
        None,
        help="arrival-process spec for the modeled SLA appendix "
        "(periodic[:pps], poisson:pps, onoff:pps:on_s:off_s, "
        "diurnal:pps:period_s:depth, or 'mixed'; default: the "
        "scenario's traffic, usually 'periodic' = replay only)",
    )
    qos: str | None = arg(
        None,
        help="QoS class mix of the modeled SLA appendix ('uniform' or "
        "'triple'; default: the scenario's qos)",
    )


@_register
@dataclass(frozen=True)
class CapacityJob(JobSpec):
    """Sweep the modeled serving fleet over link counts.

    Heterogeneous traffic, QoS deadlines, admission control and the
    links-sustained-vs-SLO capacity curve (pure queueing).
    """

    kind: ClassVar[str] = "capacity"
    option_groups: ClassVar[tuple[str, ...]] = ("robustness", "jobs")
    links: tuple[int, ...] = arg(
        (16, 32, 64, 96, 128),
        help="link counts swept (one modeled capacity point each)",
    )
    duration: float = arg(
        30.0, help="simulated horizon in seconds per point"
    )
    traffic: str = arg(
        "mixed",
        help="per-link arrival-process spec (periodic[:pps], "
        "poisson:pps, onoff:pps:on_s:off_s, diurnal:pps:period_s:depth "
        "or 'mixed' = rotate all four across links)",
    )
    qos: str = arg(
        "triple",
        help="QoS class mix ('uniform' or 'triple' = "
        "gold/silver/bronze deadlines)",
    )
    seed: int = arg(
        7,
        help="arrival-process / class-assignment seed (same seed, "
        "byte-identical payloads — across --jobs and machines)",
    )
    service_pps: float = arg(
        900.0,
        help="modeled prediction-backend throughput in predictions/s",
    )
    admission_limit: int = arg(
        512,
        help="admission-controlled queue depth; arrivals beyond it "
        "shed the youngest lower-priority request (or themselves)",
    )


@_register
@dataclass(frozen=True)
class GridJob(JobSpec):
    """Expand a parametric grid and evaluate every derived scenario."""

    kind: ClassVar[str] = "grid"
    option_groups: ClassVar[tuple[str, ...]] = (
        "model",
        "robustness",
        "jobs",
    )
    grid: str = arg("smoke-grid", help="grid spec name (see list-scenarios)")
    suite: str = arg(
        "quick",
        choices=SUITE_BUILDERS,
        help="estimator line-up evaluated per derived scenario",
    )
    vvd: bool = arg(
        False,
        help="resolve a VVD model per grid point through the model "
        "checkpoint registry (implied by a 'horizon' grid axis)",
    )
    horizon: int = arg(
        0,
        help="VVD prediction horizon used with --vvd (a 'horizon' "
        "grid axis overrides it per member)",
    )
    seed: int = arg(
        7, help="VVD training seed of --vvd / horizon-axis members"
    )


def job_from_dict(data: dict) -> JobSpec:
    """Dispatch plain data to the right spec class via its ``kind``."""
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"job spec must be an object, got {type(data).__name__}"
        )
    kind = data.get("kind")
    if kind not in JOB_KINDS:
        raise ConfigurationError(
            f"unknown job kind {kind!r}; accepted: "
            f"{', '.join(sorted(JOB_KINDS))}"
        )
    return JOB_KINDS[kind].from_dict(data)


@dataclass(frozen=True)
class StepEvent:
    """One manifest transition: the unit of campaign progress."""

    step: str
    status: str
    detail: str = ""
    updated: float = 0.0
    attempts: int = 0

    def to_dict(self) -> dict:
        """Plain-data form of the event."""
        return asdict(self)

    def to_json(self) -> str:
        """Canonical JSON form of the event."""
        return _canonical(self.to_dict())


@dataclass(frozen=True)
class CampaignStatus:
    """Point-in-time view of one campaign's manifest."""

    #: Stable campaign id (the campaign directory basename).
    job_id: str
    #: Derived state: pending/running/done/failed/quarantined.
    state: str
    #: status -> count histogram over the manifest's steps.
    counts: dict = field(default_factory=dict)
    #: Every recorded step transition, sorted by update time.
    events: tuple = ()

    def to_dict(self) -> dict:
        """Plain-data form of the status snapshot."""
        return {
            "job_id": self.job_id,
            "state": self.state,
            "counts": dict(self.counts),
            "events": [event.to_dict() for event in self.events],
        }

    def to_json(self) -> str:
        """Canonical JSON form of the status snapshot."""
        return _canonical(self.to_dict())


@dataclass(frozen=True)
class CampaignOutcome:
    """The result of one completed :meth:`CampaignHandle.run`."""

    #: Stable campaign id (the campaign directory basename).
    job_id: str
    #: Step ids executed by this run.
    executed: tuple
    #: Step ids resumed from the manifest.
    skipped: tuple
    #: Step ids quarantined by this run.
    quarantined: tuple
    #: Total step attempts retried by this run.
    retried: int
    #: Process exit code from the outcome table (0 or 3).
    exit_code: int
    #: The run's human-readable summary — byte-identical to the text
    #: the equivalent CLI invocation prints.
    text: str

    def to_dict(self) -> dict:
        """Plain-data form of the outcome."""
        return {
            "job_id": self.job_id,
            "executed": list(self.executed),
            "skipped": list(self.skipped),
            "quarantined": list(self.quarantined),
            "retried": self.retried,
            "exit_code": self.exit_code,
            "text": self.text,
        }

    def to_json(self) -> str:
        """Canonical JSON form of the outcome."""
        return _canonical(self.to_dict())
