"""Validated scenario language: parameters, conditions, files, sampling.

The scenario registry used to be plain dataclasses whose invalid
combinations (a speed range outside the mobility model's bounds, an SNR
grid outside the trained range, grouped walkers without a group) failed
first-error-only, sometimes only deep inside the dataset generator.
This module adopts the cinnamon ``Parameter``/``Configuration`` idiom
(see SNIPPETS.md): every scenario hyper-parameter is a
:class:`Parameter` carrying its type hint, allowed range/choices,
description and tags, and :func:`validate_values` checks a mapping
against parameters plus declared cross-parameter :class:`Condition`
objects with a *full* :class:`ValidationReport` — every violation
listed, not just the first.

The :class:`~repro.campaign.scenario.Scenario` dataclass is the one
declaration of the scenario schema: each field is declared with
:func:`param`, which attaches what the annotation cannot say
(description, bounds, choices, variable length, label, extra predicate,
tags).  :func:`parameters_of` derives the :class:`Parameter` schema
from those fields — name, type, element type, optional flag and
default come from the field and its annotation, read by
:func:`field_type` (the same reader the job specs of
:mod:`repro.api.jobs` use).  On top of the schema the module provides:

- TOML/JSON scenario loading (:func:`load_scenario_file`,
  ``repro scenarios load file.toml``), including custom room-geometry
  tables validated through :data:`ROOM_PARAMETERS`.
- seeded scenario sampling (:func:`sample_scenarios`,
  ``repro scenarios sample --seed N --count K``): uniformly valid
  scenarios drawn from the declared ranges — the generator behind the
  property-based fuzz suite and future capacity grids.  Sampling uses
  :class:`random.Random` so the draw sequence is process- and
  platform-stable for a given seed.
"""

from __future__ import annotations

import functools
import json
import random
import typing
from dataclasses import MISSING, Field, dataclass, field, fields
from pathlib import Path
from typing import Callable, Mapping

from ..config import SPEED_PROFILES, TRAJECTORY_PRESETS, RoomConfig
from ..errors import ConfigurationError

#: Walking-speed bounds of the mobility model in m/s; scenario speed
#: ranges must lie inside (0.05 m/s shuffle .. 3 m/s jog).
MOBILITY_SPEED_BOUNDS_MPS = (0.05, 3.0)

#: SNR bounds in dB the PHY/vision stack is exercised (and the CNN
#: trained) over; operating points and sweep grids must lie inside.
SNR_BOUNDS_DB = (-3.0, 18.0)

#: Simultaneous-walker bounds (the multi-body channel renders up to 6).
NUM_HUMANS_BOUNDS = (1, 6)

#: Measurement-set count bounds (>= 3 for train/val/test rotation).
NUM_SETS_BOUNDS = (3, 60)

#: Packets-per-set bounds (paper scale is 1514).
PACKETS_PER_SET_BOUNDS = (2, 2000)

#: Campaign-seed bounds.
SEED_BOUNDS = (0, 2**32 - 1)

#: Concurrent-stream-link bounds.  The heap-based discrete-event
#: scheduler keeps replay and capacity memory O(links), so capacity
#: grids sweep into the thousands.
STREAM_LINKS_BOUNDS = (1, 10_000)


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


def _type_name(type_hint: type | tuple[type, ...]) -> str:
    """Readable name of a parameter's type hint."""
    if isinstance(type_hint, tuple):
        return "/".join(t.__name__ for t in type_hint)
    return type_hint.__name__


def _type_ok(value: object, type_hint: type | tuple[type, ...]) -> bool:
    """isinstance with the int/bool pitfall closed (bool is not an int)."""
    hints = type_hint if isinstance(type_hint, tuple) else (type_hint,)
    if isinstance(value, bool):
        return bool in hints
    if isinstance(value, int) and (int in hints or float in hints):
        return True
    return isinstance(value, hints)


@dataclass(frozen=True)
class Parameter:
    """One declared scenario hyper-parameter (cinnamon idiom).

    Wraps the value schema — type hint, allowed numeric ``bounds``
    (inclusive, applied elementwise to tuple values), discrete
    ``choices`` (a tuple, or a registry mapping whose keys are read
    when used so late registrations like TOML rooms count), tuple
    ``length`` limits and an optional free-form ``allowed`` predicate —
    plus the description and tags the catalog renders.
    :meth:`violations` returns *every* problem with a candidate value,
    never just the first.
    """

    #: Unique identifier; matches the dataclass field it feeds.
    name: str
    #: Python type(s) a value must have.
    type_hint: type | tuple[type, ...]
    #: One-line human description (rendered by ``scenarios describe``).
    description: str
    #: Default used when a mapping omits the parameter; ``MISSING``
    #: (a factory, since a dataclass reads a bare ``MISSING`` default
    #: as "none") marks it required.
    default: object = field(default_factory=lambda: MISSING)
    #: Discrete allowed values, or a registry mapping of them.
    choices: tuple | Mapping | None = None
    #: Inclusive numeric range; elementwise for tuple values.
    bounds: tuple[float, float] | None = None
    #: ``(min, max)`` entry-count limits for tuple values.
    length: tuple[int, int] | None = None
    #: Required type of each tuple entry.
    element_type: type | tuple[type, ...] | None = None
    #: ``True`` if ``None`` is an allowed value.
    optional: bool = False
    #: Noun used in messages (defaults to the parameter name).
    label: str | None = None
    #: Extra predicate: returns a violation string or ``None``.
    allowed: Callable[[object], str | None] | None = None
    #: Free-form labels for catalog search/grouping.
    tags: tuple[str, ...] = ()

    @property
    def required(self) -> bool:
        """Whether a mapping must provide this parameter explicitly."""
        return self.default is MISSING

    def violations(self, value: object) -> list[str]:
        """Every problem with ``value``, as ``name: ...`` report lines."""
        noun = self.label or self.name
        if value is None:
            if self.optional:
                return []
            return [f"{self.name}: value is required, got None"]
        if not _type_ok(value, self.type_hint):
            return [
                f"{self.name}: expected {_type_name(self.type_hint)}, "
                f"got {type(value).__name__} ({value!r})"
            ]
        problems: list[str] = []
        if self.choices is not None and value not in self.choices:
            problems.append(
                f"{self.name}: unknown {noun} {value!r}; expected one "
                f"of {sorted(self.choices)}"
            )
        elements = (
            list(value) if isinstance(value, tuple) else [value]
        )
        if isinstance(value, tuple):
            if self.length is not None:
                lo, hi = self.length
                if not lo <= len(value) <= hi:
                    problems.append(
                        f"{self.name}: needs between {lo} and {hi} "
                        f"entries, got {len(value)}"
                    )
            if self.element_type is not None:
                for k, item in enumerate(elements):
                    if not _type_ok(item, self.element_type):
                        problems.append(
                            f"{self.name}[{k}]: expected "
                            f"{_type_name(self.element_type)}, got "
                            f"{type(item).__name__} ({item!r})"
                        )
                elements = [
                    item
                    for item in elements
                    if _type_ok(item, self.element_type)
                ]
        if self.bounds is not None:
            lo, hi = self.bounds
            for item in elements:
                if isinstance(item, (int, float)) and not (
                    lo <= item <= hi
                ):
                    problems.append(
                        f"{self.name}: {item!r} outside the allowed "
                        f"{noun} range [{lo}, {hi}]"
                    )
        if self.allowed is not None and not problems:
            extra = self.allowed(value)
            if extra is not None:
                problems.append(f"{self.name}: {extra}")
        return problems


@dataclass(frozen=True)
class Condition:
    """One declared cross-parameter consistency rule.

    Conditions are evaluated in declared order, and only once every
    parameter in ``requires`` has passed its own checks — a type-broken
    parameter never also produces a cascade of spurious condition
    violations.  ``severity="warning"`` conditions are reported but do
    not fail validation (used for legal-but-unusual combinations).
    """

    #: Stable kebab-case identifier of the rule.
    name: str
    #: Human sentence describing the requirement.
    description: str
    #: Parameters the predicate reads.
    requires: tuple[str, ...]
    #: Returns ``True`` when the combination is consistent.
    check: Callable[[Mapping[str, object]], bool]
    #: ``"error"`` fails validation; ``"warning"`` is advisory.
    severity: str = "error"

    def message(self, values: Mapping[str, object]) -> str:
        """The report line emitted when the condition is violated."""
        context = ", ".join(
            f"{name}={values.get(name)!r}" for name in self.requires
        )
        return f"{self.name}: {self.description} (got {context})"


@dataclass(frozen=True)
class ValidationReport:
    """Aggregated outcome of one spec validation.

    Collects *every* parameter and condition violation — construction
    sites raise one :class:`~repro.errors.ConfigurationError` listing
    them all, instead of the first-failure behaviour the plain
    dataclasses had.
    """

    #: What was validated (used in messages), e.g. ``scenario 'tiny'``.
    subject: str
    #: Hard violations, in parameter-then-condition declared order.
    errors: tuple[str, ...] = ()
    #: Advisory findings (legal but unusual combinations).
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """True when no error-severity violation was found."""
        return not self.errors

    def raise_for_errors(self) -> None:
        """Raise a single error listing every violation (if any)."""
        if not self.errors:
            return
        raise ConfigurationError(
            f"{self.subject} failed validation with "
            f"{len(self.errors)} violation(s): "
            + "; ".join(self.errors)
        )

    def summary(self) -> str:
        """One-line ``ok``/``N error(s), M warning(s)`` rendering."""
        if self.ok and not self.warnings:
            return f"{self.subject}: ok"
        parts = []
        if self.errors:
            parts.append(f"{len(self.errors)} error(s)")
        if self.warnings:
            parts.append(f"{len(self.warnings)} warning(s)")
        return f"{self.subject}: " + ", ".join(parts)


def param(
    default=MISSING,
    *,
    description: str,
    bounds: tuple[float, float] | None = None,
    choices: tuple | Mapping | None = None,
    length: tuple[int, int] | None = None,
    label: str | None = None,
    allowed: Callable[[object], str | None] | None = None,
    tags: tuple[str, ...] = (),
) -> Field:
    """A dataclass field carrying its scenario-schema metadata.

    Takes only what the annotation cannot say — the field's name, type,
    element type, optional flag and default are read from the dataclass
    itself by :func:`parameters_of`.  ``length`` bounds the entry count
    of tuple fields.
    """
    return field(
        default=default,
        metadata={
            "description": description,
            "bounds": bounds,
            "choices": choices,
            "length": length,
            "label": label,
            "allowed": allowed,
            "tags": tags,
        },
    )


def parameters_of(cls) -> tuple[Parameter, ...]:
    """The :class:`Parameter` schema of a :func:`param`-declared dataclass."""
    schema = []
    for f in fields(cls):
        kind, many, optional = field_type(cls, f)
        schema.append(
            Parameter(
                name=f.name,
                type_hint=tuple if many else kind,
                element_type=kind if many else None,
                optional=optional,
                default=f.default,
                **f.metadata,
            )
        )
    return tuple(schema)


def _speed_range_ordered(values: Mapping[str, object]) -> bool:
    speed = values.get("speed_range_mps")
    if speed is None:
        return True
    low, high = speed
    return low <= high


def _grouped_has_company(values: Mapping[str, object]) -> bool:
    if values.get("trajectory") != "grouped":
        return True
    return values.get("num_humans", 1) >= 2


def _crossing_not_solo(values: Mapping[str, object]) -> bool:
    if values.get("trajectory") != "crossing":
        return True
    return values.get("num_humans", 1) >= 2


def _snr_grid_sorted_unique(values: Mapping[str, object]) -> bool:
    grid = values.get("snr_grid_db") or ()
    return all(a < b for a, b in zip(grid, grid[1:]))


def _stream_links_present(values: Mapping[str, object]) -> bool:
    links = values.get("stream_links")
    return links is None or links >= 1


#: The declared cross-parameter conditions, in evaluation order.
SCENARIO_CONDITIONS: tuple[Condition, ...] = (
    Condition(
        name="speed-range-ordered",
        description="speed_range_mps min must be <= max",
        requires=("speed_range_mps",),
        check=_speed_range_ordered,
    ),
    Condition(
        name="grouped-needs-company",
        description=(
            "grouped trajectories require num_humans >= 2 (a group is "
            "at least a leader and one follower)"
        ),
        requires=("trajectory", "num_humans"),
        check=_grouped_has_company,
    ),
    Condition(
        name="solo-crossing",
        description=(
            "crossing with a single walker is a sparse-blockage "
            "streaming workload; blockage-density studies want "
            "num_humans >= 2"
        ),
        requires=("trajectory", "num_humans"),
        check=_crossing_not_solo,
        severity="warning",
    ),
    Condition(
        name="snr-grid-sorted-unique",
        description="snr_grid_db must be strictly ascending (no dupes)",
        requires=("snr_grid_db",),
        check=_snr_grid_sorted_unique,
    ),
    Condition(
        name="stream-links-positive",
        description="stream scenarios need at least one link",
        requires=("stream_links",),
        check=_stream_links_present,
    ),
)


def normalize(value: object) -> object:
    """Lists (e.g. from TOML/JSON) become tuples, recursively."""
    if isinstance(value, (list, tuple)):
        return tuple(normalize(item) for item in value)
    return value


def validate_values(
    values: Mapping[str, object],
    parameters: tuple[Parameter, ...],
    conditions: tuple[Condition, ...],
    subject: str,
    unknown: str,
) -> tuple[dict[str, object], ValidationReport]:
    """Check every parameter, then every condition, aggregating all.

    ``values`` is normalized and overlaid on the parameters' defaults;
    returns that merged mapping with the report.  Keys no parameter
    declares are errors (``unknown`` is their message).  Parameter
    checks run in declared order; conditions run in declared order
    afterwards and are skipped when any parameter they ``require``
    already failed (or was unknown), so one root cause yields one
    violation.
    """
    explicit = {name: normalize(value) for name, value in values.items()}
    merged = {p.name: p.default for p in parameters if not p.required}
    merged.update(explicit)
    declared = {p.name for p in parameters}
    errors: list[str] = []
    warnings: list[str] = []
    failed: set[str] = set()
    for key in explicit:
        if key not in declared:
            errors.append(f"{key}: {unknown}")
            failed.add(key)
    for parameter in parameters:
        if parameter.name not in merged:
            errors.append(f"{parameter.name}: value is required")
            failed.add(parameter.name)
            continue
        problems = parameter.violations(merged[parameter.name])
        if problems:
            errors.extend(problems)
            failed.add(parameter.name)
    for condition in conditions:
        if any(name in failed for name in condition.requires):
            continue
        if condition.check(merged):
            continue
        line = condition.message(merged)
        if condition.severity == "warning":
            warnings.append(line)
        else:
            errors.append(line)
    report = ValidationReport(
        subject=subject, errors=tuple(errors), warnings=tuple(warnings)
    )
    return merged, report


def _parameter_names() -> str:
    from .scenario import SCENARIO_PARAMETERS

    return ", ".join(p.name for p in SCENARIO_PARAMETERS)


def validate_scenario_values(
    values: Mapping[str, object]
) -> ValidationReport:
    """Validate a plain mapping against the scenario schema."""
    from .scenario import SCENARIO_PARAMETERS

    name = values.get("name")
    _, report = validate_values(
        values,
        SCENARIO_PARAMETERS,
        SCENARIO_CONDITIONS,
        subject=f"scenario {name!r}" if name else "scenario spec",
        unknown="unknown parameter; known parameters: "
        + _parameter_names(),
    )
    return report


def get_parameter(name: str) -> Parameter:
    """The declared scenario :class:`Parameter` called ``name``."""
    from .scenario import SCENARIO_PARAMETERS

    for parameter in SCENARIO_PARAMETERS:
        if parameter.name == name:
            return parameter
    raise ConfigurationError(
        f"unknown scenario parameter {name!r}; known parameters: "
        f"{_parameter_names()}"
    )


def describe_parameters() -> str:
    """Human-readable catalog of the declared schema + conditions."""
    from .scenario import SCENARIO_PARAMETERS

    lines = ["scenario parameters:"]
    for p in SCENARIO_PARAMETERS:
        constraint = []
        if p.choices is not None:
            constraint.append(f"choices={sorted(p.choices)}")
        if p.bounds is not None:
            constraint.append(f"range=[{p.bounds[0]}, {p.bounds[1]}]")
        if p.optional:
            constraint.append("optional")
        if p.default is not MISSING and p.default is not None:
            constraint.append(f"default={p.default!r}")
        suffix = f" ({'; '.join(constraint)})" if constraint else ""
        lines.append(
            f"  {p.name:<16} {_type_name(p.type_hint):<7} "
            f"{p.description}{suffix}"
        )
    lines.append("conditions:")
    for c in SCENARIO_CONDITIONS:
        severity = "" if c.severity == "error" else f" [{c.severity}]"
        lines.append(f"  {c.name:<24} {c.description}{severity}")
    return "\n".join(lines)


# -- room geometry schema (custom rooms from TOML/JSON files) ------------
def _xy_area_in_room(values: Mapping[str, object]) -> bool:
    area = values.get("movement_area")
    x0, y0, x1, y1 = area
    return (
        0 <= x0 < x1 <= values["width_m"]
        and 0 <= y0 < y1 <= values["depth_m"]
    )


def _devices_in_room(values: Mapping[str, object]) -> bool:
    for key in ("tx_position", "rx_position"):
        x, y, z = values[key]
        if not (
            0 <= x <= values["width_m"]
            and 0 <= y <= values["depth_m"]
            and 0 <= z <= values["height_m"]
        ):
            return False
    return True


#: The declared room-geometry schema used by TOML ``[rooms.<name>]``
#: tables.  Deliberately not derived from :class:`~repro.config.RoomConfig`:
#: a file must give the geometry keys RoomConfig has defaults for, and
#: ``scatterers`` defaults to none rather than the paper-lab cabinets.
ROOM_PARAMETERS: tuple[Parameter, ...] = (
    Parameter(
        name="width_m",
        type_hint=float,
        description="Room width in metres",
        bounds=(1.0, 50.0),
    ),
    Parameter(
        name="depth_m",
        type_hint=float,
        description="Room depth in metres",
        bounds=(1.0, 50.0),
    ),
    Parameter(
        name="height_m",
        type_hint=float,
        description="Room height in metres",
        default=3.0,
        bounds=(2.0, 10.0),
    ),
    Parameter(
        name="tx_position",
        type_hint=tuple,
        description="Transmitter (x, y, z) in metres",
        length=(3, 3),
        element_type=float,
    ),
    Parameter(
        name="rx_position",
        type_hint=tuple,
        description="Receiver (x, y, z) in metres",
        length=(3, 3),
        element_type=float,
    ),
    Parameter(
        name="movement_area",
        type_hint=tuple,
        description="Walker area (x0, y0, x1, y1) in metres",
        length=(4, 4),
        element_type=float,
    ),
    Parameter(
        name="scatterers",
        type_hint=tuple,
        description="Static scatterers as (x, y, height, gain) tuples",
        default=(),
        length=(0, 16),
        element_type=tuple,
    ),
    Parameter(
        name="wall_reflectivity",
        type_hint=float,
        description="Wall reflection coefficient",
        default=0.45,
        bounds=(0.0, 1.0),
    ),
    Parameter(
        name="ceiling_reflectivity",
        type_hint=float,
        description="Ceiling reflection coefficient",
        default=0.30,
        bounds=(0.0, 1.0),
    ),
)

#: Cross-parameter conditions of the room schema.
ROOM_CONDITIONS: tuple[Condition, ...] = (
    Condition(
        name="movement-area-in-room",
        description=(
            "movement_area must lie inside the room footprint with "
            "x0 < x1 and y0 < y1"
        ),
        requires=("movement_area", "width_m", "depth_m"),
        check=_xy_area_in_room,
    ),
    Condition(
        name="devices-in-room",
        description="tx_position and rx_position must lie inside the room",
        requires=(
            "tx_position",
            "rx_position",
            "width_m",
            "depth_m",
            "height_m",
        ),
        check=_devices_in_room,
    ),
)


def _validate_room(
    values: Mapping[str, object], name: str
) -> tuple[dict[str, object], ValidationReport]:
    """Aggregate-validate a room table against :data:`ROOM_PARAMETERS`."""
    return validate_values(
        values,
        ROOM_PARAMETERS,
        ROOM_CONDITIONS,
        subject=f"room {name!r}",
        unknown="unknown room parameter",
    )


def build_room(values: Mapping[str, object], name: str):
    """Construct a validated :class:`~repro.config.RoomConfig`.

    Runs the aggregated room schema first — every violation reported
    at once — then materializes the (already consistent) dataclass.
    """
    merged, report = _validate_room(values, name)
    report.raise_for_errors()
    return RoomConfig(**merged)


# -- TOML / JSON scenario files ------------------------------------------
def _parse_scenario_file(path: Path) -> dict:
    """Raw payload of a ``.toml`` or ``.json`` scenario file."""
    if path.suffix == ".toml":
        import tomllib

        return tomllib.loads(path.read_text())
    if path.suffix == ".json":
        return json.loads(path.read_text())
    raise ConfigurationError(
        f"unsupported scenario file {path.name!r}; expected .toml or "
        ".json"
    )


def load_scenario_file(
    path: str | Path, register: bool = True, replace: bool = False
) -> list:
    """Load (and by default register) scenarios from a TOML/JSON file.

    The file declares an optional ``[rooms.<name>]`` table per custom
    room geometry (validated through :data:`ROOM_PARAMETERS` and added
    to ``ROOM_PRESETS``) and a ``[[scenarios]]`` array of scenario
    tables (validated through the scenario schema).  Every table is
    validated *before* anything is registered, so a broken file changes
    nothing; the aggregated error lists each bad table's full violation
    set.  Returns the loaded :class:`Scenario` objects in file order.
    """
    from .scenario import ROOM_PRESETS, Scenario, register_scenario

    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no such scenario file: {path}")
    payload = _parse_scenario_file(path)
    unknown = set(payload) - {"rooms", "scenarios"}
    if unknown:
        raise ConfigurationError(
            f"{path.name}: unknown top-level key(s) "
            f"{sorted(unknown)}; expected 'rooms' and 'scenarios'"
        )
    rooms = payload.get("rooms", {})
    entries = payload.get("scenarios", [])
    if not isinstance(rooms, dict) or not isinstance(entries, list):
        raise ConfigurationError(
            f"{path.name}: 'rooms' must be a table and 'scenarios' an "
            "array of tables"
        )
    errors: list[str] = []
    built_rooms = {}
    for room_name, table in rooms.items():
        merged, report = _validate_room(table, room_name)
        errors.extend(report.errors)
        if report.ok:
            built_rooms[room_name] = RoomConfig(**merged)
    # Custom rooms must be visible to scenario validation below; a
    # failed load puts the registry back exactly as it found it.
    previous_rooms = dict(ROOM_PRESETS)
    ROOM_PRESETS.update(built_rooms)
    for entry in entries:
        report = validate_scenario_values(entry)
        errors.extend(
            f"{report.subject}: {line}" for line in report.errors
        )
    if errors:
        ROOM_PRESETS.clear()
        ROOM_PRESETS.update(previous_rooms)
        raise ConfigurationError(
            f"{path.name} failed validation with {len(errors)} "
            "violation(s): " + "; ".join(errors)
        )
    scenarios = [Scenario(**entry) for entry in entries]
    if register:
        for scenario in scenarios:
            register_scenario(scenario, replace=replace)
    return scenarios


# -- seeded sampling of the scenario space -------------------------------
#: SNR lattice (0.5 dB steps inside the trained range) the sampler
#: draws sweep grids from; a sorted sample of a lattice is strictly
#: ascending and unique by construction.
_SNR_LATTICE = tuple(
    round(SNR_BOUNDS_DB[0] + 0.5 * k, 1)
    for k in range(int((SNR_BOUNDS_DB[1] - SNR_BOUNDS_DB[0]) * 2) + 1)
)

#: Sampling scales: ``full`` roams the whole declared space; ``tiny``
#: clamps to seconds-scale dimensions so fuzz round trips stay cheap.
SAMPLE_SCALES = ("full", "tiny")


def _draw_values(
    rng: random.Random, seed: int, index: int, scale: str
) -> dict[str, object]:
    """One (possibly invalid) uniform draw from the declared ranges."""
    from .scenario import ROOM_PRESETS

    if scale == "tiny":
        base = "tiny"
        num_sets = 3
        packets = rng.randint(6, 10)
    else:
        base = rng.choice(("tiny", "reduced", "paper"))
        num_sets = rng.choice((None, rng.randint(*NUM_SETS_BOUNDS[:1] + (8,))))
        packets = rng.choice((None, rng.randint(8, 60)))
    low = round(rng.uniform(MOBILITY_SPEED_BOUNDS_MPS[0], 2.0), 2)
    high = round(
        rng.uniform(low, min(low + 1.2, MOBILITY_SPEED_BOUNDS_MPS[1])), 2
    )
    grid = tuple(
        sorted(rng.sample(_SNR_LATTICE, k=rng.randint(2, 4)))
    )
    return {
        "name": f"sampled-{seed}-{index:04d}",
        "description": f"seeded sample {index} of scenario space "
        f"(seed {seed})",
        "base": base,
        "room": rng.choice(tuple(ROOM_PRESETS)),
        "trajectory": rng.choice(TRAJECTORY_PRESETS),
        "num_humans": rng.randint(1, 3),
        "speed_range_mps": rng.choice((None, (low, high))),
        "speed_profile": rng.choice(SPEED_PROFILES),
        "snr_db": rng.choice(
            (None, round(rng.uniform(*SNR_BOUNDS_DB), 1))
        ),
        "snr_grid_db": grid,
        "num_sets": num_sets,
        "packets_per_set": packets,
        "seed": rng.randint(0, 99_999),
        "stream_links": rng.randint(1, 6),
        "traffic": rng.choice(
            (
                "periodic",
                "poisson:12",
                "onoff:40:1:4",
                "diurnal:10:60:0.8",
                "mixed",
            )
        ),
        "qos": rng.choice(("uniform", "triple")),
        "tags": ("sampled", scale),
    }


def sample_scenarios(
    seed: int, count: int, scale: str = "full"
) -> list:
    """Draw ``count`` *valid* scenarios from the declared ranges.

    Rejection sampling over :func:`_draw_values`: each candidate is a
    uniform draw from every parameter's declared range/choices; draws
    violating a declared condition (e.g. a grouped trajectory with one
    human) are discarded and redrawn, so every returned scenario
    validates and resolves.  The sequence is a pure function of
    ``(seed, count, scale)`` — :class:`random.Random` is process- and
    platform-stable — which is what makes the fuzz suite and the
    nightly determinism sentinel reproducible.
    """
    from .scenario import Scenario

    if scale not in SAMPLE_SCALES:
        raise ConfigurationError(
            f"unknown sample scale {scale!r}; expected one of "
            f"{SAMPLE_SCALES}"
        )
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    rng = random.Random(int(seed))
    scenarios: list = []
    attempts = 0
    while len(scenarios) < count:
        attempts += 1
        if attempts > 100 * count:
            raise ConfigurationError(
                "sampler failed to draw enough valid scenarios; the "
                "declared ranges are inconsistent with the conditions"
            )
        values = _draw_values(rng, int(seed), len(scenarios), scale)
        if validate_scenario_values(values).ok:
            scenarios.append(Scenario(**values))
    return scenarios
