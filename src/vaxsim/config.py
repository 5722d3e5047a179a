"""Model configuration: schema, YAML parsing and validation.

The loaded config object is the single source of truth for every model
parameter, and it stays live during a run: scenario overlays set the
parameters listed in ``scenario.SETTABLE`` and the simulation reads them back
at sample time.

Each field is declared once, with ``param``: its default, the reader that
turns a YAML value into it, and the check of its range. Nested sections and
lists are declared with ``section`` and ``entries``. Parsing (``_build``),
validation (``_check_fields``) and scenario overlays read these declarations;
the ``_check_*`` functions hold only the rules that span fields. Parsing and
validation collect every problem they find and report them all at once.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from datetime import date, datetime
from functools import cache

from .distributions import (Distribution, constant, from_config, is_number, read_number,
                            to_config)


class ConfigError(ValueError):
    """Carries the full list of validation problems."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# ---------------------------------------------------------------------------
# readers: one YAML value to one typed value, or one of READ_ERRORS with the
# reason. Scenario overlays read their literals with the field's own reader.

READ_ERRORS = (TypeError, ValueError, KeyError, OverflowError)


def read_whole(value) -> int:
    if not is_number(value) or value != int(value):
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(value)


def read_flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def read_capacity(value) -> int | None:
    return None if value is None else read_whole(value)


def read_date(value) -> date:
    if isinstance(value, datetime):
        return value.date()
    if isinstance(value, date):
        return value
    if isinstance(value, str):
        try:
            return date.fromisoformat(value)
        except ValueError:
            pass
    raise ValueError(f"not a date: {value!r}")


def _name(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a name, got {value!r}")
    return value


def _ref(value) -> str | None:
    return None if value is None else _name(value)


def _names(value) -> list[str]:
    if value is None:
        return []
    if not isinstance(value, list):
        raise ValueError(f"expected a list of names, got {value!r}")
    return [_name(v) for v in value]


def _amounts(value) -> dict[str, float]:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError(f"expected a mapping of name to quantity, got {value!r}")
    return {_name(k): read_number(v) for k, v in value.items()}


# ---------------------------------------------------------------------------
# range checks: what is wrong with a field's value, or None

def _at_least(low: int):
    return lambda value: None if value >= low else f"must be >= {low}"


def _positive(value) -> str | None:
    return None if value > 0 else "must be > 0"


def _probability(value) -> str | None:
    return None if 0.0 <= value <= 1.0 else "must be in [0, 1]"


def _capacity(value) -> str | None:
    return None if value is None or value >= 1 else "must be >= 1 or null"


def _quantities(amounts) -> str | None:
    bad = {name: qty for name, qty in amounts.items() if qty <= 0}
    return f"quantities must be > 0, got {bad}" if bad else None


def _fraction(dist) -> str | None:
    low, high = dist.support()
    return None if 0.0 <= low <= high <= 1.0 else "must lie in [0, 1]"


def _duration(dist) -> str | None:
    """A duration is a distribution over non-negative times."""
    return "must be >= 0" if dist.support()[0] < 0 else None


def _busy_duration(dist) -> str | None:
    """A duration that must also take time on average: a stage or supplier
    step that takes none can repeat forever without the clock advancing."""
    problem = _duration(dist)
    if problem is None and dist.support()[1] <= 0:
        return "mean must be > 0"
    return problem


# ---------------------------------------------------------------------------
# declarations

def param(read, default=MISSING, check=None, *, factory=MISSING):
    """A field read from YAML by ``read`` and range-checked by ``check``; a
    field without a default or factory is required."""
    return field(default=default, default_factory=factory,
                 metadata={"read": read, "check": check})


def section(cls):
    """A nested mapping read into ``cls``; absent or empty means all defaults."""
    return field(default_factory=cls, metadata={"section": cls})


def entries(cls):
    """A YAML list read into one ``cls`` per entry. When ``cls`` has an
    ``id``, entries are addressed by it and no id may repeat."""
    return field(default_factory=list, metadata={"entries": cls})


@dataclass
class ModelSection:
    start_date: date = param(read_date, date(2025, 4, 1))
    end_date: date = param(read_date, date(2028, 3, 31))


@dataclass
class InventoryConfig:
    id: str = param(_name)
    capacity: int | None = param(read_capacity, None, _capacity)  # None = unbounded


@dataclass
class StageConfig:
    id: str = param(_name)
    machines: int = param(read_whole, 1, _at_least(1))
    processing_time: Distribution = param(from_config, constant(0.0), _busy_duration)
    # the next stage's input (None = direct handoff), or the last stage's final inventory
    output_inventory: str | None = param(_ref, None)
    yield_fraction: Distribution = param(from_config, constant(1.0), _fraction)
    doses_per_batch: int = param(read_whole, 0)  # final stage only
    materials: dict[str, float] = param(_amounts, factory=dict, check=_quantities)  # per batch
    ipc_tests: list[str] = param(_names, factory=list)
    qc_tests: list[str] = param(_names, factory=list)
    document_review: bool = param(read_flag, False)  # spawn a QA document review per batch
    closed: bool = param(read_flag, False)  # True suspends the stage (overlays only)


@dataclass
class TeamConfig:
    id: str = param(_name)
    technicians: int = param(read_whole, 0, _at_least(0))
    supervisors: int = param(read_whole, 0, _at_least(0))


@dataclass
class TestConfig:
    id: str = param(_name)
    team: str | None = param(_ref, None)
    prep_time: Distribution = param(from_config, constant(0.0), _duration)
    test_time: Distribution = param(from_config, constant(0.0), _duration)
    check_time: Distribution = param(from_config, constant(0.0), _duration)
    supervisory_check_time: Distribution = param(from_config, constant(0.0), _duration)
    failure_prob: float = param(read_number, 0.0, _probability)
    prerequisites: list[str] = param(_names, factory=list)

    def bench_time(self, g) -> float:
        """Prep, test and check time, drawn from the stream ``g`` in that order."""
        return self.prep_time.sample(g) + self.test_time.sample(g) + self.check_time.sample(g)


@dataclass
class QcSection:
    teams: list[TeamConfig] = entries(TeamConfig)
    tests: list[TestConfig] = entries(TestConfig)


@dataclass
class QaSection:
    reviewers: int = param(read_whole, 0, _at_least(0))
    supervisors: int = param(read_whole, 0, _at_least(0))
    investigators: int = param(read_whole, 0, _at_least(0))
    release_review_time: Distribution = param(from_config, constant(0.0), _duration)
    release_approval_time: Distribution = param(from_config, constant(0.0), _duration)
    document_review_time: Distribution = param(from_config, constant(0.0), _duration)
    oos_investigation_time: Distribution = param(from_config, constant(0.0), _duration)
    deviation_investigation_time: Distribution = param(from_config, constant(0.0), _duration)
    deviation_prob: float = param(read_number, 0.0, _probability)


@dataclass
class SupplierConfig:
    id: str = param(_name)
    split: float = param(read_number, 1.0, _at_least(0))
    lead_time: Distribution = param(from_config, constant(0.0), _busy_duration)
    transport_time: Distribution = param(from_config, constant(0.0), _duration)
    min_interarrival: float = param(read_number, 0.0, _at_least(0))


@dataclass
class MaterialConfig:
    id: str = param(_name)
    initial_stockpile: float = param(read_number, 0.0, _at_least(0))
    reorder_point: float = param(read_number, 0.0, _at_least(0))
    safety_stock: float = param(read_number, 0.0, _at_least(0))
    lot_size: float = param(read_number, 1.0, _positive)
    receipt_qc_time: Distribution = param(from_config, constant(0.0), _duration)
    receipt_rejection_prob: float = param(read_number, 0.0, _probability)
    available: bool = param(read_flag, True)  # False parks all receipts
    suppliers: list[SupplierConfig] = entries(SupplierConfig)


@dataclass
class MaintenanceWindow:
    start: date = param(read_date)
    end: date = param(read_date)  # inclusive calendar date


@dataclass
class Config:
    model: ModelSection = section(ModelSection)
    stages: list[StageConfig] = entries(StageConfig)
    inventories: list[InventoryConfig] = entries(InventoryConfig)
    qc: QcSection = section(QcSection)
    qa: QaSection = section(QaSection)
    materials: list[MaterialConfig] = entries(MaterialConfig)
    maintenance: list[MaintenanceWindow] = entries(MaintenanceWindow)


# ---------------------------------------------------------------------------
# parsing

def _build(cls, node, path: str, errors: list[str]):
    """A ``cls`` from the YAML mapping ``node`` found at dot-path ``path``
    ("" for the root).

    Each key is read as its field declares; absent keys keep the default.
    Unknown keys and unreadable values are reported, and None comes back when
    a required field is missing or unreadable.
    """
    where = path or "config"
    if not isinstance(node, dict):
        errors.append(f"{where}: must be a mapping")
        return None
    declared = cls.__dataclass_fields__
    kwargs = {}
    for key, value in node.items():
        f = declared.get(key)
        if f is None:
            errors.append(f"{where}: unknown key {key!r}")
            continue
        sub = f"{path}.{key}" if path else key
        meta = f.metadata
        if "section" in meta:  # an empty section (null) keeps every default
            kwargs[key] = (_build(meta["section"], {} if value is None else value,
                                  sub, errors) or meta["section"]())
        elif "entries" in meta:
            kwargs[key] = _entries(meta["entries"], value, sub, errors)
        else:
            try:
                kwargs[key] = meta["read"](value)
            except READ_ERRORS as exc:
                errors.append(f"{sub}: {exc}")
    missing = [f.name for f in fields(cls) if f.name not in kwargs
               and f.default is MISSING and f.default_factory is MISSING]
    errors.extend(f"{where}: missing {key}" for key in missing if key not in node)
    return None if missing else cls(**kwargs)


def _entries(cls, nodes, path: str, errors: list[str]) -> list:
    """One ``cls`` per entry of the YAML list ``nodes`` (see ``_build``)."""
    if nodes is None:
        return []
    if not isinstance(nodes, list):
        errors.append(f"{path}: must be a list")
        return []
    items = []
    for i, node in enumerate(nodes):
        ident = node.get("id") if isinstance(node, dict) else None
        where = f"{path}.{ident}" if isinstance(ident, str) else f"{path}[{i}]"
        item = _build(cls, node, where, errors)
        if item is not None:
            items.append(item)
    return items


def parse_config(raw: dict) -> Config:
    """Build a Config from plain YAML data, then validate it fully."""
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a mapping"])
    errors: list[str] = []
    cfg = _build(Config, raw, "", errors)
    errors.extend(f"stages.{stage.id}.closed: a stage is closed only by a scenario overlay"
                  for stage in cfg.stages if stage.closed)
    errors.extend(validate(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg


# ---------------------------------------------------------------------------
# validation

def validate(cfg: Config) -> list[str]:
    """Full structural validation; returns every problem found."""
    errors: list[str] = []
    _check_fields(cfg, "", errors)
    _check_model(cfg, errors)
    _check_topology(cfg, errors)
    _check_qc(cfg, errors)
    _check_materials(cfg, errors)
    _check_maintenance(cfg, errors)
    return errors


def _check_fields(obj, path: str, errors: list[str]) -> None:
    """Every declared range check under ``obj``, found at dot-path ``path``,
    and no repeated id in any list of entries with ids."""
    checks, nested = _schema(type(obj))
    for name, check in checks:
        problem = check(getattr(obj, name))
        if problem:
            errors.append(f"{path}.{name}: {problem}")
    for name, meta in nested:
        value = getattr(obj, name)
        sub = f"{path}.{name}" if path else name
        if "section" in meta:
            _check_fields(value, sub, errors)
        elif "id" in meta["entries"].__dataclass_fields__:
            errors.extend(f"{sub}: duplicate id {dup!r}" for dup in sorted(_dup_ids(value)))
            for item in value:
                _check_fields(item, f"{sub}.{item.id}", errors)
        else:
            for i, item in enumerate(value):
                _check_fields(item, f"{sub}[{i}]", errors)


@cache
def _schema(cls):
    """(name, check) of each range-checked field of ``cls``, and (name,
    metadata) of each of its sections and lists of entries."""
    checks = [(f.name, f.metadata["check"]) for f in fields(cls)
              if f.metadata.get("check") is not None]
    nested = [(f.name, f.metadata) for f in fields(cls) if "read" not in f.metadata]
    return checks, nested


def _dup_ids(items) -> set[str]:
    seen, dups = set(), set()
    for item in items:
        if item.id in seen:
            dups.add(item.id)
        seen.add(item.id)
    return dups


def _check_model(cfg, errors):
    if cfg.model.end_date <= cfg.model.start_date:
        errors.append("model: end_date must be after start_date")


def _check_topology(cfg, errors):
    if not cfg.stages:
        errors.append("stages: at least one stage required")
        return
    producers: dict[str, list[str]] = {inv.id: [] for inv in cfg.inventories}
    last = cfg.stages[-1]
    if last.output_inventory is None:
        errors.append(f"stages.{last.id}: final stage must output to a declared inventory")
    for stage in cfg.stages:
        name = stage.output_inventory
        if name in producers:
            producers[name].append(stage.id)
        elif name is not None:
            errors.append(f"stages.{stage.id}: unknown inventory {name!r}")
        if stage is not last and stage.doses_per_batch:
            errors.append(f"stages.{stage.id}: doses_per_batch is final-stage only")
    # below 2**53, a double holds every whole number of doses
    if not 0 < last.doses_per_batch < 2**53:
        errors.append(f"stages.{last.id}: final stage needs doses_per_batch > 0 and < 2**53")
    # each inventory sits after exactly one stage, whose successor draws from it
    for inv_id, stages in producers.items():
        if not stages:
            errors.append(f"inventories.{inv_id}: not referenced by any stage")
        elif len(stages) > 1:
            errors.append(f"inventories.{inv_id}: output of more than one stage {stages}")


def _check_qc(cfg, errors):
    """A test's role is the stage list that names it: ``ipc_tests`` or ``qc_tests``."""
    team_ids = {t.id for t in cfg.qc.teams}
    tests = {t.id: t for t in cfg.qc.tests}
    in_process = {tid for stage in cfg.stages for tid in stage.ipc_tests}
    sampled = {tid for stage in cfg.stages for tid in stage.qc_tests}
    for test in cfg.qc.tests:
        if test.id in in_process:
            if test.team is not None:
                errors.append(f"qc.tests.{test.id}: in-process tests take no team")
            if test.prerequisites:
                errors.append(f"qc.tests.{test.id}: in-process tests take no prerequisites")
            if not test.supervisory_check_time.is_zero():
                errors.append(f"qc.tests.{test.id}: in-process tests have no supervisory check")
        elif test.id not in sampled:
            errors.append(f"qc.tests.{test.id}: not listed by any stage")
        elif test.team not in team_ids:
            errors.append(f"qc.tests.{test.id}: unknown team {test.team!r}")
        for pre in test.prerequisites:
            if pre not in tests:
                errors.append(f"qc.tests.{test.id}: unknown prerequisite {pre!r}")
    _check_prereq_cycles(cfg, errors)
    sampled_at: dict[str, str] = {}  # sample test -> the stage that samples it
    for stage in cfg.stages:
        for i, tid in enumerate(stage.ipc_tests):
            if tid not in tests:
                errors.append(f"stages.{stage.id}: unknown test {tid!r}")
            # a control's draws are keyed by test, stage, batch and attempt
            elif tid in stage.ipc_tests[:i]:
                errors.append(f"stages.{stage.id}: in-process test {tid!r} is listed twice")
        listed = set(stage.qc_tests)
        for tid in stage.qc_tests:
            if tid not in tests:
                errors.append(f"stages.{stage.id}: unknown test {tid!r}")
                continue
            # a sample test's draws are keyed by test, batch and attempt only
            if tid in sampled_at:
                errors.append(f"stages.{stage.id}: {tid!r} is already sampled at stage "
                              f"{sampled_at[tid]!r}; a test is sampled once, at one stage")
            sampled_at.setdefault(tid, stage.id)
            if tid in in_process:
                errors.append(f"stages.{stage.id}: {tid!r} is in-process, not a sample test")
            missing = [p for p in tests[tid].prerequisites if p not in listed]
            if missing:
                errors.append(f"stages.{stage.id}: {tid!r} needs prerequisites "
                              f"{missing} on the same sample")


def _check_prereq_cycles(cfg, errors):
    """Depth first from each test in turn, on a stack of its own: a chain of
    any length is walked, and each edge back into the path is a cycle."""
    graph = {t.id: t.prerequisites for t in cfg.qc.tests}
    state: dict[str, int] = {}  # 0 on the path, 1 done
    for root in graph:
        if root in state:
            continue
        state[root] = 0
        path = [(root, iter(graph[root]))]
        while path:
            node, pres = path[-1]
            for pre in pres:
                if pre not in graph or state.get(pre) == 1:
                    continue
                if state.get(pre) == 0:
                    errors.append(f"qc.tests: prerequisite cycle through {pre!r}")
                    continue
                state[pre] = 0
                path.append((pre, iter(graph[pre])))
                break
            else:
                state[node] = 1
                path.pop()


def _check_materials(cfg, errors):
    material_ids = {m.id for m in cfg.materials}
    for stage in cfg.stages:
        for mid in stage.materials:
            if mid not in material_ids:
                errors.append(f"stages.{stage.id}: unknown material {mid!r}")
    for mat in cfg.materials:
        level = mat.reorder_point + mat.safety_stock
        # a review orders int((level - position) // lot_size) + 1 lots, split exactly below 2**51
        if mat.lot_size > 0 and not (math.isfinite(level + mat.lot_size)
                                     and level / mat.lot_size < 2**51):
            errors.append(f"materials.{mat.id}: reorder_point + safety_stock + lot_size must be "
                          "finite, and (reorder_point + safety_stock) / lot_size must be finite "
                          "and below 2**51")
        if not mat.suppliers:
            errors.append(f"materials.{mat.id}: at least one supplier required")
            continue
        total = sum(s.split for s in mat.suppliers)
        if abs(total - 1.0) > 1e-6:
            errors.append(f"materials.{mat.id}: supplier splits sum to {total:g}, expected 1")


def _check_maintenance(cfg, errors):
    for w in cfg.maintenance:
        if w.end < w.start:
            errors.append(f"maintenance: window {w.start}..{w.end} ends before it starts")
        if w.end < cfg.model.start_date:
            errors.append(f"maintenance: window {w.start}..{w.end} lies before the "
                          "simulation start")
        if w.start >= cfg.model.end_date:  # end_date is the first day not simulated
            errors.append(f"maintenance: window {w.start}..{w.end} starts on or after "
                          "the simulation end")


# ---------------------------------------------------------------------------
# canonical form: hashing, deep comparison, reporting

def config_to_dict(obj):
    """Plain-data mirror of the config tree, stable under round-trips."""
    if is_dataclass(obj) and isinstance(obj, Distribution):
        return to_config(obj)
    if is_dataclass(obj):
        return {f.name: config_to_dict(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: config_to_dict(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [config_to_dict(v) for v in obj]
    if isinstance(obj, date):
        return obj.isoformat()
    return obj


def config_hash(cfg: Config) -> str:
    blob = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
