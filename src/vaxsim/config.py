"""Model configuration: schema, YAML parsing and validation.

The loaded config object is the single source of truth for every model
parameter, and it stays live during a run: scenario overlays set the
parameters listed in ``scenario.SETTABLE`` and the simulation reads them back
at sample time. Parsing and validation collect every problem they find and
report them all at once.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, is_dataclass
from datetime import date, datetime

from .distributions import (Distribution, constant, from_config, is_number, read_number,
                            to_config)
from .engine import DEFAULT_END_DATE, DEFAULT_START_DATE


class ConfigError(ValueError):
    """Carries the full list of validation problems."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _zero() -> Distribution:
    return constant(0.0)


@dataclass
class ModelSection:
    start_date: date = DEFAULT_START_DATE
    end_date: date = DEFAULT_END_DATE


@dataclass
class InventoryConfig:
    id: str
    capacity: int | None = None  # None = unbounded
    final: bool = False


@dataclass
class StageConfig:
    id: str
    machines: int = 1
    processing_time: Distribution = field(default_factory=_zero)
    input_inventory: str | None = None   # None = unbounded batch source (first stage)
    output_inventory: str | None = None  # None = direct handoff to the next stage
    yield_fraction: Distribution = field(default_factory=lambda: constant(1.0))
    doses_per_batch: int = 0             # final stage only
    materials: dict[str, float] = field(default_factory=dict)  # material -> per batch
    ipc_tests: list[str] = field(default_factory=list)
    qc_tests: list[str] = field(default_factory=list)
    document_review: bool = False        # spawn a QA document review per batch
    closed: bool = False                 # True suspends the stage (overlays only)


@dataclass
class TeamConfig:
    id: str
    technicians: int = 0
    supervisors: int = 0


@dataclass
class TestConfig:
    id: str
    team: str | None = None
    prep_time: Distribution = field(default_factory=_zero)
    test_time: Distribution = field(default_factory=_zero)
    check_time: Distribution = field(default_factory=_zero)
    supervisory_check_time: Distribution = field(default_factory=_zero)
    failure_prob: float = 0.0
    prerequisites: list[str] = field(default_factory=list)
    ipc: bool = False


@dataclass
class QcSection:
    teams: list[TeamConfig] = field(default_factory=list)
    tests: list[TestConfig] = field(default_factory=list)


QA_DURATIONS = ("release_review_time", "release_approval_time", "document_review_time",
                "oos_investigation_time", "deviation_investigation_time")


@dataclass
class QaSection:
    reviewers: int = 0
    supervisors: int = 0
    investigators: int = 0
    release_review_time: Distribution = field(default_factory=_zero)
    release_approval_time: Distribution = field(default_factory=_zero)
    document_review_time: Distribution = field(default_factory=_zero)
    oos_investigation_time: Distribution = field(default_factory=_zero)
    deviation_investigation_time: Distribution = field(default_factory=_zero)
    deviation_prob: float = 0.0


@dataclass
class SupplierConfig:
    id: str
    split: float = 1.0
    lead_time: Distribution = field(default_factory=_zero)
    transport_time: Distribution = field(default_factory=_zero)
    min_interarrival: float = 0.0


@dataclass
class MaterialConfig:
    id: str
    initial_stockpile: float = 0.0
    reorder_point: float = 0.0
    safety_stock: float = 0.0
    lot_size: float = 1.0
    receipt_qc_time: Distribution = field(default_factory=_zero)
    receipt_rejection_prob: float = 0.0
    available: bool = True               # False parks all receipts
    suppliers: list[SupplierConfig] = field(default_factory=list)


@dataclass
class MaintenanceWindow:
    start: date
    end: date  # inclusive calendar date


@dataclass
class Config:
    model: ModelSection
    stages: list[StageConfig]
    inventories: list[InventoryConfig]
    qc: QcSection
    qa: QaSection
    materials: list[MaterialConfig]
    maintenance: list[MaintenanceWindow] = field(default_factory=list)

    def stage(self, stage_id: str) -> StageConfig:
        return _by_id(self.stages, stage_id)

    def test(self, test_id: str) -> TestConfig:
        return _by_id(self.qc.tests, test_id)

    def material(self, material_id: str) -> MaterialConfig:
        return _by_id(self.materials, material_id)

    @property
    def final_inventory(self) -> InventoryConfig:
        return next(inv for inv in self.inventories if inv.final)


def _by_id(items, item_id):
    for item in items:
        if item.id == item_id:
            return item
    raise KeyError(item_id)


# ---------------------------------------------------------------------------
# readers: one YAML value to one typed value, or one of READ_ERRORS with the
# reason. Scenario overlays read their values with the same functions.

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


def _open(value) -> bool:
    if read_flag(value):
        raise ValueError("a stage is closed only by a scenario overlay")
    return False


def _as_is(value):
    return value


# ---------------------------------------------------------------------------
# parsing

SECTIONS = ("model", "inventories", "stages", "qc", "qa", "materials", "maintenance")


def _build(cls, node, where: str, errors: list[str], required=("id",), **readers):
    """A ``cls`` from the YAML mapping ``node``.

    Each key is read with its reader in ``readers``; absent keys keep the
    dataclass default. Unknown keys and unreadable values are reported, and
    None comes back when a required key is missing or unreadable.
    """
    if not isinstance(node, dict):
        errors.append(f"{where}: must be a mapping")
        return None
    kwargs = {}
    for key, value in node.items():
        reader = readers.get(key)
        if reader is None:
            errors.append(f"{where}: unknown key {key!r}")
            continue
        try:
            kwargs[key] = reader(value)
        except READ_ERRORS as exc:
            errors.append(f"{where}.{key}: {exc}")
    missing = [key for key in required if key not in kwargs]
    errors.extend(f"{where}: missing {key}" for key in missing if key not in node)
    return None if missing else cls(**kwargs)


def _entries(nodes, section: str, errors: list[str], cls, required=("id",), **readers):
    """One ``cls`` per entry of the YAML list ``nodes`` (see ``_build``)."""
    if nodes is None:
        return []
    if not isinstance(nodes, list):
        errors.append(f"{section}: must be a list")
        return []
    items = []
    for i, node in enumerate(nodes):
        ident = node.get("id") if isinstance(node, dict) else None
        where = f"{section}.{ident}" if isinstance(ident, str) else f"{section}[{i}]"
        item = _build(cls, node, where, errors, required, **readers)
        if item is not None:
            items.append(item)
    return items


def parse_config(raw: dict) -> Config:
    """Build a Config from plain YAML data, then validate it fully."""
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a mapping"])
    errors = [f"config: unknown key {key!r}" for key in raw if key not in SECTIONS]

    model = _build(ModelSection, raw.get("model") or {}, "model", errors, (),
                   start_date=read_date, end_date=read_date) or ModelSection()
    inventories = _entries(raw.get("inventories"), "inventories", errors, InventoryConfig,
                           id=_name, capacity=read_capacity, final=read_flag)
    stages = _entries(raw.get("stages"), "stages", errors, StageConfig,
                      id=_name, machines=read_whole, processing_time=from_config,
                      input_inventory=_ref, output_inventory=_ref,
                      yield_fraction=from_config, doses_per_batch=read_whole,
                      materials=_amounts, ipc_tests=_names, qc_tests=_names,
                      document_review=read_flag, closed=_open)
    qc = _build(QcSection, raw.get("qc") or {}, "qc", errors, (),
                teams=lambda nodes: _entries(
                    nodes, "qc.teams", errors, TeamConfig,
                    id=_name, technicians=read_whole, supervisors=read_whole),
                tests=lambda nodes: _entries(
                    nodes, "qc.tests", errors, TestConfig,
                    id=_name, team=_ref, prep_time=from_config, test_time=from_config,
                    check_time=from_config, supervisory_check_time=from_config,
                    failure_prob=read_number, prerequisites=_names, ipc=read_flag),
                ) or QcSection()
    qa = _build(QaSection, raw.get("qa") or {}, "qa", errors, (),
                reviewers=read_whole, supervisors=read_whole, investigators=read_whole,
                deviation_prob=read_number,
                **{name: from_config for name in QA_DURATIONS}) or QaSection()
    materials = _entries(raw.get("materials"), "materials", errors, MaterialConfig,
                         id=_name, initial_stockpile=read_number,
                         reorder_point=read_number, safety_stock=read_number,
                         lot_size=read_number, receipt_qc_time=from_config,
                         receipt_rejection_prob=read_number, available=read_flag,
                         suppliers=_as_is)
    for mat in materials:
        mat.suppliers = _entries(mat.suppliers, f"materials.{mat.id}.suppliers", errors,
                                 SupplierConfig, id=_name, split=read_number,
                                 lead_time=from_config, transport_time=from_config,
                                 min_interarrival=read_number)
    maintenance = _merge_windows(_entries(
        raw.get("maintenance"), "maintenance", errors, MaintenanceWindow,
        ("start", "end"), start=read_date, end=read_date))

    cfg = Config(model=model, stages=stages, inventories=inventories, qc=qc, qa=qa,
                 materials=materials, maintenance=maintenance)
    errors.extend(validate(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg


def _merge_windows(windows: list[MaintenanceWindow]) -> list[MaintenanceWindow]:
    """Overlapping or adjacent windows merged into a disjoint sorted calendar."""
    windows.sort(key=lambda w: w.start)
    merged: list[MaintenanceWindow] = []
    for w in windows:
        if merged and w.start <= merged[-1].end:
            if w.end > merged[-1].end:
                merged[-1].end = w.end
        else:
            merged.append(w)
    return merged


# ---------------------------------------------------------------------------
# validation

def validate(cfg: Config) -> list[str]:
    """Full structural validation; returns every problem found."""
    errors: list[str] = []
    _check_model(cfg, errors)
    _check_topology(cfg, errors)
    _check_qc(cfg, errors)
    _check_qa(cfg, errors)
    _check_materials(cfg, errors)
    _check_maintenance(cfg, errors)
    return errors


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


def _check_duration(dist, where, errors, *, positive=False):
    """A duration is a distribution over non-negative times, not a bernoulli
    flag. ``positive`` ones must also take time on average: a stage or
    supplier step that takes none can repeat forever without the clock
    advancing."""
    if dist.kind == "bernoulli":
        errors.append(f"{where}: a bernoulli draw is not a duration")
    elif dist.support()[0] < 0:
        errors.append(f"{where}: must be >= 0")
    elif positive and dist.support()[1] <= 0:
        errors.append(f"{where}: mean must be > 0")


def _check_topology(cfg, errors):
    for dup in sorted(_dup_ids(cfg.inventories)):
        errors.append(f"inventories: duplicate id {dup!r}")
    for dup in sorted(_dup_ids(cfg.stages)):
        errors.append(f"stages: duplicate id {dup!r}")
    if not cfg.stages:
        errors.append("stages: at least one stage required")
        return
    inv_ids = {inv.id for inv in cfg.inventories}
    finals = [inv.id for inv in cfg.inventories if inv.final]
    if len(finals) != 1:
        errors.append(f"inventories: exactly one final inventory required, found {len(finals)}")

    first = cfg.stages[0]
    if first.input_inventory is not None:
        errors.append(f"stages.{first.id}: first stage must have no input inventory "
                      "(it draws from the unbounded batch source)")
    for prev, nxt in zip(cfg.stages, cfg.stages[1:]):
        if nxt.input_inventory != prev.output_inventory:
            errors.append(
                f"stages.{nxt.id}: input_inventory {nxt.input_inventory!r} does not "
                f"match upstream output_inventory {prev.output_inventory!r}")
    last = cfg.stages[-1]
    if last.output_inventory is None or last.output_inventory not in inv_ids:
        errors.append(f"stages.{last.id}: final stage must output to a declared inventory")
    elif finals and last.output_inventory != finals[0]:
        errors.append(f"stages.{last.id}: final stage must output to the final inventory")
    for stage in cfg.stages:
        for name in (stage.input_inventory, stage.output_inventory):
            if name is not None and name not in inv_ids:
                errors.append(f"stages.{stage.id}: unknown inventory {name!r}")
        if stage.machines < 1:
            errors.append(f"stages.{stage.id}: machines must be >= 1")
        _check_duration(stage.processing_time, f"stages.{stage.id}.processing_time",
                        errors, positive=True)
        low, high = stage.yield_fraction.support()
        if not 0.0 <= low <= high <= 1.0:
            errors.append(f"stages.{stage.id}.yield_fraction: must lie in [0, 1]")
        if stage is not last and stage.doses_per_batch:
            errors.append(f"stages.{stage.id}: doses_per_batch is final-stage only")
    if last.doses_per_batch <= 0:
        errors.append(f"stages.{last.id}: final stage needs doses_per_batch > 0")
    # a non-final inventory must sit between two stages; capacity sanity
    used = set()
    for stage in cfg.stages:
        used.update(n for n in (stage.input_inventory, stage.output_inventory) if n)
    for inv in cfg.inventories:
        if inv.id not in used:
            errors.append(f"inventories.{inv.id}: not referenced by any stage")
        if inv.capacity is not None and inv.capacity < 1:
            errors.append(f"inventories.{inv.id}: capacity must be >= 1 or null")


def _check_qc(cfg, errors):
    for dup in sorted(_dup_ids(cfg.qc.teams)):
        errors.append(f"qc.teams: duplicate id {dup!r}")
    for dup in sorted(_dup_ids(cfg.qc.tests)):
        errors.append(f"qc.tests: duplicate id {dup!r}")
    team_ids = {t.id for t in cfg.qc.teams}
    test_ids = {t.id for t in cfg.qc.tests}
    for team in cfg.qc.teams:
        if team.technicians < 0 or team.supervisors < 0:
            errors.append(f"qc.teams.{team.id}: head-counts must be >= 0")
    for test in cfg.qc.tests:
        if test.ipc:
            if test.team is not None:
                errors.append(f"qc.tests.{test.id}: in-process tests take no team")
        elif test.team not in team_ids:
            errors.append(f"qc.tests.{test.id}: unknown team {test.team!r}")
        if not 0.0 <= test.failure_prob <= 1.0:
            errors.append(f"qc.tests.{test.id}: failure_prob must be in [0, 1]")
        for name in ("prep_time", "test_time", "check_time", "supervisory_check_time"):
            _check_duration(getattr(test, name), f"qc.tests.{test.id}.{name}", errors)
        for pre in test.prerequisites:
            if pre not in test_ids:
                errors.append(f"qc.tests.{test.id}: unknown prerequisite {pre!r}")
    _check_prereq_cycles(cfg, errors)
    for stage in cfg.stages:
        for tid in stage.ipc_tests:
            if tid not in test_ids:
                errors.append(f"stages.{stage.id}: unknown test {tid!r}")
            elif not cfg.test(tid).ipc:
                errors.append(f"stages.{stage.id}: {tid!r} is not an in-process test")
        listed = set(stage.qc_tests)
        for tid in stage.qc_tests:
            if tid not in test_ids:
                errors.append(f"stages.{stage.id}: unknown test {tid!r}")
                continue
            test = cfg.test(tid)
            if test.ipc:
                errors.append(f"stages.{stage.id}: {tid!r} is in-process, not a sample test")
            missing = [p for p in test.prerequisites if p not in listed]
            if missing:
                errors.append(f"stages.{stage.id}: {tid!r} needs prerequisites "
                              f"{missing} on the same sample")


def _check_prereq_cycles(cfg, errors):
    graph = {t.id: [p for p in t.prerequisites] for t in cfg.qc.tests}
    state: dict[str, int] = {}  # 0 visiting, 1 done

    def visit(node, trail):
        if state.get(node) == 1:
            return
        if state.get(node) == 0:
            errors.append(f"qc.tests: prerequisite cycle through {node!r}")
            return
        state[node] = 0
        for pre in graph.get(node, []):
            if pre in graph:
                visit(pre, trail)
        state[node] = 1

    for node in graph:
        visit(node, [])


def _check_qa(cfg, errors):
    qa = cfg.qa
    for name in ("reviewers", "supervisors", "investigators"):
        if getattr(qa, name) < 0:
            errors.append(f"qa.{name}: must be >= 0")
    if not 0.0 <= qa.deviation_prob <= 1.0:
        errors.append("qa.deviation_prob: must be in [0, 1]")
    for name in QA_DURATIONS:
        _check_duration(getattr(qa, name), f"qa.{name}", errors)


def _check_materials(cfg, errors):
    for dup in sorted(_dup_ids(cfg.materials)):
        errors.append(f"materials: duplicate id {dup!r}")
    material_ids = {m.id for m in cfg.materials}
    for stage in cfg.stages:
        for mid, qty in stage.materials.items():
            if mid not in material_ids:
                errors.append(f"stages.{stage.id}: unknown material {mid!r}")
            if qty <= 0:
                errors.append(f"stages.{stage.id}: material quantity for {mid!r} must be > 0")
    for mat in cfg.materials:
        where = f"materials.{mat.id}"
        if mat.lot_size <= 0:
            errors.append(f"{where}: lot_size must be > 0")
        for name in ("initial_stockpile", "reorder_point", "safety_stock"):
            if getattr(mat, name) < 0:
                errors.append(f"{where}: {name} must be >= 0")
        if not 0.0 <= mat.receipt_rejection_prob <= 1.0:
            errors.append(f"{where}: receipt_rejection_prob must be in [0, 1]")
        _check_duration(mat.receipt_qc_time, f"{where}.receipt_qc_time", errors)
        if not mat.suppliers:
            errors.append(f"{where}: at least one supplier required")
            continue
        dups = _dup_ids(mat.suppliers)
        for dup in sorted(dups):
            errors.append(f"{where}.suppliers: duplicate id {dup!r}")
        total = sum(s.split for s in mat.suppliers)
        if abs(total - 1.0) > 1e-6:
            errors.append(f"{where}: supplier splits sum to {total:g}, expected 1")
        for sup in mat.suppliers:
            if sup.split < 0:
                errors.append(f"{where}.suppliers.{sup.id}: split must be >= 0")
            if sup.min_interarrival < 0:
                errors.append(f"{where}.suppliers.{sup.id}: min_interarrival must be >= 0")
            _check_duration(sup.lead_time, f"{where}.suppliers.{sup.id}.lead_time",
                            errors, positive=True)
            _check_duration(sup.transport_time,
                            f"{where}.suppliers.{sup.id}.transport_time", errors)


def _check_maintenance(cfg, errors):
    for w in cfg.maintenance:
        if w.end < w.start:
            errors.append(f"maintenance: window {w.start}..{w.end} ends before it starts")
        if w.end < cfg.model.start_date:
            errors.append(f"maintenance: window {w.start}..{w.end} lies before the "
                          "simulation start")
        if w.start > cfg.model.end_date:
            errors.append(f"maintenance: window {w.start}..{w.end} lies after the "
                          "simulation end")


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


