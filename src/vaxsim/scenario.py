"""Time-windowed runtime overrides of model parameters (what-if scenarios).

An overlay sets parameters listed in ``SETTABLE`` inside calendar windows:
stage closures, processing times, pool head-counts, material availability,
lead times and the like, plus the instant ``reset_wip`` action (loss of all
work in progress). A target is a dot-path with ``*`` over list ids
(``qc.teams.*.technicians``); a path outside the table is rejected. A literal
value is read by its config field's own reader, and every value is
range-checked by the same ``config.validate`` the base config passes.
Overlapping windows on one parameter compose last-writer-wins, and the
baseline value is restored when the outermost window closes (and, for windows
still open, when the run ends). An overlay with no modifications is
observationally identical to the base case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from typing import Callable

from .config import READ_ERRORS, Config, ConfigError, read_date, read_flag, validate
from .distributions import Distribution, read_number


def _resize(pool, model, count: int) -> None:
    pool.set_capacity(count, model.engine.clock.now)


# Each settable parameter maps to None, or to ``apply(model, owner, value)``
# for a parameter that lives in runtime state as well as in the config: the
# hook runs after each write.
SETTABLE: dict[str, Callable | None] = {
    "stages.*.closed": lambda m, stage, _: m.production.closure_changed(stage),
    "stages.*.processing_time": None,
    "stages.*.yield_fraction": None,
    "stages.*.document_review": None,
    "stages.*.doses_per_batch": None,
    "inventories.*.capacity": None,
    "qc.teams.*.technicians": lambda m, team, n: _resize(m.qc.tech_pools[team.id], m, n),
    "qc.teams.*.supervisors": lambda m, team, n: _resize(m.qc.sup_pools[team.id], m, n),
    "qc.tests.*.prep_time": None,
    "qc.tests.*.test_time": None,
    "qc.tests.*.check_time": None,
    "qc.tests.*.supervisory_check_time": None,
    "qc.tests.*.failure_prob": None,
    "qa.reviewers": lambda m, qa, n: _resize(m.qc.reviewers, m, n),
    "qa.supervisors": lambda m, qa, n: _resize(m.qc.qa_sups, m, n),
    "qa.investigators": lambda m, qa, n: _resize(m.qc.investigators, m, n),
    "qa.release_review_time": None,
    "qa.release_approval_time": None,
    "qa.document_review_time": None,
    "qa.oos_investigation_time": None,
    "qa.deviation_investigation_time": None,
    "qa.deviation_prob": None,
    "materials.*.available": lambda m, mat, _: m.materials.availability_changed(mat),
    "materials.*.reorder_point": None,
    "materials.*.safety_stock": None,
    "materials.*.lot_size": None,
    "materials.*.receipt_qc_time": None,
    "materials.*.receipt_rejection_prob": None,
    "materials.*.suppliers.*.lead_time": None,
    "materials.*.suppliers.*.transport_time": None,
    "materials.*.suppliers.*.min_interarrival": None,
}


def _resolve(cfg: Config, target: str) -> tuple[Callable | None, list[tuple[str, object]]]:
    """The apply hook of the table entry ``target`` instantiates, and
    (concrete dot-path, owning config object) for every parameter it names."""
    tokens = target.split(".")
    pattern = next((p for p in SETTABLE if len(p.split(".")) == len(tokens) and
                    all(part in ("*", tok) for part, tok in zip(p.split("."), tokens))),
                   None)
    if pattern is None:
        raise ConfigError([f"target {target!r}: not a settable parameter"])
    found = [("", cfg)]
    for tok, part in zip(tokens[:-1], pattern.split(".")[:-1]):
        step = []
        for prefix, obj in found:
            if part != "*":
                step.append((f"{prefix}{tok}.", getattr(obj, tok)))
                continue
            items = [x for x in obj if tok in ("*", x.id)]
            if not items:
                raise ConfigError([f"target {target!r}: no element with id {tok!r}"])
            step.extend((f"{prefix}{x.id}.", x) for x in items)
        found = step
    return SETTABLE[pattern], [(prefix + tokens[-1], obj) for prefix, obj in found]


def _field(path: str) -> str:
    return path.rsplit(".", 1)[1]


def _value(owner, name: str, baseline, raw):
    """The value ``raw`` gives field ``name`` of ``owner``, whose baseline is
    ``baseline``.

    ``{scale: k}`` multiplies the baseline, as its type allows: a distribution
    scales its location parameters; an int rounds with Python's ``round``, half
    to even (1 x 0.5 -> 0, 3 x 0.5 -> 2); a float is multiplied; a flag or an
    unbounded capacity (None) cannot be scaled. Anything else is a literal for
    the field's own reader.
    """
    if isinstance(raw, dict) and set(raw) == {"scale"}:
        factor = read_number(raw["scale"])
        if isinstance(baseline, Distribution):
            return baseline.scaled(factor)
        if baseline is None or isinstance(baseline, bool):
            raise ValueError(f"{baseline!r} cannot be scaled")
        value = read_number(baseline * factor)
        return round(value) if isinstance(baseline, int) else value
    return type(owner).__dataclass_fields__[name].metadata["read"](raw)


@dataclass
class Modification:
    idx: int
    target: str
    raw_value: object
    start: date
    end: date | None       # inclusive; None with revert=False is permanent
    revert: bool = True


@dataclass
class ResetWip:
    at: date


@dataclass
class ScenarioSpec:
    name: str
    modifications: list[Modification] = field(default_factory=list)
    resets: list[ResetWip] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not self.modifications and not self.resets


def _read(reader, value, where: str, errors: list[str]):
    try:
        return reader(value)
    except ValueError as exc:
        errors.append(f"{where}: {exc}")
        return None


def _unknown(node: dict, where: str, keys, errors: list[str]) -> None:
    errors.extend(f"{where}: unknown key {k!r}" for k in node if k not in keys)


def parse_scenario(raw, cfg: Config) -> ScenarioSpec:
    """Parse and fully validate an overlay against its base config."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(["overlay root must be a mapping"])
    errors: list[str] = []
    _unknown(raw, "overlay", ("name", "modifications"), errors)
    nodes = raw.get("modifications") or []
    if not isinstance(nodes, list):
        errors.append("modifications: must be a list")
        nodes = []
    mods: list[Modification] = []
    resets: list[ResetWip] = []
    for i, node in enumerate(nodes):
        where = f"modifications[{i}]"
        if not isinstance(node, dict):
            errors.append(f"{where}: must be a mapping")
            continue
        if "action" in node:
            _unknown(node, where, ("action", "at"), errors)
            if node["action"] != "reset_wip":
                errors.append(f"{where}: unknown action {node['action']!r}")
            at = _read(read_date, node.get("at"), f"{where}.at", errors)
            if at is not None:
                resets.append(ResetWip(at))
            continue
        _unknown(node, where, ("window", "set", "revert"), errors)
        window = node.get("window")
        if not isinstance(window, dict) or "start" not in window:
            errors.append(f"{where}: needs window: {{start, end}}")
            continue
        _unknown(window, f"{where}.window", ("start", "end"), errors)
        start = _read(read_date, window["start"], f"{where}.window.start", errors)
        end = (_read(read_date, window["end"], f"{where}.window.end", errors)
               if "end" in window else None)
        revert = _read(read_flag, node.get("revert", True), f"{where}.revert", errors)
        if end is None and revert:
            errors.append(f"{where}: open-ended window requires revert: false")
        targets = node.get("set")
        if not isinstance(targets, dict) or not targets:
            errors.append(f"{where}: needs a set: mapping of target paths")
            continue
        if start is None:
            continue
        for path, value in targets.items():
            mods.append(Modification(len(mods), str(path), value, start, end, revert))
    spec = ScenarioSpec(name=str(raw.get("name", "scenario")), modifications=mods,
                        resets=resets)
    errors.extend(validate_scenario(spec, cfg))
    if errors:
        raise ConfigError(errors)
    if spec.is_empty:
        spec.name = "base"  # zero modifications: indistinguishable from base
    return spec


def _value_problems(cfg: Config, mod: Modification) -> list[str]:
    """Problems with ``mod``'s value: it is set on every parameter the target
    names in the live ``cfg``, the config is validated, and the old values go
    back. The base config is valid, so whatever fails is the override's."""
    _, targets = _resolve(cfg, mod.target)
    saved = [(owner, _field(path), getattr(owner, _field(path))) for path, owner in targets]
    try:
        for owner, name, base in saved:
            setattr(owner, name, _value(owner, name, base, mod.raw_value))
        return validate(cfg)
    except READ_ERRORS as exc:
        return [str(exc)]
    finally:
        for owner, name, base in saved:
            setattr(owner, name, base)


def validate_scenario(spec: ScenarioSpec, cfg: Config) -> list[str]:
    errors = []
    horizon = (cfg.model.start_date, cfg.model.end_date)
    for mod in spec.modifications:
        where = f"target {mod.target!r}"
        try:
            errors.extend(f"{where}: {e}" for e in _value_problems(cfg, mod))
        except ConfigError as exc:
            errors.extend(exc.errors)
            continue
        if mod.end is not None and mod.end < mod.start:
            errors.append(f"{where}: window ends before it starts")
        if mod.start < horizon[0] or mod.start > horizon[1]:
            errors.append(f"{where}: window start {mod.start} outside the horizon")
        if mod.end is not None and mod.end > horizon[1]:
            errors.append(f"{where}: window end {mod.end} outside the horizon")
    for reset in spec.resets:
        if reset.at < horizon[0] or reset.at > horizon[1]:
            errors.append(f"reset_wip at {reset.at}: outside the horizon")
    return errors


class ScenarioRuntime:
    """Schedules apply/revert events on a model and tracks baselines.

    Per concrete dot-path an override stack holds every window currently
    open; the value in force is the one applied last, and the baseline
    returns only when the stack empties. Every apply and revert wakes every
    stage and pool: a parameter such as an inventory capacity has no apply
    hook to wake just what it unblocks.
    """

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        self.model = None
        self._baseline: dict[str, tuple[object, object]] = {}  # path -> (owner, value)
        self._stack: dict[str, list[tuple[int, object]]] = {}  # path -> [(idx, value)]

    @property
    def name(self) -> str:
        return self.spec.name

    def attach(self, model) -> None:
        self.model = model
        clock = model.engine.clock
        model.engine.on("scn_apply", self._on_apply)
        model.engine.on("scn_revert", self._on_revert)
        for mod in self.spec.modifications:
            model.engine.schedule(clock.date_to_time(mod.start), "scn_apply",
                                  mod, absolute=True)
            if mod.revert and mod.end is not None:
                model.engine.schedule(clock.date_to_time(mod.end) + 1.0,
                                      "scn_revert", mod, absolute=True)
        if self.spec.resets:
            model.engine.on("scn_reset", lambda ev: model.reset_wip())
            for reset in self.spec.resets:
                model.engine.schedule(clock.date_to_time(reset.at), "scn_reset",
                                      absolute=True)

    def _write(self, apply, owner, path: str, value) -> None:
        setattr(owner, _field(path), value)
        if apply is not None:
            apply(self.model, owner, value)

    def _on_apply(self, ev) -> None:
        mod: Modification = ev.target
        apply, targets = _resolve(self.model.cfg, mod.target)
        for path, owner in targets:
            _, base = self._baseline.setdefault(path, (owner, getattr(owner, _field(path))))
            value = _value(owner, _field(path), base, mod.raw_value)
            self._stack.setdefault(path, []).append((mod.idx, value))
            self._write(apply, owner, path, value)
        self.model.wake_all()

    def _on_revert(self, ev) -> None:
        mod: Modification = ev.target
        apply, targets = _resolve(self.model.cfg, mod.target)
        for path, owner in targets:
            stack = [entry for entry in self._stack.get(path, []) if entry[0] != mod.idx]
            self._stack[path] = stack
            value = stack[-1][1] if stack else self._baseline[path][1]
            if getattr(owner, _field(path)) != value:
                self._write(apply, owner, path, value)
        self.model.wake_all()

    def restore(self) -> None:
        """Put every parameter a window touched back to its baseline."""
        for path, (owner, value) in self._baseline.items():
            setattr(owner, _field(path), value)
