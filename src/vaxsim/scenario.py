"""Time-windowed runtime overrides of model parameters (what-if scenarios).

An overlay sets parameters listed in ``SETTABLE`` inside calendar windows:
stage closures, processing times, pool head-counts, material availability,
lead times and the like, plus the instant ``reset_wip`` action (loss of all
work in progress). A target is a dot-path with ``*`` over list ids
(``qc.teams.*.technicians``); a path outside the table is rejected. A literal
value is read by its config field's own reader. ``_timeline`` turns the
config's maintenance windows and an overlay into the config writes of a run,
which the run plays and ``validate_scenario`` replays through the same
``config.validate`` the base config passes. An overlay with no modifications
is observationally identical to the base case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from typing import Callable

from .config import READ_ERRORS, Config, ConfigError, read_date, read_flag, validate
from .distributions import Distribution, read_number


def _resize(pool, model, count: int) -> None:
    pool.set_capacity(count, model.engine.now)


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


def _resolve(cfg: Config, target: str) -> tuple[Callable | None, str, list[tuple[str, object]]]:
    """The apply hook of the table entry ``target`` instantiates, the field
    name, and (concrete dot-path, owning config object) for every parameter
    it names."""
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
    return SETTABLE[pattern], tokens[-1], [(prefix + tokens[-1], obj) for prefix, obj in found]


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
class ScenarioSpec:
    name: str
    modifications: list[Modification] = field(default_factory=list)
    resets: list[date] = field(default_factory=list)  # reset_wip days

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
    resets: list[date] = []
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
                resets.append(at)
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


def _timeline(spec: ScenarioSpec, cfg: Config):
    """The config writes of ``spec`` on ``cfg``: ``steps``, a ``(day, mod,
    [(hook, owner, field name, value)])`` per step in play order, where a
    ``reset_wip`` step has no ``mod`` and no writes; each named path's
    ``baseline`` (owner, field name, value); and the problems of each
    modification whose target or value does not read.

    Each maintenance window of ``cfg`` is a ``stages.*.closed: true`` window
    from its start, or day 0 if earlier, placed ahead of the overlay's: the
    ``k``-th of ``m`` windows has idx ``k - m``. A window opens on its start
    day and closes the day after its end. One day's steps play the openings,
    then the closings, then the resets, each group in listing order, so a
    window that takes over from one closing that day never lets the
    baseline in between. Per path the open windows form a stack on the
    baseline: an opening writes its value, a closing the newest value left
    if that differs from the value in force.
    """
    t0, events, sets, baseline, unread = cfg.model.start_date, [], {}, {}, {}
    maintenance = [Modification(k - len(cfg.maintenance), "stages.*.closed", True,
                                max(w.start, t0), w.end)
                   for k, w in enumerate(cfg.maintenance)]
    for mod in maintenance + spec.modifications:
        try:
            hook, name, targets = _resolve(cfg, mod.target)
            sets[mod.idx] = hook, name, [
                (path, owner, _value(owner, name, getattr(owner, name), mod.raw_value))
                for path, owner in targets]
        except READ_ERRORS as exc:  # a ConfigError names the target itself
            unread[mod.idx] = (exc.errors if isinstance(exc, ConfigError)
                               else [f"target {mod.target!r}: {exc}"])
            continue
        for path, owner in targets:
            baseline.setdefault(path, (owner, name, getattr(owner, name)))
        events.append(((mod.start - t0).days, 0, mod.idx, mod))
        if mod.revert and mod.end is not None:
            events.append(((mod.end - t0).days + 1, 1, mod.idx, mod))
    events += [((at - t0).days, 2, len(spec.modifications) + i, None)
               for i, at in enumerate(spec.resets)]
    stacks, steps = {}, []  # path -> [(mod idx or None for the baseline, value)]
    for day, rank, idx, mod in sorted(events, key=lambda e: e[:3]):
        hook, name, values = sets.get(idx, (None, None, ()))
        writes = []
        for path, owner, value in values:
            stack = stacks.setdefault(path, [(None, baseline[path][2])])
            if rank == 1:  # a closing
                in_force = stack[-1][1]
                stack[:] = [entry for entry in stack if entry[0] != idx]
                value = stack[-1][1]
                if value == in_force:
                    continue
            else:
                stack.append((idx, value))
            writes.append((hook, owner, name, value))
        steps.append((day, mod, writes))
    return steps, baseline, unread


def validate_scenario(spec: ScenarioSpec, cfg: Config) -> list[str]:
    """Every problem with ``spec`` on ``cfg``, in overlay order. The run's
    writes are replayed on the live ``cfg``, validated after each overlay
    step that writes, and undone; a maintenance step only writes stage
    closures, which no check reads. The base config is valid, so a problem
    is the overlay's: it is reported under the target of the step that
    brings it about, and again only if it goes away and a later step brings
    it back."""
    steps, baseline, found = _timeline(spec, cfg)
    before: set[str] = set()
    try:
        for _, mod, writes in steps:
            for _, owner, name, value in writes:
                setattr(owner, name, value)
            if not writes or mod.idx < 0:
                continue
            try:
                problems = validate(cfg)
            except READ_ERRORS as exc:
                problems = [str(exc)]
            found.setdefault(mod.idx, []).extend(
                f"target {mod.target!r}: {p}" for p in problems if p not in before)
            before = set(problems)
    finally:
        for owner, name, value in baseline.values():
            setattr(owner, name, value)
    errors = []
    horizon = (cfg.model.start_date, cfg.model.end_date)
    for mod in spec.modifications:
        where = f"target {mod.target!r}"
        errors.extend(found.get(mod.idx, ()))
        if mod.end is not None and mod.end < mod.start:
            errors.append(f"{where}: window ends before it starts")
        # end_date is the first day not simulated: a step on it would act at
        # the horizon instant alone
        if mod.start < horizon[0]:
            errors.append(f"{where}: window start {mod.start} outside the horizon")
        elif mod.start >= horizon[1]:
            errors.append(f"{where}: window from {mod.start} starts on or after "
                          "the simulation end")
        if mod.end is not None and mod.end > horizon[1]:
            errors.append(f"{where}: window end {mod.end} outside the horizon")
    for at in spec.resets:
        if at < horizon[0]:
            errors.append(f"reset_wip at {at}: outside the horizon")
        elif at >= horizon[1]:
            errors.append(f"reset_wip at {at}: starts on or after the simulation end")
    return errors


class ScenarioRuntime:
    """Plays the timeline of a run on a model: the config's maintenance
    windows and an overlay's steps, each on its day, right after that day's
    tick (day 0's right after the first settle), and a settle after each.
    A window step makes its writes, runs their ``SETTABLE`` hooks and wakes
    every stage and pool, even when it writes nothing: a parameter such as
    an inventory capacity has no hook to wake just what it unblocks. A step
    on or after the horizon day is never played."""

    def __init__(self, spec: ScenarioSpec, model):
        steps, self.baseline, _ = _timeline(spec, model.cfg)
        self.name, self.model = spec.name, model
        horizon = model.engine.horizon_days
        # the steps still to play, the next one last
        self.steps = [step for step in reversed(steps) if step[0] < horizon]

    def play(self, day: float) -> None:
        """Play the steps up to ``day``, each followed by a settle."""
        steps, model = self.steps, self.model
        while steps and steps[-1][0] <= day:
            _, mod, writes = steps.pop()
            if mod is None:
                model.reset_wip()
            else:
                for hook, owner, name, value in writes:
                    setattr(owner, name, value)
                    if hook is not None:
                        hook(model, owner, value)
                model.wake_all()
            model.settle()

    def restore(self) -> None:
        """Put every parameter a window names back to its baseline."""
        for owner, name, value in self.baseline.values():
            setattr(owner, name, value)
