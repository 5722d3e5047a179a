"""Raw-material inventory, multi-supplier replenishment, and stockouts.

Continuous review: every consumption and every receipt re-checks the inventory
position (on hand + on order) against the reorder point and, when breached,
places the smallest whole-lot order that lifts the position above reorder
point + safety stock, split across suppliers by their fractions (whole lots,
largest-remainder rounding). A supplier's minimum interarrival defers placement
rather than dropping the order. Received lots pass through receipt QC and can
be rejected, which triggers an immediate replacement order.

A stockout interval opens at the first dispatch attempt that fails on the
material and closes at the next accepted receipt; a calendar day counts as a
stockout day if an interval overlapped any part of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import Event


@dataclass(slots=True)
class PurchaseOrder:
    id: int  # per (material, supplier), the common-random-numbers identity
    material: str  # its id, not its runtime: the runtime's ``parked`` holds the order
    supplier: object  # its SupplierConfig
    lots: int
    qty: float
    state: str = "deferred"  # deferred|lead|transit|receipt_qc|parked|accepted|rejected


class MaterialRuntime:
    def __init__(self, cfg, batch_equiv: float):
        self.cfg = cfg
        self.on_hand = cfg.initial_stockpile
        self.on_order = 0.0
        self.po_seq: dict[str, int] = {s.id: 0 for s in cfg.suppliers}
        self.last_order: dict[str, float] = {s.id: -math.inf for s in cfg.suppliers}
        self.parked: list[PurchaseOrder] = []
        self.stockout_since: float | None = None
        self.stockout_flag = False
        self.consumed_total = 0.0
        self.received_total = 0.0
        self.batch_equiv = batch_equiv  # daily levels are reported in these units
        self.consumers: list = []  # stage runtimes that use it, notified when on_hand moves

    @property
    def id(self) -> str:
        return self.cfg.id

    @property
    def position(self) -> float:
        return self.on_hand + self.on_order


class Materials:
    """Runtime for the whole material catalog; owned by a Model."""

    def __init__(self, model):
        self.model = model
        stages = model.cfg.stages
        # one batch equivalent = what one batch takes of the material over all stages
        self.runtimes = {
            m.id: MaterialRuntime(m, sum(s.materials.get(m.id, 0.0) for s in stages) or 1.0)
            for m in model.cfg.materials}
        for rt in self.runtimes.values():
            self._review(rt)  # initial stockpiles may already sit at the reorder point

    # -- consumption side ------------------------------------------------

    def missing_for(self, requirements: dict[str, float]) -> list[str]:
        runtimes = self.runtimes
        for mid, qty in requirements.items():
            if runtimes[mid].on_hand < qty - 1e-9:  # short: list every shortfall
                return [m for m, q in requirements.items()
                        if runtimes[m].on_hand < q - 1e-9]
        return []

    def consume(self, requirements: dict[str, float]) -> None:
        for mid, qty in requirements.items():
            rt = self.runtimes[mid]
            rt.on_hand -= qty
            rt.consumed_total += qty
            for stage in rt.consumers:  # another may now fall short and must note it
                stage.notify("consumption")
            if rt.position <= rt.cfg.reorder_point:
                self._review(rt)

    def note_shortfall(self, mid: str) -> None:
        rt = self.runtimes[mid]
        if rt.stockout_since is None:
            rt.stockout_since = self.model.engine.now

    # -- replenishment side ----------------------------------------------

    def _review(self, rt: MaterialRuntime) -> None:
        cfg = rt.cfg
        if rt.position > cfg.reorder_point or not cfg.suppliers:
            return
        need = cfg.reorder_point + cfg.safety_stock - rt.position
        lots = int(need // cfg.lot_size) + 1  # smallest multiple strictly above
        for sup, sup_lots in self._split_lots(cfg.suppliers, lots):
            if sup_lots:
                self._place(rt, sup, sup_lots)

    @staticmethod
    def _split_lots(suppliers, lots: int) -> list[tuple[object, int]]:
        """Whole-lot split by supplier fractions, largest-remainder rounding.

        The fractions count relative to their sum, which may be 1 +- 1e-6, so
        the counts add up to ``lots`` (below 2**51 once validated) and none is negative.
        """
        total = math.fsum(s.split for s in suppliers)
        quotas = [lots * s.split / total for s in suppliers]
        base = [int(q) for q in quotas]
        leftover = lots - sum(base)
        order = sorted(range(len(suppliers)),
                       key=lambda i: (-(quotas[i] - base[i]), i))
        for i in order[:leftover]:
            base[i] += 1
        return list(zip(suppliers, base))

    def _place(self, rt: MaterialRuntime, sup, lots: int, *, immediate: bool = False) -> None:
        now = self.model.engine.now
        rt.po_seq[sup.id] += 1
        start = now if immediate else max(now, rt.last_order[sup.id] + sup.min_interarrival)
        rt.last_order[sup.id] = start
        po = PurchaseOrder(rt.po_seq[sup.id], rt.id, sup, lots, lots * rt.cfg.lot_size)
        rt.on_order += po.qty
        if start > now:
            self.model.engine.schedule(start, self.po_place, po)
        else:
            self._start_lead(po, now)

    def po_place(self, ev: Event) -> None:
        self._start_lead(ev.target, ev.time)

    def _stream(self, key: str, po: PurchaseOrder):
        return self.model.rng.derived((key, po.material, po.supplier.id), po.id)

    def _start_lead(self, po: PurchaseOrder, now: float) -> None:
        po.state = "lead"
        lead = po.supplier.lead_time.sample(self._stream("lead", po))
        self.model.engine.schedule(now + max(lead, 0.0), self.po_step, po)

    def po_step(self, ev: Event) -> None:
        po: PurchaseOrder = ev.target
        rt = self.runtimes[po.material]
        now = ev.time
        if po.state == "lead":
            po.state = "transit"
            transport = po.supplier.transport_time.sample(self._stream("trans", po))
            self.model.engine.schedule(now + max(transport, 0.0), self.po_step, po)
        elif po.state == "transit":
            if rt.cfg.available:
                self._start_receipt_qc(po, now)
            else:
                po.state = "parked"  # held until the material is available again
                rt.parked.append(po)
        elif po.state == "receipt_qc":
            self._resolve_receipt(po, now)

    def _start_receipt_qc(self, po: PurchaseOrder, now: float) -> None:
        po.state = "receipt_qc"
        dist = self.runtimes[po.material].cfg.receipt_qc_time
        # a constant draws nothing, so its substream is not even keyed
        qc = (dist.params[0] if dist.kind == "constant" else
              dist.sample(self._stream("rqc", po)))
        self.model.engine.schedule(now + max(qc, 0.0), self.po_step, po)

    def _resolve_receipt(self, po: PurchaseOrder, now: float) -> None:
        rt = self.runtimes[po.material]
        rt.on_order -= po.qty
        rejected = False
        if rt.cfg.receipt_rejection_prob > 0.0:
            rejected = self._stream("rrej", po).random() < rt.cfg.receipt_rejection_prob
        if rejected:
            po.state = "rejected"
            # quantity never enters stock; replace it straight away
            self._place(rt, po.supplier, po.lots, immediate=True)
        else:
            po.state = "accepted"
            rt.on_hand += po.qty
            rt.received_total += po.qty
            for stage in rt.consumers:
                stage.notify("receipt")
            if rt.stockout_since is not None:
                rt.stockout_since = None
                if now > math.floor(now):
                    rt.stockout_flag = True  # a partly starved day still counts
            self._review(rt)

    # -- scenario hook ---------------------------------------------------

    def availability_changed(self, mat_cfg) -> None:
        rt = self.runtimes[mat_cfg.id]
        if mat_cfg.available and rt.parked:
            now = self.model.engine.now
            for po in rt.parked:
                self._start_receipt_qc(po, now)
            rt.parked.clear()
