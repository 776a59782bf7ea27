"""The passive observers of one simulated run, bundled as :class:`Probes`:
the only observer argument of :meth:`~repro.pipeline.core.PipelineModel.run`
and of the :mod:`repro.eval.runner` entry points."""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.attrib import PCAttribution
from repro.obs.banks import BankTelemetry
from repro.obs.cpi import CPIStackCollector
from repro.obs.timeline import TimelineRecorder


@dataclass(frozen=True, slots=True)
class Probes:
    """The observers of one run; a field left ``None`` is not observed.

    ``cpi`` sorts the run's cycles by cause, ``recorder`` keeps per-µ-op
    stage cycles and prediction provenance, ``attrib`` charges recovery
    cycles to static PCs and ``banks`` snapshots the predictor tables.
    All are passive, so a run's stats are bit-identical with any subset.
    The pipeline binds the fields once per run and gates each site on
    them; the bundle itself only brackets the run.
    """

    cpi: CPIStackCollector | None = None
    recorder: TimelineRecorder | None = None
    attrib: PCAttribution | None = None
    banks: BankTelemetry | None = None

    def start(self, vp) -> None:
        """Arm the run's VP adapter ``vp`` (``None`` when VP is off):
        provenance on exactly when the recorder or the attribution reads
        it (off otherwise, so a reused adapter drops it), and the
        adapter's ``table_banks()`` attached to the bank telemetry."""
        if vp is None:
            return
        set_prov = getattr(vp, "set_provenance", None)
        if set_prov is not None:
            set_prov(self.recorder is not None or self.attrib is not None)
        if self.banks is not None:
            bank_source = getattr(vp, "table_banks", None)
            if bank_source is not None:
                self.banks.attach(bank_source())

    def finish(self, stats, uop_index: int) -> None:
        """Seal the observers against the run's ``stats``; ``uop_index``
        counts the µ-ops processed, warmup included."""
        if self.cpi is not None:
            self.cpi.finish(stats)
        if self.attrib is not None:
            self.attrib.finish(stats)
        if self.banks is not None:
            self.banks.sample(uop_index, final=True)
