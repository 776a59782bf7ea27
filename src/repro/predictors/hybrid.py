"""Naive VTAGE + 2-delta-Stride hybrid (the Fig 5a comparison point).

The HPCA 2014 hybrid simply runs both predictors side by side and trains
*both* for every instruction — the space inefficiency D-VTAGE is designed to
remove (§III-B).  Arbitration uses the components' own confidence, the
simple metapredictor the paper describes in §VII-B: never predict when both
are confident but disagree, otherwise use the confident component.
"""

from __future__ import annotations

from repro.predictors.base import HistoryState, Prediction, ValuePredictor
from repro.predictors.confidence import FPCPolicy
from repro.predictors.stride import TwoDeltaStridePredictor
from repro.predictors.vtage import VTAGEPredictor


class _HybridMeta:
    __slots__ = ("vtage_pred", "stride_pred")

    def __init__(
        self, vtage_pred: Prediction | None, stride_pred: Prediction | None
    ) -> None:
        self.vtage_pred = vtage_pred
        self.stride_pred = stride_pred


class VTAGE2DStrideHybrid(ValuePredictor):
    """Side-by-side VTAGE and 2-delta stride with confidence arbitration."""

    name = "vtage-2d-stride"

    def __init__(
        self,
        vtage: VTAGEPredictor | None = None,
        stride: TwoDeltaStridePredictor | None = None,
        fpc: FPCPolicy | None = None,
    ) -> None:
        shared = fpc if fpc is not None else FPCPolicy()
        self.vtage = vtage if vtage is not None else VTAGEPredictor(fpc=shared)
        self.stride = (
            stride if stride is not None else TwoDeltaStridePredictor(fpc=shared)
        )

    def fold_geometry(
        self,
    ) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        # Only the VTAGE side indexes by history.
        return self.vtage.fold_geometry()

    def predict(
        self, pc: int, uop_index: int, hist: HistoryState
    ) -> Prediction | None:
        pv = self.vtage.predict(pc, uop_index, hist)
        ps = self.stride.predict(pc, uop_index, hist)
        meta = _HybridMeta(pv, ps)
        v_conf = pv is not None and pv.confident
        s_conf = ps is not None and ps.confident
        if v_conf and s_conf:
            if pv.value == ps.value:
                return Prediction(pv.value, True, provider=pv.provider, meta=meta)
            # Both confident but disagree: do not use the prediction.
            return Prediction(pv.value, False, provider=pv.provider, meta=meta)
        if v_conf:
            return Prediction(pv.value, True, provider=pv.provider, meta=meta)
        if s_conf:
            return Prediction(ps.value, True, provider=-1, meta=meta)
        # Nobody is confident; report something for training purposes.
        fallback = pv if pv is not None else ps
        if fallback is None:
            return None
        return Prediction(fallback.value, False, provider=fallback.provider, meta=meta)

    def train(
        self,
        pc: int,
        uop_index: int,
        hist: HistoryState,
        actual: int,
        prediction: Prediction | None,
    ) -> None:
        # Both components are always trained — the storage inefficiency the
        # paper calls out.
        meta = prediction.meta if prediction is not None else None
        if isinstance(meta, _HybridMeta):
            self.vtage.train(pc, uop_index, hist, actual, meta.vtage_pred)
            self.stride.train(pc, uop_index, hist, actual, meta.stride_pred)
        else:
            self.vtage.train(pc, uop_index, hist, actual, None)
            self.stride.train(pc, uop_index, hist, actual, None)

    def squash(self, surviving: dict[tuple[int, int], int] | None = None) -> None:
        self.vtage.squash(surviving)
        self.stride.squash(surviving)

    def storage_bits(self) -> int:
        return self.vtage.storage_bits() + self.stride.storage_bits()
