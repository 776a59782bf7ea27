"""Group batchable JobSpecs and run each group in one trace pass.

The scheduler (``exec/scheduler.py``) hands a flat job list here; specs
are batchable when they are BeBoP cells on the ``eole_4_60`` pipeline,
and they share a front end when (workload, uops, warmup, pipeline)
match — the grid axes of the Fig 6a/6b/7a/7b sweeps.  Each group runs
as one call to :func:`run_batched_group`:

1. the shared front end is precomputed once (:func:`shared_front_end`
   over :func:`repro.batch.precompute.precompute_front_end`), with the
   folded-history registration unioned over every variant's D-VTAGE
   geometry (a fold is a pure function of the history, so the union is
   bit-identity-safe);
2. each variant gets fresh table state: its own D-VTAGE and TAGE
   :class:`~repro.common.tables.TableBank` columns;
3. :func:`repro.batch.runner.run_fused_variant` walks each variant over
   the shared streams, hashing through one
   :class:`~repro.batch.precompute.DVTAGESlotGeometry` per distinct
   slot geometry.

Results come back in spec order, bit-identical to ``run_job`` per the
parity suite, so the scheduler unstacks them into the existing cache
cells (JobSpec digests are untouched — the batch is an execution
strategy, not a new cell shape).
"""

from __future__ import annotations

import gc

from repro.batch.precompute import (
    DVTAGESlotGeometry,
    FrontEnd,
    geometry_key,
    precompute_front_end,
)
from repro.batch.runner import run_fused_variant
from repro.bebop.predictor import (
    BlockDVTAGEConfig,
    dvtage_bank_fields,
    dvtage_slots,
)
from repro.bebop.recovery import RecoveryPolicy
from repro.branch.tage import BIMODAL_FIELDS, TAGGED_FIELDS
from repro.common.tables import TableBank
from repro.eval.runner import get_trace
from repro.pipeline.stats import SimStats


def is_batchable(spec) -> bool:
    """Can this spec run through the fused batched walk?"""
    return spec.engine[0] == "bebop" and spec.pipeline == "eole_4_60"


def batch_group_key(spec) -> tuple:
    """Shared-front-end identity: specs with equal keys share one pass."""
    return (spec.workload, spec.uops, spec.warmup, spec.pipeline)


def batchable_groups(specs) -> dict[tuple, list[int]]:
    """Indices of batchable specs, grouped by shared-front-end key.

    Only groups of two or more are returned — a singleton gains nothing
    over the serial path.
    """
    groups: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        if is_batchable(spec):
            groups.setdefault(batch_group_key(spec), []).append(i)
    return {key: idxs for key, idxs in groups.items() if len(idxs) >= 2}


def build_variant_tables(variants) -> list[dict[str, list[int]]]:
    """Fresh table state for a batch; one cols dict per variant.

    ``variants`` is a list of ``(BlockDVTAGEConfig, window, policy)``;
    each variant gets its own D-VTAGE and TAGE banks.
    """
    tables = []
    for config, _window, _policy in variants:
        lvt_fields, vt0_fields, tagged_fields = dvtage_bank_fields(config.npred)
        lvt = TableBank(config.base_entries, lvt_fields)
        vt0 = TableBank(config.base_entries, vt0_fields)
        tagged = TableBank(
            config.components * config.tagged_entries, tagged_fields
        )
        bimodal = TableBank(4096, BIMODAL_FIELDS)
        tage = TableBank(12 * 1024, TAGGED_FIELDS)
        tables.append({
            "l_tag": lvt.col("tag"),
            "l_last": lvt.col("last"),
            "l_byte": lvt.col("byte_tags"),
            "v_strides": vt0.col("strides"),
            "v_conf": vt0.col("conf"),
            "t_tag": tagged.col("tag"),
            "t_strides": tagged.col("strides"),
            "t_conf": tagged.col("conf"),
            "t_useful": tagged.col("useful"),
            "t_ugen": tagged.col("useful_gen"),
            "b_ctr": bimodal.col("ctr"),
            "bt_tag": tage.col("tag"),
            "bt_ctr": tage.col("ctr"),
            "bt_useful": tage.col("useful"),
            "bt_ugen": tage.col("useful_gen"),
        })
    return tables


def shared_front_end(
    trace, configs
) -> tuple[FrontEnd, dict[tuple, DVTAGESlotGeometry]]:
    """The front end of ``trace`` and one slot geometry per distinct
    D-VTAGE geometry among ``configs`` (keyed by ``geometry_key``).

    Each geometry's folds are registered after the TAGE ones, one
    geometry after another, so every snapshot carries them as the
    contiguous runs its :class:`~repro.predictors.base.TaggedSlots`
    reads directly.
    """
    geo_configs: dict[tuple, BlockDVTAGEConfig] = {}
    idx_pairs: list[tuple[int, int]] = []
    tag_pairs: list[tuple[int, int]] = []
    for config in configs:
        key = geometry_key(config)
        if key not in geo_configs:
            geo_configs[key] = config
            dv_idx, dv_tag = dvtage_slots(config).fold_geometry()
            idx_pairs.extend(dv_idx)
            tag_pairs.extend(dv_tag)
    fe = precompute_front_end(trace, idx_pairs, tag_pairs)
    return fe, {
        key: DVTAGESlotGeometry(config, fe.states)
        for key, config in geo_configs.items()
    }


def run_batched_group(specs) -> list[SimStats]:
    """Run a shared-front-end group of batchable specs in one trace pass.

    Returns one SimStats per spec, in spec order, bit-identical to
    ``run_job(spec)`` for each.
    """
    if not specs:
        return []
    first = specs[0]
    for spec in specs:
        if not is_batchable(spec):
            raise ValueError(f"spec is not batchable: {spec!r}")
        if batch_group_key(spec) != batch_group_key(first):
            raise ValueError(
                "specs span multiple front-end groups: "
                f"{batch_group_key(spec)} != {batch_group_key(first)}"
            )
    variants = []
    for spec in specs:
        _tag, items, window, policy = spec.engine
        variants.append(
            (BlockDVTAGEConfig(**dict(items)), window, RecoveryPolicy(policy))
        )
    trace = get_trace(first.workload, first.uops)
    # The fused walk churns through millions of short-lived acyclic
    # temporaries; pausing the cyclic collector for the batch avoids
    # repeated full-heap scans without changing any result.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        fe, geos = shared_front_end(
            trace, [config for config, _window, _policy in variants]
        )
        tables = build_variant_tables(variants)
        results = []
        for v, (config, window, policy) in enumerate(variants):
            results.append(
                run_fused_variant(
                    fe,
                    config,
                    window,
                    policy,
                    tables[v],
                    geos[geometry_key(config)],
                    first.warmup,
                )
            )
    finally:
        if gc_was_enabled:
            gc.enable()
    return results
