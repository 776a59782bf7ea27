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
2. per-variant table state is allocated as variant-stacked banks
   (``make_bank(..., variants=N)``) — variants sharing a D-VTAGE bank
   shape share a stack, TAGE always shares one stack — and each variant
   gets its storage-sharing ``view``;
3. :func:`repro.batch.runner.run_fused_variant` walks each variant over
   the shared streams, hashing through one
   :class:`~repro.batch.precompute.DVTAGESlotGeometry` per distinct
   slot geometry.

Results come back in spec order, bit-identical to ``run_job`` per the
parity suite, so the scheduler unstacks them into the existing cache
cells (JobSpec digests are untouched — the batch is an execution
strategy, not a new cell shape).

The walk pins ``backend="python"`` for its internal table state: the
backends are bit-identical by contract (hypothesis state-parity +
golden suite) and digests exclude the backend, so a numpy-backend spec
may be satisfied by a python-state walk — ``REPRO_TABLE_BACKEND=numpy``
parity runs in CI keep that honest.
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
from repro.common.tables import make_bank
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
    """Variant-stacked table state for a batch; one cols dict per variant.

    ``variants`` is a list of ``(BlockDVTAGEConfig, window, policy)``;
    D-VTAGE stacks are allocated per distinct bank shape, the TAGE stack
    spans all variants (its shape is fixed).
    """
    shape_members: dict[tuple, list[int]] = {}
    for v, (config, _window, _policy) in enumerate(variants):
        shape = (
            config.npred,
            config.base_entries,
            config.tagged_entries,
            config.components,
        )
        shape_members.setdefault(shape, []).append(v)
    tables: list[dict[str, list[int]] | None] = [None] * len(variants)
    for (npred, base_entries, tagged_entries, components), members in (
        shape_members.items()
    ):
        lvt_fields, vt0_fields, tagged_fields = dvtage_bank_fields(npred)
        lvt = make_bank(
            base_entries, lvt_fields, backend="python", variants=len(members)
        )
        vt0 = make_bank(
            base_entries, vt0_fields, backend="python", variants=len(members)
        )
        tagged = make_bank(
            components * tagged_entries,
            tagged_fields,
            backend="python",
            variants=len(members),
        )
        for slot, v in enumerate(members):
            lvt_view = lvt.view(slot)
            vt0_view = vt0.view(slot)
            tagged_view = tagged.view(slot)
            tables[v] = {
                "l_tag": lvt_view.col("tag"),
                "l_last": lvt_view.col("last"),
                "l_byte": lvt_view.col("byte_tags"),
                "v_strides": vt0_view.col("strides"),
                "v_conf": vt0_view.col("conf"),
                "t_tag": tagged_view.col("tag"),
                "t_strides": tagged_view.col("strides"),
                "t_conf": tagged_view.col("conf"),
                "t_useful": tagged_view.col("useful"),
                "t_ugen": tagged_view.col("useful_gen"),
            }
    bimodal = make_bank(
        4096, BIMODAL_FIELDS, backend="python", variants=len(variants)
    )
    tage = make_bank(
        12 * 1024, TAGGED_FIELDS, backend="python", variants=len(variants)
    )
    for v in range(len(variants)):
        bim_view = bimodal.view(v)
        tage_view = tage.view(v)
        tables[v].update(
            {
                "b_ctr": bim_view.col("ctr"),
                "bt_tag": tage_view.col("tag"),
                "bt_ctr": tage_view.col("ctr"),
                "bt_useful": tage_view.col("useful"),
                "bt_ugen": tage_view.col("useful_gen"),
            }
        )
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
