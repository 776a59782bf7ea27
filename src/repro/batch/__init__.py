"""Batched multi-variant sweeps sharing one trace pass.

A Fig 6/7 geometry sweep simulates the *same* dynamic trace once per
predictor variant; everything the variants cannot influence — trace
decode, fetch-block grouping, folded branch/path history, BTB redirect
detection, TAGE/D-VTAGE index hashing — is recomputed identically N
times.  This package factors that shared front-end out:

* :mod:`repro.batch.precompute` runs the trace once and captures the
  variant-independent per-µ-op streams (flat tuples, history epochs,
  TAGE slots, BTB miss bits) plus one D-VTAGE slot geometry per
  distinct geometry, both hashing through the serial predictors'
  ``TaggedSlots``;
* :mod:`repro.batch.runner` is the fused per-variant walk: the
  pipeline/engine/predictor inner loop specialised to the EOLE_4_60
  BeBoP configuration, consuming the precomputed streams and keeping
  its table state in each variant's own
  :class:`~repro.common.tables.TableBank` columns;
* :mod:`repro.batch.dispatch` groups batchable
  :class:`~repro.exec.jobs.JobSpec` cells by shared front-end key and
  runs each group in one pass, unstacking per-variant
  :class:`~repro.pipeline.stats.SimStats` bit-identical to the serial
  path (the golden contract; enforced by ``tests/test_batch_parity``).
"""

from repro.batch.dispatch import (
    batch_group_key,
    batchable_groups,
    is_batchable,
    run_batched_group,
)
from repro.batch.precompute import precompute_front_end

__all__ = [
    "batch_group_key",
    "batchable_groups",
    "is_batchable",
    "precompute_front_end",
    "run_batched_group",
]
