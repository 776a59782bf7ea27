"""Bit-identity of every workload's dynamic trace against golden digests.

``tests/data/golden_traces.json`` holds, for each of the 36 suite workloads
and the extra ones, a sha256 over every slot of every :class:`DynMicroOp`
the trace generator emits, plus the generator's end state (registers, a
digest of memory, the RNG state, instruction count and halt flag).  Each
trace is produced as ``run(1500)`` followed by ``run(2500)`` on one
generator, so the digests also pin resumption.  Trace generation is pure
functional execution: any speed-up of the interpreter must keep every
digest unchanged.

Regenerate (only after an intentional ISA or kernel change) with::

    PYTHONPATH=src python examples/capture_golden_stats.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.isa.instruction import DynMicroOp
from repro.workloads.suite import (
    all_workload_names,
    build_workload,
    extra_workload_names,
)
from repro.workloads.trace import TraceGenerator

GOLDEN_TRACES_PATH = Path(__file__).parent / "data" / "golden_traces.json"

#: Lengths of the two consecutive ``run`` calls behind each digest.
RUNS = (1500, 2500)


def _sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _uop_line(uop: DynMicroOp) -> str:
    slots = []
    for name in DynMicroOp.__slots__:
        value = getattr(uop, name)
        slots.append(value.name if name == "latency_class" else value)
    return repr(tuple(slots))


def trace_record(name: str) -> dict:
    """Digest record of workload ``name``'s trace and generator end state."""
    kernel = build_workload(name)
    gen = TraceGenerator(kernel.program, init_mem=kernel.init_mem)
    lengths = []
    uops: list[DynMicroOp] = []
    for n in RUNS:
        chunk = gen.run(n)
        lengths.append(len(chunk))
        uops.extend(chunk)
    return {
        "run_lengths": lengths,
        "uops_sha256": _sha256_lines(_uop_line(u) for u in uops),
        "regs": [[r, v] for r, v in sorted(gen.regs.items())],
        "mem_len": len(gen.mem),
        "mem_sha256": _sha256_lines(f"{a} {v}" for a, v in sorted(gen.mem.items())),
        "rng_state": gen.rng._state,
        "inst_count": gen.inst_count,
        "halted": gen.halted,
    }


def workload_names() -> tuple[str, ...]:
    return (*all_workload_names(), *extra_workload_names())


_GOLDEN = (
    json.loads(GOLDEN_TRACES_PATH.read_text())
    if GOLDEN_TRACES_PATH.exists() else None
)


def test_golden_covers_every_workload():
    assert _GOLDEN is not None, f"missing {GOLDEN_TRACES_PATH}"
    assert _GOLDEN["runs"] == list(RUNS)
    assert sorted(_GOLDEN["traces"]) == sorted(workload_names())


@pytest.mark.parametrize("name", workload_names())
def test_trace_bit_identical_to_golden(name):
    assert _GOLDEN is not None, f"missing {GOLDEN_TRACES_PATH}"
    assert trace_record(name) == _GOLDEN["traces"][name], (
        f"{name}: trace or generator end state diverged from the golden "
        "digest — trace generation must stay bit-identical"
    )
