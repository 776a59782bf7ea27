"""Traces cut from a longer cached trace against freshly generated ones.

:func:`repro.eval.runner.get_trace` serves a length it has not cached by
cutting a longer cached trace of the same workload, and points cached
shorter traces at the prefix of a newly generated longer one.  The oracle
here is always ``generate_trace`` (or :class:`TraceGenerator`) called
directly: every slot of every :class:`DynMicroOp`, the length, the
instruction count and the program must match a fresh generation.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.eval import runner
from repro.isa.instruction import DynMicroOp
from repro.workloads import build_workload, generate_trace
from repro.workloads.suite import all_workload_names
from repro.workloads.trace import TraceGenerator

WORKLOADS = all_workload_names()
#: A workload whose traces contain two-µ-op instructions.
CRACKED = "swim"


@pytest.fixture(autouse=True)
def _fresh_cache():
    runner.clear_trace_cache()
    yield
    runner.set_trace_cache_limit(48)
    runner.clear_trace_cache()


def fresh(name: str, uops: int):
    kernel = build_workload(name)
    return generate_trace(kernel.program, uops, name=name,
                          init_mem=kernel.init_mem)


def slots(uops) -> list[tuple]:
    return [tuple(getattr(u, s) for s in DynMicroOp.__slots__) for u in uops]


def assert_same_trace(got, want) -> None:
    assert len(got.uops) == len(want.uops)
    assert slots(got.uops) == slots(want.uops)
    assert got.inst_count == want.inst_count
    assert got.name == want.name


def counts(reg) -> tuple[int, int]:
    return (reg.value("workloads/trace/generated"),
            reg.value("workloads/trace/sliced"))


lengths = st.integers(min_value=1, max_value=1500)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(WORKLOADS), a=lengths, b=lengths,
       long_first=st.booleans(), evict=st.booleans())
def test_any_request_order_matches_fresh_generation(name, a, b, long_first,
                                                     evict):
    """Both lengths of a (short, long) pair, in either order, with the
    longer trace evicted between the requests or not."""
    runner.clear_trace_cache()
    short, long = sorted((a, b))
    first, second = (long, short) if long_first else (short, long)
    with obs.scoped_registry() as reg:
        t_first = runner.get_trace(name, first)
        if evict:
            runner.set_trace_cache_limit(1)
            runner.get_trace("mcf" if name != "mcf" else "gcc", 10)
            runner.set_trace_cache_limit(48)
        t_second = runner.get_trace(name, second)
    assert_same_trace(t_first, fresh(name, first))
    assert_same_trace(t_second, fresh(name, second))
    # A repeated length is an exact hit unless evicted in between.
    repeat = short == long and not evict
    sliced = long_first and not evict and short < long
    if sliced or repeat:
        assert t_second.program is t_first.program
    generated = 1 + evict + (not repeat and not sliced)
    assert counts(reg) == (generated, int(sliced))


def test_cut_ends_the_instruction_the_length_falls_inside():
    """A length inside a two-µ-op instruction takes the whole instruction,
    as the generator does, so the cut is one past the requested length."""
    source = runner.get_trace(CRACKED, 2000)
    inner = [i + 1 for i, u in enumerate(source.uops[:-1])
             if not u.is_last_uop]
    assert len(inner) > 20
    for n in inner[:20]:
        got = runner.get_trace(CRACKED, n)
        assert len(got.uops) == n + 1
        assert_same_trace(got, fresh(CRACKED, n))
        assert got.program is source.program


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_workload_cut_matches_fresh_generation(name):
    runner.get_trace(name, 900)
    for n in (1, 2, 449, 450, 451, 899):
        with obs.scoped_registry() as reg:
            got = runner.get_trace(name, n)
        assert counts(reg) == (0, 1)
        assert_same_trace(got, fresh(name, n))


def test_generator_runs_are_the_oracle_for_resumed_lengths():
    """The cut equals the first ``run`` of a generator, and what follows
    the cut in the longer trace equals its next ``run``."""
    kernel = build_workload(CRACKED)
    gen = TraceGenerator(kernel.program, init_mem=kernel.init_mem)
    head = gen.run(1001)
    tail = gen.run(500)
    source = runner.get_trace(CRACKED, 1800)
    got = runner.get_trace(CRACKED, 1001)
    assert slots(got.uops) == slots(head)
    assert got.inst_count == sum(u.is_last_uop for u in head)
    assert slots(source.uops[len(head):len(head) + len(tail)]) == slots(tail)


def test_equal_length_source_is_not_cut():
    """Only a cached trace with more µ-ops than asked for is cut."""
    inner = next(i + 1 for i, u in enumerate(fresh(CRACKED, 1000).uops)
                 if not u.is_last_uop)
    n = len(runner.get_trace(CRACKED, inner).uops)
    assert n == inner + 1
    with obs.scoped_registry() as reg:
        got = runner.get_trace(CRACKED, n)
    assert counts(reg) == (1, 0)
    assert (CRACKED, n) in runner._TRACE_CACHE
    assert_same_trace(got, fresh(CRACKED, n))


def test_cut_is_not_stored_and_refreshes_its_source():
    runner.set_trace_cache_limit(2)
    runner.get_trace(CRACKED, 3000)
    runner.get_trace("gcc", 100)
    a = runner.get_trace(CRACKED, 1200)    # cut: the source becomes newest
    b = runner.get_trace(CRACKED, 1200)
    assert a is not b
    assert (CRACKED, 1200) not in runner._TRACE_CACHE
    runner.get_trace("mcf", 100)           # evicts gcc, not the source
    assert list(runner._TRACE_CACHE) == [(CRACKED, 3000), ("mcf", 100)]


def test_longer_generation_repoints_shorter_traces():
    """Cached shorter traces of the workload keep their identity and their
    contents, now held as a prefix of the newest trace's µ-ops."""
    t1 = runner.get_trace(CRACKED, 700)
    t2 = runner.get_trace(CRACKED, 1300)
    other = runner.get_trace("gcc", 700)
    other_uops = other.uops
    long = runner.get_trace(CRACKED, 2500)
    for t, n in ((t1, 700), (t2, 1300)):
        assert runner.get_trace(CRACKED, n) is t
        assert all(u is v for u, v in zip(t.uops, long.uops))
        assert_same_trace(t, fresh(CRACKED, n))
    assert other.uops is other_uops
