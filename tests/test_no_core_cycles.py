"""No reference cycle runs through a core: a finished core is freed the
moment its last reference goes, not at the cyclic collector's next pass.

Every core the runs below build (fresh and cloned) is tracked through a
weak reference, and the collector is off throughout, so a core that sits
in a reference cycle outlives its run and fails the test. ``MicroOp``
has ``__slots__`` without ``__weakref__``; the ops are counted among the
collector's tracked objects instead, where cyclic garbage stays listed
until a collection runs.
"""

import gc
import weakref
from dataclasses import replace

import pytest

from repro.harness.experiment import SCALES, ExperimentContext
from repro.pipeline import PipelineCore
from repro.pipeline.uops import MicroOp

CFG = replace(SCALES["quick"], benchmarks=("mcf",), dynamic_target=1_500,
              num_faults=16, warmup_commits=200, window_commits=60)


@pytest.fixture
def built(monkeypatch):
    """Weak references to every core built while the test runs, with
    the cyclic collector off."""
    refs = []
    init, clone = PipelineCore.__init__, PipelineCore.clone

    def tracked_init(core, *args, **kwargs):
        init(core, *args, **kwargs)
        refs.append(weakref.ref(core))

    def tracked_clone(core):
        twin = clone(core)
        refs.append(weakref.ref(twin))
        return twin

    monkeypatch.setattr(PipelineCore, "__init__", tracked_init)
    monkeypatch.setattr(PipelineCore, "clone", tracked_clone)
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield refs
    finally:
        if enabled:
            gc.enable()


def _live_micro_ops():
    return sum(type(obj) is MicroOp for obj in gc.get_objects())


def _assert_all_freed(refs):
    assert refs
    assert [ref for ref in refs if ref() is not None] == []
    assert _live_micro_ops() == 0


def test_campaign_phases_free_every_core(built):
    """A fault-free run, an SRT-iso run, a characterisation (golden and
    every twin) and a coverage phase run jointly with its fault-free
    run leave no core or micro-op behind."""
    ctx = ExperimentContext(CFG, jobs=1)
    ctx.fault_free("mcf", "baseline")
    ctx.srt_run("mcf")
    ctx.campaign("mcf")
    forks = len(built)
    ctx.fault_free("mcf", "faulthound")
    assert (("mcf", "faulthound") in ctx._coverage
            and ctx._coverage["mcf", "faulthound"].records)
    assert forks > 2 and len(built) > forks
    _assert_all_freed(built)


def test_sanitized_core_is_freed_when_dropped(built):
    ctx = ExperimentContext(CFG, jobs=1)
    core = ctx.make_core("mcf", "faulthound")
    sanitizer = core.enable_sanitizer(every=1)
    core.run(max_cycles=2_000)
    assert sanitizer.checks_run > 0
    del core
    _assert_all_freed(built)


def test_stats_returned_by_run_outlive_the_core(built):
    ctx = ExperimentContext(CFG, jobs=1)
    reference = ctx.make_core("mcf", "baseline")
    reference.run(max_cycles=3_000)
    cycles = reference.cycle
    del reference
    stats = ctx.make_core("mcf", "baseline").run(max_cycles=3_000)
    _assert_all_freed(built)
    assert stats.cycles == cycles
