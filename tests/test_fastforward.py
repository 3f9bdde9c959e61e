"""Event-skip fast-forward equivalence (the perf-opt contract).

The run drivers elide provably idle cycles by jumping ``core.cycle``
straight to the next cycle at which any structure can change state
(``PipelineCore.quiescent_until``). That is only admissible if the fast
path is *bit-for-bit* the cycle-by-cycle reference: same final cycle,
same commit stream, same trigger cycles, same campaign aggregates, with
every composition — sanitizer-armed, stage-profiled, cloned,
checkpointed, chunk-replayed — agreeing too. ``enable_fast_forward``
exists exactly so these tests can run both paths.
"""

import pickle
import random

import pytest

from repro.core import FaultHoundUnit
from repro.faults import Campaign, FaultClass
from repro.harness.diff import run_corpus
from repro.pipeline import PipelineCore
from repro.pipeline.checkpoint import CoreCheckpoint, capture_checkpoint
from repro.pipeline.debugger import PipelineDebugger
from repro.pipeline.stats import PipelineStats
from repro.workloads import PROFILES, build_smt_programs

from .program_gen import random_program


def _digest(core):
    """Everything the equivalence contract promises, in one comparable
    blob. Deliberately behavioural — raw scratch state like the FU
    bandwidth dict is reset at the top of every step and may legally
    differ across an elided stretch."""
    return {
        "cycle": core.cycle,
        "stat_cycles": core.stats.cycles,
        "committed": core.stats.committed,
        "per_thread": dict(core.stats.per_thread_committed),
        "recent": list(core.stats.recent_commits),
        "summary": core.stats.summary(),
        "arch": core.arch_snapshot(),
        "triggers": list(core.screen_trigger_cycles),
        "halted": core.all_halted,
    }


def _pair(profile, screening_factory=None, dynamic_target=2_500):
    """One fast-forwarding core and one cycle-by-cycle reference core,
    built identically."""
    cores = []
    for enabled in (True, False):
        unit = screening_factory() if screening_factory else None
        core = PipelineCore(
            build_smt_programs(PROFILES[profile], dynamic_target),
            screening=unit)
        core.enable_fast_forward(enabled)
        cores.append(core)
    return cores


def _disable_globally(monkeypatch):
    """Force the legacy path for cores constructed inside harness code."""
    monkeypatch.setattr(PipelineCore, "elide_idle_cycles",
                        lambda self, bound: False)


# ----------------------------------------------------------------------
# plain runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("profile", ["mcf", "bzip2"])
@pytest.mark.parametrize("scheme", [None, "faulthound"])
def test_plain_run_bit_for_bit(profile, scheme):
    factory = FaultHoundUnit if scheme else None
    fast, slow = _pair(profile, factory)
    fast.run(150_000)
    slow.run(150_000)
    assert fast.cycles_elided > 0          # the fast path actually jumped
    assert slow.cycles_elided == 0
    assert _digest(fast) == _digest(slow)


def test_interleaved_drivers_equivalent():
    """Mixed driver usage (commit-targeted, cycle-targeted, absolute)
    lands both cores on identical state at every boundary."""
    fast, slow = _pair("mcf")
    for core in (fast, slow):
        core.run_until_commits(400)
        core.step_until(core.cycle + 500)
        core.run_to_commit(core.stats.committed + 300, 50_000)
    assert _digest(fast) == _digest(slow)


def test_deadlock_bound_is_exact():
    """A core that can never halt inside the budget lands at exactly
    ``start + max_cycles`` on both paths (the hung-window contract)."""
    fast, slow = _pair("mcf", dynamic_target=50_000)
    fast.run(2_000)
    slow.run(2_000)
    assert fast.cycle == slow.cycle == 2_000
    assert _digest(fast) == _digest(slow)


# ----------------------------------------------------------------------
# composition: sanitizer, stage profiling, clone, checkpoint
# ----------------------------------------------------------------------
@pytest.mark.parametrize("every", [1, 7])
def test_periodic_sanitizer_checks_compose(every):
    """A periodic sanitizer caps each jump so its checks run at exactly
    the legacy cycles — violation counts and state agree; ``every=1``
    degenerates to zero elision."""
    fast, slow = _pair("bzip2")
    sanitizers = []
    for core in (fast, slow):
        sanitizers.append(core.enable_sanitizer(every=every))
        core.run(60_000)
    assert _digest(fast) == _digest(slow)
    assert len(sanitizers[0].violations) == len(sanitizers[1].violations)
    if every == 1:
        assert fast.cycles_elided == 0
    else:
        assert fast.cycles_elided > 0


def test_explicit_sanitizer_mode_does_not_clamp():
    fast, _ = _pair("mcf")
    fast.enable_sanitizer(every=0)
    fast.run(60_000)
    assert fast.cycles_elided > 0
    assert fast.check_invariants() == []


def test_stage_profiling_composes_with_idle_skip():
    fast, slow = _pair("mcf")
    for core in (fast, slow):
        core.enable_stage_profiling()
        core.run(60_000)
    assert _digest(fast) == _digest(slow)
    assert fast.stage_seconds.get("idle-skip", 0.0) > 0.0
    assert "idle-skip" not in slow.stage_seconds


def test_clone_carries_fast_forward_state():
    fast, slow = _pair("bzip2")
    for core in (fast, slow):
        core.run_until_commits(300)
    fork_fast, fork_slow = fast.clone(), slow.clone()
    assert fork_fast.fast_forward and not fork_slow.fast_forward
    fork_fast.run(40_000)
    fork_slow.run(40_000)
    assert _digest(fork_fast) == _digest(fork_slow)
    # the fork's stats derive from the fork's cycle, not the parent's
    assert fork_fast.stats.cycles == fork_fast.cycle != fast.cycle


def test_checkpoint_restore_preserves_equivalence():
    fast, slow = _pair("bzip2")
    for core in (fast, slow):
        core.run_until_commits(300)
    restored_fast = capture_checkpoint(fast).restore()
    restored_slow = capture_checkpoint(slow).restore()
    assert restored_fast.fast_forward and not restored_slow.fast_forward
    # the restored core's stats re-bind to it (live derivation)
    assert restored_fast.stats.cycles == restored_fast.cycle
    restored_fast.run(40_000)
    restored_slow.run(40_000)
    assert _digest(restored_fast) == _digest(restored_slow)


# ----------------------------------------------------------------------
# tandem classifier: serial campaign and chunk-replay (parallel worker)
# ----------------------------------------------------------------------
def _window_digest(results):
    return [(r.applied, r.fault_class, r.state_equal, r.extra_exceptions,
             r.hung, r.replays, r.rollbacks, r.singletons, r.declared,
             r.suppressions, r.triggers, r.inject_cycle,
             r.first_trigger_cycle, r.detection_latency)
            for r in results]


def _campaign(seed=11, n=12, screening=None):
    program = random_program(random.Random(seed), body_len=25,
                             iterations=1_500)
    factory = (lambda: PipelineCore([program], screening=screening()
                                    if screening else None))
    campaign = Campaign("ff-test", factory, num_phys_regs=224,
                        num_threads=1, num_faults=n, seed=seed,
                        warmup_commits=200, window_commits=100,
                        max_window_cycles=30_000)
    return campaign


@pytest.mark.parametrize("screening", [None, FaultHoundUnit])
def test_campaign_characterization_bit_for_bit(monkeypatch, screening):
    fast = _campaign(screening=screening).characterize()
    _disable_globally(monkeypatch)
    slow = _campaign(screening=screening).characterize()
    assert _window_digest(fast.characterization) \
        == _window_digest(slow.characterization)


def test_chunk_replay_matches_serial_tail():
    """A pool worker restores its chunk-boundary checkpoint (captured
    after the golden pass replays the prefix) and must classify its
    chunk bit-for-bit like the serial classifier's tail (with fast-
    forward active on both sides)."""
    serial = _campaign(seed=7)
    whole = serial.classifier(serial.baseline_factory).run(serial.records)

    chunked = _campaign(seed=7)
    split = len(chunked.records) // 2
    classifier = chunked.classifier(chunked.baseline_factory)
    golden = chunked.baseline_factory()
    classifier.advance_golden(golden, chunked.records[:split])
    checkpoint = CoreCheckpoint.capture(
        golden, window_index=split,
        resume_at_commit=chunked.records[split - 1].inject_at_commit)
    tail = classifier.run(chunked.records[split:],
                          golden=checkpoint.restore(),
                          resume_at_commit=checkpoint.resume_at_commit)
    assert _window_digest(tail) == _window_digest(whole[split:])


# ----------------------------------------------------------------------
# differential corpus (the `repro verify` harness)
# ----------------------------------------------------------------------
def _corpus_digest(**kwargs):
    report = run_corpus(count=6, base_seed=12, max_cycles=60_000, **kwargs)
    return (report.summary(),
            [(o.ok, o.cycles, o.commits, o.invariant_violations,
              o.mem_order_violations, o.forwarded_loads)
             for o in report.outcomes])


def test_differential_corpus_unsanitized(monkeypatch):
    fast = _corpus_digest(sanitize=False)
    _disable_globally(monkeypatch)
    assert fast == _corpus_digest(sanitize=False)


def test_differential_corpus_periodic_sanitizer(monkeypatch):
    fast = _corpus_digest(sanitize=True, sanitize_every=5)
    _disable_globally(monkeypatch)
    assert fast == _corpus_digest(sanitize=True, sanitize_every=5)


# ----------------------------------------------------------------------
# debugger
# ----------------------------------------------------------------------
def test_debugger_stops_at_identical_cycles():
    stops = []
    for enabled in (True, False):
        program = random_program(random.Random(3), body_len=20,
                                 iterations=400)
        dbg = PipelineDebugger(PipelineCore([program]))
        dbg.fast_forward = enabled
        dbg.break_on_event("mispredict")
        bp = dbg.cont(100_000)
        first = (dbg.core.cycle, dbg.last_stop, bp is not None)
        dbg.clear_breakpoints()
        dbg.cont(200_000)                      # run to halt
        stops.append((first, dbg.core.cycle, dbg.last_stop,
                      _digest(dbg.core)))
    assert stops[0] == stops[1]


# ----------------------------------------------------------------------
# derived stats.cycles regression
# ----------------------------------------------------------------------
def test_stats_cycles_derives_from_core_cycle():
    core, _ = _pair("mcf")
    core.run_until_commits(100)
    assert core.stats.cycles == core.cycle
    core.step()
    assert core.stats.cycles == core.cycle


def test_stats_summary_shape_unchanged():
    core, _ = _pair("mcf")
    core.run_until_commits(100)
    summary = core.stats.summary()
    assert summary["cycles"] == core.cycle
    assert set(summary) == {
        "cycles", "committed", "ipc", "branch_mispredicts",
        "memory_order_violations", "replay_events", "replayed_ops",
        "rollback_events", "rollback_squashed_ops", "singleton_reexecs",
        "singleton_mismatch_detections", "delay_buffer_squashes",
        "regfile_reads", "regfile_writes", "exceptions"}
    assert summary["ipc"] == round(core.stats.committed / core.cycle, 4)


def test_stats_clone_detaches_and_materialises():
    core, _ = _pair("mcf")
    core.run_until_commits(100)
    frozen = core.stats.clone()
    at_clone = core.cycle
    core.step_until(core.cycle + 50)
    assert frozen.cycles == at_clone          # detached: did not advance
    assert core.stats.cycles == core.cycle


def test_stats_pickle_materialises_and_migrates_legacy_key():
    core, _ = _pair("mcf")
    core.run_until_commits(100)
    at_dump = core.cycle
    restored = pickle.loads(pickle.dumps(core.stats))
    assert restored.cycles == at_dump
    assert restored.ipc == pytest.approx(core.stats.ipc)

    # a stats dict pickled before cycles became derived uses the old key
    legacy_state = restored.__getstate__()
    legacy_state["cycles"] = legacy_state.pop("_cycles")
    legacy = PipelineStats.__new__(PipelineStats)
    legacy.__setstate__(legacy_state)
    assert legacy.cycles == at_dump


def test_stats_setter_still_writes():
    stats = PipelineStats()
    stats.cycles = 42
    assert stats.cycles == 42
