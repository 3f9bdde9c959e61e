"""One golden interpretation per program: SRT lengths and branch oracles.

``dynamic_length`` and the SRT-iso trailing threads' branch oracle both
read one memoised pass per program object
(:func:`repro.isa.interpreter.golden_trace`). These tests hold them to
the interpretations that pass replaces: a plain :class:`Interpreter` run
for the length, and the oracle's per-step recording, truncation included.
"""

import pytest

from repro.isa.interpreter import Interpreter, golden_trace
from repro.isa.opcodes import Opcode
from repro.isa.semantics import branch_taken
from repro.redundancy import dynamic_length, srt_iso_core
from repro.workloads import PROFILES, build_smt_programs

#: Large enough that a low coverage's oracle limit falls short of the
#: program (``limit = max_commits * 2 + 1000``).
DYNAMIC_TARGET = 6_000


def plain_length(program) -> int:
    interp = Interpreter(program)
    interp.run(max_instructions=2_000_000)
    return interp.state.instret


def per_step_oracle(program, max_commits) -> list:
    """The recording a trailing thread's oracle was built from before the
    golden pass: step the thread's program, noting each conditional
    branch's outcome among the first ``limit`` instructions."""
    program = program.ensure_halts()
    interp = Interpreter(program)
    state = interp.state
    outcomes = []
    for _ in range((max_commits or 200_000) * 2 + 1000):
        if state.halted:
            break
        inst = program.fetch(state.pc)
        if inst is None:
            break
        if inst.is_branch and inst.opcode is not Opcode.JMP:
            outcomes.append(branch_taken(inst.opcode,
                                         state.read_reg(inst.rs1),
                                         state.read_reg(inst.rs2)))
        if interp.step() is None:
            break
    return outcomes


def oracles(programs, coverage, lengths):
    """The trailing threads' branch oracles of an SRT-iso core, with the
    ``max_commits`` each was built for."""
    core = srt_iso_core(programs, coverage=coverage, lengths=lengths)
    trailing = core.threads[len(programs):]
    return [(list(core._branch_oracles[t.thread_id]), t.max_commits)
            for t in trailing]


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_dynamic_length_equals_a_plain_run(name):
    for program in build_smt_programs(PROFILES[name], DYNAMIC_TARGET):
        length = plain_length(program)
        assert dynamic_length(program) == length
        assert dynamic_length(program, cap=100) == min(length, 100)


@pytest.mark.parametrize("name", sorted(PROFILES))
@pytest.mark.parametrize("coverage", [0.75, 0.2])
def test_oracle_equals_the_per_step_recording(name, coverage):
    programs = build_smt_programs(PROFILES[name], DYNAMIC_TARGET)
    lengths = [plain_length(p) for p in programs]
    # fresh programs: the oracle runs first, on an empty cache
    first = oracles(programs, coverage, lengths)
    for program, length, (oracle, max_commits) in zip(programs, lengths,
                                                      first):
        assert oracle == per_step_oracle(program, max_commits)
        limit = max_commits * 2 + 1000
        truncated = limit < length
        assert truncated == (coverage < 0.5), (limit, length)
        # a truncated first pass stops at the limit; the length then
        # re-interprets to halt, and the oracle reads the full trace
        assert golden_trace(program, limit).halted == (not truncated)
        assert dynamic_length(program) == length
        assert golden_trace(program, limit).halted
    assert oracles(programs, coverage, lengths) == first


def test_one_pass_serves_length_and_oracle():
    programs = build_smt_programs(PROFILES["mcf"], DYNAMIC_TARGET)
    lengths = [dynamic_length(p) for p in programs]
    traces = [golden_trace(p, 1) for p in programs]
    oracles(programs, 0.75, lengths)
    assert [golden_trace(p, 1) for p in programs] == traces
