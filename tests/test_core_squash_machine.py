"""Squash state-machine tests (paper Section 3.4)."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SquashMachineBank
from repro.core.state_machines import BiasedMachine


def test_first_trigger_from_quiet_entry_licenses_squash():
    bank = SquashMachineBank(entries=4)
    assert bank.observe_trigger(2) is True


def test_repeated_trigger_same_entry_suppressed():
    """An entry that keeps being the closest match is exhibiting natural
    value-locality change, not a rename fault."""
    bank = SquashMachineBank(entries=4)
    bank.observe_trigger(1)
    assert bank.observe_trigger(1) is False


def test_identity_change_detected():
    """Rename faults change which filter is closest: a trigger pointing at
    a long-quiet entry is allowed to squash."""
    bank = SquashMachineBank(entries=4)
    for _ in range(10):
        bank.observe_trigger(0)        # entry 0 chronically triggering
    assert bank.observe_trigger(3) is True


def test_entry_needs_seven_quiet_triggers_to_rearm():
    bank = SquashMachineBank(entries=2, num_states=8)
    bank.observe_trigger(0)
    for _ in range(6):
        bank.observe_trigger(1)        # six quiet events for entry 0
    assert bank.observe_trigger(0) is False
    # note: entry 1 is now delinquent itself; drive quiet events via entry 0
    # which is freshly saturated.
    for _ in range(7):
        bank.observe_trigger(0)
    # entry 1 has been quiet 7 times -> re-armed
    assert bank.observe_trigger(1) is True


def test_replaced_entry_loses_squash_rights():
    bank = SquashMachineBank(entries=4)
    # arm entry 2 (never triggered), then replace it: rights revoked.
    bank.entry_replaced(2)
    assert bank.observe_trigger(2) is False


def test_statistics():
    bank = SquashMachineBank(entries=2)
    bank.observe_trigger(0)            # allowed
    bank.observe_trigger(0)            # suppressed
    assert bank.squashes_allowed == 1
    assert bank.squashes_suppressed == 1


def test_state_inspection():
    bank = SquashMachineBank(entries=2, num_states=8)
    bank.observe_trigger(0)
    assert bank.state_of(0) == 7
    assert bank.state_of(1) == 0


def test_rejects_too_few_states():
    with pytest.raises(ValueError):
        SquashMachineBank(entries=2, num_states=1)


@pytest.mark.parametrize("num_states", [2, 3, 8, 9])
@settings(max_examples=40, deadline=None)
@given(steps=st.lists(st.tuples(
    st.sampled_from(["trigger", "trigger", "trigger", "replace", "clone"]),
    st.integers(-1, 34)), max_size=80))
def test_matches_scalar_machines_step_for_step(num_states, steps):
    """The bit-sliced bank and 32 scalar BiasedMachines agree on every
    licence and every entry's state, through replacements and clones."""
    bank = SquashMachineBank(32, num_states)
    machines = [BiasedMachine(num_states - 1) for _ in range(32)]
    for op, index in steps:
        if op == "trigger":
            expected = False
            for entry, machine in enumerate(machines):
                if machine.observe(entry == index):
                    expected = True
            assert bank.observe_trigger(index) is expected
        elif op == "replace" and 0 <= index < 32:
            bank.entry_replaced(index)
            machines[index].saturate()
        elif op == "clone":
            twin = bank.clone()
            bank.observe_trigger(index)      # the fork must not move
            bank.entry_replaced(0)
            bank = twin
            machines = [machine.clone() for machine in machines]
        assert [bank.state_of(i) for i in range(32)] == [
            machine.state for machine in machines]
    assert len(bank) == 32


def test_scalar_pickle_loads():
    """A bank pickled as a list of scalar machines loads sliced."""
    machines = [BiasedMachine(7) for _ in range(4)]
    machines[1].state, machines[3].state = 7, 2
    old = SquashMachineBank.__new__(SquashMachineBank)
    old.__dict__.update(_machines=machines, squashes_allowed=1,
                        squashes_suppressed=0)
    bank = pickle.loads(pickle.dumps(old))
    assert len(bank) == 4
    assert [bank.state_of(i) for i in range(4)] == [0, 7, 0, 2]
    assert bank.observe_trigger(0) is True
    assert [bank.state_of(i) for i in range(4)] == [7, 6, 0, 1]
