"""Second-level delinquent-bit filter tests (paper Section 3.2)."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SecondLevelFilter
from repro.core.state_machines import BiasedMachine


def test_fresh_filter_allows_first_alarm():
    second = SecondLevelFilter()
    assert second.observe_trigger(0b100) == 0b100


def test_delinquent_bit_suppressed_on_repeat():
    second = SecondLevelFilter()
    second.observe_trigger(0b1)
    # The same bit alarming again within 7 triggers is suppressed.
    assert second.observe_trigger(0b1) == 0


def test_rearms_after_seven_quiet_triggers():
    second = SecondLevelFilter(num_states=8)
    second.observe_trigger(0b1)
    for _ in range(7):
        second.observe_trigger(0)      # quiet trigger events re-arm bit 0
    assert second.observe_trigger(0b1) == 0b1


def test_mixed_mask_partial_allow():
    second = SecondLevelFilter()
    second.observe_trigger(0b01)       # bit 0 now delinquent
    allowed = second.observe_trigger(0b11)
    assert allowed == 0b10             # bit 1 fresh -> allowed; bit 0 suppressed


def test_suppressed_trigger_still_recorded():
    """Even suppressed non-matches advance the machine (the paper: "though
    the state machine transitions to record the non-match")."""
    second = SecondLevelFilter()
    second.observe_trigger(0b1)
    for _ in range(6):
        second.observe_trigger(0)
    second.observe_trigger(0b1)        # suppressed but re-saturates bit 0
    for _ in range(6):
        second.observe_trigger(0)
    assert second.observe_trigger(0b1) == 0  # still suppressed: not yet 7 quiet


def test_allows_probe_is_side_effect_free():
    second = SecondLevelFilter()
    assert second.allows(0b1)
    second.observe_trigger(0b1)
    assert not second.allows(0b1)
    assert second.allows(0b10)


def test_delinquent_mask_tracks_suppressed_positions():
    second = SecondLevelFilter()
    second.observe_trigger(0b1010)
    assert second.delinquent_mask == 0b1010


def test_suppression_statistics():
    second = SecondLevelFilter()
    second.observe_trigger(0b1)        # allowed
    second.observe_trigger(0b1)        # suppressed
    assert second.observed_triggers == 2
    assert second.suppressed_triggers == 1


def test_rejects_too_few_states():
    with pytest.raises(ValueError):
        SecondLevelFilter(num_states=1)


_MASKS = st.one_of(st.integers(0, 15),
                   st.integers(0, 63).map(lambda bit: 1 << bit),
                   st.integers(0, (1 << 64) + 3))


@pytest.mark.parametrize("num_states", [2, 3, 8, 9])
@settings(max_examples=40, deadline=None)
@given(steps=st.lists(st.one_of(st.tuples(st.just("trigger"), _MASKS),
                                st.tuples(st.just("clone"), _MASKS)),
                      max_size=60))
def test_matches_scalar_machines_step_for_step(num_states, steps):
    """The bit-sliced filter and 64 scalar BiasedMachines agree on every
    allowed mask, every probe and every position's state."""
    second = SecondLevelFilter(num_states)
    machines = [BiasedMachine(num_states - 1) for _ in range(64)]
    for op, mask in steps:
        if op == "clone":
            twin = second.clone()
            second.observe_trigger(~mask)    # the fork must not move
            second = twin
            machines = [machine.clone() for machine in machines]
            assert second.allows(mask) == any(
                mask >> bit & 1 and not machine.state
                for bit, machine in enumerate(machines))
            continue
        expected = 0
        for bit, machine in enumerate(machines):
            if machine.observe(bool(mask >> bit & 1)):
                expected |= 1 << bit
        assert second.observe_trigger(mask) == expected
        assert second.delinquent_mask == sum(
            1 << bit for bit, machine in enumerate(machines) if machine.state)
    assert [second._machines.state(bit) for bit in range(64)] == [
        machine.state for machine in machines]


def test_scalar_pickle_loads():
    """A filter pickled as a list of scalar machines loads sliced."""
    reference = SecondLevelFilter(9)
    for mask in (0b1, 0b110, 0, 1 << 63):
        reference.observe_trigger(mask)
    machines = [BiasedMachine(8) for _ in range(64)]
    for bit, machine in enumerate(machines):
        machine.state = reference._machines.state(bit)
    old = SecondLevelFilter.__new__(SecondLevelFilter)
    old.__dict__.update(_machines=machines, observed_triggers=4,
                        suppressed_triggers=0)
    loaded = pickle.loads(pickle.dumps(old))
    assert loaded.delinquent_mask == reference.delinquent_mask
    for mask in (0b1, 0b1000, 1 << 63, 0):
        assert loaded.observe_trigger(mask) == reference.observe_trigger(mask)
