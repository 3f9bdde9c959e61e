"""PC-indexed filter-table tests (the PBFS substrate shared with the
no-clustering ablation)."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import VALUE_MASK
from repro.core.bitmask_filter import BitmaskFilter
from repro.core.pbfs import PCIndexedFilterTable


class TestPCIndexedTable:
    def test_cold_install_no_trigger(self):
        table = PCIndexedFilterTable(16, "sticky")
        triggered, mask = table.check(pc=3, value=0x40)
        assert not triggered and mask == 0
        assert table.lookups == 1 and table.triggers == 0

    def test_mismatch_reports_mask(self):
        table = PCIndexedFilterTable(16, "sticky")
        table.check(3, 0b0000)
        triggered, mask = table.check(3, 0b0101)
        assert triggered and mask == 0b0101
        assert table.triggers == 1

    def test_pc_aliasing_shares_entries(self):
        """PCs congruent modulo the table size collide — the conflict
        behaviour real PBFS tables have."""
        table = PCIndexedFilterTable(8, "sticky")
        table.check(pc=1, value=0)
        triggered, _ = table.check(pc=9, value=0xFF00)   # same entry
        assert triggered

    def test_distinct_pcs_learn_independently(self):
        """The spreading weakness: the same value stream must be learned
        once per static instruction."""
        table = PCIndexedFilterTable(64, "biased")
        triggers = 0
        for pc in (1, 2, 3):
            table.check(pc, 0b00)
            triggered, _ = table.check(pc, 0b01)
            triggers += triggered
        assert triggers == 3

    def test_sticky_saturation_blinds_the_bit(self):
        table = PCIndexedFilterTable(8, "sticky")
        table.check(1, 0b0)
        table.check(1, 0b1)            # trigger + saturate bit 0
        table.check(1, 0b0)
        triggered, _ = table.check(1, 0b1)
        assert not triggered           # bit 0 is dead until flash clear

    def test_flash_clear_rearms(self):
        table = PCIndexedFilterTable(8, "sticky")
        table.check(1, 0b0)
        table.check(1, 0b1)
        table.flash_clear()
        table.check(1, 0b1)            # re-learn the (new) previous value
        triggered, _ = table.check(1, 0b0)
        assert triggered

    def test_biased_bank_decays_instead_of_sticking(self):
        table = PCIndexedFilterTable(8, "biased")
        table.check(1, 0b0)
        table.check(1, 0b1)            # trigger; bit 0 -> changing
        table.check(1, 0b1)            # quiet
        table.check(1, 0b1)            # quiet -> re-armed
        triggered, _ = table.check(1, 0b0)
        assert triggered

    def test_standard_bank_supported(self):
        table = PCIndexedFilterTable(8, "standard", changing_states=3)
        table.check(1, 0)
        triggered, _ = table.check(1, 1)
        assert triggered

    def test_len(self):
        assert len(PCIndexedFilterTable(32, "sticky")) == 32


class _EagerTable:
    """The table as it was built before entries materialised on first
    use: every entry a BitmaskFilter from the start. The oracle of the
    equivalence tests."""

    def __init__(self, entries, bank_kind, changing_states=2):
        self.entries = [BitmaskFilter(bank_kind, changing_states)
                        for _ in range(entries)]
        self.bank_kind = bank_kind
        self.lookups = 0
        self.triggers = 0

    def check(self, pc, value):
        self.lookups += 1
        value &= VALUE_MASK
        entry = self.entries[pc % len(self.entries)]
        if not entry.valid:
            entry.install(value)
            return False, 0
        mismatch = entry.mismatch_mask(value)
        entry.update(value)
        if mismatch:
            self.triggers += 1
            return True, mismatch
        return False, 0

    def flash_clear(self):
        for entry in self.entries:
            if entry.valid:
                entry.flash_clear()

    def clone(self):
        twin = _EagerTable.__new__(_EagerTable)
        twin.entries = [entry.clone() for entry in self.entries]
        twin.bank_kind = self.bank_kind
        twin.lookups = self.lookups
        twin.triggers = self.triggers
        return twin


def _assert_same(lazy, eager):
    assert len(lazy) == len(eager.entries)
    assert (lazy.lookups, lazy.triggers) == (eager.lookups, eager.triggers)
    for index, entry in enumerate(eager.entries):
        live = lazy.entries.get(index)
        if not entry.valid:
            assert live is None
            continue
        assert (live.previous, live.changing_mask) == (
            entry.previous, entry.changing_mask)


_BANKS = [("sticky", 2), ("biased", 2), ("biased", 3), ("standard", 3)]
_VALUES = st.one_of(st.integers(0, 7),
                    st.integers(0, 63).map(lambda bit: 1 << bit),
                    st.integers(0, (1 << 64) + 5))
_STEPS = st.lists(st.one_of(
    st.tuples(st.just("check"), st.integers(0, 40), _VALUES),
    st.just(("clear",)), st.just(("clone",))), max_size=80)


class TestLazyTableMatchesEager:
    @settings(max_examples=60, deadline=None)
    @given(bank=st.sampled_from(_BANKS), size=st.sampled_from([1, 8, 16]),
           steps=_STEPS)
    def test_one_stream_of_checks_clears_and_clones(self, bank, size, steps):
        kind, states = bank
        lazy = PCIndexedFilterTable(size, kind, states)
        eager = _EagerTable(size, kind, states)
        forked = []
        for step in steps:
            if step[0] == "check":
                assert lazy.check(step[1], step[2]) == eager.check(
                    step[1], step[2])
            elif step[0] == "clear":
                lazy.flash_clear()
                eager.flash_clear()
            else:
                # the originals stay behind as forks: they must not move
                forked.append((lazy, eager, lazy.clone(), eager.clone()))
                lazy, eager = lazy.clone(), eager.clone()
        _assert_same(lazy, eager)
        for old_lazy, old_eager, lazy_then, eager_then in forked:
            _assert_same(old_lazy, old_eager)
            _assert_same(old_lazy, eager_then)
            _assert_same(lazy_then, old_eager)

    @pytest.mark.parametrize("kind,states", _BANKS)
    def test_list_form_pickle_loads(self, kind, states):
        """A table pickled with every entry built loads as the dict of
        its valid entries and screens on exactly as before."""
        eager = _EagerTable(16, kind, states)
        for pc, value in [(1, 0), (1, 5), (3, 9), (17, 2), (5, 0)]:
            eager.check(pc, value)
        old = PCIndexedFilterTable.__new__(PCIndexedFilterTable)
        old.__dict__.update(entries=[e.clone() for e in eager.entries],
                            bank_kind=kind, lookups=eager.lookups,
                            triggers=eager.triggers)
        table = pickle.loads(pickle.dumps(old))
        assert sorted(table.entries) == [1, 3, 5]
        assert table.changing_states == states
        _assert_same(table, eager)
        for pc, value in [(1, 7), (3, 9), (9, 4), (9, 6), (5, 1 << 40)]:
            assert table.check(pc, value) == eager.check(pc, value)
        _assert_same(table, eager)

    def test_untouched_entries_are_not_built(self):
        table = PCIndexedFilterTable(2048, "biased")
        table.check(5, 1)
        table.check(2053, 2)
        assert len(table) == 2048 and sorted(table.entries) == [5]
        assert sorted(table.clone().entries) == [5]
