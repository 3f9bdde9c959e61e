"""Differential test: the production TCAM vs a deliberately naive
reference implementation (explicit machine objects, no bitboards)."""

import collections
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TCAM
from repro.core.state_machines import BiasedMachine

MASK64 = (1 << 64) - 1


class ReferenceFilter:
    """One filter, spelled out bit by bit."""

    def __init__(self):
        self.machines = [BiasedMachine(2) for _ in range(64)]
        self.previous = 0
        self.valid = False

    def changing_mask(self):
        mask = 0
        for bit, machine in enumerate(self.machines):
            if machine.is_changing:
                mask |= 1 << bit
        return mask

    def mismatch_mask(self, value):
        return ~self.changing_mask() & (value ^ self.previous) & MASK64

    def install(self, value):
        self.machines = [BiasedMachine(2) for _ in range(64)]
        self.previous = value
        self.valid = True

    def update(self, value):
        diff = value ^ self.previous
        for bit, machine in enumerate(self.machines):
            machine.observe(bool(diff >> bit & 1))
        self.previous = value


class ReferenceTCAM:
    """Linear-search nearest-neighbour with the same policies."""

    def __init__(self, entries, threshold):
        self.entries = [ReferenceFilter() for _ in range(entries)]
        self.threshold = threshold
        self.lru = list(range(entries))
        #: The entry the last lookup replaced with a fresh filter, if any.
        self.replaced = None

    def touch(self, index):
        self.lru.remove(index)
        self.lru.insert(0, index)

    def lookup(self, value):
        value &= MASK64
        self.replaced = None
        closest, best_count = -1, 65
        for index, entry in enumerate(self.entries):
            if not entry.valid:
                continue
            count = entry.mismatch_mask(value).bit_count()
            if count < best_count:
                closest, best_count = index, count
                if count == 0:
                    break
        if closest >= 0 and best_count == 0:
            self.entries[closest].update(value)
            self.touch(closest)
            return False, closest, 0
        if closest < 0:
            index = self.lru[-1]
            self.entries[index].install(value)
            self.touch(index)
            return False, index, 0
        if best_count <= self.threshold:
            self.entries[closest].update(value)
            self.touch(closest)
            return True, closest, best_count
        victim = next((i for i in reversed(self.lru)
                       if not self.entries[i].valid), self.lru[-1])
        self.entries[victim].install(value)
        self.touch(victim)
        self.replaced = victim
        return True, closest, best_count


# value streams with reuse (pure random never matches anything)
def streams():
    base_values = st.lists(st.integers(0, MASK64), min_size=2, max_size=5)
    picks = st.lists(st.tuples(st.integers(0, 4),
                               st.integers(0, 15)),
                     min_size=1, max_size=50)
    return st.tuples(base_values, picks)


@settings(max_examples=40, deadline=None)
@given(streams())
def test_production_tcam_matches_reference(data):
    bases, picks = data
    production = TCAM(entries=4, loosen_threshold=4)
    reference = ReferenceTCAM(entries=4, threshold=4)
    for which, jitter in picks:
        value = (bases[which % len(bases)] ^ jitter) & MASK64
        result = production.lookup(value)
        triggered, closest, count = reference.lookup(value)
        assert result.triggered == triggered
        assert result.closest_index == closest
        assert result.mismatch_count == count


@settings(max_examples=30, deadline=None)
@given(streams())
def test_internal_state_tracks_reference(data):
    bases, picks = data
    production = TCAM(entries=3, loosen_threshold=4)
    reference = ReferenceTCAM(entries=3, threshold=4)
    for which, jitter in picks:
        value = (bases[which % len(bases)] ^ jitter) & MASK64
        production.lookup(value)
        reference.lookup(value)
    for prod, ref in zip(production.entries, reference.entries):
        assert prod.valid == ref.valid
        if prod.valid:
            assert prod.previous == ref.previous
            assert prod.changing_mask == ref.changing_mask()


def _forcing_stream(seed, length=400):
    """Values from a few far-apart regions (64-bit random high parts),
    each jittered in its low 7 bits: a region's first value is a far miss
    (a cold install, then never-used entries, then LRU victims), small
    jitters loosen, and several entries in one region tie."""
    rng = random.Random(seed)
    regions = [rng.getrandbits(64) & ~0x7F for _ in range(6)]
    for step in range(length):
        region = regions[rng.randrange(min(len(regions), 2 + step // 40))]
        yield region | rng.getrandbits(7)


@pytest.mark.parametrize("seed", range(6))
def test_use_stamp_lru_matches_list_lru_reference(seed):
    """The use-stamp LRU must pick exactly the list-ordered LRU's entries:
    the same closest index and the same replaced index, lookup by
    lookup, over a stream that exercises every path."""
    production = TCAM(entries=4, loosen_threshold=3)
    reference = ReferenceTCAM(entries=4, threshold=3)
    seen = collections.Counter()
    for value in _forcing_stream(seed):
        counts = [entry.mismatch_mask(value).bit_count()
                  for entry in reference.entries if entry.valid]
        valid_before = sum(entry.valid for entry in reference.entries)
        result = production.lookup(value)
        triggered, closest, count = reference.lookup(value)
        assert result.closest_index == closest
        assert result.replaced_index == reference.replaced
        assert (result.triggered, result.mismatch_count) == (triggered,
                                                             count)
        if result.cold_install:
            seen["cold"] += 1
        elif result.replaced_index is not None:
            seen["never-used" if valid_before < 4 else "lru"] += 1
        elif result.triggered:
            seen["loosen"] += 1
        if counts.count(min(counts, default=-1)) > 1:
            seen["tie"] += 1
    for prod, ref in zip(production.entries, reference.entries):
        assert prod.valid == ref.valid
        assert prod.unchanging == ~ref.changing_mask() & MASK64
    # the stream really forced every path it is meant to cover
    assert seen["cold"] == 1
    assert seen["never-used"] == 3
    assert seen["lru"] > 0 and seen["loosen"] > 0 and seen["tie"] > 0
