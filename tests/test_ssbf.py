"""Tests for the tagged store sequence Bloom filter (T-SSBF)."""

from hypothesis import given, settings, strategies as st

from repro.core import TaggedSSBF


class TestTaggedSSBF:
    def test_update_then_lookup(self):
        ssbf = TaggedSSBF(entries=16, assoc=4)
        ssbf.update(addr=0x100, size=8, ssn=7)
        entry = ssbf.lookup(0x100)
        assert entry.ssn == 7
        assert entry.offset == 0
        assert entry.size == 8

    def test_offset_and_size_recorded(self):
        """Section 3.5: the entry's offset/size let shift predictions be
        verified without replay."""
        ssbf = TaggedSSBF(entries=16, assoc=4)
        ssbf.update(addr=0x104, size=2, ssn=3)
        entry = ssbf.lookup(0x104)
        assert entry.offset == 4
        assert entry.size == 2
        assert entry.store_range == (4, 6)

    def test_same_word_update_overwrites(self):
        ssbf = TaggedSSBF(entries=16, assoc=4)
        ssbf.update(0x100, 8, ssn=1)
        ssbf.update(0x102, 2, ssn=2)
        entry = ssbf.lookup(0x100)
        assert entry.ssn == 2
        assert entry.offset == 2

    def test_word_granularity(self):
        ssbf = TaggedSSBF(entries=16, assoc=4)
        ssbf.update(0x100, 8, ssn=1)
        assert ssbf.lookup(0x107) is not None
        assert ssbf.lookup(0x108) is None

    def test_store_spanning_words_updates_both(self):
        ssbf = TaggedSSBF(entries=16, assoc=4)
        ssbf.update(0x104, 8, ssn=9)   # touches words 0x100 and 0x108
        assert ssbf.lookup(0x100).ssn == 9
        assert ssbf.lookup(0x108).ssn == 9
        # The second word's entry places the store's start 4 bytes
        # before its base, so shifts verify from the store's start.
        assert ssbf.lookup(0x108).offset == -4
        assert ssbf.lookup(0x108).store_range == (0, 4)

    def test_fifo_eviction_raises_watermark(self):
        ssbf = TaggedSSBF(entries=4, assoc=4)   # one set
        for i in range(5):
            ssbf.update(0x100 + 8 * i * 4, 8, ssn=i + 1)   # same set? no --
        # force conflicts within one set by using a 1-set filter
        ssbf = TaggedSSBF(entries=2, assoc=2)
        ssbf.update(0x100, 8, ssn=1)
        ssbf.update(0x110, 8, ssn=2)
        ssbf.update(0x120, 8, ssn=3)   # evicts ssn 1
        assert ssbf.evicted_watermark(0x100) >= 1

    def test_youngest_store_ssn_includes_watermark(self):
        ssbf = TaggedSSBF(entries=2, assoc=2)
        ssbf.update(0x100, 8, ssn=5)
        ssbf.update(0x110, 8, ssn=6)
        ssbf.update(0x120, 8, ssn=7)   # evicts ssn 5
        # The evicted store's SSN still bounds the answer for its address.
        assert ssbf.youngest_store_ssn(0x100, 8) >= 5

    def test_clear(self):
        ssbf = TaggedSSBF(entries=16, assoc=4)
        ssbf.update(0x100, 8, ssn=1)
        ssbf.clear()
        assert ssbf.lookup(0x100) is None
        assert ssbf.evicted_watermark(0x100) == 0


class TestFilterSafetyProperty:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),   # word slot
                st.sampled_from([1, 2, 4, 8]),
                st.integers(min_value=0, max_value=7),
            ),
            min_size=1, max_size=80,
        )
    )
    @settings(max_examples=60)
    def test_tagged_never_underestimates(self, stores):
        """SAFETY: youngest_store_ssn must never be smaller than the true
        youngest committed store to any queried address -- otherwise the
        inequality test could skip a necessary re-execution."""
        ssbf = TaggedSSBF(entries=8, assoc=2)   # tiny: heavy eviction
        truth: dict[int, int] = {}
        for ssn, (slot, size, offset) in enumerate(stores, start=1):
            addr = 0x1000 + 8 * slot + (offset % max(1, 9 - size))
            addr -= addr % size   # keep accesses aligned
            ssbf.update(addr, size, ssn)
            for byte in range(addr, addr + size):
                truth[byte] = ssn
        for byte, true_ssn in truth.items():
            assert ssbf.youngest_store_ssn(byte, 1) >= true_ssn
