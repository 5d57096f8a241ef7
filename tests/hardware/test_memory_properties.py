"""Property tests for the segmented node memory."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.node import Memory


@st.composite
def alloc_script(draw):
    return draw(st.lists(
        st.integers(min_value=0, max_value=3_000_000),
        min_size=1, max_size=20))


def eager_addresses(sizes):
    """The addresses the allocator handed out when its constructor built
    the first 1 MB segment (the reference for the demand-allocated one),
    and the ``(base, size)`` of every segment an allocation landed in:
    the 1 MB packing, with a segment of its own for an allocation that
    does not fit the space left."""
    brk, free, out = 0, 1 << 20, []
    segment, held = (0, 1 << 20), {}
    for n in sizes:
        rounded = -(-n // 64) * 64
        if rounded > free:
            free = max(1 << 20, rounded)   # brk is already 64-aligned
            segment = (brk, free)
        if rounded:
            held[segment] = None           # in order of first use
        out.append(brk)
        brk += rounded
        free -= rounded
    return out, brk, list(held)


class TestMemoryProperties:
    @given(sizes=alloc_script())
    @settings(max_examples=60)
    def test_addresses_unchanged_by_demand_allocation(self, sizes):
        mem = Memory()
        assert mem.brk == 0
        got = [mem.alloc(n) for n in sizes]
        want, brk, segments = eager_addresses(sizes)
        assert got == want and mem.brk == brk
        assert all(a % 64 == 0 for a in got)
        assert [(base, len(seg)) for base, seg in
                zip(mem._seg_bases, mem._segments)] == segments

    @given(sizes=alloc_script())
    @settings(max_examples=60)
    def test_allocations_disjoint_and_readable(self, sizes):
        mem = Memory()
        regions = []
        for i, size in enumerate(sizes):
            addr = mem.alloc(size)
            if size:
                pattern = bytes([(i * 17 + 1) % 256]) * size
                mem.write(addr, pattern)
            regions.append((addr, size, i))
        # every region reads back its own pattern (no aliasing even
        # across segment boundaries)
        for addr, size, i in regions:
            if size:
                assert mem.read(addr, size) == \
                    bytes([(i * 17 + 1) % 256]) * size

    @given(sizes=st.lists(st.integers(1, 5000), min_size=2, max_size=10))
    @settings(max_examples=40)
    def test_views_alias_their_region_only(self, sizes):
        mem = Memory()
        addrs = [mem.alloc(s) for s in sizes]
        views = [mem.view(a, s) for a, s in zip(addrs, sizes)]
        for i, v in enumerate(views):
            v[:] = bytes([i + 1]) * sizes[i]
        for i, (a, s) in enumerate(zip(addrs, sizes)):
            assert mem.read(a, s) == bytes([i + 1]) * s

    @given(big=st.integers(1_048_577, 8_000_000))
    @settings(max_examples=10)
    def test_oversized_allocations_get_own_segment(self, big):
        mem = Memory()
        small = mem.alloc(64)
        huge = mem.alloc(big)
        mem.write(huge + big - 4, b"tail")
        mem.write(small, b"head")
        assert mem.read(huge + big - 4, 4) == b"tail"
        assert mem.read(small, 4) == b"head"

    def test_numpy_views_survive_later_allocations(self):
        """The reason Memory is segmented: growing must never invalidate
        exported numpy views (resizing a buffer they alias raises
        BufferError)."""
        import numpy as np

        mem = Memory()
        addr, arr = mem.alloc_array(128, np.int64)
        arr[:] = np.arange(128)
        # force several new segments
        for _ in range(4):
            mem.alloc(2_000_000)
        arr[0] = 42  # the old view must still alias live memory
        assert np.frombuffer(mem.read(addr, 8), np.int64)[0] == 42
        assert (np.frombuffer(mem.read(addr, 1024), np.int64)[1:]
                == np.arange(1, 128)).all()
