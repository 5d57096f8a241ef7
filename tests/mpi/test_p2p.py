"""Point-to-point MPI semantics over every implementation variant."""

import pytest

from repro.mpi import (ANY_SOURCE, ANY_TAG, OPTIMIZED, UNOPTIMIZED,
                       Communicator)
from repro.mpi.config import variant
from tests.mpi.conftest import make_mpi, make_mpif, run_ranks


def _payload(n, seed=0):
    return bytes((i * 13 + seed) % 256 for i in range(n))


class TestBasicSendRecv:
    def test_send_recv(self, any_mpi4):
        m, mpis = any_mpi4
        out = []

        def prog(rank):
            def go():
                if rank == 0:
                    yield from mpis[0].send(b"payload", 3, tag=5)
                elif rank == 3:
                    d, st = yield from mpis[3].recv(64, 0, tag=5)
                    out.append((d, st.source, st.tag))
                else:
                    return
                    yield
            return go()

        run_ranks(m, prog)
        assert out == [(b"payload", 0, 5)]

    @pytest.mark.parametrize("n", [0, 1, 100, 4096, 8192, 8193, 16384,
                                   16385, 100_000])
    def test_all_protocol_sizes(self, n):
        """Crosses every protocol boundary: eager0, buffered, buffered max,
        rendez-vous, hybrid prefix, multi-chunk."""
        m, mpis = make_mpi(2)
        data = _payload(n)
        out = []

        def prog(rank):
            def go():
                if rank == 0:
                    yield from mpis[0].send(data, 1)
                else:
                    d, _ = yield from mpis[1].recv(max(n, 1), 0)
                    out.append(d)
            return go()

        run_ranks(m, prog)
        assert out == [data]

    @pytest.mark.parametrize("n", [10, 8192, 60_000])
    def test_mpif_sizes(self, n):
        m, mpis = make_mpif(2)
        data = _payload(n, 1)
        out = []

        def prog(rank):
            def go():
                if rank == 0:
                    yield from mpis[0].send(data, 1)
                else:
                    d, _ = yield from mpis[1].recv(n, 0)
                    out.append(d)
            return go()

        run_ranks(m, prog)
        assert out == [data]

    def test_self_send(self):
        m, mpis = make_mpi(2)
        out = []

        def prog(rank):
            def go():
                if rank == 0:
                    yield from mpis[0].send(b"me", 0, tag=1)
                    d, _ = yield from mpis[0].recv(8, 0, tag=1)
                    out.append(d)
                else:
                    return
                    yield
            return go()

        run_ranks(m, prog)
        assert out == [b"me"]

    def test_ordering_same_pair(self, any_mpi4):
        m, mpis = any_mpi4
        out = []
        n = 30

        def prog(rank):
            def go():
                if rank == 0:
                    for i in range(n):
                        yield from mpis[0].send(bytes([i]), 1, tag=9)
                elif rank == 1:
                    for i in range(n):
                        d, _ = yield from mpis[1].recv(1, 0, tag=9)
                        out.append(d[0])
                else:
                    return
                    yield
            return go()

        run_ranks(m, prog)
        assert out == list(range(n))


class TestMatching:
    def test_tag_matching_out_of_order(self):
        m, mpis = make_mpi(2)
        out = []

        def prog(rank):
            def go():
                if rank == 0:
                    yield from mpis[0].send(b"A", 1, tag=1)
                    yield from mpis[0].send(b"B", 1, tag=2)
                else:
                    b, _ = yield from mpis[1].recv(4, 0, tag=2)
                    a, _ = yield from mpis[1].recv(4, 0, tag=1)
                    out.extend([b, a])
            return go()

        run_ranks(m, prog)
        assert out == [b"B", b"A"]

    def test_any_source_any_tag(self):
        m, mpis = make_mpi(3)
        out = []

        def prog(rank):
            def go():
                if rank == 2:
                    for _ in range(2):
                        d, st = yield from mpis[2].recv(
                            16, ANY_SOURCE, ANY_TAG)
                        out.append((d, st.source))
                else:
                    yield from mpis[rank].send(
                        f"from{rank}".encode(), 2, tag=rank)
            return go()

        run_ranks(m, prog)
        assert sorted(out) == [(b"from0", 0), (b"from1", 1)]

    def test_communicator_isolation(self):
        """Traffic on another context never matches the world's."""
        m, mpis = make_mpi(2)
        out = []

        def prog(rank):
            def go():
                comm2 = Communicator(list(range(2)), rank, context=77)
                if rank == 0:
                    yield from mpis[0].send(b"world", 1, tag=4)
                    yield from mpis[0].send(b"dup", 1, tag=4, comm=comm2)
                else:
                    d2, _ = yield from mpis[1].recv(8, 0, tag=4, comm=comm2)
                    d1, _ = yield from mpis[1].recv(8, 0, tag=4)
                    out.extend([d2, d1])
            return go()

        run_ranks(m, prog)
        assert out == [b"dup", b"world"]

    def test_unexpected_rendezvous(self):
        """A large message whose rts is processed before its receive is
        posted goes through the unexpected list (Fig. 5 right)."""
        m, mpis = make_mpi(2)
        n = 50_000
        data = _payload(n, 2)
        out = []

        def prog(rank):
            def go():
                if rank == 0:
                    req = yield from mpis[0].isend(data, 1, tag=1)
                    yield from mpis[0].send(b"small", 1, tag=2)
                    yield from mpis[0].wait(req)
                else:
                    # receiving tag=2 forces polling past tag=1's rts,
                    # which is therefore queued unexpected
                    s, _ = yield from mpis[1].recv(8, 0, tag=2)
                    d, _ = yield from mpis[1].recv(n, 0, tag=1)
                    out.append((s, d))
            return go()

        run_ranks(m, prog)
        assert out == [(b"small", data)]
        assert mpis[1].adi.stats.get("rts_unexpected") == 1


class TestNonBlocking:
    def test_isend_irecv_wait(self):
        m, mpis = make_mpi(2)
        out = []

        def prog(rank):
            def go():
                if rank == 0:
                    r1 = yield from mpis[0].isend(b"one", 1, tag=1)
                    r2 = yield from mpis[0].isend(b"two", 1, tag=2)
                    yield from mpis[0].waitall([r1, r2])
                else:
                    r2 = yield from mpis[1].irecv(8, 0, tag=2)
                    r1 = yield from mpis[1].irecv(8, 0, tag=1)
                    yield from mpis[1].waitall([r2, r1])
                    out.extend([r1.data, r2.data])
            return go()

        run_ranks(m, prog)
        assert out == [b"one", b"two"]

    def test_sendrecv_exchange(self, any_mpi4):
        m, mpis = any_mpi4
        out = {}

        def prog(rank):
            def go():
                peer = rank ^ 1
                d, _ = yield from mpis[rank].sendrecv(
                    bytes([rank]), peer, 7, 4, peer, 7)
                out[rank] = d[0]
            return go()

        run_ranks(m, prog)
        assert out == {0: 1, 1: 0, 2: 3, 3: 2}


class TestExtendedRequests:
    def test_waitany_returns_first_done(self):
        m, mpis = make_mpi(2)
        out = []

        def prog(rank):
            def go():
                if rank == 0:
                    from repro.sim import Delay
                    yield Delay(500.0)
                    yield from mpis[0].send(b"beta", 1, tag=2)
                    yield from mpis[0].send(b"alpha", 1, tag=1)
                else:
                    r1 = yield from mpis[1].irecv(8, 0, tag=1)
                    r2 = yield from mpis[1].irecv(8, 0, tag=2)
                    i, st_ = yield from mpis[1].waitany([r1, r2])
                    out.append(i)
                    yield from mpis[1].waitall([r1, r2])
            return go()

        run_ranks(m, prog)
        assert out == [1]  # tag=2 was sent first

    def test_waitsome(self):
        m, mpis = make_mpi(2)
        flags = []

        def prog(rank):
            def go():
                if rank == 0:
                    yield from mpis[0].send(b"x", 1, tag=1)
                    yield from mpis[0].send(b"y", 1, tag=2)
                else:
                    r1 = yield from mpis[1].irecv(4, 0, tag=1)
                    r2 = yield from mpis[1].irecv(4, 0, tag=2)
                    done = yield from mpis[1].waitsome([r1, r2])
                    flags.append(bool(done))
                    yield from mpis[1].waitall([r1, r2])
            return go()

        run_ranks(m, prog)
        assert flags == [True]

    def test_waitany_empty_rejected(self):
        m, mpis = make_mpi(2)

        def prog(rank):
            def go():
                if rank == 0:
                    yield from mpis[0].waitany([])
                else:
                    return
                    yield
            return go()

        with pytest.raises(ValueError):
            run_ranks(m, prog)


class TestBufferManagement:
    def test_region_exhaustion_recovers(self):
        """A flood of eager messages larger than the 16 KB region must
        stall and recover via frees, never deadlock or corrupt."""
        m, mpis = make_mpi(2)
        n, count = 4000, 12  # 48 KB through a 16 KB region
        datas = [_payload(n, i) for i in range(count)]
        out = []

        def prog(rank):
            def go():
                if rank == 0:
                    for i in range(count):
                        yield from mpis[0].send(datas[i], 1, tag=i)
                else:
                    for i in range(count):
                        d, _ = yield from mpis[1].recv(n, 0, tag=i)
                        out.append(d)
            return go()

        run_ranks(m, prog)
        assert out == datas

    def test_combined_frees_fewer_replies(self):
        def run(cfg):
            m, mpis = make_mpi(2, cfg)
            count = 32

            def prog(rank):
                def go():
                    if rank == 0:
                        for i in range(count):
                            yield from mpis[0].send(b"z" * 64, 1, tag=i)
                    else:
                        for i in range(count):
                            yield from mpis[1].recv(64, 0, tag=i)
                return go()

            run_ranks(m, prog)
            return (mpis[1].adi.stats.get("free_replies")
                    + mpis[1].adi.stats.get("free_requests"))

        frees_combined = run(OPTIMIZED)
        frees_single = run(UNOPTIMIZED)
        assert frees_combined < frees_single / 2

    def test_binned_allocator_used_for_small(self):
        m, mpis = make_mpi(2, OPTIMIZED)
        alloc = mpis[0].adi._alloc[1]
        off = alloc.alloc(100)
        assert alloc.used_bin(off)
        alloc.free(off, 100)

    def test_hybrid_prefix_sent(self):
        m, mpis = make_mpi(2, OPTIMIZED)
        n = 20_000
        data = _payload(n)
        out = []

        def prog(rank):
            def go():
                if rank == 0:
                    yield from mpis[0].send(data, 1)
                else:
                    d, _ = yield from mpis[1].recv(n, 0)
                    out.append(d)
            return go()

        run_ranks(m, prog)
        assert out == [data]
        assert mpis[0].adi.stats.get("hybrid_prefixes") == 1
        assert mpis[1].adi.stats.get("prefixes_received") == 1

    def test_no_hybrid_when_disabled(self):
        m, mpis = make_mpi(2, UNOPTIMIZED)
        n = 20_000
        data = _payload(n)

        def prog(rank):
            def go():
                if rank == 0:
                    yield from mpis[0].send(data, 1)
                else:
                    yield from mpis[1].recv(n, 0)
            return go()

        run_ranks(m, prog)
        assert mpis[0].adi.stats.get("hybrid_prefixes") == 0
