"""MPICH generic collectives over every MPI variant."""

import numpy as np
import pytest

from tests.mpi.conftest import make_mpi, make_mpif, run_ranks


class TestBarrier:
    @pytest.mark.parametrize("nprocs", [2, 4, 5, 8])
    def test_barrier_holds_everyone(self, nprocs):
        m, mpis = make_mpi(nprocs)
        times = {}

        def prog(rank):
            def go():
                from repro.sim import Delay
                yield Delay(200.0 * rank)
                yield from mpis[rank].barrier()
                times[rank] = m.sim.now
            return go()

        run_ranks(m, prog)
        assert min(times.values()) >= 200.0 * (nprocs - 1)

    def test_repeated_barriers(self, any_mpi4):
        m, mpis = any_mpi4
        order = []

        def prog(rank):
            def go():
                for it in range(4):
                    yield from mpis[rank].barrier()
                    order.append(it)
            return go()

        run_ranks(m, prog)
        for it in range(4):
            assert set(order[4 * it: 4 * it + 4]) == {it}


class TestBcastReduce:
    @pytest.mark.parametrize("root", [0, 2])
    def test_bcast(self, any_mpi4, root):
        m, mpis = any_mpi4
        out = {}

        def prog(rank):
            def go():
                v = yield from mpis[rank].bcast(
                    b"broadcast!" if rank == root else None, root)
                out[rank] = v
            return go()

        run_ranks(m, prog)
        assert all(v == b"broadcast!" for v in out.values())

    def test_bcast_large_payload(self):
        m, mpis = make_mpi(4)
        blob = bytes(range(256)) * 200  # 51 KB -> rendez-vous path
        out = {}

        def prog(rank):
            def go():
                v = yield from mpis[rank].bcast(
                    blob if rank == 0 else None, 0)
                out[rank] = v
            return go()

        run_ranks(m, prog)
        assert all(v == blob for v in out.values())

    def test_reduce_sum(self, any_mpi4):
        m, mpis = any_mpi4
        out = {}

        def prog(rank):
            def go():
                arr = np.full(16, rank + 1, dtype=np.float64)
                res = yield from mpis[rank].reduce(arr, "sum", 0)
                out[rank] = res
            return go()

        run_ranks(m, prog)
        assert out[1] is None
        assert np.allclose(out[0], 1 + 2 + 3 + 4)

    @pytest.mark.parametrize("op,expect", [("max", 4), ("min", 1),
                                           ("prod", 24)])
    def test_reduce_ops(self, op, expect):
        m, mpis = make_mpi(4)
        out = {}

        def prog(rank):
            def go():
                arr = np.array([rank + 1.0])
                res = yield from mpis[rank].reduce(arr, op, 0)
                out[rank] = res
            return go()

        run_ranks(m, prog)
        assert out[0][0] == expect

    def test_allreduce(self, any_mpi4):
        m, mpis = any_mpi4
        out = {}

        def prog(rank):
            def go():
                arr = np.arange(8, dtype=np.int64) * (rank + 1)
                res = yield from mpis[rank].allreduce(arr, "sum")
                out[rank] = res
            return go()

        run_ranks(m, prog)
        expect = np.arange(8, dtype=np.int64) * 10
        for rank in range(4):
            assert (out[rank] == expect).all()


class TestGatherScatter:
    def test_gather(self, any_mpi4):
        m, mpis = any_mpi4
        out = {}

        def prog(rank):
            def go():
                res = yield from mpis[rank].gather(bytes([rank] * 3), 0)
                out[rank] = res
            return go()

        run_ranks(m, prog)
        assert out[0] == [bytes([r] * 3) for r in range(4)]
        assert out[2] is None


class TestAlltoall:
    def test_alltoall_permutes(self, any_mpi4):
        m, mpis = any_mpi4
        out = {}

        def prog(rank):
            def go():
                chunks = [bytes([rank, dst]) for dst in range(4)]
                res = yield from mpis[rank].alltoall(chunks)
                out[rank] = res
            return go()

        run_ranks(m, prog)
        for rank in range(4):
            assert out[rank] == [bytes([src, rank]) for src in range(4)]

    def test_staggered_matches_naive_result(self):
        for staggered in (False, True):
            m, mpis = make_mpi(4)
            out = {}

            def prog(rank):
                def go():
                    chunks = [bytes([rank * 4 + dst]) * 8 for dst in range(4)]
                    res = yield from mpis[rank].alltoall(
                        chunks, staggered=staggered)
                    out[rank] = res
                return go()

            run_ranks(m, prog)
            for rank in range(4):
                assert out[rank] == [bytes([src * 4 + rank]) * 8
                                     for src in range(4)]

    def test_staggered_relieves_hotspot(self):
        """§4.4: the naive rank-ordered alltoall hot-spots the destination
        link; staggering must be measurably faster for bulk payloads."""
        def run(staggered):
            m, mpis = make_mpi(8)
            chunk = bytes(8192)

            def prog(rank):
                def go():
                    yield from mpis[rank].alltoall([chunk] * 8,
                                                   staggered=staggered)
                return go()

            run_ranks(m, prog, limit=1e9)
            return m.sim.now

        naive = run(False)
        spread = run(True)
        assert spread < naive

    def test_wrong_chunk_count_rejected(self):
        m, mpis = make_mpi(2)

        def prog(rank):
            def go():
                yield from mpis[rank].alltoall([b"x"] * 3)
            return go()

        with pytest.raises(ValueError):
            run_ranks(m, prog)


class TestScan:
    def test_inclusive_prefix_sum(self):
        m, mpis = make_mpi(4)
        out = {}

        def prog(rank):
            def go():
                arr = np.array([float(rank + 1)])
                res = yield from mpis[rank].scan(arr, "sum")
                out[rank] = res[0]
            return go()

        run_ranks(m, prog)
        assert out == {0: 1.0, 1: 3.0, 2: 6.0, 3: 10.0}

    def test_scan_max(self):
        m, mpis = make_mpi(3)
        out = {}
        vals = [5.0, 2.0, 9.0]

        def prog(rank):
            def go():
                res = yield from mpis[rank].scan(np.array([vals[rank]]),
                                                 "max")
                out[rank] = res[0]
            return go()

        run_ranks(m, prog)
        assert out == {0: 5.0, 1: 5.0, 2: 9.0}
