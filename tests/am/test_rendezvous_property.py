"""Property test: eager and rendezvous are observably the same transfer.

For any payload size around the crossover (and well past it), any seed,
with and without fabric loss, a blocking store must land byte-identical
data in the destination region in both modes — the ``xfer_mode`` knob
may change the wire protocol, never the result.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.am import attach_spam
from repro.am.constants import RDZV_CROSSOVER
from repro.faults import FaultPlan, install_faults
from repro.hardware import build_sp_machine
from repro.sim import Simulator

#: the interesting sizes: both sides of the auto crossover plus a
#: multi-chunk transfer that exercises the RDMA streaming path
SIZES = (RDZV_CROSSOVER - 1, RDZV_CROSSOVER, RDZV_CROSSOVER + 1,
         3 * RDZV_CROSSOVER + 17)


def _run_store(mode, nbytes, seed, loss):
    sim = Simulator()
    m = build_sp_machine(sim, 2)
    am0, am1 = attach_spam(m, xfer_mode=mode)
    if loss:
        install_faults(m, FaultPlan.loss(seed, loss))
    data = bytes((i * 31 + seed) % 256 for i in range(nbytes))
    src = m.node(0).memory.alloc(nbytes)
    dst = m.node(1).memory.alloc(nbytes)
    m.node(0).memory.write(src, data)
    flag = [0]

    def sender():
        yield from am0.store(1, src, dst, nbytes)
        flag[0] = 1

    def receiver():
        while not flag[0]:
            yield from am1._wait_progress()

    p = sim.spawn(sender(), name="send")
    sim.spawn(receiver(), name="recv")
    sim.run_until_processes_done([p], limit=1e8)
    assert flag[0] == 1, f"{mode} store deadlocked at loss={loss}"
    return data, m.node(1).memory.read(dst, nbytes)


@pytest.mark.parametrize("loss", [0.0, 0.01])
class TestEagerRendezvousEquivalence:
    @settings(max_examples=6, deadline=None)
    @given(nbytes=st.sampled_from(SIZES), seed=st.integers(0, 2 ** 16))
    def test_both_modes_land_identical_bytes(self, loss, nbytes, seed):
        sent_e, got_e = _run_store("eager", nbytes, seed, loss)
        sent_r, got_r = _run_store("rendezvous", nbytes, seed, loss)
        assert sent_e == sent_r
        assert got_e == sent_e
        assert got_r == sent_r
        assert got_e == got_r
