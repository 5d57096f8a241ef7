"""Communicator semantics: ranks, membership, and rank arguments that
fail fast at the call that names them."""

import numpy as np
import pytest

from repro.mpi.comm import Communicator
from tests.mpi.conftest import make_mpi


class TestBasics:
    def test_rank_and_size(self):
        c = Communicator([3, 5, 9], my_world_rank=5, context=1)
        assert c.size == 3
        assert c.rank == 1
        assert c.world_rank_of(2) == 9

    def test_membership_required(self):
        with pytest.raises(ValueError):
            Communicator([0, 1], my_world_rank=7, context=1)


CALLS = {
    "send": lambda mpi, v: mpi.send(b"hello", v, 3),
    "isend": lambda mpi, v: mpi.isend(b"hello", v, 3),
    "recv": lambda mpi, v: mpi.recv(4, v, 7),
    "irecv": lambda mpi, v: mpi.irecv(4, v, 7),
    "bcast": lambda mpi, v: mpi.bcast(b"x", v),
    "reduce": lambda mpi, v: mpi.reduce(np.arange(2), "sum", v),
    "gather": lambda mpi, v: mpi.gather(b"x", v),
}

CASES = [  # (call, its rank or root argument, a value outside 0..1)
    ("send", "dst", -1),   # ANY_SOURCE's value: was delivered to rank 1
    ("send", "dst", 5),    # was a bare IndexError
    ("isend", "dst", 2),
    ("recv", "src", 7),    # was a bare IndexError
    ("irecv", "src", -2),
    ("bcast", "root", 9),  # was a spin to max_events: no rank was root
    ("reduce", "root", 2),
    ("gather", "root", -1),
]


@pytest.mark.parametrize("name,arg,value", [
    pytest.param(*c, id=f"{c[0]}-{c[1]}={c[2]}") for c in CASES])
def test_rank_argument_outside_communicator_is_named(name, arg, value):
    m, mpis = make_mpi(2)
    proc = m.sim.spawn(CALLS[name](mpis[0], value), name="mpi0")
    with pytest.raises(ValueError,
                       match=rf"^{arg}={value} is not a rank of this "
                             r"communicator: valid range is 0\.\.1$"):
        m.sim.run_until_processes_done([proc], limit=1e7,
                                       max_events=200_000)
