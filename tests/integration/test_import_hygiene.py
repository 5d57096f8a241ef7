"""numpy stays off the import path of the machine layers.

Importing numpy costs more host time and memory than importing all of
``repro`` beside it, and no machine workload computes with arrays; only
``Memory.alloc_array``, the numeric MPI collectives and the campaign's
check of them do.  A fresh interpreter imports every core package, builds
and attaches a machine, and must not have loaded numpy — then uses the
array paths, which must still work (and are what loads it).

The same interpreter pins the engine surface: ``repro.sim`` has one
sequential ``Simulator`` with no sharding seams, and importing the core
layers does not load ``multiprocessing``.
"""

import os
import subprocess
import sys

import repro

PROGRAM = r"""
import sys

import repro.sim, repro.hardware, repro.am, repro.mpl, repro.mpi
import repro.faults, repro.obs, repro.check
from repro.am import attach_spam
from repro.hardware import build_sp_machine
from repro.mpi import attach_mpi
from repro.sim import Simulator

sim = Simulator()
machine = build_sp_machine(sim, 2)
attach_spam(machine)
mpis = attach_mpi(machine)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
assert not loaded, f"numpy on the import path: {loaded[:5]}"

# one sequential engine: the only simulator class, its public surface
# exactly this, and nothing loaded that would fork worker processes
assert "multiprocessing" not in sys.modules
assert [n for n in dir(repro.sim) if n.endswith("Simulator")] == ["Simulator"]
assert sorted(n for n in dir(Simulator) if not n.startswith("_")) == [
    "at", "call_later", "call_later_unsequenced", "check", "event",
    "events_executed", "last_event", "live_pending_count", "now", "run",
    "run_until_processes_done", "schedule", "schedule_unsequenced",
    "spawn", "stale_events_skipped", "step",
], sorted(n for n in dir(Simulator) if not n.startswith("_"))

# byte-moving MPI traffic does not need it either
def mover(rank):
    if rank == 0:
        yield from mpis[0].send(b"abc" * 100, 1, 5)
    else:
        data, _st = yield from mpis[1].recv(300, 0, 5)
        assert data == b"abc" * 100
sim.run_until_processes_done([sim.spawn(mover(r)) for r in range(2)])
assert "numpy" not in sys.modules

# the array paths load it on first use, and still work
addr, arr = machine.node(0).memory.alloc_array(4)
import numpy as np
assert arr.dtype == np.float64
arr[:] = [1.0, 2.0, 3.0, 4.0]
assert np.frombuffer(machine.node(0).memory.read(addr, 32)).tolist() == \
    [1.0, 2.0, 3.0, 4.0]
_, small = machine.node(1).memory.alloc_array(3, np.int16)
assert small.dtype == np.int16 and small.nbytes == 6

out = {}
def reducer(rank):
    vec = np.arange(6, dtype=np.int64) + 10 * rank
    out[rank] = yield from mpis[rank].allreduce(vec, "sum")
    out[rank, "max"] = yield from mpis[rank].allreduce(vec, "max")
sim.run_until_processes_done([sim.spawn(reducer(r)) for r in range(2)])
for rank in range(2):
    assert out[rank].tolist() == [10, 12, 14, 16, 18, 20]
    assert out[rank, "max"].tolist() == [10, 11, 12, 13, 14, 15]
print("ok")
"""


def test_core_import_path_is_numpy_free():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", PROGRAM], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.strip() == "ok"
