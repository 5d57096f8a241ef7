"""Host times in reference seconds: divide out the machine's speed.

The sandboxes this benchmark runs in do not hold their speed.  Measured on
the reference box (2 vCPUs), with nothing else running: for seconds at a
time everything takes 1.3-1.5x as long, and over minutes the *fastest*
timing of identical work drifts by up to 25 % (ten driver-style runs of
``am-pingpong`` 14 s apart: fastest of 32 slices 0.305 ... 0.392 s; CPU
time rises with wall time, the steal counter does not move).  Order
statistics cope with the first kind of noise and not with the second.

So every repeat also times a fixed **calibration kernel** — pure Python
that never touches the program under test: generator switches, heap
pushes and pops of small lists, dict stores — three times before each
timed region and after the last.  The fastest kernel timing of the
repeat, over :data:`KERNEL_REF_S`, is the repeat's *machine speed factor*,
and every timed region the repeat reports is divided by it: a reference
second is a second of a machine on which the kernel takes 8.0 ms.  Set-up
times and host spans stay in plain seconds — calibrating them made no
measurable difference.

How much this buys is measured in ``perflab/README.md`` ("Noise floor"):
it more than halved the ten-seed spread of the large-footprint workloads
in one set of runs and cost up to a point elsewhere.  The kernel's
working set is small, so it sees a slow machine better than a contended
cache; it needs a few dozen samples to find its floor, which a
``--quick`` repeat does not give it.

The kernel is part of the benchmark's definition: changing it rescales
every host number, so it changes only together with a re-measured
baseline.
"""

from __future__ import annotations

import heapq
import time
from typing import List

#: the kernel's fastest timing on the reference box, quiet (seconds)
KERNEL_REF_S = 0.008


def kernel(n: int = 12_000) -> int:
    """The calibration kernel: an interpreter-bound mix shaped like the
    simulator's hot path, about 8 ms."""
    heap: List[list] = []
    push, pop = heapq.heappush, heapq.heappop
    table = {}

    def stepper():
        x = 0
        while True:
            x = (yield x) + 1

    gen = stepper()
    next(gen)
    x = 0
    for i in range(n):
        push(heap, [(i * 7919) % 1000 + x, i, None, ()])
        table[i & 1023] = i
        x = gen.send(i) & 7
        if i & 1:
            x += pop(heap)[1] & 1
    return x


class Speed:
    """Kernel timings of one repeat and the speed factor they give."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, n: int = 3) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)

    @property
    def factor(self) -> float:
        """> 1 on a machine slower than the reference, < 1 on a faster."""
        return min(self.samples) / KERNEL_REF_S
