"""The shared periodic-payload helper against both callers' formulas.

``check.campaign._pattern`` (the MPI ops) and
``check.campaign._ring_pattern`` (the soak's ring ops) verify received
bytes against these patterns, and both build them from one tile-slicing
helper.  A wrong tile offset would corrupt sender and verifier alike and
pass every run, so the bytes themselves are pinned here against the
byte-by-byte formulas.
"""

import random

import pytest

from repro.check import campaign
from repro.faults.payload import PERIOD, periodic_payload

#: lengths around one period, multiples of it, and the sizes the
#: harnesses really use
EDGE_LENGTHS = (0, 1, 250, 251, 252, 501, 502, 503, 1024, 2 * 251 * 7,
                5 * 8064 + 123, 20000)


def campaign_bytes(i, src, nbytes):
    return bytes((31 * i + 17 * src + 5 * j + 11) % 251
                 for j in range(nbytes))


def soak_bytes(rank, nbytes):
    return bytes((17 * rank + 3 * j + 7) % 251 for j in range(nbytes))


def test_campaign_pattern_matches_its_formula():
    rng = random.Random(1996)
    cases = [(i, src, n) for n in EDGE_LENGTHS
             for i, src in ((0, 0), (7, 3), (63, 16 * 3 + 2))]
    cases += [(rng.randrange(4096), rng.randrange(64), rng.randrange(3000))
              for _ in range(200)]
    for i, src, n in cases:
        assert campaign._pattern(i, src, n) == campaign_bytes(i, src, n), \
            (i, src, n)


def test_soak_pattern_matches_its_formula():
    rng = random.Random(1996)
    cases = [(rank, n) for n in EDGE_LENGTHS for rank in (0, 1, 2, 100, 115)]
    cases += [(rng.randrange(400), rng.randrange(3000)) for _ in range(200)]
    for rank, n in cases:
        assert campaign._ring_pattern(rank, n) == soak_bytes(rank, n), \
            (rank, n)


def test_every_rotation_of_every_step():
    # every (base mod 251, step) pair the helper can be asked for lands
    # on a different tile offset; none may be off by one
    for step in (1, 2, 3, 5, 17, 250, 252, 1000):
        for base in list(range(PERIOD + 2)) + [10 ** 6 + 3]:
            got = periodic_payload(base, step, PERIOD + 9)
            assert got == bytes((base + step * j) % PERIOD
                                for j in range(PERIOD + 9)), (base, step)


def test_result_is_immutable_bytes_of_the_asked_length():
    out = periodic_payload(5, 3, 1000)
    assert type(out) is bytes and len(out) == 1000
    assert periodic_payload(5, 3, 0) == b""


def test_step_without_an_inverse_is_rejected():
    with pytest.raises(ValueError):
        periodic_payload(1, PERIOD, 10)
