"""The small-message kernels reject a round-trip count below one before
they build a machine, naming ``iterations``."""

import pytest

from repro.bench.pingpong import (
    am_roundtrip,
    measure_send_overhead,
    mpl_roundtrip,
    raw_roundtrip,
)


@pytest.mark.parametrize("iterations", [0, -3])
def test_am_roundtrip_rejects_no_iterations(iterations):
    with pytest.raises(ValueError, match="iterations"):
        am_roundtrip(1, iterations)


def test_mpl_roundtrip_rejects_no_iterations():
    with pytest.raises(ValueError, match="iterations"):
        mpl_roundtrip(0)


def test_raw_roundtrip_rejects_no_iterations():
    with pytest.raises(ValueError, match="iterations"):
        raw_roundtrip(0)


def test_send_overhead_rejects_no_iterations():
    with pytest.raises(ValueError, match="iterations"):
        measure_send_overhead("cm5", 0)
