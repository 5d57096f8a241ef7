"""Exact values of the two-node AM stream measurements.

Table 4's bulk column, the chunk protocol's pipelined ("eager")
bandwidth and its single-transfer latency all drive the one two-node AM
stream, ``repro.bench.bandwidth._measure_am``; these pins hold every one
of them to the simulated microsecond.
"""

import pytest

from repro.bench.bandwidth import _measure_am
from repro.bench.machines import measure_bulk_bandwidth


@pytest.mark.parametrize("machine,mbs", [
    ("cm5", 9.841540623986345),
    ("meiko", 32.24700417107195),
    ("unet", 13.457532974189444),
    ("sp-thin", 31.34493973598625),
])
def test_table4_bulk_bandwidth_pin(machine, mbs):
    assert measure_bulk_bandwidth(machine, 32768) == mbs


@pytest.mark.parametrize("curve,mbs", [
    ("eager", 30.20135170773629),
])
def test_protocol_curve_pin(curve, mbs):
    mode = {"eager": "am_store_async"}[curve]
    count, elapsed = _measure_am(mode, 8064, 64512)
    assert count * 8064 / elapsed == mbs


def test_protocol_latency_pin():
    # four back-to-back blocking stores; unrounded mean 316.21666666666727
    count, elapsed = _measure_am("am_store", 8064, 4 * 8064)
    assert round(elapsed / count, 3) == 316.217
    # pipelined stores over the default 150 KB total
    count, elapsed = _measure_am("am_store_async", 8064, 150_000)
    assert round(count * 8064 / elapsed, 3) == 33.207
