"""Exact values of the two-node AM stream measurements.

Table 4's bulk column, the protocol bench's eager bandwidth and its
single-transfer latency all drive the same sender-loop/server
shape; these pins hold every one of them to the simulated microsecond.
"""

import pytest

from repro.bench.machines import measure_bulk_bandwidth
from repro.bench.protocols import measure_curve, run_protocols


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
    assert measure_curve(curve, 8064, total=64512) == mbs


def test_protocol_latency_pin():
    # unrounded mean: eager 316.21666666666727
    data = run_protocols(sizes=[8064])
    assert data["latency_us"] == {"eager": [(8064, 316.217)]}
    assert data["curves"]["eager"] == [(8064, 33.207)]
