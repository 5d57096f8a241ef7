"""Exact values of the two-node AM stream measurements.

Table 4's bulk column, the chunk protocol's pipelined ("eager")
bandwidth and its single-transfer latency all drive the one two-node AM
stream, ``repro.bench.bandwidth._measure_am``; these pins hold every one
of them to the simulated microsecond.
"""

import pytest

from repro.bench.bandwidth import _measure_am, measure_bandwidth
from repro.hardware.params import machine_params


@pytest.mark.parametrize("machine,mbs", [
    ("cm5", 9.841540623986345),
    ("meiko", 32.24700417107195),
    ("unet", 13.457532974189444),
    ("sp-thin", 31.34493973598625),
])
def test_table4_bulk_bandwidth_pin(machine, mbs):
    params = machine_params(machine)
    assert measure_bandwidth("am_store", 32768, 32768, params) == mbs


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


#: every value of the experiments whose kernels share the ping-pong and
#: the AM stream, to the last bit (deterministic simulated time)
EXPERIMENT_PINS = {
    "roundtrip": {"raw": 46.96000000000011, "am1": 50.20000000000049,
                  "am2": 50.90000000000023, "am3": 51.60000000000049,
                  "am4": 52.30000000000017, "mpl": 87.94111111111103},
    "table2": {"request": {1: 7.699999999999999, 2: 7.85,
                           3: 7.999999999999999, 4: 8.15},
               "reply": {1: 4.0, 2: 4.149999999999999,
                         3: 4.300000000000001, 4: 4.449999999999999}},
    "table4": {
        "cm5": {"overhead": 2.199999999999996, "rtt": 11.800000000000013,
                "bw": 9.979914082831911},
        "meiko": {"overhead": 6.300000000000006, "rtt": 25.0,
                  "bw": 33.59374943523643},
        "unet": {"overhead": 2.600000000000004, "rtt": 67.39999999999985,
                 "bw": 13.929811952953111},
        "sp-thin": {"overhead": 7.77200000000002, "rtt": 50.19999999999994,
                    "bw": 33.45881295821004},
    },
    "lazy_pop": {1: 12.87793333333324, 16: 11.936344444444503},
    "window": {36: 312.9312499999918, 54: 312.9312499999918,
               72: 241.08441666666528, 108: 240.61841666666533},
}


@pytest.mark.parametrize("experiment", sorted(EXPERIMENT_PINS))
def test_experiment_pin(experiment):
    from repro.claims import EXPERIMENTS

    assert EXPERIMENTS[experiment]() == EXPERIMENT_PINS[experiment]
