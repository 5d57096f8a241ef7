"""Calibration tests: pin the simulated primitives to the paper's numbers.

These are the contract between the hardware/software cost models and the
benchmark suite.  If a refactor moves any of these, Tables 2/3 and the
figures drift with it — fail loudly here instead.

Tolerances are a few percent: the simulation is deterministic, but poll
granularity introduces sub-microsecond phase effects.
"""

import pytest

from repro.am import attach_spam
from repro.am.constants import AMCosts
from repro.bench.bandwidth import measure_bandwidth
from repro.bench.pingpong import am_roundtrip, mpl_roundtrip, raw_roundtrip
from repro.hardware import build_sp_machine
from repro.sim import Simulator

pytestmark = pytest.mark.calibration


class TestRoundTrips:
    def test_raw_roundtrip_47us(self):
        assert raw_roundtrip(iterations=50) == pytest.approx(47.0, abs=1.0)

    def test_am_roundtrip_51us(self):
        assert am_roundtrip(1, iterations=50) == pytest.approx(51.0, abs=1.0)

    def test_am_roundtrip_grows_half_us_per_word(self):
        rtts = [am_roundtrip(w, iterations=30) for w in (1, 2, 3, 4)]
        for a, b in zip(rtts, rtts[1:]):
            assert 0.2 <= b - a <= 1.0  # "about 0.5 us per word"

    def test_mpl_roundtrip_88us(self):
        assert mpl_roundtrip(iterations=50) == pytest.approx(88.0, abs=1.5)

    def test_am_vs_mpl_40_percent_reduction(self):
        # the paper's headline: "40% lower than the 88 us measured using MPL"
        am = am_roundtrip(1, iterations=50)
        mpl = mpl_roundtrip(iterations=50)
        assert (mpl - am) / mpl == pytest.approx(0.42, abs=0.04)


class TestCallOverheads:
    """Table 2: am_request_N 7.7..8.2 us; am_reply_N 4.0..4.4 us."""

    @pytest.mark.parametrize("words", [1, 2, 3, 4])
    def test_am_request_call_cost(self, words):
        from repro.bench.callcosts import request_call_cost
        from repro.claims import BY_ID

        cost = request_call_cost(words)
        paper = BY_ID[f"table2.request_{words}"].paper
        assert cost == pytest.approx(paper, abs=0.25)

    @pytest.mark.parametrize("words", [1, 2, 3, 4])
    def test_am_reply_call_cost(self, words):
        from repro.bench.callcosts import reply_call_cost
        from repro.claims import BY_ID

        cost = reply_call_cost(words)
        paper = BY_ID[f"table2.reply_{words}"].paper
        assert cost == pytest.approx(paper, abs=0.25)

    def test_empty_poll_cost(self):
        """§2.5: polling an empty network costs 1.3 us."""
        from repro.bench.callcosts import empty_poll_cost

        assert empty_poll_cost() == pytest.approx(1.3, abs=0.01)


class TestBandwidthSummary:
    """Table 3 bandwidth lines (coarse pins; the full sweep lives in the
    benchmark suite)."""

    def test_am_async_asymptote_near_34_3(self):
        bw = measure_bandwidth("am_store_async", 262144, total=1_048_576)
        assert bw == pytest.approx(34.3, abs=1.2)

    def test_mpl_asymptote_near_34_6(self):
        bw = measure_bandwidth("mpl_send", 262144, total=1_048_576)
        assert bw == pytest.approx(34.6, abs=1.3)

    def test_mpl_slightly_above_am(self):
        am = measure_bandwidth("am_store_async", 524288, total=2_097_152)
        mpl = measure_bandwidth("mpl_send", 524288, total=2_097_152)
        assert mpl > am

    def test_am_async_half_power_near_260(self):
        # "a message half-power point of only ~260 bytes"
        lo = measure_bandwidth("am_store_async", 128)
        hi = measure_bandwidth("am_store_async", 512)
        assert lo < 34.3 / 2 < hi

    def test_mpl_half_power_near_2kb(self):
        lo = measure_bandwidth("mpl_send", 1024)
        hi = measure_bandwidth("mpl_send", 4096)
        assert lo < 34.6 / 2 < hi

    def test_am_blocking_below_async_at_small_sizes(self):
        sync = measure_bandwidth("am_store", 1024, total=100_000)
        async_ = measure_bandwidth("am_store_async", 1024, total=100_000)
        assert sync < async_

    def test_get_below_store_at_small_sizes(self):
        # "the performance for gets is slightly lower than for stores
        # because of the overhead of the get request"
        g = measure_bandwidth("am_get", 1024, total=80_000)
        s = measure_bandwidth("am_store", 1024, total=80_000)
        assert g < s

    def test_blocking_converges_to_async_at_large_sizes(self):
        # "virtually no distinction between blocking and non-blocking
        # stores for very large transfer sizes"
        sync = measure_bandwidth("am_store", 524288, total=1_048_576)
        async_ = measure_bandwidth("am_store_async", 524288, total=1_048_576)
        assert sync == pytest.approx(async_, rel=0.03)
