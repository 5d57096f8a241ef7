"""Observatory end-to-end: span correlation, stage attribution, snapshots.

The headline check: reconstructing the AM one-word round trip from the
critical-path stages of its spans must land within ±5% of the directly
measured mean (paper value: 51.0 us).
"""

import pytest

from repro.am import attach_spam
from repro.bench.pingpong import am_roundtrip
from repro.faults import FaultPlan, FaultRule, install_faults
from repro.hardware import build_sp_machine
from repro.hardware.packet import PacketKind
from repro.obs import (
    CRIT_STAGES,
    MessageSpan,
    Observatory,
    attribution_coverage,
    chrome_trace,
    critpath_rollup,
    critpath_stages,
)
from repro.sim import Simulator

#: the stages of a lossless, uncontended AM packet: no recovery backoff
#: and no destination-link queueing
PINGPONG_STAGES = set(CRIT_STAGES) - {"retransmit_backoff", "switch_queue"}


@pytest.fixture(scope="module")
def observed_roundtrip():
    obs = Observatory()
    return am_roundtrip(words=1, iterations=50, obs=obs).rtt_us, obs


class TestStageAttribution:
    def test_stage_sum_within_5pct_of_measured(self, observed_roundtrip):
        mean_rtt, obs = observed_roundtrip
        att = attribution_coverage(obs, mean_rtt)
        assert att["attributed_us"] == pytest.approx(mean_rtt, rel=0.05)

    def test_roundtrip_matches_paper(self, observed_roundtrip):
        mean_rtt, _obs = observed_roundtrip
        assert mean_rtt == pytest.approx(51.0, rel=0.05)

    def test_every_span_fully_marked(self, observed_roundtrip):
        _mean, obs = observed_roundtrip
        for span in obs.spans.values():
            stages = critpath_stages(span)
            assert set(stages) == PINGPONG_STAGES, span
            assert all(d >= 0 for d in stages.values())
            assert sum(stages.values()) == pytest.approx(span.total_us())

    def test_request_and_reply_per_iteration(self, observed_roundtrip):
        _mean, obs = observed_roundtrip
        assert len(obs.spans_by_kind("REQUEST")) == 50
        assert len(obs.spans_by_kind("REPLY")) == 50

    def test_rtt_histogram_populated(self, observed_roundtrip):
        mean_rtt, obs = observed_roundtrip
        snap = obs.hist("am.rtt_us").snapshot()
        assert snap["count"] == 50
        assert snap["mean"] == pytest.approx(mean_rtt)
        assert snap["p50"] <= snap["p95"] <= snap["p99"] <= snap["max"]

    def test_handler_and_occupancy_histograms(self, observed_roundtrip):
        _mean, obs = observed_roundtrip
        assert obs.hist("am.handler_us").count == 100  # 50 req + 50 rep
        assert obs.hist("am.window_occupancy").count > 0

    def test_critpath_rollup_covers_all_stages(self, observed_roundtrip):
        _mean, obs = observed_roundtrip
        rollup = critpath_rollup(obs)["ALL"]
        assert set(rollup) == PINGPONG_STAGES
        assert all(s["count"] == 100 for s in rollup.values())


class TestSnapshot:
    def test_snapshot_merges_layer_registries(self, observed_roundtrip):
        _mean, obs = observed_roundtrip
        snap = obs.snapshot()
        assert snap["spans"]["recorded"] == 100
        assert snap["spans"]["dropped"] == 0
        # counters from two different layers, fully-prefixed names
        assert snap["counters"]["am[0].requests_sent"] == 50
        assert any(k.startswith("tb2[") for k in snap["counters"])

    def test_snapshot_is_json_serializable(self, observed_roundtrip):
        import json

        _mean, obs = observed_roundtrip
        json.dumps(obs.snapshot())

    def test_snapshot_includes_window_occupancy(self, observed_roundtrip):
        _mean, obs = observed_roundtrip
        snap = obs.snapshot()
        occ = snap["histograms"]["am.window_occupancy"]
        assert occ["count"] > 0


class TestSpanCollection:
    def test_span_limit_counts_drops(self):
        obs = Observatory(span_limit=2)

        class Pkt:
            def __init__(self):
                self.trace_id = 0
                self.src, self.dst, self.kind = 0, 1, "X"

        spans = [obs.begin_message(Pkt(), float(i)) for i in range(5)]
        assert sum(s is not None for s in spans) == 2
        assert obs.dropped_spans == 3

    def test_each_buffer_counts_its_own_overflow(self):
        obs = Observatory(span_limit=2)

        class Pkt:
            trace_id, seq = 0, 0
            src, dst, kind = 0, 1, "X"

        for i in range(3):
            obs.fault(Pkt(), "fabric_loss", float(i))
            obs.phase(0, "phase", "compute", float(i), float(i) + 1.0)
        assert (obs.dropped_spans, obs.dropped_fault_events,
                obs.dropped_phase_spans) == (0, 1, 1)
        snap = obs.snapshot()
        assert snap["spans"] == {"recorded": 0, "dropped": 0}
        assert (snap["fault_events"], snap["dropped_fault_events"]) == (2, 1)
        assert (snap["phase_spans"], snap["dropped_phase_spans"]) == (2, 1)
        header = chrome_trace(obs)["otherData"]
        assert header["dropped_spans"] == 0
        assert header["dropped_fault_events"] == 1
        assert header["dropped_phase_spans"] == 1

    def test_begin_is_idempotent(self):
        obs = Observatory()

        class Pkt:
            trace_id = 0
            src, dst, kind = 0, 1, "X"

        p = Pkt()
        first = obs.begin_message(p, 1.0)
        again = obs.begin_message(p, 99.0)
        assert first is again
        assert first.marks["begin"] == 1.0

    def test_slotless_packet_ignored(self):
        obs = Observatory()
        assert obs.begin_message(object(), 0.0) is None
        assert len(obs.spans) == 0

    def test_retransmit_counted_not_respanned(self):
        """A dropped packet re-enters the TX path under the same span."""
        sim = Simulator()
        m = build_sp_machine(sim, 2)
        obs = Observatory().attach(m)
        inj = install_faults(m, FaultPlan(seed=0, rules=(
            FaultRule("drop", packet_kinds=frozenset({PacketKind.REQUEST}),
                      budget=1),)))
        am0, am1 = attach_spam(m)
        got = [0]

        def handler(token, x):
            got[0] += 1

        def sender():
            yield from am0.request_1(1, handler, 5)
            while m.node(1).am.stats.get("handlers_run") == 0:
                yield from am0._wait_progress()

        def receiver():
            while m.node(1).am.stats.get("handlers_run") == 0:
                yield from am1._wait_progress()

        p = sim.spawn(sender())
        q = sim.spawn(receiver())
        sim.run_until_processes_done([p, q], limit=1e8)
        requests = obs.spans_by_kind("REQUEST")
        assert len(requests) == 1
        assert requests[0].drops == 1
        assert requests[0].retransmits >= 1
        assert [f.trace_id for f in inj.injected] == [requests[0].trace_id]

    def test_phase_spans_recorded(self):
        obs = Observatory()
        obs.phase(0, "phase", "compute", 10.0, 30.0)
        assert obs.phase_spans == [(0, "phase", "compute", 10.0, 30.0)]


class TestGenericMachines:
    def test_logp_machine_spans(self):
        """Table-4 peers trace through the generic NIC path too."""
        obs = Observatory()
        am_roundtrip(words=1, iterations=10, machine_name="cm5", obs=obs)
        reqs = obs.spans_by_kind("request")
        assert len(reqs) == 10
        # LogP path has no separate switch/FIFO stages but must still
        # tile begin -> handler via the marks it does deposit
        for s in reqs:
            assert "begin" in s.marks and "handler_end" in s.marks
            assert s.total_us() > 0
