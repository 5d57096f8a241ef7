"""Critical-path attribution (:mod:`repro.obs.critpath`) on synthetic
spans and on a live AM ping-pong."""

from types import SimpleNamespace

import pytest

from repro.obs.core import Observatory
from repro.obs.critpath import (
    COVERAGE_CEIL,
    COVERAGE_FLOOR,
    CRIT_STAGES,
    attribution_coverage,
    bottleneck_verdict,
    critpath_rollup,
    critpath_segments,
    critpath_stages,
)
from repro.obs.span import MessageSpan
from repro.sim.stats import TimeSeries

#: a complete lifecycle: begin 0 .. handler_end 15
_MARKS = {
    "begin": 0.0, "stage": 1.0, "dma_start": 3.0, "wire_exit": 6.0,
    "sw_deliver": 10.0, "visible": 12.0, "consume": 13.0,
    "handler_start": 13.5, "handler_end": 15.0,
}


def _span(trace_id=1, kind="REQUEST", scale=1.0, **kw):
    return MessageSpan(trace_id=trace_id, src=0, dst=1, kind=kind,
                       marks={k: v * scale for k, v in _MARKS.items()}, **kw)


# ---------------------------------------------------------------------------
# per-span stage vectors
# ---------------------------------------------------------------------------

def test_stages_tile_begin_to_handler_end():
    stages = critpath_stages(_span())
    assert set(stages) <= set(CRIT_STAGES)
    assert sum(stages.values()) == pytest.approx(15.0)
    assert stages["staging"] == 1.0
    assert stages["tx_queue"] == 2.0
    assert stages["dma_wire"] == 3.0
    assert stages["switch_hw"] == 4.0
    assert "retransmit_backoff" not in stages
    assert "switch_queue" not in stages


def test_backoff_is_carved_out_of_tx_queue():
    stages = critpath_stages(_span(backoff_us=1.5))
    assert stages["retransmit_backoff"] == 1.5
    assert stages["tx_queue"] == 0.5           # 2.0 - 1.5
    # the carve-out preserves the total: backoff + tx_queue == raw interval
    assert sum(stages.values()) == pytest.approx(15.0)


def test_backoff_larger_than_interval_clamps_tx_queue_to_zero():
    stages = critpath_stages(_span(backoff_us=99.0))
    assert stages["tx_queue"] == 0.0
    assert stages["retransmit_backoff"] == 99.0


def test_switch_interval_splits_into_queue_and_hw():
    stages = critpath_stages(_span(queued_us=3.0))
    assert stages["switch_queue"] == 3.0
    assert stages["switch_hw"] == 1.0          # 4.0 - 3.0
    # accumulated queueing beyond the observed interval clamps
    stages = critpath_stages(_span(queued_us=9.0))
    assert stages["switch_queue"] == 4.0
    assert stages["switch_hw"] == 0.0


def test_segments_place_each_stage_on_the_timeline():
    segs = critpath_segments(_span(backoff_us=1.5, queued_us=3.0))
    assert [stage for stage, _t, _d in segs] == list(CRIT_STAGES)
    at = {stage: (t, d) for stage, t, d in segs}
    # backoff ends the stage -> dma_start interval, queueing starts the
    # switch interval
    assert at["tx_queue"] == (1.0, 0.5)
    assert at["retransmit_backoff"] == (1.5, 1.5)
    assert at["switch_queue"] == (6.0, 3.0)
    assert at["switch_hw"] == (9.0, 1.0)
    # contiguous: each segment starts where the previous one ended
    for (_a, t0, d0), (_b, t1, _d1) in zip(segs, segs[1:]):
        assert t0 + d0 == pytest.approx(t1)


def test_retransmission_keeps_first_staging_and_the_last_transit():
    class Pkt:
        trace_id, seq, wire_bytes = 0, 0, 16
        src, dst, kind = 0, 1, "X"

    obs = Observatory()
    pkt = Pkt()
    obs.packet_staged(pkt, 1.0)
    span = obs.spans[pkt.trace_id]
    span.marks.update(dma_start=3.0, wire_exit=6.0, sw_deliver=10.0,
                      visible=12.0, consume=13.0)
    # a spurious go-back-N resend after the first copy was consumed
    obs.packet_staged(pkt, 20.0)
    span.retransmit(25.0)
    assert span.marks == {"begin": 1.0, "stage": 1.0, "dma_start": 3.0,
                          "wire_exit": 6.0}
    assert (span.retransmits, span.backoff_us) == (1, 19.0)
    span.marks.update(dma_start=25.0, wire_exit=28.0)
    stages = critpath_stages(span)
    assert stages["retransmit_backoff"] == 19.0
    assert stages["tx_queue"] == 5.0           # the first transit
    assert sum(stages.values()) == pytest.approx(span.total_us())


def test_lossy_soak_spans_tile_exactly():
    """Recovery time is counted once: on a lossy soak, every span's
    stages, retransmitted ones included, sum to its life."""
    from repro.faults import run_soak

    result = run_soak(seed=7, loss=0.05, nodes=2, pingpong=24,
                      compare_clean=False)
    spans = [s for s in result.obs.spans.values()
             if s.total_us() is not None]
    assert len(spans) == len(result.obs.spans) == 448
    assert any(s.backoff_us > 0.0 for s in spans)
    worst = max(abs(sum(critpath_stages(s).values()) - s.total_us())
                for s in spans)
    assert worst <= 1e-6


def test_missing_and_negative_intervals_are_skipped():
    marks = dict(_MARKS)
    del marks["visible"]                       # never became host-visible
    s = MessageSpan(trace_id=1, src=0, dst=1, kind="REQUEST", marks=marks)
    stages = critpath_stages(s)
    assert "rx_dma" not in stages and "poll_wait" not in stages
    marks = dict(_MARKS)
    marks["consume"] = 11.0                    # stale mark: consume < visible
    s = MessageSpan(trace_id=1, src=0, dst=1, kind="REQUEST", marks=marks)
    assert "poll_wait" not in critpath_stages(s)
    assert critpath_stages(
        MessageSpan(trace_id=1, src=0, dst=1, kind="REQUEST")) == {}


# ---------------------------------------------------------------------------
# rollups + verdicts
# ---------------------------------------------------------------------------

def _population():
    return [
        _span(trace_id=1, kind="REQUEST"),
        _span(trace_id=2, kind="REQUEST", scale=2.0),
        _span(trace_id=3, kind="REPLY", scale=0.5),
    ]


def test_rollup_shares_sum_to_one_per_kind():
    rollup = critpath_rollup(_population())
    assert set(rollup) == {"ALL", "REQUEST", "REPLY"}
    for bucket in rollup.values():
        assert sum(cell["share"] for cell in bucket.values()) \
            == pytest.approx(1.0)
    cell = rollup["REQUEST"]["dma_wire"]
    assert cell["count"] == 2
    assert cell["total_us"] == pytest.approx(3.0 + 6.0)
    assert cell["mean_us"] == pytest.approx(4.5)
    assert cell["max_us"] == pytest.approx(6.0)
    # stage keys come out in lifecycle order
    assert list(rollup["ALL"]) == [s for s in CRIT_STAGES
                                   if s in rollup["ALL"]]


def test_rollup_by_kind_false_keeps_only_all():
    assert set(critpath_rollup(_population(), by_kind=False)) == {"ALL"}


def test_bottleneck_verdict_names_dominant_stage():
    verdict = bottleneck_verdict(critpath_rollup(_population()))
    assert verdict["stage"] == "switch_hw"     # 4us is the widest slice
    assert verdict["share"] == pytest.approx(4.0 / 15.0)
    assert verdict["gauge"] is None            # no metrics offered
    assert bottleneck_verdict({}) == {"stage": None, "share": 0.0,
                                      "gauge": None}


def test_bottleneck_verdict_quotes_the_most_loaded_gauge():
    light = TimeSeries("switch.in_flight")
    heavy = TimeSeries("link1.util")
    for i in range(10):
        light.record(float(i), 1.0)
        heavy.record(float(i), 0.9)
    metrics = SimpleNamespace(series={"switch.in_flight": light,
                                      "link1.util": heavy})
    rollup = critpath_rollup([_span(queued_us=3.9)])
    verdict = bottleneck_verdict(rollup, metrics)
    assert verdict["stage"] == "switch_queue"
    # both patterns match a live series; the higher p95 wins
    assert verdict["gauge"] == "switch.in_flight"
    assert verdict["gauge_p95"] == 1.0
    assert verdict["gauge_max"] == 1.0


# ---------------------------------------------------------------------------
# attribution coverage
# ---------------------------------------------------------------------------

def test_attribution_excludes_request_handler_only():
    spans = [_span(trace_id=1, kind="REQUEST"),
             _span(trace_id=2, kind="REPLY")]
    cov = attribution_coverage(spans, measured_rtt_us=28.5)
    # the reply's lifecycle rides inside the request handler: request
    # contributes begin->handler_start (13.5), the reply all 15.0
    assert cov["request_us"] == pytest.approx(13.5)
    assert cov["reply_us"] == pytest.approx(15.0)
    assert cov["attributed_us"] == pytest.approx(28.5)
    assert cov["coverage"] == pytest.approx(1.0)
    assert attribution_coverage(spans, 0.0)["coverage"] == 0.0


def test_live_pingpong_attribution_meets_the_95_percent_floor():
    from repro.am import attach_am
    from repro.bench.pingpong import _am_pingpong
    from repro.hardware.machine import build_machine
    from repro.obs import Observatory
    from repro.sim import Simulator

    sim = Simulator()
    machine = build_machine(sim, 2, "sp-thin")
    obs = Observatory().attach(machine)
    attach_am(machine)
    rtt = _am_pingpong(machine, 1, 30).rtt_us
    cov = attribution_coverage(obs, rtt)
    assert COVERAGE_FLOOR <= cov["coverage"] <= COVERAGE_CEIL
