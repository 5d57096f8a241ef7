"""Every soak violation fires once, on a scenario broken on purpose.

A soak is the fixed ring op list (``ping`` rounds, one ``bulk``
store+get, one ``splitc`` phase) on :mod:`repro.check.campaign`'s one
runner.  Each test breaks one promise the runner checks — a handler that
loses or repeats a round, a corrupted byte, a wrong allreduce, a run cut
mid-transfer, a fault the observatory never saw, a recovery that takes
too long — and asserts that the message names its rank, peer or trace.
One runs a correct soak past a full observatory and expects no
complaint.  The last test shrinks a broken soak to the one op that
breaks it.

The runs are 2-node soaks with a few rounds and the gauge sampler off,
so the file stays well under a second.
"""

import pytest

from repro.check import campaign, run_campaign, shrink_failure
from repro.faults import FaultPlan, FaultRule, run_soak
from repro.hardware.node import Memory
from repro.obs.core import Observatory
from repro.splitc.runtime import SplitC


def _soak(**kw):
    kw.setdefault("loss", 0.0)
    kw.setdefault("compare_clean", False)
    kw.setdefault("pingpong", 4)
    return run_soak(seed=3, sample_period_us=None, **kw)


def _only(violations, needle):
    hits = [v for v in violations if needle in v]
    assert hits, violations
    return hits


@pytest.fixture
def forget_first_fault(monkeypatch):
    """An observatory that never logs the first injected fault; returns
    the trace ids of every fault it was told about."""
    fault = Observatory.fault
    seen = []

    def forget_first(self, pkt, kind, t, detail=""):
        seen.append(pkt.trace_id)
        if len(seen) > 1:
            fault(self, pkt, kind, t, detail)

    monkeypatch.setattr(Observatory, "fault", forget_first)
    return seen


@pytest.fixture
def drop_ping_2(monkeypatch):
    """A ping handler that replies to round 2 but never records it."""
    def h_ping(token, src, i):
        node = token.am.node
        if i != 2:
            node.soak_pings.setdefault(src, []).append(i)
        yield from token.reply_2(campaign._h_pong, node.id, i)

    monkeypatch.setattr(campaign, "_h_ping", h_ping)


def test_lost_ping_is_named(drop_ping_2):
    r = _soak()
    assert _only(r.violations, "pings from") == [
        "rank 0: pings from 1 delivered as [0, 1, 3], expected "
        "[0, 1, 2, 3] exactly once in order",
        "rank 1: pings from 0 delivered as [0, 1, 3], expected "
        "[0, 1, 2, 3] exactly once in order"]


def test_clean_run_failure_raises(drop_ping_2):
    with pytest.raises(AssertionError,
                       match=r"fault-free soak run failed: rank 0: pings"):
        _soak(compare_clean=True)


def test_repeated_pong_is_named(monkeypatch):
    def h_pong(token, src, i):
        log = token.am.node.soak_pongs.setdefault(src, [])
        log.extend([i, i] if i == 1 else [i])

    monkeypatch.setattr(campaign, "_h_pong", h_pong)
    r = _soak()
    assert "rank 0: pongs from 1 delivered as [0, 1, 1, 2, 3], expected " \
           "[0, 1, 2, 3] exactly once in order" in r.violations


def test_corrupted_landing_bytes_are_named(monkeypatch):
    # bump the first byte of every packet-sized write: the payload each
    # packet lands, never the 16 KB or 1 KB source buffers the ops fill.
    # The get's read-back lands the stored bytes bumped once more.
    write = Memory.write

    def bumping(self, addr, data):
        if 8 < len(data) < 1024:
            data = bytes([(data[0] + 1) % 256]) + bytes(data[1:])
        write(self, addr, data)

    monkeypatch.setattr(Memory, "write", bumping)
    r = _soak()
    for msg in ("rank 0 op 4: bulk store to 1 corrupted",
                "rank 0 op 4: bulk get readback from 1 corrupted",
                "rank 1 op 5: Split-C put_bulk to 0 corrupted"):
        assert msg in r.violations


def test_wrong_allreduce_is_named(monkeypatch):
    allreduce = SplitC.allreduce_int

    def off_by_one(self, value):
        total = yield from allreduce(self, value)
        return total + (self.rank == 1)

    monkeypatch.setattr(SplitC, "allreduce_int", off_by_one)
    r = _soak()
    assert r.violations == ["rank 1 op 5: allreduce returned 4, expected 3"]


def test_run_cut_mid_transfer_reports_the_end_state(monkeypatch):
    # 400 us in, both ranks are inside their first bulk chunk
    monkeypatch.setattr(campaign, "_RUN_LIMIT_US", 400.0)
    r = _soak(pingpong=0)
    assert r.violations[0].startswith(
        "SimTimeoutError: simulated time limit 400.0us exceeded")
    for msg in ("rank 0: send window to 1 ch0 still holds 72 unacked "
                "packets",
                "rank 1: chunk from 0 ch0 never completed reassembly",
                "rank 0: 1 bulk ops never completed"):
        assert msg in r.violations


def test_fault_on_an_untraced_packet_is_named(monkeypatch):
    # a hub that never stamps the first packet it is shown, and a plan
    # that drops exactly that packet (the only one without a trace id)
    begin = Observatory.begin_message
    skipped = []

    def begin_but_the_first(self, pkt, t):
        if not skipped:
            skipped.append(pkt)
        if pkt is skipped[0]:
            return None
        return begin(self, pkt, t)

    monkeypatch.setattr(Observatory, "begin_message", begin_but_the_first)
    plan = FaultPlan(seed=3, rules=(
        FaultRule(kind="drop", budget=1, trace_ids=frozenset({0})),))
    r = _soak(plan=plan)
    pkt = skipped[0]
    assert r.violations == [
        f"injected drop on {pkt.src}->{pkt.dst} seq {pkt.seq} at "
        f"t={r.injected[0].t:.1f} hit an untraced packet (no trace_id)"]


def test_full_observatory_raises_no_false_complaint(monkeypatch):
    # 20 spans and 20 fault events fill up early in a 20 %-loss soak;
    # every later packet still has a trace id, and the faults the full
    # ledger had no room for are not expected in it
    monkeypatch.setattr(campaign, "Observatory",
                        lambda: Observatory(span_limit=20))
    r = _soak(loss=0.2)
    assert r.obs.dropped_spans > 0
    assert r.obs.dropped_fault_events > 0
    assert 0 < r.obs.faults_before_full < r.total_injected
    assert r.violations == []


def test_fault_missing_from_obs_is_named(forget_first_fault):
    r = _soak(loss=0.05)
    assert _only(r.violations, "missing from obs fault events") == [
        f"injected drop on trace {forget_first_fault[0]} at "
        f"t={r.injected[0].t:.1f} missing from obs fault events"]


def test_fault_without_a_drop_event_is_named(monkeypatch):
    monkeypatch.setattr(Observatory, "packet_dropped",
                        lambda self, pkt, reason="": None)
    r = _soak(loss=0.05)
    hits = _only(r.violations, "has no matching packet_dropped event")
    assert len(hits) == r.total_injected > 0
    assert all(v.startswith("injected drop on trace ") for v in hits)


def test_unbounded_recovery_is_named():
    # six 200 ms send stalls: latency, no loss, and far past the bound
    plan = FaultPlan(seed=3, rules=(
        FaultRule(kind="tx_stall", budget=6, delay_us=200_000.0),))
    r = _soak(plan=plan, compare_clean=True)
    (v,) = r.violations
    assert v.startswith("recovery unbounded: lossy run took ")
    assert f"bound was {r.recovery_bound_us:.0f} us" in v
    assert "6 faults" in v


def test_lossy_campaign_is_reconciled(forget_first_fault):
    r = run_campaign(3, nodes=4, nops=10, loss=0.05)
    (v,) = r.violations
    assert v.startswith(f"injected drop on trace {forget_first_fault[0]} ")
    assert v.endswith(" missing from obs fault events")


def test_broken_soak_shrinks_to_its_op(drop_ping_2):
    r = _soak()
    assert r.violations
    s = shrink_failure(r.seed, nodes=r.nodes, loss=r.loss, op_list=r.ops)
    assert s.reproduced
    assert s.minimal == [{"kind": "ping", "round": 2}]
    assert s.original_nops == 6
    assert any("pings from" in v for v in s.violations)
