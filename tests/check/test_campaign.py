"""Tests for the randomized conformance campaigns (repro.check.campaign)."""

import pytest

from repro.check import generate_ops, run_campaign, shrink_failure

VIOLATE = {"kind": "violate", "rank": 1, "peer": 2, "offset": 12321}


class TestGenerateOps:
    def test_deterministic_per_seed(self):
        assert generate_ops(5) == generate_ops(5)
        assert generate_ops(5) != generate_ops(6)

    def test_shapes(self):
        ops = generate_ops(9, nodes=4, nops=40)
        assert len(ops) == 40
        kinds = {op["kind"] for op in ops}
        assert kinds <= {"p2p", "self", "coll", "waitmix"}
        for op in ops:
            assert op["comm"] in ("world", "rot", "even", "odd")


class TestRunCampaign:
    def test_clean_campaign_exercises_every_checker_kind(self):
        r = run_campaign(1, nodes=4, nops=12)
        assert r.ok, r.violations
        assert not r.aborted
        for kind in ("fifo", "window", "request", "alloc", "sched"):
            assert r.checks.get(kind, 0) > 0, f"{kind} checker never ran"
        assert r.delivered_units > 0

    def test_campaign_is_deterministic(self):
        a = run_campaign(2, nodes=4, nops=10)
        b = run_campaign(2, nodes=4, nops=10)
        assert a.ok and b.ok
        assert (a.digest, a.delivered_units) == (b.digest, b.delivered_units)

    def test_lossy_campaign_stays_clean(self):
        r = run_campaign(3, nodes=4, nops=10, loss=0.01)
        assert r.ok, r.violations

    def test_violation_detected_and_named(self):
        ops = generate_ops(4, nodes=4, nops=6) + [VIOLATE]
        r = run_campaign(4, nodes=4, op_list=ops)
        assert not r.ok
        assert any("free of unallocated offset 12321" in v
                   for v in r.violations)
        assert any(v.startswith("[alloc[1->2].free]") for v in r.violations)

    def test_aborting_error_is_captured_as_a_violation(self):
        # an op raising inside a rank stops the run; run_capturing turns
        # the error into the campaign's one violation
        r = run_campaign(1, nodes=4, op_list=[{"kind": "bogus",
                                               "comm": "world"}])
        assert r.aborted is True
        assert r.violations == ["ValueError: unknown op kind 'bogus'"]

    def test_only_restricts_checkers(self):
        r = run_campaign(1, nodes=4, nops=6, only=["sched"])
        assert r.ok
        assert set(r.checks) == {"sched"}


class TestShrink:
    def test_clean_campaign_does_not_reproduce(self):
        s = shrink_failure(1, nodes=4, nops=6)
        assert not s.reproduced
        assert s.minimal == []

    def test_shrinks_to_the_offending_op(self):
        ops = generate_ops(7, nodes=4, nops=9) + [VIOLATE]
        s = shrink_failure(7, nodes=4, op_list=ops)
        assert s.reproduced
        assert s.minimal == [VIOLATE]
        assert s.original_nops == 10
        assert any("unallocated offset" in v for v in s.violations)


@pytest.mark.slow
def test_twenty_seed_sweep_is_clean():
    """The acceptance sweep: 20 seeds, every third under 1% loss."""
    for k in range(20):
        r = run_campaign(100 + k, nodes=4, nops=24,
                         loss=0.01 if k % 3 == 2 else 0.0)
        assert r.ok, (r.seed, r.violations)


class TestCampaignPins:
    """Exact digests, unit counts, elapsed times and check counts of two
    campaigns: the post-barrier drain must not move by one event."""

    def test_clean_campaign_pin(self):
        r = run_campaign(100, nodes=4, nops=24)
        assert r.ok, r.violations
        assert r.digest == 2066143693427323846
        assert r.delivered_units == 40
        assert r.elapsed_us == 52975.45
        assert sum(r.checks.values()) == 4161

    def test_lossy_campaign_pin(self):
        r = run_campaign(102, loss=0.01)
        assert r.ok, r.violations
        assert r.digest == 155071329813858129
        assert r.delivered_units == 65
        assert r.elapsed_us == 54243.63000000002
