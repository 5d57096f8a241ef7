"""The periodic gauge sampler must be digest-neutral.

Its timers live on the unsequenced observer lane (negative seqs), so an
identical soak with the sampler on and off must retire the *sequenced*
events in byte-identical order at identical times — that is what lets
``spam-bench soak`` run the sampler by default without perturbing the
event-order digests the determinism gates compare.
"""

from repro.check import EventDigest
from repro.faults import run_soak


def _soak_digest(sample_period_us):
    rec = EventDigest()
    res = run_soak(seed=13, loss=0.01, nodes=2, pingpong=8,
                   compare_clean=False, sim_check=rec,
                   sample_period_us=sample_period_us)
    assert not res.violations
    return rec.hexdigest(), res


def test_sampler_on_off_digests_identical():
    d_off, r_off = _soak_digest(None)
    d_on, r_on = _soak_digest(50.0)
    assert d_on == d_off
    assert r_on.elapsed_us == r_off.elapsed_us
    # and the sampler really ran: its ticks add (unsequenced) events
    sim_on = r_on.obs.machine.sim
    sim_off = r_off.obs.machine.sim
    assert sim_on.events_executed > sim_off.events_executed
