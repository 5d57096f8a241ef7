"""Tests for the SPMD experiment harness."""

import pytest

from repro.am import attach_spam
from repro.bench.harness import run_programs, serve_until
from repro.hardware import build_sp_machine
from repro.sim import Delay, Simulator
from repro.sim.errors import SimTimeoutError


def make_machine(n=2):
    sim = Simulator()
    m = build_sp_machine(sim, n)
    attach_spam(m)
    return m


class TestRunPrograms:
    def test_runs_one_program_per_node(self):
        m = make_machine(3)
        hits = []

        def prog(node):
            yield Delay(10.0 * (node.id + 1))
            hits.append(node.id)
            return node.id * 2

        result = run_programs(m, [prog] * 3)
        assert sorted(hits) == [0, 1, 2]
        assert [result.result(r) for r in range(3)] == [0, 2, 4]
        assert result.elapsed_us == pytest.approx(30.0)

    def test_program_count_must_match_nodes(self):
        m = make_machine(2)
        with pytest.raises(ValueError):
            run_programs(m, [lambda n: iter(())])

    def test_wait_for_subset_abandons_servers(self):
        m = make_machine(2)
        flag = [0]

        def worker(node):
            got = []

            def handler(token, x):
                got.append(x)

            yield from node.am.request_1(1, handler, 7)
            yield Delay(100.0)
            flag[0] = 1

        def server(node):
            yield from serve_until(node.am, flag)

        result = run_programs(m, [worker, server], wait_for=[0])
        assert result.processes[0].finished

    @pytest.mark.parametrize("rank", [5, -1, 2])
    def test_wait_for_rank_outside_machine_rejected(self, rank):
        m = make_machine(2)

        def prog(node):
            yield Delay(1.0)

        with pytest.raises(ValueError, match=f"wait_for rank {rank} "):
            run_programs(m, [prog, prog], wait_for=[0, rank])
        assert m.sim.now == 0.0

    def test_time_limit_raises(self):
        m = make_machine(2)

        def slow(node):
            yield Delay(1e9)

        with pytest.raises(SimTimeoutError):
            run_programs(m, [slow, slow], limit_us=100.0)

    def test_elapsed_measures_from_call(self):
        m = make_machine(2)
        m.sim.schedule(5.0, lambda: None)
        m.sim.run()  # advance the clock before the experiment

        def prog(node):
            yield Delay(7.0)

        result = run_programs(m, [prog, prog])
        assert result.elapsed_us == pytest.approx(7.0)
