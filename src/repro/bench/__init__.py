"""Benchmark harness: experiment runners and paper-format reporting.

``repro.claims`` builds every table, figure and ablation of the paper
from the functions here; everything below is also importable for
interactive use::

    from repro.bench import pingpong, bandwidth
    pingpong.am_roundtrip(words=1).rtt_us   # -> ~51.0 (us)
    pingpong.am_roundtrip(words=1).request_us  # -> 7.7, Table 2
    bandwidth.sweep("am_store_async")       # -> [(size, MB/s), ...]
"""

from repro.bench.harness import NodeProgramSet, run_programs

__all__ = ["NodeProgramSet", "run_programs"]
