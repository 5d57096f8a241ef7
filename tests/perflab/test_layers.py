"""Path -> layer bucketing, including builtin-to-caller charging."""

import cProfile
import sys
from types import SimpleNamespace as NS

from perflab import layers


def test_layer_of_paths():
    assert layers.layer_of("/x/src/repro/sim/engine.py") == "sim"
    assert layers.layer_of("/x/src/repro/hardware/switch.py") == "hardware"
    assert layers.layer_of("/x/src/repro/check/campaign.py") == "check"
    assert layers.layer_of("/x/src/repro/faults/soak.py") == "faults"
    assert layers.layer_of("/x/perflab/workloads.py") == "harness"
    assert layers.layer_of("/usr/lib/python3.11/heapq.py") == "python"
    # not a layer of its own, and a stray directory named like one
    assert layers.layer_of("/x/src/repro/cli.py") == "python"
    assert layers.layer_of("/home/sim/notes.py") == "python"


def _fn(path, calls, self_s, subcalls=()):
    return NS(code=NS(co_filename=path), callcount=calls, inlinetime=self_s,
              calls=list(subcalls))


def test_builtin_time_goes_to_the_calling_layer():
    heappush = "<built-in method _heapq.heappush>"
    crc32 = "<built-in method zlib.crc32>"
    stats = [
        _fn("/x/src/repro/sim/engine.py", 10, 1.0,
            [NS(code=heappush, callcount=10, inlinetime=0.5)]),
        _fn("/x/src/repro/hardware/adapter.py", 4, 2.0,
            [NS(code=crc32, callcount=4, inlinetime=0.25),
             NS(code=heappush, callcount=1, inlinetime=0.125)]),
        # the builtins' own rows: already charged through the edges above
        NS(code=heappush, callcount=11, inlinetime=0.625, calls=None),
        NS(code=crc32, callcount=4, inlinetime=0.25, calls=None),
        # a builtin nobody in the profile called stays with python
        NS(code="<method 'disable' of '_lsprof.Profiler' objects>",
           callcount=1, inlinetime=0.0625, calls=None),
    ]
    b = layers.bucket(stats)
    assert b["sim"] == {"self_s": 1.5, "calls": 20}
    assert b["hardware"] == {"self_s": 2.375, "calls": 9}
    assert b["python"] == {"self_s": 0.0625, "calls": 1}
    shares = layers.shares(b)
    assert abs(sum(shares.values()) - 1.0) < 1e-12
    assert shares["am"] == 0.0


def test_bucket_on_a_real_profile():
    src = ("import heapq\n"
           "def churn(n):\n"
           "    h = []\n"
           "    for i in range(n):\n"
           "        heapq.heappush(h, -i)\n"
           "    return len(h)\n")
    ns = {}
    exec(compile(src, "/fake/src/repro/sim/churn.py", "exec"), ns)
    prof = cProfile.Profile()
    prof.enable()
    ns["churn"](500)
    prof.disable()
    b = layers.bucket(prof.getstats())
    # churn itself, 500 heappush and one len, all on the sim layer
    assert b["sim"]["calls"] == 502
    assert b["hardware"]["calls"] == 0
    assert sys.getprofile() is None
