"""Attribute profiled host time to the repository's packages.

The layers are the packages under ``src/repro`` plus two of our own:
``harness`` (perflab's node programs and recorders) and ``python``
(standard-library frames and anything else).  A Python function's self
time belongs to the layer of the file that defines it.  A C builtin
(``heappush``, ``insort``, ``crc32``, ``bytearray`` slicing ...) has no
file: its time is charged to the layer of the function that *called* it,
read from the profile's caller edges, so the engine pays for its heap and
the adapter for its CRC.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable

#: every layer a report names, in print order
LAYERS = ("sim", "hardware", "am", "mpl", "mpi", "splitc", "faults", "obs",
          "check", "harness", "python")

_REPRO_LAYERS = frozenset(LAYERS) - {"harness", "python"}


def layer_of(path: str) -> str:
    """The layer that owns a source file path."""
    parts = path.replace(os.sep, "/").split("/")
    for i in range(len(parts) - 1, 0, -1):
        if parts[i - 1] == "repro" and parts[i] in _REPRO_LAYERS:
            return parts[i]
    if "perflab" in parts[:-1]:
        return "harness"
    return "python"


def bucket(stats: Iterable) -> Dict[str, Dict[str, float]]:
    """Reduce ``cProfile.Profile.getstats()`` to per-layer totals.

    Returns ``{layer: {"self_s": seconds, "calls": count}}`` for every
    layer in :data:`LAYERS`.  ``calls`` counts calls *into* functions the
    layer owns, builtins included under the rule above; with a
    deterministic program it repeats exactly.
    """
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    charged = set()
    entries = list(stats)
    for entry in entries:
        if isinstance(entry.code, str):
            continue
        acc = out[layer_of(entry.code.co_filename)]
        acc["self_s"] += entry.inlinetime
        acc["calls"] += entry.callcount
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                # inlinetime of a builtin's caller edge: the time spent
                # in the builtin itself when called from this function
                acc["self_s"] += sub.inlinetime
                acc["calls"] += sub.callcount
                charged.add(sub.code)
    for entry in entries:
        # a builtin with no Python caller in the profile (the profiler's
        # own disable) stays with python
        if isinstance(entry.code, str) and entry.code not in charged:
            out["python"]["self_s"] += entry.inlinetime
            out["python"]["calls"] += entry.callcount
    return out


def shares(buckets: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Each layer's share of the profiled self time."""
    total = sum(b["self_s"] for b in buckets.values())
    return {layer: (b["self_s"] / total if total else 0.0)
            for layer, b in buckets.items()}
