"""Order statistics shared by the runner, the worker and ``compare``."""

from __future__ import annotations

import statistics
from typing import Dict, List


def summarize(values: List[float]) -> Dict[str, float]:
    """n, min, quartiles, median and max of one metric's samples.

    Quartiles as ``statistics.quantiles(values, n=4)`` gives them — the
    benchmark driver computes its spreads the same way."""
    if len(values) > 1:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"n": len(values), "min": min(values), "q1": q1,
            "median": statistics.median(values), "q3": q3,
            "max": max(values)}


def iqr_share(stat: Dict[str, float]) -> float:
    """Interquartile range as a share of the median."""
    return (stat["q3"] - stat["q1"]) / stat["median"] if stat["median"] else 0.0


def undisturbed(values: List[float], scale: float = 1.0) -> Dict[str, float]:
    """Host time on an undisturbed machine, from repeated timings of the
    same work: ``value`` is the fastest sample.

    The box this runs on has two speeds: for seconds to tens of seconds at
    a time everything takes about 1.5x as long (measured: a fixed kernel,
    25.6 ms quiet, 39-42 ms disturbed, CPU time rising with wall time).
    Over ten driver-style runs of ``mpi-mix`` the median of 24-32 slice
    timings spread by 17 %, their first quartile by 18 %, their minimum by
    11 % (by 1-4 % when the box was calm): only the fastest sample is a
    property of the program rather than of the neighbours.  The other
    order statistics are kept beside it so a reader sees the noise, and
    ``spread`` says how well the floor is established.

    ``scale`` multiplies everything but ``n`` (slices -> whole workload).
    """
    stat = {k: (v if k == "n" else v * scale)
            for k, v in summarize(values).items()}
    stat["value"] = stat["min"]
    # how far the first quartile sits above the fastest sample: small
    # when several samples agree on the floor
    stat["spread"] = ((stat["q1"] - stat["min"]) / stat["min"]
                      if stat["min"] else 0.0)
    return stat
