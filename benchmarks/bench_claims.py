"""Every claim of the paper, checked: one test per row of
:data:`repro.claims.CLAIMS`.

A row whose status is ``open: ROADMAP <item>`` runs as a strict xfail,
so the day it is fixed this run fails until the row says ``holds``.
Experiments are memoised, so each simulates once for all its rows.
Run with::

    pytest benchmarks/
    pytest benchmarks/ -k fig9     # one experiment's rows
"""

import pytest

from repro.claims import CLAIMS, HOLDS, evaluate

PARAMS = [
    pytest.param(c, id=c.id, marks=() if c.status == HOLDS else
                 pytest.mark.xfail(strict=True, reason=c.status))
    for c in CLAIMS
]


@pytest.mark.parametrize("claim", PARAMS)
def test_claim(claim):
    row = evaluate(claim)
    assert row.ok, str(row)
