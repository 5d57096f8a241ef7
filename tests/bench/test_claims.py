"""The paper-claims registry (``repro.claims``) is well formed, and its
cheap rows hold through the same evaluator ``pytest benchmarks/`` uses."""

import pytest

from benchmarks.bench_claims import PARAMS
from repro.apps.nas import NAS_KERNELS
from repro.claims import CLAIMS, EXPERIMENTS, HOLDS, evaluate
from repro.cli import NAS_KERNELS as CLI_NAS_KERNELS

#: the experiments that finish in well under a second together
CHEAP = ("roundtrip", "table2", "table4")


def test_claim_ids_are_unique():
    ids = [c.id for c in CLAIMS]
    assert len(ids) == len(set(ids))


def test_every_cited_experiment_exists_and_is_cited():
    assert {c.experiment for c in CLAIMS} == set(EXPERIMENTS)


def test_open_claims_are_exactly_roadmap_1a_and_1b_as_strict_xfails():
    open_ = {p.values[0].status: p.marks for p in PARAMS
             if p.values[0].status != HOLDS}
    assert set(open_) == {"open: ROADMAP 1(a)", "open: ROADMAP 1(b)"}
    for marks in open_.values():
        (mark,) = marks
        assert mark.name == "xfail" and mark.kwargs["strict"] is True


def test_tolerance_rows_have_a_numeric_paper_value():
    for c in CLAIMS:
        if c.bound.text.startswith("+-"):
            assert isinstance(c.paper, (int, float)), c.id


def test_table6_rows_cover_every_nas_kernel_the_cli_offers():
    kernels = {c.id.split(".", 1)[1] for c in CLAIMS
               if c.experiment == "table6"}
    assert kernels == set(NAS_KERNELS) == set(CLI_NAS_KERNELS)


@pytest.mark.parametrize(
    "claim", [c for c in CLAIMS if c.experiment in CHEAP],
    ids=lambda c: c.id)
def test_cheap_claims_hold(claim):
    row = evaluate(claim)
    assert row.ok, str(row)
