"""The communication API is exactly what docs/architecture.md justifies.

"The communication API and its callers" in ``docs/architecture.md`` has
one row per public call of ``repro.am``, ``repro.mpi``, ``repro.mpl`` and
``repro.splitc`` — each callable in a package's ``__all__``, and each
public method or property of an exported class and of its bases — with
the caller that justifies it.  A call without a row, and a row whose call
is gone, both fail here; so does a row in the wrong package, with a
reason outside the table's legend, or citing a claim row, test or example
that does not exist.
"""

import importlib
import inspect
import os
import re
import types

import repro
from repro.claims import CLAIMS

PACKAGES = ("repro.am", "repro.mpi", "repro.mpl", "repro.splitc")
#: what may justify a call; a call that only its own tests reach has none
REASONS = {"claims", "campaign", "soak", "example", "GAM 1.1", "gate"}
SECTION = "## The communication API and its callers"
_MEMBER = (types.FunctionType, property, staticmethod, classmethod)
_ROW = re.compile(r"^\| `([\w.]+)` \| `([\w.]+)` \| ([^|]+?) \| (.*) \|$")


def _package(obj) -> str:
    return ".".join(obj.__module__.split(".")[:2])


def public_calls():
    """{call name: defining package} for the surface the table covers."""
    calls = {}
    for pkg in PACKAGES:
        mod = importlib.import_module(pkg)
        for name in mod.__all__:
            obj = getattr(mod, name)
            if not callable(obj):
                continue  # constants are not calls
            calls[name] = _package(obj)
            if not inspect.isclass(obj):
                continue
            for klass in obj.__mro__:
                if not klass.__module__.startswith("repro."):
                    continue
                for attr, member in vars(klass).items():
                    if not attr.startswith("_") and isinstance(member,
                                                               _MEMBER):
                        calls[f"{klass.__name__}.{attr}"] = _package(klass)
    return calls


ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(repro.__file__))))


def table_rows():
    """[(call, package, reason, caller)] from the architecture doc."""
    with open(os.path.join(ROOT, "docs", "architecture.md")) as f:
        text = f.read()
    assert SECTION in text, f"docs/architecture.md lost {SECTION!r}"
    section = text.split(SECTION, 1)[1].split("\n## ", 1)[0]
    return [m.groups() for m in map(_ROW.match, section.splitlines()) if m]


def test_every_public_call_has_exactly_one_row():
    rows = table_rows()
    names = [r[0] for r in rows]
    dupes = sorted({n for n in names if names.count(n) > 1})
    assert not dupes, f"calls with more than one row: {dupes}"
    calls = public_calls()
    missing = sorted(set(calls) - set(names))
    stale = sorted(set(names) - set(calls))
    assert not missing, f"public calls with no row in the table: {missing}"
    assert not stale, f"rows naming calls that no longer exist: {stale}"


def test_rows_name_their_package_and_a_known_reason():
    calls = public_calls()
    for call, pkg, reason, caller in table_rows():
        if call in calls:
            assert pkg == calls[call], f"{call} is defined in {calls[call]}"
        assert reason in REASONS, f"{call}: unknown reason {reason!r}"
        assert caller.strip(), f"{call}: no caller named"


def test_cited_claims_tests_and_examples_exist():
    claim_ids = {c.id for c in CLAIMS}
    groups = {c.split(".")[0] for c in claim_ids}
    for call, _pkg, reason, caller in table_rows():
        cited = []
        for token in re.findall(r"`([^`]+)`", caller):
            if token.startswith(("tests/", "examples/")):
                assert os.path.exists(os.path.join(ROOT, token)), \
                    f"{call}: {token} does not exist"
            elif token.split(".")[0] in groups:
                prefix = token[:-1] if token.endswith(".*") else None
                assert (token in claim_ids if prefix is None else any(
                    c.startswith(prefix) for c in claim_ids)), \
                    f"{call}: no claim row {token}"
                cited.append(token)
        if reason == "claims":
            assert cited, f"{call}: reason 'claims' but no claim row cited"
