"""Every knob of ``src/repro`` has a setter, and every def a mention.

A defaulted parameter is a knob.  A knob that no call anywhere in the
repository sets — by keyword or by position — is a constant with extra
steps, so it fails here; so does a def whose name nothing mentions.

The scan is by name, over the ``ast`` of ``src/``, ``tests/``,
``perflab/``, ``examples/`` and ``benchmarks/``: a call ``x.f(...)``
counts for every def named ``f``, and ``C(...)`` for ``C.__init__``, as
does ``super().__init__(...)`` in a class that names ``C`` as a base.  A
positional argument skips the ``self``/``cls`` slot of a method.  A call
that forwards ``*args`` or ``**kw`` counts as setting every parameter,
and an ``x=x`` default (a closure capture) is not a knob.  A name is
mentioned by an identifier, an attribute or a string that spells it
(``__all__``, ``getattr``); a docstring does not mention anything.

:data:`ALLOWLIST` names the knobs set where a name-based scan cannot see
it, each with its reason; an entry whose parameter is gone, or that some
call now sets, is stale and fails too.  docs/architecture.md ("Knobs and
their setters") states the rule.
"""

import ast
import os
from collections import Counter, defaultdict
from functools import lru_cache

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(repro.__file__))))
SCANNED = ("src", "tests", "perflab", "examples", "benchmarks")

#: (path under src/repro, def, parameter) -> why it is a knob
ALLOWLIST = {
    ("bench/bandwidth.py", "_measure_mpl", "params"):
        "dynamic dispatch: measure_bandwidth's kernel(...) call sets it",
    ("bench/figures.py", "mpi_ring_latency", "node_kind"):
        "dynamic dispatch: claims._ring, through claims._curves",
    ("bench/figures.py", "mpi_bandwidth", "node_kind"):
        "dynamic dispatch: claims._curves",
    ("am/api.py", "attach_spam", "costs"):
        "cost seam of ROADMAP item 2(iii)",
    ("mpl/api.py", "attach_mpl", "costs"):
        "cost seam of ROADMAP item 2(iii)",
}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _docstrings(tree):
    """The ids of every docstring constant in ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first.value))
    return out


class Def:
    """One function or method of ``src/repro``."""

    def __init__(self, path, node, klass):
        self.path = path
        self.node = node
        self.name = node.name
        self.klass = klass

    def callers(self):
        """The callee names a call to this def goes by."""
        if self.name == "__init__" and self.klass is not None:
            return (self.klass,)
        return (self.name,)

    def knobs(self):
        """``[(parameter, argument position or None)]`` of its defaulted
        parameters, captures excepted; the position skips ``self``/``cls``."""
        a = self.node.args
        skip = int(self.klass is not None and not any(
            _name(d) == "staticmethod" for d in self.node.decorator_list))
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        pairs = [(arg, default, i - skip) for i, (arg, default) in enumerate(
            zip(positional[first:], a.defaults), first)]
        pairs += [(arg, default, None)
                  for arg, default in zip(a.kwonlyargs, a.kw_defaults)
                  if default is not None]
        return [(arg.arg, pos) for arg, default, pos in pairs
                if not (isinstance(default, ast.Name)
                        and default.id == arg.arg)]


@lru_cache(maxsize=None)
def scan():
    """Parse every scanned tree once: the defs of ``src/repro``, the calls
    by callee name, and how often each name is mentioned."""
    defs, calls, mentioned = [], defaultdict(list), Counter()
    src = os.path.join(ROOT, "src", "repro")
    for top in SCANNED:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for fname in sorted(f for f in filenames if f.endswith(".py")):
                path = os.path.join(dirpath, fname)
                with open(path) as f:
                    tree = ast.parse(f.read(), path)
                if path.startswith(src + os.sep):
                    rel = os.path.relpath(path, src).replace(os.sep, "/")
                    _collect(tree, rel, None, defs)
                docs = _docstrings(tree)
                for node in ast.walk(tree):
                    if isinstance(node, ast.ClassDef):
                        for call in _super_inits(node):
                            for base in node.bases:
                                calls[_name(base)].append(call)
                    if isinstance(node, ast.Call):
                        callee = _name(node.func)
                        if callee is not None:
                            calls[callee].append(node)
                    elif isinstance(node, ast.Name):
                        mentioned[node.id] += 1
                    elif isinstance(node, ast.Attribute):
                        mentioned[node.attr] += 1
                    elif (isinstance(node, ast.Constant)
                          and isinstance(node.value, str)
                          and id(node) not in docs):
                        words = node.value.split(".")
                        if all(w.isidentifier() for w in words):
                            mentioned.update(words)
    return defs, calls, mentioned


def _super_inits(klass):
    """The ``super().__init__(...)`` calls in ``klass``."""
    for node in ast.walk(klass):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__init__"
                and isinstance(node.func.value, ast.Call)
                and _name(node.func.value.func) == "super"):
            yield node


def _collect(node, rel, klass, out):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(Def(rel, child, klass))
            _collect(child, rel, None, out)
        elif isinstance(child, ast.ClassDef):
            _collect(child, rel, child.name, out)
        else:
            _collect(child, rel, klass, out)


def _sets(calls, names, position, keyword):
    """Whether a call to one of ``names`` sets argument ``position`` (None:
    keyword-only) or keyword ``keyword``, or forwards ``*``/``**``."""
    for name in names:
        for call in calls.get(name, ()):
            if position is not None and len(call.args) > position:
                return True
            if any(isinstance(a, ast.Starred) for a in call.args):
                return True
            if any(kw.arg is None or kw.arg == keyword
                   for kw in call.keywords):
                return True
    return False


def knobs():
    """``{(path, def, parameter): set by some call}`` over ``src/repro``."""
    defs, calls, _ = scan()
    return {(d.path, d.name, param): _sets(calls, d.callers(), pos, param)
            for d in defs for param, pos in d.knobs()}


def _fmt(keys):
    return ", ".join(f"{path}::{fn}({param})" for path, fn, param in keys)


def test_every_knob_has_a_setter():
    unset = sorted(k for k, is_set in knobs().items()
                   if not is_set and k not in ALLOWLIST)
    assert not unset, f"defaulted parameters no call sets: {_fmt(unset)}"


def test_every_def_is_mentioned():
    defs, _, mentioned = scan()
    unmentioned = sorted(
        f"{d.path}::{d.name}" for d in defs
        if not (d.name.startswith("__") and d.name.endswith("__"))
        and not mentioned[d.name])
    assert not unmentioned, f"defs nothing mentions: {unmentioned}"


def test_allowlist_is_not_stale():
    found = knobs()
    gone = sorted(k for k in ALLOWLIST if k not in found)
    assert not gone, f"allowlisted parameters that no longer exist: " \
        f"{_fmt(gone)}"
    now_set = sorted(k for k in ALLOWLIST if found[k])
    assert not now_set, f"allowlisted parameters a call now sets: " \
        f"{_fmt(now_set)}"
