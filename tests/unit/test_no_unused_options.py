"""Every defaulted public parameter in ``src/repro`` must have a caller.

A keyword option that no call site sets is a second definition of the
value it defaults to: the module constant and the parameter default can
drift apart, and a second code path hides behind it.  This test parses
the package with :mod:`ast`, collects every public function, method and
constructor parameter that has a default, and looks for a call site
with the same callee name in ``src/``, ``tests/``, ``benchmarks/``,
``examples/`` or ``perfbench/`` that passes it by keyword or by
position (a ``*args`` call passes every positional parameter).  A
parameter no call site passes fails the test unless :data:`ALLOWED`
names it with its reason.  A ``**kwargs`` forwarder passes only what its
own callers pass it, and a call that unpacks any other ``**mapping``
passes only its explicit keywords: the scan cannot see the mapping's
keys, and counting it as passing everything hides unused options.
Dataclass fields are records' initial state, not options, and are not
scanned.

Run ``python tests/unit/test_no_unused_options.py`` to print the set.
"""

from __future__ import annotations

import ast
import functools
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "tests", "benchmarks", "examples", "perfbench")

_MPI = "MPI-style argument: a program picks it per message"
_DEPLOY = "deployment setting"
_FACTORY = "false positive: the metrics registry builds it through a factory"

#: ``"module:Qualified.name(param)"`` -> why the option stays.
ALLOWED: dict[str, str] = {
    "repro.obs.metrics:Counter.__init__(labels)": _FACTORY,
    "repro.obs.metrics:Gauge.__init__(labels)": _FACTORY,
    "repro.obs.metrics:Histogram.__init__(labels)": _FACTORY,
    "repro.serviced.client:ServicedClient.__init__(timeout)": _DEPLOY,
    "repro.simmpi.collectives:barrier(tag)": _MPI,
    "repro.simmpi.collectives:gather(tag)": _MPI,
    "repro.simmpi.collectives:allgather(tag)": _MPI,
    "repro.simmpi.collectives:reduce(tag)": _MPI,
    "repro.simmpi.collectives:scatter(tag)": _MPI,
    "repro.simmpi.collectives:alltoall(tag)": _MPI,
    "repro.simmpi.collectives:hierarchical_bcast(tag)": _MPI,
}


def _defaulted_params(fn: ast.FunctionDef | ast.AsyncFunctionDef, is_method: bool):
    """Yield ``(name, positional_index)`` of every parameter with a default.

    ``positional_index`` counts from the first argument a caller writes
    (``self``/``cls`` excluded) and is ``None`` for keyword-only ones.
    """
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = 1 if is_method and not _decorated(fn, "staticmethod") else 0
    first_default = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional):
        if i >= first_default and i >= skip:
            yield arg.arg, i - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _decorated(fn, decorator: str) -> bool:
    return any(isinstance(d, ast.Name) and d.id == decorator for d in fn.decorator_list)


def _subclasses(trees) -> dict[str, set[str]]:
    """Class name -> itself plus every package class deriving from it."""
    bases: dict[str, set[str]] = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {
                    b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", "")
                    for b in node.bases
                }
    family = {name: {name} for name in bases}
    changed = True
    while changed:
        changed = False
        for name, parents in bases.items():
            for parent in parents & family.keys():
                if not family[name] <= family[parent]:
                    family[parent] |= family[name]
                    changed = True
    return family


@functools.cache
def _trees(top: str) -> tuple:
    return tuple(
        (path, ast.parse(path.read_text())) for path in sorted((ROOT / top).rglob("*.py"))
    )


def defaulted_options():
    """``[(key, callee names, param, positional_index)]`` for the package.

    A constructor is called by its class's name or any subclass's.
    """
    modules = [
        (".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts), tree)
        for path, tree in _trees("src")
    ]
    family = _subclasses(tree for _, tree in modules)
    found = []
    for module, tree in modules:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                for name, pos in _defaulted_params(node, is_method=False):
                    found.append((f"{module}:{node.name}({name})", {node.name}, name, pos))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    if item.name == "__init__":
                        callees = family[node.name]
                    elif item.name.startswith("_"):
                        continue
                    else:
                        callees = {item.name}
                    for name, pos in _defaulted_params(item, is_method=True):
                        found.append((f"{module}:{node.name}.{item.name}({name})", callees, name, pos))
    return found


def _call_name(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def call_sites(trees, wanted: set[str]):
    """Map each ``wanted`` callee name (and each forwarder) ->
    ``[(n_positional, has_star, keywords, forwarder)]``.

    ``cls(...)`` inside a classmethod calls its class.  ``forwarder``
    names the enclosing function when the call passes that function's
    own ``**kwargs`` on; such a call passes only what that function's
    callers pass it.
    """
    calls, renamed, forwarded = [], {}, {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.append(node)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _decorated(item, "classmethod"):
                        for sub in ast.walk(item):
                            if isinstance(sub, ast.Call) and _call_name(sub) == "cls":
                                renamed[id(sub)] = node.name
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.args.kwarg:
                kwarg = node.args.kwarg.arg
                for sub in ast.walk(node):  # outer functions first: the innermost wins
                    if isinstance(sub, ast.Call) and any(
                        k.arg is None and isinstance(k.value, ast.Name) and k.value.id == kwarg
                        for k in sub.keywords
                    ):
                        forwarded[id(sub)] = node.name
    wanted = wanted | set(forwarded.values())
    sites = defaultdict(list)
    for call in calls:
        name = renamed.get(id(call)) or _call_name(call)
        if name not in wanted:
            continue
        forwarder = forwarded.get(id(call))
        sites[name].append((
            sum(not isinstance(a, ast.Starred) for a in call.args),
            any(isinstance(a, ast.Starred) for a in call.args),
            {k.arg for k in call.keywords if k.arg is not None},
            forwarder,
        ))
    return sites


def _passes_keyword(sites, callee: str, param: str, seen: frozenset = frozenset()) -> bool:
    if callee in seen:
        return False
    for _, _, keywords, forwarder in sites.get(callee, ()):
        if param in keywords:
            return True
        if forwarder is not None and _passes_keyword(sites, forwarder, param, seen | {callee}):
            return True
    return False


@functools.cache
def unused_options() -> tuple[str, ...]:
    options = defaulted_options()
    sites = call_sites(
        (tree for top in CALLER_DIRS for _, tree in _trees(top)),
        set().union(*(callees for _, callees, _, _ in options)),
    )
    unused = []
    for key, callees, param, pos in options:
        passed = any(
            (pos is not None and any(star or pos < n_pos for n_pos, star, *_ in sites.get(callee, ())))
            or _passes_keyword(sites, callee, param)
            for callee in callees
        )
        if not passed:
            unused.append(key)
    return tuple(unused)


def test_every_defaulted_public_parameter_has_a_caller():
    unused = [key for key in unused_options() if key not in ALLOWED]
    assert not unused, (
        "defaulted public parameters no call site passes (delete the option and use "
        "its default, or allowlist it with a reason):\n  " + "\n  ".join(unused)
    )


def test_allowlist_names_only_live_unused_options():
    unused = set(unused_options())
    stale = sorted(key for key in ALLOWED if key not in unused)
    assert not stale, f"allowlisted options that are gone or now have a caller: {stale}"


if __name__ == "__main__":
    for key in unused_options():
        print(("  allowed  " if key in ALLOWED else "") + key)
