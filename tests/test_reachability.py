"""Every public function, class and method of the package is reached.

A public name (no leading underscore) defined in ``src/tracefem`` must be
used somewhere in the package outside its own definition: a function or
class as a name, an attribute or a string, a method as an attribute or a
string only (a bare name of the same spelling, such as a parameter, does
not reach it).  A name that only a test or an outside tool uses
is listed in ALLOWED with the reason it is kept; an entry that is no
longer defined, or is now reached from the package, fails the test too.
"""

import ast
import collections
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "tracefem"

ALLOWED = {
    "s_w": "read by the node-count hook of perfbench/tracer.py",
    "arcs": "read by the arc-count hook of perfbench/tracer.py",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _uses(tree, bare_names=True):
    """Count of each identifier used as an attribute or a string, and as a
    bare name when bare_names is set."""
    out = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if bare_names:
                out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def _public_defs(tree):
    """(qualified name, node) of module-level functions and classes and
    of the methods of those classes, all without a leading underscore."""
    for node in tree.body:
        if isinstance(node, _DEFS) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, _DEFS) and not sub.name.startswith("_"):
                        yield "%s.%s" % (node.name, sub.name), sub


def _unreached():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    total = {bare: sum((_uses(t, bare) for t in trees.values()),
                       collections.Counter()) for bare in (True, False)}
    out = {}
    for fname, tree in trees.items():
        for qual, node in _public_defs(tree):
            # a method is reached through an attribute or a string only;
            # uses inside the definition itself (recursion, a class naming
            # itself) do not count
            bare = "." not in qual
            if total[bare][node.name] - _uses(node, bare)[node.name] <= 0:
                out[node.name] = "%s:%s" % (fname, qual)
    return out, {node.name for t in trees.values() for _, node in _public_defs(t)}


def test_every_public_name_is_reached():
    unreached, _ = _unreached()
    extra = sorted(set(unreached) - set(ALLOWED))
    assert not extra, "defined but reached by nothing in src/: %s" % (
        ", ".join(unreached[n] for n in extra))


def test_allowlist_is_not_stale():
    unreached, defined = _unreached()
    gone = sorted(set(ALLOWED) - defined)
    reached = sorted(set(ALLOWED) & defined - set(unreached))
    assert not gone, "allowlisted but no longer defined: %s" % ", ".join(gone)
    assert not reached, "allowlisted but reached from src/: %s" % ", ".join(reached)
    assert all(reason.strip() for reason in ALLOWED.values())
