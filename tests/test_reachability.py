"""Every public function, class and method of the package is reached,
and so is every option of one.

A public name (no leading underscore) defined in ``src/tracefem`` must be
used somewhere in the package outside its own definition: a function or
class as a name, an attribute or a string, a method as an attribute or a
string only (a bare name of the same spelling, such as a parameter, does
not reach it).  A name that only a test or an outside tool uses
is listed in ALLOWED with the reason it is kept; an entry that is no
longer defined, or is now reached from the package, fails the test too,
and so does one kept for ``perfbench/tracer.py`` that the tracer does
not read as an attribute.

A parameter with a default of a function or method, public or private
but not a dunder, must be passed, by keyword or by position, by some
call in the package outside the definition, to a callee of its name (a
function as a name or an attribute, a method as an attribute); a call
with ``*args`` or ``**kwargs`` passes every parameter.  An option only
a test or an outside tool sets is listed in UNPASSED as
``function.parameter`` with the reason it is kept, under the same
staleness rule.

A field of a dataclass must be read in the package, as an attribute
(not only assigned) or as the name argument of ``getattr`` (a string
elsewhere, such as a dict key, does not read it), or its class must be
passed to ``dataclasses.fields`` there (``fields(self)`` in its own body
counts).  A field only a test or the README reads is listed in
UNREAD_FIELDS as ``Class.field`` with the reason it is kept, under the
same staleness rule.  The rule matches attribute names alone, not the
class they are read on: a field is taken as read whenever any object's
attribute of its name is, so a field named like an attribute of another
class (``h`` of a mesh, ``dt`` of a run) escapes it.

A limit of ``errors.LIMITS`` must be named by a string somewhere in the
package outside ``errors.py``, as a key that is looked up or an audit
name; a limit nothing names is dead, and no allowlist keeps one.
"""

import ast
import collections
import pathlib

from tracefem.errors import LIMITS

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tracefem"
TRACER = ROOT / "perfbench" / "tracer.py"

ALLOWED = {
    "s_w": "read by the node-count hook of perfbench/tracer.py",
    "arcs": "read by the arc-count hook of perfbench/tracer.py",
    "kaux": "read by the LU-fill hook of perfbench/tracer.py",
    "triangles": "BackgroundMesh.triangles, read for its length by the "
                 "tested-count hook of perfbench/tracer.py",
    "times": "RunResult.times, read for its length by the _run hook of "
             "perfbench/tracer.py and by the tests",
}

UNPASSED = {
    "main.argv": "the console entry point calls main() bare; the tests "
                 "pass the argument list",
}

UNREAD_FIELDS = {
    "CutTopology.pts": "the surface nodes in the plane; tests/test_cutquad.py "
                       "checks that they lie on the circle",
    "CutTopology.dropped_contacts": "grazing contacts left out of the cut; "
                                    "tests/test_cutquad.py checks the count",
    "ErrorRecord.int_h1_sq": "a term of e_total; test_stacked_oracle."
                             "test_fold_identity checks it against its "
                             "closed-form trapezoid sum",
    "ErrorRecord.int_hm1_dt_sq": "a term of e_total; test_stacked_oracle."
                                 "test_fold_identity checks it against its "
                                 "closed-form midpoint sum",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees():
    return {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


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


def _defs(tree, private=False):
    """(qualified name, node) of module-level functions and classes and
    of the methods of those classes, all without a leading underscore, or
    with private set all but the dunders."""
    def kept(name):
        return (not name.startswith("_") or private
                and not (name.startswith("__") and name.endswith("__")))

    for node in tree.body:
        if isinstance(node, _DEFS) and kept(node.name):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, _DEFS) and kept(sub.name):
                        yield "%s.%s" % (node.name, sub.name), sub


def _unreached():
    trees = _trees()
    total = {bare: sum((_uses(t, bare) for t in trees.values()),
                       collections.Counter()) for bare in (True, False)}
    out = {}
    for fname, tree in trees.items():
        for qual, node in _defs(tree):
            # a method is reached through an attribute or a string only;
            # uses inside the definition itself (recursion, a class naming
            # itself) do not count
            bare = "." not in qual
            if total[bare][node.name] - _uses(node, bare)[node.name] <= 0:
                out[node.name] = "%s:%s" % (fname, qual)
    return out, {node.name for t in trees.values() for _, node in _defs(t)}


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


def test_tracer_entries_are_read_by_the_tracer():
    read = {node.attr for node in ast.walk(ast.parse(TRACER.read_text()))
            if isinstance(node, ast.Attribute)}
    stale = sorted(name for name, reason in ALLOWED.items()
                   if "perfbench/tracer.py" in reason and name not in read)
    assert not stale, "kept for perfbench/tracer.py, which does not read " \
        "them: %s" % ", ".join(stale)


def _defaulted(node):
    """(position, name) of each parameter of the def node that has a
    default; the position counts the arguments of a call, past ``self``
    for a method, and is None for a keyword-only parameter."""
    args = node.args
    pos = args.posonlyargs + args.args
    for i in range(len(pos) - len(args.defaults), len(pos)):
        yield i, pos[i].arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _passes(call, position, name):
    """Whether the call passes the parameter at position (None: keyword
    only) named name."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    return position is not None and position < len(call.args)


def _unpassed(trees):
    """({function.parameter: where} of the defaults no call in the modules
    of trees (module name: parsed tree) passes, every one defined)."""
    calls = [node for t in trees.values() for node in ast.walk(t)
             if isinstance(node, ast.Call)]
    out, defined = {}, set()
    for fname, tree in trees.items():
        for qual, node in _defs(tree, private=True):
            if isinstance(node, ast.ClassDef):
                continue
            method = "." in qual
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            skip = 1 if method and not static else 0
            own = {id(c) for c in ast.walk(node)}
            callers = [c for c in calls if id(c) not in own and (
                isinstance(c.func, ast.Attribute) and c.func.attr == node.name
                or not method and isinstance(c.func, ast.Name)
                and c.func.id == node.name)]
            for position, name in _defaulted(node):
                key = "%s.%s" % (node.name, name)
                defined.add(key)
                at = None if position is None else position - skip
                if not any(_passes(c, at, name) for c in callers):
                    out[key] = "%s:%s(%s)" % (fname, qual, name)
    return out, defined


def test_every_default_is_passed():
    unpassed, _ = _unpassed(_trees())
    extra = sorted(set(unpassed) - set(UNPASSED))
    assert not extra, "a default no call in src/ overrides: %s" % (
        ", ".join(unpassed[k] for k in extra))


def test_unpassed_allowlist_is_not_stale():
    unpassed, defined = _unpassed(_trees())
    gone = sorted(set(UNPASSED) - defined)
    passed = sorted(set(UNPASSED) & defined - set(unpassed))
    assert not gone, "allowlisted but no longer defined: %s" % ", ".join(gone)
    assert not passed, "allowlisted but passed from src/: %s" % ", ".join(passed)
    assert all(reason.strip() for reason in UNPASSED.values())


def _is_dataclass(cls):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in cls.decorator_list)


def _is_fields_call(node):
    return isinstance(node, ast.Call) and len(node.args) == 1 and (
        isinstance(node.func, ast.Name) and node.func.id == "fields"
        or isinstance(node.func, ast.Attribute) and node.func.attr == "fields")


def _fields_passed(tree):
    """Names of the classes the module passes to ``fields``: a name or an
    attribute, or the enclosing class for ``self``."""
    out = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            out.update(cls.name for c in ast.walk(cls) if _is_fields_call(c)
                       and isinstance(c.args[0], ast.Name)
                       and c.args[0].id == "self")
    for call in ast.walk(tree):
        if _is_fields_call(call):
            arg = call.args[0]
            out.add(arg.id if isinstance(arg, ast.Name) else
                    getattr(arg, "attr", None))
    return out


def _getattr_name(node):
    """The field name a ``getattr(obj, "name"[, default])`` call reads, or
    None for any other node."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) >= 2):
        name = node.args[1]
        if isinstance(name, ast.Constant) and isinstance(name.value, str):
            return name.value
    return None


def _unread_fields(trees):
    """({Class.field: module} of the dataclass fields the modules of trees
    (module name: parsed tree) never read, every Class.field defined)."""
    read, passed = set(), set()
    for tree in trees.values():
        passed |= _fields_passed(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                read.add(node.attr)
            elif (name := _getattr_name(node)) is not None:
                read.add(name)
    out, defined = {}, set()
    for fname, tree in trees.items():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                                  ast.Name):
                    key = "%s.%s" % (cls.name, node.target.id)
                    defined.add(key)
                    if node.target.id not in read and cls.name not in passed:
                        out[key] = fname
    return out, defined


def test_every_dataclass_field_is_read():
    unread, _ = _unread_fields(_trees())
    extra = sorted(set(unread) - set(UNREAD_FIELDS))
    assert not extra, "a dataclass field nothing in src/ reads: %s" % (
        ", ".join("%s:%s" % (unread[k], k) for k in extra))


def test_unread_fields_allowlist_is_not_stale():
    unread, defined = _unread_fields(_trees())
    gone = sorted(set(UNREAD_FIELDS) - defined)
    read = sorted(set(UNREAD_FIELDS) & defined - set(unread))
    assert not gone, "allowlisted but no longer defined: %s" % ", ".join(gone)
    assert not read, "allowlisted but read in src/: %s" % ", ".join(read)
    assert all(reason.strip() for reason in UNREAD_FIELDS.values())


def test_a_field_named_only_by_a_string_is_unread():
    record = """
from dataclasses import dataclass

@dataclass
class Record:
    value: float
"""
    by_key = "row = {'value': 1.0}\nrow['value']\n"
    by_getattr = "getattr(record, 'value')\n"
    unread, defined = _unread_fields({"a.py": ast.parse(record),
                                      "b.py": ast.parse(by_key)})
    assert unread == {"Record.value": "a.py"}
    assert defined == {"Record.value"}
    unread, _ = _unread_fields({"a.py": ast.parse(record),
                                "b.py": ast.parse(by_getattr)})
    assert unread == {}


def _unread_limits(trees, limits):
    """The names of limits that no string of the modules of trees, but
    ``errors.py``, spells."""
    named = {node.value for fname, tree in trees.items()
             if fname != "errors.py" for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return sorted(set(limits) - named)


def test_every_limit_is_read():
    unread = _unread_limits(_trees(), LIMITS)
    assert not unread, "a limit nothing in src/ reads: %s" % ", ".join(unread)


def test_a_limit_named_only_in_errors_is_unread():
    table = "LIMITS = {'tol': 1.0, 'slack': 2.0}\n"
    use = "LIMITS['tol']\n"
    limits = {"tol": 1.0, "slack": 2.0}
    assert _unread_limits({"errors.py": ast.parse(table),
                           "a.py": ast.parse(use)}, limits) == ["slack"]


def test_private_defaults_are_guarded_and_dunders_are_not():
    module = """
def _scale(x, factor=2.0):
    return factor * x

class _Box:
    def __init__(self, size=1.0):
        self.size = size

    def _grow(self, by=1.0):
        return _scale(self.size + by)

_Box()._grow()
"""
    unpassed, defined = _unpassed({"a.py": ast.parse(module)})
    assert set(unpassed) == {"_scale.factor", "_grow.by"}
    assert defined == {"_scale.factor", "_grow.by"}
