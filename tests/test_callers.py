"""Every module-level function, class and assignment of the package, and
every method of its top-level classes, has a caller, private helpers
included.

A function, class or assigned name counts as called when its name
appears, as a name, an attribute or an import, in some module of
src/fusionrep outside its own definition or assignment statement, or in
perfbench/trace_job.py.  A method counts as called only
where its name appears as an attribute, x.name: a local variable that
shares its name does not call it.  For a method, its own definition is
its body; the rest of its class counts.  Dunder methods and dunder
names such as __all__ are exempt.
Tests do not count: a helper that only the tests use belongs in
tests/oracles.py.

Every public attribute that a top-level class stores, as self.x = ...,
object.__setattr__(self, "x", ...) or vars(self).update(x=...), is read:
.x appears in Load context in some module of src/fusionrep or in
perfbench/trace_job.py.

Every name that an import statement in src/fusionrep binds is read in
its module: it appears there as a name in Load context.  Imports from
__future__ bind nothing to read.

trace_job.py is a root only because it still uses the `presentation`
alias and the `allow_large`, `basis=None` and `P=None` arguments.  The
benchmark change of ROADMAP item 2 drops that root, together with the
`presentation` alias.
"""

import ast
import os

import fusionrep

PACKAGE = os.path.dirname(os.path.abspath(fusionrep.__file__))
TRACE_JOB = os.path.join(os.path.dirname(os.path.dirname(PACKAGE)),
                         "perfbench", "trace_job.py")


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def _uses(*nodes) -> tuple:
    """(every name, attribute and imported name under the nodes, the
    attributes alone)."""
    names, attrs = set(), set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                attrs.add(n.attr)
            elif isinstance(n, ast.alias):
                names.add(n.name.split(".")[-1])
    return names | attrs, attrs


def _assigned(stmt) -> list:
    """The names that a module-level assignment binds."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def unused_definitions(modules: dict, roots=()) -> list:
    """Labels of the definitions in modules (file name -> parsed source)
    without a caller, module-level assignments among them; the parsed
    sources in roots only call."""
    # (module, top-level index, class-body index or None) -> uses there; a
    # class is split into its body statements, so a method's own body is
    # one key and the rest of its class are others
    used = {(None, i, None): _uses(tree) for i, tree in enumerate(roots)}
    # (label, name, the key prefix of its own definition, is a method)
    definitions = []
    for f, tree in modules.items():
        for k, stmt in enumerate(tree.body):
            used[f, k, None] = _uses(stmt)
            for name in _assigned(stmt):
                definitions.append((f"{f[:-3]}.{name}", name, (f, k), False))
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            label = f"{f[:-3]}.{stmt.name}"
            definitions.append((label, stmt.name, (f, k), False))
            if isinstance(stmt, ast.ClassDef):
                used[f, k, None] = _uses(*stmt.bases, *stmt.decorator_list)
                for m, item in enumerate(stmt.body):
                    used[f, k, m] = _uses(item)
                    if isinstance(item, ast.FunctionDef):
                        definitions.append((f"{label}.{item.name}",
                                            item.name, (f, k, m), True))
    return [label for label, name, own, method in definitions
            if not (name.startswith("__") and name.endswith("__"))
            and not any(name in uses[method] for key, uses in used.items()
                        if key[:len(own)] != own)]


def _stores(cls: ast.ClassDef) -> list:
    """The public attributes that the methods of cls store on self, in
    order of first store: self.x = ..., object.__setattr__(self, "x", ...)
    and vars(self).update(x=...)."""
    found = []
    for n in ast.walk(cls):
        if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                and isinstance(n.value, ast.Name) and n.value.id == "self"):
            found.append(n.attr)
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
            f, args = n.func, n.args
            if (f.attr == "__setattr__" and isinstance(f.value, ast.Name)
                    and f.value.id == "object" and len(args) > 1
                    and isinstance(args[1], ast.Constant)):
                found.append(args[1].value)
            elif (f.attr == "update" and isinstance(f.value, ast.Call)
                  and isinstance(f.value.func, ast.Name)
                  and f.value.func.id == "vars"):
                found.extend(k.arg for k in n.keywords)
    return [x for x in dict.fromkeys(found) if not x.startswith("_")]


def unread_attributes(modules: dict, roots=()) -> list:
    """Labels of the public attributes that a top-level class of modules
    stores and that no module of modules or roots reads: an attribute
    counts as read only where .name appears in Load context."""
    read = {n.attr for tree in (*modules.values(), *roots)
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [f"{f[:-3]}.{stmt.name}.{x}"
            for f, tree in modules.items() for stmt in tree.body
            if isinstance(stmt, ast.ClassDef)
            for x in _stores(stmt) if x not in read]


def unread_imports(modules: dict) -> list:
    """Labels module.name of the names that an import statement of a
    module binds and that the module never reads."""
    out = []
    for f, tree in modules.items():
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Import) or (isinstance(n, ast.ImportFrom)
                                             and n.module != "__future__"):
                out += [f"{f[:-3]}.{bound}" for a in n.names
                        for bound in [a.asname or a.name.split(".")[0]]
                        if bound not in read]
    return out


def _package():
    """(the parsed modules of the package, the parsed roots)."""
    modules = {f: _parse(os.path.join(PACKAGE, f))
               for f in sorted(os.listdir(PACKAGE)) if f.endswith(".py")}
    roots = [_parse(TRACE_JOB)] if os.path.exists(TRACE_JOB) else []
    return modules, roots


def test_every_public_definition_has_a_caller():
    unused = unused_definitions(*_package())
    assert not unused, "no caller: " + ", ".join(unused)


def test_every_stored_attribute_is_read():
    unread = unread_attributes(*_package())
    assert not unread, "no reader: " + ", ".join(unread)


def test_every_imported_name_is_read():
    unread = unread_imports(_package()[0])
    assert not unread, "imported, never read: " + ", ".join(unread)


def test_an_unread_import_is_reported():
    """A name bound by import, from-import or as counts as read only where
    it is loaded in its own module: a store, or a read in another module,
    does not read it."""
    stale = ast.parse("from __future__ import annotations\n\n"
                      "import os.path\n"
                      "import numpy as np\n"
                      "from .errors import (NotInSpan, NotInvariant,\n"
                      "                     DecompositionNotIntegral)\n\n\n"
                      "def f(x):\n"
                      "    from .errors import InputError\n"
                      "    np = 1\n"
                      "    raise NotInvariant(os.path.join(x, 'np'))\n")
    other = ast.parse("from .errors import NotInSpan\n\n"
                      "print(NotInSpan, DecompositionNotIntegral)\n")
    assert unread_imports({"stale.py": stale, "other.py": other}) == [
        "stale.np", "stale.NotInSpan", "stale.DecompositionNotIntegral",
        "stale.InputError"]


def test_a_local_name_does_not_call_a_method():
    """The class counts as called through its import, and its method only
    through an attribute."""
    group = ast.parse("class Group:\n"
                      "    def conj(self, g, x):\n"
                      "        return x\n")
    caller = ("from group import Group\n\n\n"
              "def _n_phi(G):\n"
              "    {}\n\n\n"
              "_n_phi(Group())\n")
    shadowed = ast.parse(caller.format("conj = Group()\n    return conj"))
    called = ast.parse(caller.format("return G.conj(1, 2)"))
    assert unused_definitions({"group.py": group, "fusion.py": shadowed}) \
        == ["group.Group.conj"]
    assert unused_definitions({"group.py": group, "fusion.py": called}) == []
    assert unused_definitions({"group.py": group, "fusion.py": shadowed},
                              [called]) == []


def test_a_private_helper_without_a_caller_is_reported():
    """A _function or _Class counts as called where its name appears
    outside its own definition, a _method only as x._method outside its
    own body; recursion does not call, and dunder methods are exempt."""
    helpers = ast.parse("def _used():\n"
                        "    return 1\n\n\n"
                        "def _unused():\n"
                        "    return _unused()\n\n\n"
                        "class _Box:\n"
                        "    def __init__(self):\n"
                        "        self.v = _used()\n\n"
                        "    def _read(self):\n"
                        "        return self.v\n\n"
                        "    def _again(self):\n"
                        "        return self._again()\n")
    main = ast.parse("from helpers import _Box\n\n"
                     "_read = _Box()\n"
                     "print(_read)\n")
    reads = ast.parse("from helpers import _Box\n\n"
                      "print(_Box()._read())\n")
    assert unused_definitions({"helpers.py": helpers}) == [
        "helpers._unused", "helpers._Box", "helpers._Box._read",
        "helpers._Box._again"]
    assert unused_definitions({"helpers.py": helpers, "main.py": main}) == [
        "helpers._unused", "helpers._Box._read", "helpers._Box._again"]
    assert unused_definitions({"helpers.py": helpers, "main.py": reads}) \
        == ["helpers._unused", "helpers._Box._again"]


def test_a_module_constant_without_a_reader_is_reported():
    """A name bound at module level counts as called where it is named
    outside its own statement; its own right-hand side does not call it,
    and dunder names are exempt."""
    consts = ast.parse("__all__ = ['CAP']\n"
                       "CAP = 64\n"
                       "_KEYS = ('a', 'b')\n"
                       "_SELF = _SELF if False else 1\n"
                       "LOW, HIGH = 1, CAP\n"
                       "LIMIT: int = 3\n")
    reader = ast.parse("from consts import LIMIT\n\n"
                       "print(LIMIT, consts.HIGH)\n")
    assert unused_definitions({"consts.py": consts}) == [
        "consts._KEYS", "consts._SELF", "consts.LOW", "consts.HIGH",
        "consts.LIMIT"]
    assert unused_definitions({"consts.py": consts, "main.py": reader}) == [
        "consts._KEYS", "consts._SELF", "consts.LOW"]


def test_an_attribute_that_nothing_reads_is_reported():
    """Each of the three stores counts, and only a read in Load context,
    in the package or in a root, makes an attribute read: a store to the
    same name elsewhere does not."""
    point = ast.parse("class Point:\n"
                      "    def __init__(self, x, y, z, w):\n"
                      "        self.x = x\n"
                      "        object.__setattr__(self, 'y', y)\n"
                      "        vars(self).update(z=z, _w=w)\n")
    reader = ast.parse("def norm(p, q):\n"
                       "    q.y = p.x\n"
                       "    return p.x\n")
    assert unread_attributes({"point.py": point}) \
        == ["point.Point.x", "point.Point.y", "point.Point.z"]
    assert unread_attributes({"point.py": point, "norm.py": reader}) \
        == ["point.Point.y", "point.Point.z"]
    assert unread_attributes({"point.py": point},
                             [ast.parse("p.z + p.y")]) == ["point.Point.x"]


def numpy_imports(tree) -> list:
    """Line numbers of the import statements of tree, at any depth, that
    import numpy or a submodule of it."""
    return [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Import)
            and any(a.name.split(".")[0] == "numpy" for a in n.names)
            or isinstance(n, ast.ImportFrom) and n.level == 0
            and (n.module or "").split(".")[0] == "numpy"]


def test_the_set_up_layers_import_no_numpy():
    """Every layer runs on Python ints, the set-up (groups, subgroups,
    homomorphisms, the fusion system and its saturation check) and the
    array stages (characters, bases, rings, spectra, twisted modules)
    alike: no module of the package imports numpy, not even inside a
    function."""
    modules = _package()[0]
    assert {"permgroup.py", "fusion.py", "intlinalg.py"} <= set(modules)
    for f, tree in modules.items():
        assert numpy_imports(tree) == [], f


def test_a_numpy_import_at_any_depth_is_found():
    lazy = ast.parse("import os\n"
                     "from . import numpy\n\n\n"
                     "def f():\n"
                     "    import numpy as np\n"
                     "    from numpy.linalg import norm\n"
                     "    import os.path, numpy.ma\n")
    assert numpy_imports(lazy) == [6, 7, 8]
