"""Every public module-level function and class of the package, and every
public method of its top-level classes, has a caller.

A function or class counts as called when its name appears, as a name, an
attribute or an import, in some module of src/fusionrep outside its own
definition, or in perfbench/trace_job.py.  A method counts as called only
where its name appears as an attribute, x.name: a local variable that
shares its name does not call it.  For a method, its own definition is
its body; the rest of its class counts.  Dunder methods are exempt.
Tests do not count: a helper that only the tests use belongs in
tests/oracles.py.

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


def unused_definitions(modules: dict, roots=()) -> list:
    """Labels of the public definitions in modules (file name -> parsed
    source) without a caller; the parsed sources in roots only call."""
    # (module, top-level index, class-body index or None) -> uses there; a
    # class is split into its body statements, so a method's own body is
    # one key and the rest of its class are others
    used = {(None, i, None): _uses(tree) for i, tree in enumerate(roots)}
    # (label, name, the key prefix of its own definition, is a method)
    definitions = []
    for f, tree in modules.items():
        for k, stmt in enumerate(tree.body):
            used[f, k, None] = _uses(stmt)
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
            if not name.startswith("_")
            and not any(name in uses[method] for key, uses in used.items()
                        if key[:len(own)] != own)]


def test_every_public_definition_has_a_caller():
    modules = {f: _parse(os.path.join(PACKAGE, f))
               for f in sorted(os.listdir(PACKAGE)) if f.endswith(".py")}
    roots = [_parse(TRACE_JOB)] if os.path.exists(TRACE_JOB) else []
    unused = unused_definitions(modules, roots)
    assert not unused, "no caller: " + ", ".join(unused)


def test_a_local_name_does_not_call_a_method():
    """The class counts as called through its import, and its method only
    through an attribute."""
    group = ast.parse("class Group:\n"
                      "    def conj(self, g, x):\n"
                      "        return x\n")
    caller = ("from group import Group\n\n\n"
              "def _n_phi(G):\n"
              "    {}\n")
    shadowed = ast.parse(caller.format("conj = Group()\n    return conj"))
    called = ast.parse(caller.format("return G.conj(1, 2)"))
    assert unused_definitions({"group.py": group, "fusion.py": shadowed}) \
        == ["group.Group.conj"]
    assert unused_definitions({"group.py": group, "fusion.py": called}) == []
    assert unused_definitions({"group.py": group, "fusion.py": shadowed},
                              [called]) == []
