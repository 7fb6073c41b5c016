"""Every public module-level function and class of the package, and every
public method of its top-level classes, has a caller.

A definition counts as called when its name appears, as a name, an
attribute or an import, in some module of src/fusionrep outside its own
definition, or in perfbench/trace_job.py.  For a method, its own
definition is its body; the rest of its class counts.  Dunder methods are
exempt.  Tests do not count: a helper that only the tests use belongs in
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


def _names(node) -> set:
    """Every name, attribute and imported name under node."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.split(".")[-1])
    return out


def test_every_public_definition_has_a_caller():
    modules = {f: _parse(os.path.join(PACKAGE, f))
               for f in sorted(os.listdir(PACKAGE)) if f.endswith(".py")}
    # (module, top-level index, class-body index or None) -> names used
    # there; a class is split into its body statements, so a method's own
    # body is one key and the rest of its class are others
    used = {}
    # (label, name, the key prefix of its own definition)
    definitions = []
    for f, tree in modules.items():
        for k, stmt in enumerate(tree.body):
            used[f, k, None] = _names(stmt)
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            label = f"{f[:-3]}.{stmt.name}"
            definitions.append((label, stmt.name, (f, k)))
            if isinstance(stmt, ast.ClassDef):
                used[f, k, None] = set().union(
                    *map(_names, stmt.bases + stmt.decorator_list))
                for m, item in enumerate(stmt.body):
                    used[f, k, m] = _names(item)
                    if isinstance(item, ast.FunctionDef):
                        definitions.append((f"{label}.{item.name}",
                                            item.name, (f, k, m)))
    roots = _names(_parse(TRACE_JOB)) if os.path.exists(TRACE_JOB) else set()
    unused = [label for label, name, own in definitions
              if not name.startswith("_") and name not in roots
              and not any(name in names for key, names in used.items()
                          if key[:len(own)] != own)]
    assert not unused, "no caller: " + ", ".join(unused)
