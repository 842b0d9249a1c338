"""Checks on the source of the package itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "aoc"


def unread_parameters(source):
    """(function, parameter) for each parameter of a module-level function or
    method that its body never reads.  Parameters named ``self``, ``cls`` or
    with a leading underscore are exempt, and nested functions are not
    checked: they implement callbacks such as ``rhs(k, c, x, v)`` and
    ``Observable``, whose signatures are fixed by their callers."""
    tree = ast.parse(source)
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        functions += [node for node in cls.body if isinstance(node, ast.FunctionDef)]
    for fn in functions:
        args = fn.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        yield from ((fn.name, p) for p in params
                    if p not in read and p not in ("self", "cls") and not p.startswith("_"))


def test_every_parameter_is_read():
    unread = [f"{path.name}: {fn}({param})" for path in sorted(SRC.glob("*.py"))
              for fn, param in unread_parameters(path.read_text())]
    assert not unread, "parameters that no line reads: " + ", ".join(unread)


def test_the_guard_sees_an_unread_parameter():
    source = ("def f(model, gm, _k):\n    return model\n"
              "class A:\n    def g(self, x, y):\n        def rhs(k, c):\n            return x\n"
              "        return rhs\n")
    assert list(unread_parameters(source)) == [("f", "gm"), ("g", "y")]
