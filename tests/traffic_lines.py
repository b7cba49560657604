"""Print the code of src/calmcert that no op of tests/compare_parent.py runs.

    PYTHONPATH=src python tests/traffic_lines.py

Every op of `compare_parent.write_ops` (the ledger's sources through
`certify`, `certify-pd` and `probe`, one benchmark certify cycle and one
sweep cycle per seed 11-20, the CSV ops and `demo`) runs in this process on
this tree, under `sys.settrace` limited to the files of src/calmcert.  The
script then prints each function that no op executes, and each statement
that no op executes inside a function some op does reach.  A `raise`
statement is left out of the second list: an error path is tested, not
trafficked.  A `try` line, a `global` or `nonlocal` declaration and a
docstring run no code of their own, so they are left out too.

It takes about 8 minutes on a 2-core machine, so it is a measurement, not a
test: pytest does not collect it and CI does not run it.
"""

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

from compare_parent import write_ops

SRC = Path(__file__).resolve().parents[1] / "src" / "calmcert"
SILENT = (ast.Raise, ast.Try, ast.Global, ast.Nonlocal)
SCOPES = (ast.FunctionDef, ast.ClassDef)
BLOCKS = ("body", "orelse", "handlers", "finalbody")   # a statement's children


def _first_line(node):
    """The line a code object of the function starts at: its first
    decorator's, or its def's."""
    return min([d.lineno for d in node.decorator_list] + [node.lineno])


def _lines(node):
    """The lines that run a statement's own code: a compound statement's
    header up to its first child statement, a simple statement whole."""
    children = [c for field in BLOCKS for c in getattr(node, field, [])]
    first = _first_line(node) if isinstance(node, SCOPES) else node.lineno
    last = min(c.lineno for c in children) - 1 if children else node.end_lineno
    return range(first, max(first, last) + 1)


def _is_docstring(node):
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
        and isinstance(node.value.value, str)


def _statements(body):
    """The statements of a function body, nested blocks included; of a
    nested function or class, its def line only (its body is its own
    scope).  Docstrings are left out."""
    for node in body:
        if _is_docstring(node):
            continue
        yield node
        if isinstance(node, SCOPES):
            continue
        for field in BLOCKS:
            yield from _statements(getattr(node, field, []))


def functions(source):
    """[(qualified name, first line, [statement])] of every function of a
    module's source, methods and nested functions included."""
    out = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.FunctionDef):
                name = prefix + node.name
                out.append((name, _first_line(node), list(_statements(node.body))))
                visit(node.body, name + ".")
            elif isinstance(node, ast.ClassDef):
                visit(node.body, prefix + node.name + ".")
            else:
                for field in BLOCKS:
                    visit(getattr(node, field, []), prefix)
    visit(ast.parse(source).body, "")
    return out


def trace(ops, out):
    """({(file, first line)} of the code objects called, {(file, line)} of
    the lines run) while every op of ops runs, its report written under
    out."""
    from calmcert.cli import run
    src, called, ran = str(SRC), set(), set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(src):
            return None
        called.add((code.co_filename, code.co_firstlineno))
        return local
    for index, (_, argv) in enumerate(ops):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            sys.settrace(calls)
            try:
                run(argv + ["--out", str(out / f"{index}.json")])
            finally:
                sys.settrace(None)
    return called, ran


def main():
    # the sources are read before the ops run, so that their lines are the
    # ones the traced code objects were compiled from
    sources = {path: path.read_text() for path in sorted(SRC.glob("*.py"))}
    with tempfile.TemporaryDirectory(prefix="traffic-lines-") as tmp:
        tmp = Path(tmp)
        (tmp / "docs").mkdir()
        ops = write_ops(tmp / "docs")
        called, ran = trace(ops, tmp)
    idle, unrun = [], []
    for path, source in sources.items():
        file, text = str(path), source.splitlines()
        for name, first, body in functions(source):
            where = f"{path.name}:{first} {name}"
            if (file, first) not in called:
                idle.append(where)
                continue
            unrun += [f"{path.name}:{s.lineno} {name}: {text[s.lineno - 1].strip()}"
                      for s in body if not isinstance(s, SILENT)
                      and not any((file, line) in ran for line in _lines(s))]
    print(f"{len(ops)} ops")
    print(f"functions no op executes ({len(idle)}):")
    print("".join(f"  {line}\n" for line in idle), end="")
    print(f"statements no op executes in functions an op reaches ({len(unrun)}):")
    print("".join(f"  {line}\n" for line in unrun), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
