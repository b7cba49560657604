"""The CLI reads and writes files in three functions, and nowhere else.

Within cli.py only `_load` (the instance), `_solve_pair` (the
--y-override multiplier) and `_emit` (every report, the sweep's CSV twin
and the demo's --out document included) read or write a file, so a verb
function returns its report and `run` writes it.  The behaviour is pinned
in test_cli.py.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "calmcert" / "cli.py"
FILE_CALLS = {"read_bytes", "read_text", "write_bytes", "write_text", "open"}


def _calls(node):
    """The names of the functions and methods called under node."""
    return {c.func.attr if isinstance(c.func, ast.Attribute)
            else getattr(c.func, "id", None)
            for c in ast.walk(node) if isinstance(c, ast.Call)}


def test_only_load_solve_pair_and_emit_touch_a_file():
    tree = ast.parse(CLI.read_text())
    touching = {f.name for f in ast.walk(tree)
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                and _calls(f) & FILE_CALLS}
    assert touching == {"_load", "_solve_pair", "_emit"}
    # and no statement outside a function or class touches one
    assert [n.lineno for n in tree.body
            if not isinstance(n, (ast.FunctionDef, ast.ClassDef))
            and _calls(n) & FILE_CALLS] == []
