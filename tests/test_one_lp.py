"""linear_program is the one way to an LP.

scipy.optimize.linprog is named in one function of the package, the one
that fixes HiGHS's accuracy, and every other function that imports
scipy.optimize reads only its NNLS.  The behaviour of the entry is pinned
in test_cone_decision.py.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "calmcert"


def _trees():
    return {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _functions(tree):
    return [n for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _names(node):
    """Every name, attribute and imported name under node."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            out |= {a.name for a in n.names}
    return out


def _optimize_reads(node):
    """What node takes from scipy.optimize (its attributes read, and the
    names imported from it), or None when it does not import it."""
    imports = [n for n in ast.walk(node)
               if isinstance(n, ast.Import)
               and any(a.name == "scipy.optimize" for a in n.names)
               or isinstance(n, ast.ImportFrom)
               and (n.module or "").startswith("scipy.optimize")]
    if not imports:
        return None
    return {a.name for n in imports if isinstance(n, ast.ImportFrom)
            for a in n.names} | \
        {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
         and isinstance(n.value, ast.Attribute) and n.value.attr == "optimize"}


def test_linprog_is_named_in_one_function():
    trees = _trees()
    naming = [(name, f.name) for name, tree in trees.items()
              for f in _functions(tree) if "linprog" in _names(f)]
    assert naming == [("cones.py", "linear_program")]
    # and nowhere outside it: no module-level import or alias
    for name, tree in trees.items():
        outside = [n for n in tree.body if "linprog" in _names(n)
                   and not (isinstance(n, ast.FunctionDef)
                            and n.name == "linear_program")]
        assert outside == [], name


def test_every_other_scipy_optimize_import_is_for_nnls():
    reads = {}
    for name, tree in _trees().items():
        assert all(_optimize_reads(n) is None for n in tree.body
                   if isinstance(n, (ast.Import, ast.ImportFrom))), name
        for f in _functions(tree):
            got = _optimize_reads(f)
            if got is not None:
                reads[(name, f.name, f.lineno)] = got
    lp = [key for key, got in reads.items() if "linprog" in got]
    assert [key[:2] for key in lp] == [("cones.py", "linear_program")]
    assert reads[lp[0]] == {"linprog"}
    nnls = [got for key, got in reads.items() if key not in lp]
    assert len(nnls) == 2 and all(got == {"nnls"} for got in nnls)
