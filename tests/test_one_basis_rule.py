"""No basis of the package is built by a QR factorization.

Every orthonormal basis is an SVD's, cut by linalg.rank_count at tol.rank
(null_space, range_space, Subspace(n, basis)), or is orthonormal by
construction and enters through Subspace._orthonormal.  A QR would bring a
column cut of its own, outside the rank rule, so no module names a qr.
The bases' behaviour is pinned in test_linalg.py.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "calmcert"


def _qr_lines(tree):
    """The lines that name qr: an attribute (np.linalg.qr), a name, or an
    import."""
    lines = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and n.attr == "qr" \
                or isinstance(n, ast.Name) and n.id == "qr" \
                or isinstance(n, (ast.Import, ast.ImportFrom)) \
                and any(a.name.split(".")[-1] == "qr" for a in n.names):
            lines.append(n.lineno)
    return lines


def test_no_module_names_qr():
    found = {p.name: _qr_lines(ast.parse(p.read_text()))
             for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
