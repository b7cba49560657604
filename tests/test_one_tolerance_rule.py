"""Every tolerance comparison goes through the rules of linalg.py.

Membership (member_slack, within, beyond), rank (nonzero, rank_count) and
the dual ball (dual_ball) are written once in linalg.py.  Outside it, no
line of the package compares a value with tol.member, tol.derived_member,
tol.rank or tol.derived_rank, and none forms a max(1, ...) slack scale of
its own.  The rules' behaviour is pinned in test_linalg.py.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "calmcert"

TOLERANCES = {"member", "derived_member", "rank", "derived_rank"}

RULES = {"member_slack", "within", "beyond", "nonzero", "rank_count",
         "dual_ball"}

# a max(1, ...) that scales no comparison: the box |d_i| <= max(1,
# ||x_bar||_inf) of the solution-set LP bounds the step it solves for
NOT_A_SLACK = {("certificates.py", "solution_set_extent")}


def _trees():
    return {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
            if p.name != "linalg.py"}


def _is_tolerance(node):
    """tol.<name> or <expr>.tol.<name> for a tolerance name."""
    if not (isinstance(node, ast.Attribute) and node.attr in TOLERANCES):
        return False
    owner = node.value
    return isinstance(owner, ast.Name) and owner.id == "tol" \
        or isinstance(owner, ast.Attribute) and owner.attr == "tol"


def _operands(node):
    """node and what is under it, short of a call's arguments: a tolerance
    passed to a function is compared, if at all, by that function."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, ast.Call):
            yield from _operands(child)


def _is_unit_floor(node):
    """max(1, ...) or np.maximum(1, ...)."""
    if not isinstance(node, ast.Call) or not node.args:
        return False
    f = node.func
    named = isinstance(f, ast.Name) and f.id == "max" \
        or isinstance(f, ast.Attribute) and f.attr == "maximum"
    first = node.args[0]
    return named and isinstance(first, ast.Constant) and first.value == 1


def _exempt_lines(name, tree):
    return {line for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
            and (name, n.name) in NOT_A_SLACK
            for line in range(n.lineno, n.end_lineno + 1)}


def test_no_tolerance_is_compared_outside_linalg():
    found = [(name, node.lineno) for name, tree in _trees().items()
             for node in ast.walk(tree) if isinstance(node, ast.Compare)
             and any(_is_tolerance(n) for n in _operands(node))]
    assert found == []


def test_no_slack_scale_is_formed_outside_linalg():
    found = []
    for name, tree in _trees().items():
        exempt = _exempt_lines(name, tree)
        found += [(name, node.lineno) for node in ast.walk(tree)
                  if _is_unit_floor(node) and node.lineno not in exempt]
    assert found == []


def test_every_rule_is_read_outside_linalg():
    # the scans are not met by a package that stopped deciding: each rule
    # has callers, and the one exemption still names a max(1, ...)
    trees = _trees()
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))}
    assert RULES <= read
    for name, _ in NOT_A_SLACK:
        exempt = _exempt_lines(name, trees[name])
        assert any(_is_unit_floor(n) and n.lineno in exempt
                   for n in ast.walk(trees[name]))
