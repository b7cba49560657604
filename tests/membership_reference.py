"""The per-kind subdifferential membership rules that the one prox-graph
rule of `regularizers.subdiff_contains` replaced, kept as the reference it
is compared against.

Each answers "is v in dg(x)?" from the kind's own description of dg(x):
group by group for group Lasso, by the prox residual for the nuclear norm
(the rule every kind now uses), and by a normal-cone fit for the polyhedral
indicator.
"""

import numpy as np
import scipy.optimize

from calmcert import regularizers as rz
from calmcert.cones import active_rows


def group_lasso_contains(reg, x, v, tol):
    """Active group (||x_J|| > tol.member max(1, ||x||)): v_J within
    tol.member max(1, w) of w x_J / ||x_J||; else ||v_J|| <= w up to it."""
    t, w = tol.member, reg.weight
    owner = reg.segments.owner
    nx, active = rz.active_groups(reg, x, tol)
    unit = w * x / np.where(active, nx, 1.0)[owner]
    resid = np.where(active[owner], v - unit, v)
    bound = np.where(active, t * max(1.0, w), w + t * max(1.0, w))
    return not np.any(rz.group_norms(reg, resid) > bound)


def nuclear_contains(reg, x, v, tol):
    """||x - prox_g(x + v)|| <= tol.member max(1, ||x + v||)."""
    return float(np.linalg.norm(x - rz.prox(reg, 1.0, x + v))) \
        <= tol.member * max(1.0, float(np.linalg.norm(x + v)))


def polyhedral_contains(reg, x, v, tol):
    """A x <= c at slack tol.member max(1, ||x||), and v fitted by the rows
    active at x (NNLS) to within tol.member max(1, ||v||)."""
    t = tol.member
    a, c = reg.A, reg.c
    if a.shape[0] and float(np.max(a @ x - c)) > t * max(1.0, float(np.linalg.norm(x))):
        return False
    act = a[active_rows(a, c, x, t)]
    if act.shape[0]:
        _, res = scipy.optimize.nnls(act.T, v)
    else:
        res = float(np.linalg.norm(v))
    return res <= t * max(1.0, float(np.linalg.norm(v)))


def subdiff_contains(reg, x, v, tol):
    """The per-kind rule of reg's kind."""
    rule = {"group_lasso": group_lasso_contains, "nuclear": nuclear_contains,
            "polyhedral_indicator": polyhedral_contains}[reg.kind]
    return rule(reg, np.asarray(x, dtype=float), np.asarray(v, dtype=float), tol)
