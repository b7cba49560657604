"""The subset enumeration of the uniqueness oracle, kept as the test
reference for `calmcert.certificates.uniqueness_oracle`.

It walks through every subset of the tight boundary groups (a group is
tight when <u_J, (K x)_J> <= 1e3 * tol.member * max(1, ||K x||)), so it is
exponential in their number.  Every non-uniqueness claim is an explicit
alternate point whose KKT residuals meet level 1e3.
"""

from itertools import combinations

import numpy as np

from calmcert import regularizers as rz
from calmcert.linalg import null_space
from calmcert.solver import kkt_bound, kkt_residual, kkt_within


def _strictly_positive_point(w_basis):
    """A coordinate-wise strictly positive point of a subspace, or None.

    w_basis: (k x d) matrix whose columns span the subspace of achievable
    margin vectors.  Tries the all-ones target first, then a micro-LP.
    """
    import scipy.optimize
    k, d = w_basis.shape
    if k == 0:
        return np.zeros(0)
    if d == 0:
        return None
    sol, *_ = np.linalg.lstsq(w_basis, np.ones(k), rcond=None)
    m = w_basis @ sol
    if np.all(m > 0.5) and float(np.linalg.norm(m - 1.0)) <= 1e-8:
        return m
    c = np.zeros(d + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-w_basis, np.ones((k, 1))])
    res = scipy.optimize.linprog(c, A_ub=a_ub, b_ub=np.zeros(k),
                                 bounds=[(-1.0, 1.0)] * d + [(0.0, 1.0)],
                                 method="highs")
    if res.success and res.x[-1] > 1e-9:
        return w_basis @ res.x[:d]
    return None


def uniqueness_oracle(instance, pair):
    """Enumerate group support/sign patterns of the true solution set.

    The solution set of P(b, mu) is {x : Phi x = Phi x_bar} intersected with
    the set of points whose transform lies on the multiplier's face; its
    local structure at x_bar is enumerated over subsets of tight boundary
    groups, and every non-uniqueness claim is verified by re-checking the
    KKT residuals of an explicit alternate point.
    """
    reg = instance.reg
    if not isinstance(reg, rz.GroupLasso):
        raise ValueError("uniqueness oracle supports group lasso only")
    tol = instance.tol
    x = np.asarray(pair.x_bar, dtype=float)
    y = np.asarray(pair.y_bar, dtype=float)
    k = instance.k.matrix
    phi = instance.phi.matrix
    kx = k @ x
    w = reg.weight

    boundary, tight = [], []
    eq_rows = [phi]
    units = {}
    for gi, g in enumerate(reg.group_slices):
        ny = float(np.linalg.norm(y[g])) / w
        if abs(ny - 1.0) <= tol.member:
            u = y[g] / np.linalg.norm(y[g])
            units[gi] = u
            boundary.append(gi)
            # movement confined to the ray direction
            perp = np.eye(len(g)) - np.outer(u, u)
            eq_rows.append(perp @ k[g, :])
            if float(u @ kx[g]) <= 1e3 * tol.member * max(1.0, np.linalg.norm(kx)):
                tight.append(gi)
        else:
            eq_rows.append(k[g, :])
    u_sub = null_space(np.vstack(eq_rows), tol)
    detail = {"movement_dim": u_sub.dim, "tight_groups": list(tight)}
    if u_sub.dim == 0:
        return True, None, detail

    def margins_matrix(groups):
        if not groups:
            return np.zeros((0, k.shape[1]))
        rows = [units[gi] @ k[reg.group_slices[gi], :] for gi in groups]
        return np.asarray(rows)

    def verify(d):
        d = d / np.linalg.norm(d)
        slack = [float(units[gi] @ (k[reg.group_slices[gi], :] @ x)) /
                 max(abs(float(units[gi] @ (k[reg.group_slices[gi], :] @ d))), 1e-12)
                 for gi in boundary if gi not in tight]
        eps = min([1e-2] + [0.5 * s for s in slack if s > 0])
        cand = x + eps * d
        res = kkt_residual(instance, cand, y)
        if kkt_within(res, kkt_bound(instance, 1e3)):
            return cand
        return None

    m_tight = margins_matrix(tight)
    for size in range(0, len(tight) + 1):
        for combo in combinations(range(len(tight)), size):
            moving = list(combo)
            staying = [i for i in range(len(tight)) if i not in moving]
            if staying:
                stay_rows = m_tight[staying] @ u_sub.basis
                inner = null_space(stay_rows, tol)
                basis = u_sub.basis @ inner.basis
            else:
                basis = u_sub.basis
            if basis.shape[1] == 0:
                continue
            if not moving:
                alt = verify(basis[:, 0])
                if alt is None:
                    alt = verify(-basis[:, 0])
                if alt is not None:
                    return False, alt, detail
                continue
            move_rows = m_tight[moving] @ basis
            margins = _strictly_positive_point(move_rows)
            if margins is None:
                continue
            coeff, *_ = np.linalg.lstsq(move_rows, margins, rcond=None)
            alt = verify(basis @ coeff)
            if alt is not None:
                return False, alt, detail
    return True, None, detail
