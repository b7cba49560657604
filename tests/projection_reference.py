"""The active-set enumeration of the polyhedral projection, kept verbatim as
the test reference for `calmcert.cones.Polyhedron.project`.

It tries every subset of inequality rows by increasing size, so it is exact
but exponential in the number of rows and refuses more than 16 of them.
"""

from itertools import combinations

import numpy as np


def project_polyhedron(point, a, c, e=None, rhs=None, tol=1e-9):
    """Projection onto {y : A y <= c, E y = rhs} by active-set enumeration.

    Exact at desk scale: subsets of inequality rows are tried by increasing
    size; a candidate is accepted when primal feasible and the residual
    direction lies in the cone of its active rows (NNLS check).
    """
    import scipy.optimize
    point = np.asarray(point, dtype=float)
    a = np.asarray(a, dtype=float).reshape(-1, point.size)
    c = np.asarray(c, dtype=float)
    e = np.zeros((0, point.size)) if e is None else np.asarray(e, dtype=float)
    rhs = np.zeros(e.shape[0]) if rhs is None else np.asarray(rhs, dtype=float)
    m = a.shape[0]
    if m > 16:
        raise ValueError("polyhedral projection supports at most 16 rows")
    scale = max(1.0, float(np.linalg.norm(point)))

    def equality_projection(rows):
        mm = np.vstack([a[rows], e]) if rows else e
        target = np.concatenate([c[rows], rhs]) if rows else rhs
        if mm.shape[0] == 0:
            return point.copy()
        return point - mm.T @ np.linalg.pinv(mm @ mm.T) @ (mm @ point - target)

    for size in range(0, m + 1):
        for rows in combinations(range(m), size):
            rows = list(rows)
            y = equality_projection(rows)
            if a.shape[0] and float(np.max(a @ y - c)) > tol * scale:
                continue
            if e.shape[0] and float(np.max(np.abs(e @ y - rhs))) > tol * scale:
                continue
            resid = point - y
            if e.shape[0]:
                proj = e.T @ np.linalg.pinv(e @ e.T) @ (e @ resid)
                resid = resid - proj
            act = [i for i in range(m) if a[i] @ y >= c[i] - 1e-7 * scale]
            if act:
                arows = a[act]
                if e.shape[0]:
                    arows = arows - (arows @ e.T) @ np.linalg.pinv(e @ e.T) @ e
                _, nn = scipy.optimize.nnls(arows.T, resid)
                if nn > 1e-7 * scale:
                    continue
            elif float(np.linalg.norm(resid)) > 1e-7 * scale:
                continue
            return y
    raise RuntimeError("polyhedral projection failed (no valid active set)")
