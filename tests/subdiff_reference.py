"""The tangent to dg(x) at y as each regularizer kind built it apart from
its conjugate face, kept verbatim as the reference for the faces'
subdiff_tangent.

One function per kind, the body of the former method of that kind, and the
nuclear simultaneous SVD of X + Y it read.  tangent_subdiff(reg, x, y, tol)
dispatches on reg.kind; like the former methods it does not check that y
is in dg(x).
"""

import numpy as np

from calmcert import regularizers as rz
from calmcert.cones import PolyhedralCone, SubspacePlusRays, active_rows
from calmcert.linalg import Subspace


def group_lasso_tangent_subdiff(reg, x_bar, y_bar, tol):
    # per group: {0} when active, free when ||y_J|| < w (interior), and
    # the half-space <y_J, w_J> <= 0 when inactive on the boundary
    seg = reg.segments
    _, active = rz.active_groups(reg, x_bar, tol)
    free = ~active & (rz.group_norms(reg, y_bar) / reg.weight < 1.0 - tol.member)
    tight = ~active & ~free
    eye = np.eye(reg.dim)
    in_perm = seg.owner[seg.perm]           # segment of each perm entry
    if not tight.any():
        return SubspacePlusRays(Subspace._orthonormal(
            eye[:, seg.perm[free[in_perm]]]))
    return PolyhedralCone(rz._segment_columns(y_bar, tight, seg.owner).T,
                          eye[seg.perm[active[in_perm]]], ambient=reg.dim)


def nuclear_tangent_subdiff(reg, x_bar, y_bar, tol):
    # supported cases only (interior block, or a simple unit top singular
    # value in the residual block); None propagates as Unknown
    u, v, sx, sy = simultaneous_svd(reg.mat(x_bar), reg.mat(y_bar))
    scale = max(1.0, float(sx.max(initial=0.0)))
    r = int(np.sum(sx > tol.member * scale))
    m, n = reg.m, reg.n
    if r == m:
        return SubspacePlusRays(Subspace.zero(reg.dim))
    tail = sy[r:] / reg.weight
    block_cols = [np.outer(u[:, i], v[:, j]).ravel()
                  for i in range(r, m) for j in range(r, n)]
    block = Subspace(reg.dim, np.stack(block_cols, axis=1))
    if tail.size == 0 or tail[0] < 1.0 - tol.member:
        return SubspacePlusRays(block)
    if tail.size == 1 or tail[1] < 1.0 - tol.member:
        grad = np.outer(u[:, r], v[:, r]).ravel()
        comp = block.complement()
        return PolyhedralCone(grad.reshape(1, -1), comp.basis.T,
                              ambient=reg.dim)
    return None


def polyhedral_tangent_subdiff(reg, x_bar, y_bar, tol):
    a = reg.A
    rays = [r for r in a[active_rows(a, reg.c, x_bar, tol.member)]
            if np.any(r)]
    ny = float(np.linalg.norm(y_bar))
    span = (Subspace(reg.dim, y_bar.reshape(-1, 1)) if ny > tol.member
            else Subspace.zero(reg.dim))
    return SubspacePlusRays(span, rays)


def tangent_subdiff(reg, x_bar, y_bar, tol):
    build = {"group_lasso": group_lasso_tangent_subdiff,
             "nuclear": nuclear_tangent_subdiff,
             "polyhedral_indicator": polyhedral_tangent_subdiff}[reg.kind]
    return build(reg, np.asarray(x_bar, dtype=float),
                 np.asarray(y_bar, dtype=float), tol)


# ---------------------------------------------------------------------------
# simultaneous ordered singular decomposition (nuclear pairs)


def simultaneous_svd(x_mat, y_mat):
    """Common (U, V) with U^T X V and U^T Y V diagonal, both nonincreasing.

    Exists whenever (X, Y) is a nuclear-norm subgradient pair, and is then
    computed from one SVD of X + Y: sigma(X + Y) = sigma(X) + sigma(Y), and
    sigma(Y) = w on the support of X and <= w off it, so the sums separate
    that block from the rest, and a value repeated in the sums is repeated
    in both X and Y.  Noise in X's small singular values, which would
    decide the singular vectors of X alone, cannot.
    """
    x_mat = np.asarray(x_mat, dtype=float)
    y_mat = np.asarray(y_mat, dtype=float)
    scale = max(1.0, float(np.abs(x_mat).max(initial=0.0)),
                float(np.abs(y_mat).max(initial=0.0)))
    u, _, vt = np.linalg.svd(x_mat + y_mat, full_matrices=True)
    v = vt.T
    dx_full = u.T @ x_mat @ v
    dy_full = u.T @ y_mat @ v
    k = min(x_mat.shape)
    dx = np.diag(dx_full)[:k]
    dy = np.diag(dy_full)[:k]
    off = max(_offdiag_max(dx_full), _offdiag_max(dy_full))
    # off-diagonal and ordering slack, relative to the largest entry
    slack = 1e-5 * scale
    if not (off <= slack
            and np.all(dx >= -slack) and np.all(dy >= -slack)
            and np.all(np.diff(dx) <= slack)
            and np.all(np.diff(dy) <= slack)):
        raise ValueError("matrices admit no simultaneous ordered decomposition "
                         "(not a nuclear-norm subgradient pair?)")
    return u, v, np.clip(dx, 0.0, None), np.clip(dy, 0.0, None)


def _offdiag_max(mat):
    m = np.asarray(mat, dtype=float).copy()
    k = min(m.shape)
    m[np.arange(k), np.arange(k)] = 0.0
    return float(np.abs(m).max(initial=0.0))
