"""Regularizer catalog: values, proximal maps, subdifferentials, and the
exact set descriptions the certificates are built from.

For each catalog member (group lasso incl. l1, nuclear norm, polyhedral
indicator) this module knows:
  * the conjugate-subdifferential face F(y) = {x : y in dg(x)},
  * tangent cones to F(y) at a member point,
  * tangent cones to dg(x) at a multiplier,
  * whether the relative interior of F(y) meets a given range.

Weights are folded into g as weight * (base norm); conjugate-ball radii and
boundary classifications are normalized by the weight so a single tolerance
applies.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

# scipy.optimize is imported where an LP or NNLS is solved: it is most of the
# package's import time, and group-Lasso and nuclear solves never need it.

from .linalg import Subspace, Tolerances, DEFAULT_TOL
from .cones import (SubspaceCone, SubspacePlusRays, PolyhedralCone,
                    ProductCone, make_psd_embedded, simplify)


@dataclass(frozen=True)
class QgcFlags:
    primal_qgc: bool
    dual_qgc: bool
    polyhedral_conjugate_face: bool


def qgc_flags(reg):
    """Growth-condition flags per catalog class (fixed, not computed)."""
    if reg.kind == "group_lasso":
        return QgcFlags(True, True, True)
    if reg.kind == "nuclear":
        return QgcFlags(True, True, False)
    return QgcFlags(True, True, True)


# ---------------------------------------------------------------------------
# values and proximal maps


def _mat(reg, y):
    return np.asarray(y, dtype=float).reshape(reg.m, reg.n)


def group_norms(reg, y):
    """||y_J|| for each non-empty group J, in the order of reg.segments."""
    seg = reg.segments
    return np.sqrt(np.add.reduceat(np.asarray(y, dtype=float)[seg.perm] ** 2,
                                   seg.starts))


def active_groups(reg, x, tol=DEFAULT_TOL):
    """(||x_J||, ||x_J|| > tol.member * max(1, ||x||)) per non-empty group.

    The one activity rule of the group-Lasso branches (membership, tangent
    cone, multiplier refinement), on the scale of ||x|| as in the faces'
    tangent cones, so that rescaling the data does not change it.
    """
    nx = group_norms(reg, x)
    return nx, nx > tol.member * max(1.0, float(np.linalg.norm(x)))


def value(reg, y):
    y = np.asarray(y, dtype=float)
    if reg.kind == "group_lasso":
        return reg.weight * float(group_norms(reg, y).sum())
    if reg.kind == "nuclear":
        return reg.weight * float(np.linalg.svd(_mat(reg, y), compute_uv=False).sum())
    slack = DEFAULT_TOL.member * max(1.0, float(np.linalg.norm(y)))
    if reg.A.shape[0] and float(np.max(reg.A @ y - reg.c)) > slack:
        return np.inf
    return 0.0


def prox(reg, t, y):
    """argmin_u t*g(u) + 0.5||u - y||^2."""
    if not t > 0:
        raise ValueError("prox step must be positive")
    y = np.asarray(y, dtype=float)
    if reg.kind == "group_lasso":
        # zero when ||y_J|| <= tw, else shrink by 1 - tw/||y_J||
        nrm = group_norms(reg, y)
        tw = t * reg.weight
        fac = 1.0 - tw / np.maximum(nrm, tw)
        owner = reg.segments.owner
        return np.where((nrm <= tw)[owner], 0.0, fac[owner] * y)
    if reg.kind == "nuclear":
        u, s, vt = np.linalg.svd(_mat(reg, y), full_matrices=False)
        s = np.clip(s - t * reg.weight, 0.0, None)
        return (u @ np.diag(s) @ vt).ravel()
    return project_polyhedron(y, reg.A, reg.c)


def prox_conjugate(reg, t, y):
    """Prox of g* (independent implementations where the dual set is known)."""
    y = np.asarray(y, dtype=float)
    if reg.kind == "group_lasso":
        # project each y_J onto the w-ball; fmax keeps y_J when its norm is NaN
        fac = reg.weight / np.fmax(group_norms(reg, y), reg.weight)
        return fac[reg.segments.owner] * y
    if reg.kind == "nuclear":
        u, s, vt = np.linalg.svd(_mat(reg, y), full_matrices=False)
        return (u @ np.diag(np.clip(s, None, reg.weight)) @ vt).ravel()
    return y - t * prox(reg, 1.0 / t, y / t)


# ---------------------------------------------------------------------------
# polyhedral workhorses


def polyhedron_is_nonempty(a, c):
    import scipy.optimize
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    if a.shape[0] == 0:
        return True
    res = scipy.optimize.linprog(np.zeros(a.shape[1]), A_ub=a, b_ub=c,
                                 bounds=[(None, None)] * a.shape[1],
                                 method="highs")
    return res.status in (0, 3)     # feasible (3 = unbounded ray, still nonempty)


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


def _normal_cone_fit(a, c, x, v, tol):
    """NNLS fit of v by the rows of {A y <= c} active at x: (fit, residual)."""
    import scipy.optimize
    act = a[a @ x >= c - tol * max(1.0, float(np.linalg.norm(x)))]
    if not act.shape[0]:
        return np.zeros_like(v), float(np.linalg.norm(v))
    lam, res = scipy.optimize.nnls(act.T, v)
    return act.T @ lam, float(res)


# ---------------------------------------------------------------------------
# subdifferential membership


def subdiff_contains(reg, x, v, tol=DEFAULT_TOL):
    """Is v in dg(x)?"""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    t = tol.member
    if reg.kind == "group_lasso":
        # active group: v_J = w x_J / ||x_J||; else ||v_J|| <= w
        w = reg.weight
        owner = reg.segments.owner
        nx, active = active_groups(reg, x, tol)
        unit = w * x / np.where(active, nx, 1.0)[owner]
        resid = np.where(active[owner], v - unit, v)
        bound = np.where(active, t * max(1.0, w), w + t * max(1.0, w))
        return not np.any(group_norms(reg, resid) > bound)
    if reg.kind == "nuclear":
        return float(np.linalg.norm(x - prox(reg, 1.0, x + v))) \
            <= t * max(1.0, float(np.linalg.norm(x + v)))
    scale = max(1.0, float(np.linalg.norm(x)))
    if reg.A.shape[0] and float(np.max(reg.A @ x - reg.c)) > t * scale:
        return False
    _, res = _normal_cone_fit(reg.A, reg.c, x, v, t)
    return res <= t * max(1.0, float(np.linalg.norm(v)))


# ---------------------------------------------------------------------------
# simultaneous ordered singular decomposition (nuclear pairs)


def simultaneous_svd(x_mat, y_mat, tol=DEFAULT_TOL):
    """Common (U, V) with U^T X V and U^T Y V diagonal, both nonincreasing.

    Exists whenever (X, Y) is a nuclear-norm subgradient pair; computed from
    the SVD of X, falling back to X + 1e-6 Y for repeated singular values.
    """
    x_mat = np.asarray(x_mat, dtype=float)
    y_mat = np.asarray(y_mat, dtype=float)
    scale = max(1.0, float(np.abs(x_mat).max(initial=0.0)),
                float(np.abs(y_mat).max(initial=0.0)))

    def attempt(base):
        u, _, vt = np.linalg.svd(base, full_matrices=True)
        v = vt.T
        dx_full = u.T @ x_mat @ v
        dy_full = u.T @ y_mat @ v
        k = min(x_mat.shape)
        dx = np.diag(dx_full)[:k]
        dy = np.diag(dy_full)[:k]
        off = max(_offdiag_max(dx_full), _offdiag_max(dy_full))
        slack = 1e3 * tol.orth * scale
        ok = (off <= slack
              and np.all(dx >= -slack) and np.all(dy >= -slack)
              and np.all(np.diff(dx) <= slack)
              and np.all(np.diff(dy) <= slack))
        return ok, u, v, dx, dy

    ok, u, v, dx, dy = attempt(x_mat)
    if not ok:
        ok, u, v, dx, dy = attempt(x_mat + 1e-6 * y_mat)
    if not ok:
        raise ValueError("matrices admit no simultaneous ordered decomposition "
                         "(not a nuclear-norm subgradient pair?)")
    return u, v, np.clip(dx, 0.0, None), np.clip(dy, 0.0, None)


def _offdiag_max(mat):
    m = np.asarray(mat, dtype=float).copy()
    k = min(m.shape)
    m[np.arange(k), np.arange(k)] = 0.0
    return float(np.abs(m).max(initial=0.0))


# ---------------------------------------------------------------------------
# faces of the conjugate subdifferential


class GroupLassoFace:
    """F(y) = prod over groups of a ray R+ y_J (boundary) or {0} (interior)."""

    is_polyhedral = True

    def __init__(self, reg, y_bar, tol):
        self.reg = reg
        self.y_bar = np.asarray(y_bar, dtype=float)
        self.dim = reg.dim
        w = reg.weight
        self.boundary, self.interior = [], []
        for gi, g in enumerate(reg.group_slices):
            ratio = float(np.linalg.norm(self.y_bar[g])) / w
            if ratio > 1.0 + tol.member:
                raise ValueError(
                    f"group {gi}: ||y_J|| exceeds the dual bound by {ratio - 1.0:.3g}")
            if abs(ratio - 1.0) <= tol.member:
                self.boundary.append(gi)
            else:
                self.interior.append(gi)

    def _unit(self, gi):
        g = self.reg.group_slices[gi]
        u = self.y_bar[g]
        return u / np.linalg.norm(u)

    def contains(self, x, tol):
        x = np.asarray(x, dtype=float)
        slack = tol * max(1.0, float(np.linalg.norm(x)))
        return float(np.linalg.norm(x - self.project(x))) <= slack

    def project(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for gi in self.boundary:
            g = self.reg.group_slices[gi]
            u = self._unit(gi)
            out[g] = max(0.0, float(u @ x[g])) * u
        return out

    def tangent_at(self, x, tol=DEFAULT_TOL):
        """Per group: span (moving ray point), ray (vertex), or {0} (interior)."""
        x = np.asarray(x, dtype=float)
        comps = []
        scale = max(1.0, float(np.linalg.norm(x)))
        for gi, g in enumerate(self.reg.group_slices):
            nb = len(g)
            if gi in self.interior:
                comps.append((g, SubspaceCone.zero(nb)))
                continue
            u = self._unit(gi)
            if float(u @ x[g]) > tol.member * scale:
                comps.append((g, SubspaceCone(Subspace(nb, u.reshape(-1, 1)))))
            else:
                comps.append((g, SubspacePlusRays(Subspace.zero(nb), [u])))
        return simplify(ProductCone(self.dim, comps), tol)

    def polyhedral_system(self):
        """(A, c, E, e) with F = {y : A y <= c, E y = e}."""
        n = self.dim
        a_rows, e_rows = [], []
        for gi, g in enumerate(self.reg.group_slices):
            if gi in self.interior:
                for i in g:
                    row = np.zeros(n)
                    row[i] = 1.0
                    e_rows.append(row)
                continue
            u = self._unit(gi)
            row = np.zeros(n)
            row[g] = -u
            a_rows.append(row)
            comp = Subspace(len(g), u.reshape(-1, 1)).complement()
            for col in comp.basis.T:
                row = np.zeros(n)
                row[g] = col
                e_rows.append(row)
        a = np.asarray(a_rows).reshape(-1, n)
        e = np.asarray(e_rows).reshape(-1, n)
        return a, np.zeros(a.shape[0]), e, np.zeros(e.shape[0])

    def describe(self):
        return {"kind": "group_lasso",
                "boundary_groups": list(self.boundary),
                "interior_groups": list(self.interior)}


class NuclearFace:
    """F(Y) = {U [S 0; 0 0] V^T : S psd p x p} for the unit singular block."""

    is_polyhedral = False

    def __init__(self, reg, y_bar, tol):
        self.reg = reg
        self.y_bar = np.asarray(y_bar, dtype=float)
        self.dim = reg.dim
        w = reg.weight
        ymat = _mat(reg, self.y_bar)
        u, s, vt = np.linalg.svd(ymat, full_matrices=True)
        if s.size and s[0] / w > 1.0 + tol.member:
            raise ValueError(
                f"spectral norm exceeds the dual bound by {s[0] / w - 1.0:.3g}")
        self.U, self.V = u, vt.T
        self.sigma_y = s
        self.p = int(np.sum(s / w >= 1.0 - tol.member))

    def _compress(self, x):
        return self.U.T @ _mat(self.reg, x) @ self.V

    def _sbar(self, x):
        c = self._compress(x)
        return 0.5 * (c[:self.p, :self.p] + c[:self.p, :self.p].T)

    def contains(self, x, tol):
        x = np.asarray(x, dtype=float)
        slack = tol * max(1.0, float(np.linalg.norm(x)))
        return float(np.linalg.norm(x - self.project(x))) <= slack

    def project(self, x):
        """Zero outside the block, symmetrize, clip negative eigenvalues."""
        s = self._sbar(x)
        if self.p == 0:
            return np.zeros(self.dim)
        lam, q = np.linalg.eigh(s)
        s = q @ np.diag(np.clip(lam, 0.0, None)) @ q.T
        full = np.zeros((self.reg.m, self.reg.n))
        full[:self.p, :self.p] = s
        return (self.U @ full @ self.V.T).ravel()

    def rank_at(self, x, tol=DEFAULT_TOL):
        """Rank of the p x p compression of a face member."""
        if self.p == 0:
            return 0
        lam = np.linalg.eigvalsh(self._sbar(x))
        scale = max(1.0, float(np.abs(lam).max(initial=0.0)))
        return int(np.sum(lam > tol.member * scale))

    def tangent_at(self, x, tol=DEFAULT_TOL):
        if self.p == 0:
            return SubspaceCone.zero(self.dim)
        s = self._sbar(x)
        lam, q = np.linalg.eigh(s)
        scale = max(1.0, float(np.abs(lam).max(initial=0.0)))
        if float(lam.min()) < -10 * tol.member * scale:
            raise ValueError("point is not in the face (indefinite compression)")
        kernel = q[:, lam <= tol.member * scale]
        return make_psd_embedded(self.U, self.V, self.p, kernel,
                                 self.reg.m, self.reg.n)

    def polyhedral_system(self):
        return None

    def ri_member_target(self, s_choice):
        """Embedded matrix for a positive-definite block S (ri probe helper)."""
        full = np.zeros((self.reg.m, self.reg.n))
        full[:self.p, :self.p] = s_choice
        return (self.U @ full @ self.V.T).ravel()

    def describe(self):
        return {"kind": "nuclear", "p": self.p,
                "sigma_y": [float(v) for v in self.sigma_y]}


class PolyhedralFace:
    """Exposed face argmax_{A y <= c} <y_bar, y>, as inequalities + equalities."""

    is_polyhedral = True

    def __init__(self, reg, y_bar, tol):
        import scipy.optimize
        self.reg = reg
        self.y_bar = np.asarray(y_bar, dtype=float)
        self.dim = reg.dim
        self.A = reg.A
        self.c = reg.c
        if float(np.linalg.norm(self.y_bar)) <= tol.member:
            self.E = np.zeros((0, self.dim))
            self.e = np.zeros(0)
            self.support = 0.0
            return
        res = scipy.optimize.linprog(-self.y_bar, A_ub=self.A, b_ub=self.c,
                                     bounds=[(None, None)] * self.dim,
                                     method="highs")
        if res.status == 3:
            raise ValueError("unbounded face: the exposed face of the "
                             "polyhedron in this direction is empty")
        if res.status != 0:
            raise ValueError(f"face computation failed (LP status {res.status})")
        self.support = float(-res.fun)
        self.E = self.y_bar.reshape(1, -1)
        self.e = np.asarray([self.support])

    def contains(self, x, tol):
        x = np.asarray(x, dtype=float)
        slack = tol * max(1.0, float(np.linalg.norm(x)))
        if self.A.shape[0] and float(np.max(self.A @ x - self.c)) > slack:
            return False
        if self.E.shape[0] and float(np.max(np.abs(self.E @ x - self.e))) > slack:
            return False
        return True

    def project(self, x):
        return project_polyhedron(x, self.A, self.c, self.E, self.e)

    def tangent_at(self, x, tol=DEFAULT_TOL):
        x = np.asarray(x, dtype=float)
        scale = max(1.0, float(np.linalg.norm(x)))
        a = self.A[self.A @ x >= self.c - 10 * tol.member * scale]
        e = self.E if self.E.shape[0] else None
        return PolyhedralCone(a, e, ambient=self.dim)

    def polyhedral_system(self):
        return self.A, self.c, self.E, self.e

    def describe(self):
        return {"kind": "polyhedral", "support": float(self.support),
                "equalities": int(self.E.shape[0])}


def conj_subdiff_face(reg, y_bar, tol=DEFAULT_TOL):
    """Exact description of dg*(y_bar) = {x : y_bar in dg(x)}."""
    if reg.kind == "group_lasso":
        return GroupLassoFace(reg, y_bar, tol)
    if reg.kind == "nuclear":
        return NuclearFace(reg, y_bar, tol)
    return PolyhedralFace(reg, y_bar, tol)


def tangent_conj_subdiff(reg, y_bar, x_bar, tol=DEFAULT_TOL):
    """Tangent cone T_{dg*(y_bar)}(x_bar); x_bar must be a face member."""
    face = conj_subdiff_face(reg, y_bar, tol)
    x_bar = np.asarray(x_bar, dtype=float)
    if not face.contains(x_bar, 10 * tol.member):
        dist = float(np.linalg.norm(x_bar - face.project(x_bar)))
        raise ValueError(f"x_bar is not in the conjugate face (distance {dist:.3g})")
    return face.tangent_at(x_bar, tol)


# ---------------------------------------------------------------------------
# tangent to the subdifferential at the multiplier (adjoint-kernel condition)


def tangent_subdiff(reg, x_bar, y_bar, tol=DEFAULT_TOL):
    """T_{dg(x_bar)}(y_bar), or None when no exact description is supported."""
    x_bar = np.asarray(x_bar, dtype=float)
    y_bar = np.asarray(y_bar, dtype=float)
    if not subdiff_contains(reg, x_bar, y_bar, tol):
        raise ValueError("y_bar is not in dg(x_bar)")
    if reg.kind == "group_lasso":
        comps = []
        _, active = active_groups(reg, x_bar, tol)
        ratios = group_norms(reg, y_bar) / reg.weight
        groups = [g for g in reg.group_slices if len(g)]
        for g, act, ny in zip(groups, active, ratios):
            nb = len(g)
            if act:
                comps.append((g, SubspaceCone.zero(nb)))
                continue
            if ny < 1.0 - tol.member:
                comps.append((g, SubspaceCone.full(nb)))
            else:
                comps.append((g, PolyhedralCone(y_bar[g].reshape(1, -1),
                                                ambient=nb)))
        return simplify(ProductCone(reg.dim, comps), tol)
    if reg.kind == "polyhedral_indicator":
        a, c = reg.A, reg.c
        scale = max(1.0, float(np.linalg.norm(x_bar)))
        rays = [r for r in a[a @ x_bar >= c - tol.member * scale]
                if np.linalg.norm(r) > tol.member]
        ny = float(np.linalg.norm(y_bar))
        span = (Subspace(reg.dim, y_bar.reshape(-1, 1)) if ny > tol.member
                else Subspace.zero(reg.dim))
        if rays:
            return SubspacePlusRays(span, rays)
        return SubspaceCone(span)
    # nuclear: supported cases only (interior block, or a simple unit top
    # singular value in the residual block); None propagates as Unknown
    u, v, sx, sy = simultaneous_svd(_mat(reg, x_bar), _mat(reg, y_bar), tol)
    w = reg.weight
    scale = max(1.0, float(sx.max(initial=0.0)))
    r = int(np.sum(sx > tol.member * scale))
    m, n = reg.m, reg.n
    if r == m:
        return SubspaceCone.zero(reg.dim)
    tail = sy[r:] / w
    block_cols = []
    for i in range(r, m):
        for j in range(r, n):
            block_cols.append(np.outer(u[:, i], v[:, j]).ravel())
    block = Subspace(reg.dim, np.stack(block_cols, axis=1))
    if tail.size == 0 or tail[0] < 1.0 - tol.member:
        return SubspaceCone(block)
    if tail.size == 1 or tail[1] < 1.0 - tol.member:
        grad = np.outer(u[:, r], v[:, r]).ravel()
        comp = block.complement()
        return PolyhedralCone(grad.reshape(1, -1), comp.basis.T, ambient=reg.dim)
    return None


# ---------------------------------------------------------------------------
# relative interior of the face versus the range of K


def ri_intersects_range(reg, y_bar, k_op, tol=DEFAULT_TOL, x_bar=None):
    """Does Im K meet ri(dg*(y_bar))?  Returns 'yes' | 'no' | 'unknown'."""
    from .model import materialize
    k = materialize(k_op) if not isinstance(k_op, np.ndarray) else k_op
    face = conj_subdiff_face(reg, y_bar, tol)
    identity = k.shape[0] == k.shape[1] and np.allclose(k, np.eye(k.shape[0]))
    if reg.kind == "group_lasso":
        if identity or not face.boundary:
            return "yes"
        return _ri_group_lasso(face, k, tol)
    if reg.kind == "nuclear":
        if identity:
            return "yes"
        if x_bar is not None and face.contains(np.asarray(x_bar, dtype=float),
                                               10 * tol.member):
            if face.rank_at(x_bar, tol) == face.p:
                return "yes"    # nondegenerate: K x_bar itself is in the ri
        for s_choice in (np.eye(face.p),):
            target = face.ri_member_target(s_choice)
            sol, res, _, _ = np.linalg.lstsq(k, target, rcond=None)
            gap = float(np.linalg.norm(k @ sol - target))
            if gap <= tol.member * max(1.0, float(np.linalg.norm(target))):
                return "yes"
        return "unknown"
    if identity:
        return "yes" if polyhedron_is_nonempty(face.A, face.c) else "no"
    return _ri_polyhedral(face, k, tol)


def _ri_group_lasso(face, k, tol):
    """Feasibility of (Kx)_J = t_J y_J with t_J >= 1 (homogeneous margin)."""
    import scipy.optimize
    reg = face.reg
    rows = []
    for gi in face.interior:
        g = reg.group_slices[gi]
        rows.append(k[g, :])
    bset = face.boundary
    nb = len(bset)
    kb_rows, kb_rhs, kb_dirs = [], [], []
    for pos, gi in enumerate(bset):
        g = reg.group_slices[gi]
        u = face._unit(gi)
        kb_rows.append(k[g, :])
        col = np.zeros((len(g), nb))
        col[:, pos] = -u
        kb_dirs.append(col)
        kb_rhs.append(u.reshape(-1, 1))
    top = np.vstack(rows) if rows else np.zeros((0, k.shape[1]))
    bot = np.vstack(kb_rows) if kb_rows else np.zeros((0, k.shape[1]))
    m_x = np.vstack([top, bot])
    m_u = np.vstack([np.zeros((top.shape[0], nb))] + kb_dirs) \
        if nb else np.zeros((m_x.shape[0], 0))
    target = np.vstack([np.zeros((top.shape[0], 1))] + kb_rhs).ravel() \
        if (rows or kb_rhs) else np.zeros(0)
    # eliminate the free x block, then NNLS over the nonnegative margins u
    from .linalg import _orth_columns
    q = _orth_columns(m_x, 1e-12)
    perp = np.eye(m_x.shape[0]) - q @ q.T
    a_nn = perp @ m_u
    b_nn = perp @ target
    if a_nn.shape[1] == 0:
        res = float(np.linalg.norm(b_nn))
    else:
        _, res = scipy.optimize.nnls(a_nn, b_nn)
    return "yes" if res <= 1e3 * tol.member * max(1.0, float(np.linalg.norm(target))) \
        else "no"


def _max_margin_lp(a, c, e, rhs, implicit, tol, basis=None):
    """max t s.t. a[free] y <= c[free] - t, implicit rows at equality.

    With basis Q given, y = Q z ranges over a subspace.  Returns
    (status, margin, y) with status in {'ok', 'infeasible', 'trouble'}.
    """
    import scipy.optimize
    dim = a.shape[1]
    q = basis if basis is not None else np.eye(dim)
    free = ~implicit
    nz = q.shape[1]
    cobj = np.zeros(nz + 1)
    cobj[-1] = -1.0
    nfree = int(free.sum())
    a_ub = np.hstack([a[free] @ q, np.ones((nfree, 1))]) if nfree else None
    b_ub = c[free] if nfree else None
    eq_rows = [np.hstack([e @ q, np.zeros((e.shape[0], 1))])]
    eq_rhs = [rhs]
    if implicit.any():
        eq_rows.append(np.hstack([a[implicit] @ q,
                                  np.zeros((int(implicit.sum()), 1))]))
        eq_rhs.append(c[implicit])
    a_eq = np.vstack(eq_rows)
    b_eq = np.concatenate(eq_rhs)
    bounds = [(None, None)] * nz + [(0.0, 1.0)]
    res = scipy.optimize.linprog(cobj, A_ub=a_ub, b_ub=b_ub,
                                 A_eq=a_eq if a_eq.size else None,
                                 b_eq=b_eq if a_eq.size else None,
                                 bounds=bounds, method="highs")
    if res.status == 2:
        return "infeasible", 0.0, None
    if res.status != 0:
        return "trouble", 0.0, None
    return "ok", float(res.x[-1]), q @ res.x[:nz]


def _implicit_face_rows(a, c, e, rhs, tol):
    """Rows of A y <= c at equality across the whole face (its affine hull).

    Decided row by row (max slack of row i over the face, capped at 1) so
    that degenerate vertices returned by a single LP cannot misclassify.
    """
    import scipy.optimize
    m, dim = a.shape
    implicit = np.zeros(m, dtype=bool)
    feas = scipy.optimize.linprog(np.zeros(dim), A_ub=a, b_ub=c,
                                  A_eq=e if e.shape[0] else None,
                                  b_eq=rhs if e.shape[0] else None,
                                  bounds=[(None, None)] * dim, method="highs")
    if feas.status == 2:
        return implicit, "infeasible"
    if feas.status not in (0, 3):
        return implicit, "trouble"
    for i in range(m):
        cobj = np.zeros(dim + 1)
        cobj[-1] = -1.0
        a_ub = np.hstack([a, np.zeros((m, 1))])
        row = np.zeros(dim + 1)
        row[:dim] = a[i]
        row[-1] = 1.0
        a_ub = np.vstack([a_ub, row])
        b_ub = np.concatenate([c, [c[i]]])
        res = scipy.optimize.linprog(
            cobj, A_ub=a_ub, b_ub=b_ub,
            A_eq=np.hstack([e, np.zeros((e.shape[0], 1))]) if e.shape[0] else None,
            b_eq=rhs if e.shape[0] else None,
            bounds=[(None, None)] * dim + [(0.0, 1.0)], method="highs")
        if res.status != 0:
            return implicit, "trouble"
        if res.x[-1] <= 1e3 * tol.member:
            implicit[i] = True
    return implicit, "ok"


def _ri_polyhedral(face, k, tol):
    """Does Im K contain a point with margin on every non-affine-hull row?

    The implicit equalities are detected on the face itself; restricting to
    Im K afterwards keeps the test faithful to 'Im K meets the relative
    interior of the face' (mere nonemptiness of the intersection is weaker).
    """
    a, c, e, rhs = face.polyhedral_system()
    implicit, status = _implicit_face_rows(a, c, e, rhs, tol)
    if status == "infeasible":
        return "no"
    if status == "trouble":
        return "unknown"
    from .linalg import _orth_columns
    q = _orth_columns(k, tol.rank)
    status, margin, _ = _max_margin_lp(a, c, e, rhs, implicit, tol, basis=q)
    if status == "infeasible":
        return "no"
    if status == "trouble":
        return "unknown"
    if margin > 1e3 * tol.member:
        return "yes"
    return "yes" if not (~implicit).any() else "no"


# ---------------------------------------------------------------------------
# multiplier refinement


def project_multiplier(reg, z, y, tol=DEFAULT_TOL):
    """Best-effort pull of y toward dg(z) (used for near-KKT refinement)."""
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    if reg.kind == "group_lasso":
        # active group: w z_J / ||z_J||; else y_J pulled into the w-ball
        w = reg.weight
        owner = reg.segments.owner
        nz, active = active_groups(reg, z, tol)
        fac = w / np.fmax(group_norms(reg, y), w)
        return np.where(active[owner], w * z / np.where(active, nz, 1.0)[owner],
                        fac[owner] * y)
    if reg.kind == "nuclear":
        return prox_conjugate(reg, 1.0, y)
    return _normal_cone_fit(reg.A, reg.c, z, y, tol.member)[0]
