"""Regularizer catalog: values, proximal maps, subdifferentials, and the
exact set descriptions the certificates are built from.

One class per kind (GroupLasso, l1 included; Nuclear; PolyhedralIndicator)
holds its data and all that depends on the kind, and builds its face class
for the conjugate-subdifferential face F(y) = {x : y in dg(x)}, which
decides whether ri F(y) meets a given range and gives both tangent cones of
the zero-product pair at (x, y): T_{F(y)}(x) and T_{dg(x)}(y), read from one
activity rule per kind; one face per (y, tol) is kept for every reader.
The faces are the sets of cones.py: a polyhedral face is a Polyhedron, as
the polyhedral indicator itself is, and the nuclear face holds its block as
a PsdCone, which compresses, embeds and projects for it.  For the nuclear
norm the face's singular basis of y, rotated in its unit block by x's
compression, is common to x and y, so no simultaneous SVD of the pair is
taken.  The module-level functions are the interface: each makes the
checks shared by every kind and calls the kind's method.  Subdifferential
membership reads only the kind's prox (y is in dg(x) exactly when
x = prox_g(x + y)), so it is decided once for every kind, and no kind
carries g* or its prox.

Weights are folded into g as weight * (base norm); conjugate-ball radii and
boundary classifications are normalized by the weight so a single tolerance
applies.
"""

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import (Subspace, DEFAULT_TOL, InstanceError, as_operator, beyond,
                     dual_ball, frozen, spectral_norm, within)
from .cones import (SubspacePlusRays, PolyhedralCone, Polyhedron, PsdCone,
                    active_rows, linear_program, make_psd_embedded,
                    symmetric_block_basis)


# ---------------------------------------------------------------------------
# the catalog: one class per kind
#
# value, prox and group_norms take one point, or a stack of points as the
# rows of a 2-D array, through one code path per kind.  Each row of a stack
# gives what it gives on its own: bit for bit for group Lasso and nuclear
# norms, and one projection per row onto the polyhedron for the polyhedral
# prox.  The methods take float arrays; the module-level functions below
# convert their arguments.  to_json_dict(dense) gives the instance-JSON
# form, dense(M) being that of a matrix M.


class GroupSegments(NamedTuple):
    """The non-empty groups laid out back to back, for segment reductions.

    perm lists the indices of the non-empty groups one group after another,
    segment j starting at starts[j]; owner[i] is the segment holding index
    i, so a per-segment array a reads a[owner] per index; groups[j] is the
    position in GroupLasso.groups of segment j.  Empty groups are skipped:
    they contribute nothing, and np.add.reduceat would misread a
    zero-length segment.
    """

    perm: np.ndarray
    starts: np.ndarray
    owner: np.ndarray
    groups: np.ndarray


class _Norm:
    """weight * a norm."""

    def strict_value(self, z):
        return value(self, z)   # a norm has no domain to check


class GroupLasso(_Norm):
    """weight * sum_J ||y_J|| over a partition of 0..dim-1 into groups."""

    kind = "group_lasso"

    def __init__(self, groups, dim, weight=1.0):
        self.groups = tuple(tuple(int(i) for i in g) for g in groups)
        self.dim = dim
        self.weight = weight
        if sorted(i for g in self.groups for i in g) != list(range(dim)):
            raise InstanceError("groups",
                                "group_lasso groups must partition 0..dim-1")
        if not weight > 0:
            raise InstanceError("weight", "group_lasso weight must be positive")

    @cached_property
    def group_slices(self):
        return tuple(frozen(np.asarray(g, dtype=np.intp)) for g in self.groups)

    @cached_property
    def segments(self):
        groups = np.asarray([j for j, g in enumerate(self.groups) if g],
                            dtype=np.intp)
        sizes = np.asarray([len(self.groups[j]) for j in groups], dtype=np.intp)
        perm = np.asarray([i for g in self.groups for i in g], dtype=np.intp)
        owner = np.empty(self.dim, dtype=np.intp)
        owner[perm] = np.repeat(np.arange(sizes.size), sizes)
        return GroupSegments(frozen(perm), frozen(np.cumsum(sizes) - sizes),
                             frozen(owner), frozen(groups))

    def to_json_dict(self, dense):
        return {"kind": self.kind, "dim": self.dim,
                "groups": [list(g) for g in self.groups], "weight": self.weight}

    def value(self, y):
        # rows of a contiguous array add in the order a lone point does
        norms = np.ascontiguousarray(_segment_norms(self, y.T).T)
        return self.weight * np.add.reduce(norms, axis=-1)

    def prox(self, t, y):
        # zero when ||y_J|| <= tw, else shrink by 1 - tw/||y_J||; indexing
        # the first axis of y.T costs a lone point nothing
        yt = y.T
        nrm = _segment_norms(self, yt)
        tw = t * self.weight
        fac = 1.0 - tw / np.maximum(nrm, tw)
        owner = self.segments.owner
        return np.where((nrm <= tw)[owner], 0.0, fac[owner] * yt).T

    def face(self, y_bar, tol):
        return GroupLassoFace(self, y_bar, tol)

    def reach(self, x_bar):
        """1 / (least curvature of g at x_bar): ||x_J|| / w over the groups
        of two or more indices, 0 for l1, which has no curved piece."""
        big = np.diff(np.append(self.segments.starts, self.dim)) > 1
        norms = group_norms(self, x_bar)[big]
        return float(norms.max(initial=0.0)) / self.weight

    def prox_jacobian(self, u):
        """The generalized Jacobian D = d prox_g(u) of the group prox, by group.

        D_J = I - c_J (I - uu^T) when c_J = w / ||u_J|| < 1 (u the unit u_J),
        on the invertible blocks A, and 0 otherwise.  Returns (a, m): the
        ascending indices of A and the |A| x |A| block M_A = D_A^{-1}(I - D_A),
        which is c_J / (1 - c_J) (I - uu^T) on each group of A and 0 across
        groups (0 for l1, whose D_A is I).
        """
        owner = self.segments.owner
        nrm = group_norms(self, u)[owner]               # ||u_J|| per index
        a = np.flatnonzero(nrm > self.weight)
        c = self.weight / nrm[a]
        unit = u[a] / nrm[a]
        same = owner[a][:, None] == owner[a]
        m = np.eye(a.size) - np.where(same, np.outer(unit, unit), 0.0)
        return a, (c / (1.0 - c))[:, None] * m


class Nuclear(_Norm):
    """weight * nuclear norm of the m x n matrix, m <= n, vec'd row-major."""

    kind = "nuclear"

    def __init__(self, m, n, weight=1.0):
        self.m, self.n, self.dim = m, n, m * n
        self.weight = weight
        if m > n:
            raise InstanceError("m",
                                "nuclear requires m <= n (transpose the model)")
        if not weight > 0:
            raise InstanceError("weight", "nuclear weight must be positive")

    def to_json_dict(self, dense):
        return {"kind": self.kind, "m": self.m, "n": self.n,
                "weight": self.weight}

    def mat(self, y):
        """y (or each row of a stack) as an m x n matrix."""
        y = np.asarray(y, dtype=float)
        return y.reshape(y.shape[:-1] + (self.m, self.n))

    def value(self, y):
        sigma = np.linalg.svd(self.mat(y), compute_uv=False)
        return self.weight * np.add.reduce(sigma, axis=-1)

    def prox(self, t, y):
        # U diag(s) V^T as (U * s) V^T: the same numbers, one product fewer
        u, s, vt = np.linalg.svd(self.mat(y), full_matrices=False)
        s = np.clip(s - t * self.weight, 0.0, None)
        return ((u * s[..., None, :]) @ vt).reshape(y.shape)

    def face(self, y_bar, tol):
        return NuclearFace(self, y_bar, tol)

    def reach(self, x_bar):
        """1 / (least curvature of g at x_bar): sigma_max(X) / w."""
        return spectral_norm(self.mat(x_bar)) / self.weight


class PolyhedralIndicator(Polyhedron):
    """The indicator of the Polyhedron {y : A y <= c}, A a read-only
    (rows x dim) array.

    With no rows the set is all of R^dim, and g = 0.  value and prox are the
    set's own membership and projection, whose factors it keeps, as the
    conjugate faces are kept for every kind (conj_subdiff_face), so that
    every caller reuses them.
    """

    kind = "polyhedral_indicator"

    def __init__(self, a, c):
        super().__init__(frozen(np.array(a, dtype=float)),
                         frozen(np.array(c, dtype=float)))
        self.dim = self.A.shape[1]
        if self.c.shape != self.A.shape[:1]:
            raise ValueError("polyhedral offset length must match rows")

    def to_json_dict(self, dense):
        return {"kind": self.kind, "A": dense(self.A), "c": self.c.tolist()}

    def value(self, y, slack=DEFAULT_TOL.member):
        """0 where y is in the set at slack (Polyhedron.contains), inf
        elsewhere; per row of a stack."""
        return np.where(self.contains(y, slack), 0.0, np.inf)

    def strict_value(self, z):
        """value() with machine-precision domain checks.

        value() applies the membership tolerance; inside an O(t^2)
        difference quotient that slack would absorb genuine constraint
        violations, so the quotient lab uses this one.
        """
        out = self.value(z, 1e-12)
        return float(out) if z.ndim == 1 else out

    def prox(self, t, y):
        return np.array([self.project(r)
                         for r in y.reshape(-1, self.dim)]).reshape(y.shape)

    def face(self, y_bar, tol):
        return PolyhedralFace(self, y_bar, tol)

    def reach(self, x_bar):
        return 0.0              # the indicator has no curved piece


# ---------------------------------------------------------------------------
# values and proximal maps


def _segment_norms(reg, yt):
    """group_norms of y from yt = y.T: the segments run along the first
    axis, which a stack of rows adds as a trailing one."""
    seg = reg.segments
    return np.sqrt(np.add.reduceat(yt[seg.perm] ** 2, seg.starts))


def group_norms(reg, y):
    """||y_J|| for each non-empty group J, in the order of reg.segments;
    for a stack of points, one row of norms per point."""
    return _segment_norms(reg, np.asarray(y, dtype=float).T).T


def active_groups(reg, x, tol=DEFAULT_TOL):
    """(||x_J||, beyond(||x_J||, tol.member, ||x||)) per non-empty group.

    The one activity rule of group Lasso (the tangent cones of dg and of
    the conjugate face, and the uniqueness oracle's tight groups), on the
    scale of ||x||, so that rescaling the data does not change it.
    """
    nx = group_norms(reg, x)
    return nx, beyond(nx, tol.member, np.linalg.norm(x))


def value(reg, y):
    """g(y) as a float, or for a stack of points (rows) the array of g(y_i)."""
    y = np.asarray(y, dtype=float)
    out = reg.value(y)
    return float(out) if y.ndim == 1 else out


def prox(reg, t, y):
    """argmin_u t*g(u) + 0.5||u - y||^2, for one point or each row of a stack."""
    if not t > 0:
        raise ValueError("prox step must be positive")
    return reg.prox(t, np.asarray(y, dtype=float))


# ---------------------------------------------------------------------------
# subdifferential membership


def subdiff_contains(reg, x, v, tol=DEFAULT_TOL):
    """Is v in dg(x)?  One rule for every kind: v is in dg(x) exactly when
    x = prox_g(x + v), so the answer is whether the prox-graph residual
    ||x - prox_g(x + v)|| is within tol.member at the scale ||x + v||."""
    x = np.asarray(x, dtype=float)
    u = x + np.asarray(v, dtype=float)
    return within(float(np.linalg.norm(x - prox(reg, 1.0, u))), tol.member,
                  np.linalg.norm(u))


# ---------------------------------------------------------------------------
# faces of the conjugate subdifferential


def _segment_columns(values, mask, owner):
    """One column per segment selected by mask, holding values on its indices."""
    rank = np.cumsum(mask) - 1
    idx = np.flatnonzero(mask[owner])
    out = np.zeros((values.size, int(np.count_nonzero(mask))))
    out[idx, rank[owner[idx]]] = values[idx]
    return out


class _ProjectedFace:
    """A face whose membership test is the distance to its projection."""

    def contains(self, x, tol):
        x = np.asarray(x, dtype=float)
        return within(float(np.linalg.norm(x - self.project(x))), tol,
                      np.linalg.norm(x))


class GroupLassoFace(_ProjectedFace):
    """F(y) = prod over groups of a ray R+ y_J (boundary) or {0} (interior).

    A group is boundary when dual_ball reads ||y_J|| / w on the boundary
    (outside, the build raises), for both tangent cones; empty groups are
    interior.  Everything is computed on reg.segments.
    """

    is_polyhedral = True

    def __init__(self, reg, y_bar, tol):
        self.reg = reg
        self.y_bar = y_bar
        self.dim = reg.dim
        seg = reg.segments
        norms = group_norms(reg, self.y_bar)
        ratio = norms / reg.weight
        outside, self._on = dual_ball(ratio, tol.member)  # per segment
        over = np.flatnonzero(outside)
        if over.size:
            j = over[0]
            raise ValueError(f"group {seg.groups[j]}: ||y_J|| exceeds the dual "
                             f"bound by {ratio[j] - 1.0:.3g}")
        # u_J = y_J / ||y_J|| on boundary groups, zero elsewhere
        self._u = np.where(self._on[seg.owner], self.y_bar, 0.0) \
            / np.where(self._on, norms, 1.0)[seg.owner]
        on_group = np.zeros(len(reg.groups), dtype=bool)
        on_group[seg.groups[self._on]] = True
        self.boundary = np.flatnonzero(on_group).tolist()
        self.interior = np.flatnonzero(~on_group).tolist()

    def _along(self, x):
        """<u_J, x_J> per segment (zero on interior groups)."""
        seg = self.reg.segments
        return np.add.reduceat((self._u * x)[seg.perm], seg.starts)

    def project(self, x):
        x = np.asarray(x, dtype=float)
        return np.maximum(self._along(x), 0.0)[self.reg.segments.owner] * self._u

    def tangent_at(self, x, tol=DEFAULT_TOL):
        """Per group: span (moving ray point), ray (vertex), or {0} (interior).

        A boundary group moves when active_groups finds x_J active.  The
        span's columns are the u_J of the moving groups, unit vectors with
        disjoint supports, so they are orthonormal as they stand.
        """
        owner = self.reg.segments.owner
        moving = self._on & active_groups(self.reg, x, tol)[1]
        vertex = self._on & ~moving
        span = Subspace._orthonormal(_segment_columns(self._u, moving, owner))
        if vertex.any():
            return SubspacePlusRays(span, _segment_columns(self._u, vertex, owner).T)
        return SubspacePlusRays(span)

    def subdiff_tangent(self, x, tol=DEFAULT_TOL):
        """T_{dg(x)}(y_bar) per group: {0} where active_groups finds x_J
        active, the half-space <y_J, d_J> <= 0 on the other boundary groups,
        and free on the interior ones."""
        seg = self.reg.segments
        active = active_groups(self.reg, x, tol)[1]
        free = ~active & ~self._on
        tight = ~active & self._on
        eye = np.eye(self.dim)
        in_perm = seg.owner[seg.perm]           # segment of each perm entry
        if not tight.any():
            return SubspacePlusRays(Subspace._orthonormal(
                eye[:, seg.perm[free[in_perm]]]))
        return PolyhedralCone(_segment_columns(self.y_bar, tight, seg.owner).T,
                              eye[seg.perm[active[in_perm]]], ambient=self.dim)

    def polyhedral_system(self):
        """(A, c, E, e) with F = {y : A y <= c, E y = e}.

        A has the row -u_J of each boundary group.  E has the rows e_i of
        the interior groups' indices and, for each boundary group, the rows
        of the Householder reflector P = I - v v^T / (1 + |u_p|),
        v = u_J + sign(u_p) e_p, that map u_J to a multiple of e_p, p the
        group's first index: P u_J is zero off p, so P's other rows are an
        orthonormal basis of the complement of u_J.
        """
        seg = self.reg.segments
        owner, n, u = seg.owner, self.dim, self._u
        a = -_segment_columns(u, self._on, owner).T
        pivots = seg.perm[seg.starts]                 # first index per segment
        c = 1.0 / (1.0 + np.abs(u[pivots]))           # per segment
        v = u.copy()
        v[pivots[self._on]] += np.where(u[pivots] < 0, -1.0, 1.0)[self._on]
        rest = self._on[owner]                        # boundary, not a pivot
        rest[pivots] = False
        rows = np.flatnonzero(rest)
        house = np.where(owner[rows, None] == owner[None, :],
                         -(c[owner[rows]] * v[rows])[:, None] * v, 0.0)
        house[np.arange(rows.size), rows] += 1.0
        e = np.vstack([np.eye(n)[~self._on[owner]], house])
        return a, np.zeros(a.shape[0]), e, np.zeros(e.shape[0])

    def describe(self):
        return {"kind": "group_lasso",
                "boundary_groups": list(self.boundary),
                "interior_groups": list(self.interior)}


class NuclearFace(_ProjectedFace):
    """F(Y) = {U [S 0; 0 0] V^T : S psd p x p} for the unit singular block,
    held as the PsdCone with kernel basis I_p."""

    is_polyhedral = False

    def __init__(self, reg, y_bar, tol):
        self.reg = reg
        self.y_bar = y_bar
        self.dim = reg.dim
        w = reg.weight
        u, s, vt = np.linalg.svd(reg.mat(self.y_bar), full_matrices=True)
        outside, on = dual_ball(s / w, tol.member)
        if s.size and outside[0]:
            raise ValueError(
                f"spectral norm exceeds the dual bound by {s[0] / w - 1.0:.3g}")
        self.sigma_y = s
        self.p = int(np.sum(on))
        self.cone = PsdCone(u, vt.T, self.p, np.eye(self.p), reg.m, reg.n)

    def project(self, x):
        return self.cone.project(x)

    def _spectrum(self, x, tol):
        """(lam, q, scale, kernel): the eigenpairs of the p x p compression
        of x (ascending), the scale max |lam|, and the mask of the eigenvalues
        within tol.member at that scale.  The one activity reading of the
        face: its rank is the count of the others."""
        lam, q = np.linalg.eigh(self.cone.block(x))
        scale = float(np.abs(lam).max(initial=0.0))
        return lam, q, scale, within(lam, tol.member, scale)

    def rank_at(self, x, tol=DEFAULT_TOL):
        """Rank of the p x p compression of a face member."""
        return self.p - int(np.count_nonzero(self._spectrum(x, tol)[3]))

    def tangent_at(self, x, tol=DEFAULT_TOL):
        lam, q, scale, kernel = self._spectrum(x, tol)
        if beyond(-float(lam.min(initial=0.0)), tol.derived_member, scale):
            raise ValueError("point is not in the face (indefinite compression)")
        return make_psd_embedded(self.cone.U, self.cone.V, self.p,
                                 q[:, kernel], self.reg.m, self.reg.n)

    def subdiff_tangent(self, x, tol=DEFAULT_TOL):
        """T_{dg(x)}(y_bar), or None where no exact description is supported.

        U and V with the unit block rotated by the eigenvectors of x's
        compression are a singular basis common to x and y_bar.  Its columns
        past x's rank r span the block B = {u_i v_j^T : i, j >= r}.  The cone
        is B when r = p, the half-space {d in B : <u_r v_r^T, d> <= 0} when
        r = p - 1, and None when two or more unit values lie off x's support.
        """
        p, u, v = self.p, self.cone.U, self.cone.V
        _, q, _, kernel = self._spectrum(x, tol)
        spare = int(np.count_nonzero(kernel))           # p - r
        if spare > 1:
            return None
        uk = np.hstack([u[:, :p] @ q[:, kernel], u[:, p:]])
        vk = np.hstack([v[:, :p] @ q[:, kernel], v[:, p:]])
        block = Subspace._orthonormal(np.kron(uk, vk))  # u_r v_r^T first
        if not spare:
            return SubspacePlusRays(block)
        return PolyhedralCone(block.basis[:, :1].T, block.complement().basis.T,
                              ambient=self.dim)

    def span_basis(self):
        """Orthonormal basis of the face's span {U [S 0; 0 0] V^T : S in S^p}."""
        return symmetric_block_basis(self.cone.U, self.cone.V, self.p)

    def reach_along(self, x, d, tol):
        """The largest t with S + t D psd, S and D the compressions of x (a
        face member) and d: 0 when D is not psd on S's kernel (at
        tol.derived_member), else from S^-1/2 D S^-1/2 on S's range."""
        lam, q, _, kernel = self._spectrum(x, tol)
        dq = q.T @ self.cone.block(d) @ q
        low = np.linalg.eigvalsh(dq[np.ix_(kernel, kernel)]).min(initial=0.0)
        if beyond(-low, tol.derived_member, np.linalg.norm(dq)):
            return 0.0
        root = 1.0 / np.sqrt(lam[~kernel])          # above the kernel's slack
        m = np.linalg.eigvalsh(root[:, None] * dq[np.ix_(~kernel, ~kernel)]
                               * root).min(initial=0.0)
        return np.inf if m >= 0.0 else -1.0 / m

    def ri_meets_range(self, imk, tol, x_bar=None):
        """'yes' when K x_bar is a face member of full block rank (it is in
        the relative interior) or when Im K holds the block's identity
        member; 'unknown' otherwise."""
        if x_bar is not None and self.contains(np.asarray(x_bar, dtype=float),
                                               tol.derived_member):
            if self.rank_at(x_bar, tol) == self.p:
                return "yes"
        target = self.cone.embed(np.eye(self.p))
        return "yes" if within(imk.residual(target), tol.member,
                               np.linalg.norm(target)) else "unknown"

    def describe(self):
        return {"kind": "nuclear", "p": self.p,
                "sigma_y": [float(v) for v in self.sigma_y]}


class PolyhedralFace(Polyhedron):
    """Exposed face argmax_{A y <= c} <y_bar, y>: a Polyhedron with the
    equality <y_bar, y> = support (none when y_bar is zero).

    Built through conj_subdiff_face, which keeps one face per (y_bar, tol)
    for every kind, so its support LP is solved once.
    """

    is_polyhedral = True

    def __init__(self, reg, y_bar, tol):
        self.reg = reg
        self.y_bar = y_bar
        self.dim = reg.dim
        self.support, e, rhs = 0.0, None, None
        if not within(float(np.linalg.norm(self.y_bar)), tol.member):
            lp = linear_program(-self.y_bar, reg.A, reg.c)
            if lp.status != 0:
                raise ValueError("unbounded face: the exposed face of the "
                                 "polyhedron in this direction is empty"
                                 if lp.status == 3 else
                                 f"face computation failed (LP status {lp.status})")
            self.support = -lp.value
            e, rhs = self.y_bar.reshape(1, -1), np.asarray([self.support])
        super().__init__(reg.A, reg.c, e, rhs)

    def _active(self, x, tol):
        """The rows of A active at x, at the slack of a derived point: the
        one activity reading of both tangent cones."""
        return self.A[active_rows(self.A, self.c, x, tol.derived_member)]

    def tangent_at(self, x, tol=DEFAULT_TOL):
        return PolyhedralCone(self._active(x, tol), self.E, ambient=self.dim)

    def subdiff_tangent(self, x, tol=DEFAULT_TOL):
        """T_{dg(x)}(y_bar): the rows active at x as rays, plus the line of
        y_bar when the face has its equality row."""
        span = (Subspace._orthonormal(self.E.T / np.linalg.norm(self.y_bar))
                if self.E.shape[0] else Subspace.zero(self.dim))
        return SubspacePlusRays(span, [r for r in self._active(x, tol)
                                       if np.any(r)])

    def polyhedral_system(self):
        return self.A, self.c, self.E, self.rhs

    def describe(self):
        return {"kind": "polyhedral", "support": float(self.support),
                "equalities": int(self.E.shape[0])}


def conj_subdiff_face(reg, y_bar, tol=DEFAULT_TOL):
    """Exact description of dg*(y_bar) = {x : y_bar in dg(x)}, kept on reg
    per (y_bar bytes, tol) for every kind and built from a read-only copy of
    y_bar, so that every reader shares it; a failed build keeps nothing."""
    y_bar = np.asarray(y_bar, dtype=float)
    faces = vars(reg).setdefault("_faces", {})
    key = (y_bar.tobytes(), tol)
    if key not in faces:
        faces[key] = reg.face(frozen(y_bar.copy()), tol)
    return faces[key]


def member_tangent(face, x_bar, tol=DEFAULT_TOL):
    """face.tangent_at(x_bar) after checking that x_bar is a face member."""
    x_bar = np.asarray(x_bar, dtype=float)
    if not face.contains(x_bar, tol.derived_member):
        dist = float(np.linalg.norm(x_bar - face.project(x_bar)))
        raise ValueError(f"x_bar is not in the conjugate face (distance {dist:.3g})")
    return face.tangent_at(x_bar, tol)


def tangent_conj_subdiff(reg, y_bar, x_bar, tol=DEFAULT_TOL):
    """Tangent cone T_{dg*(y_bar)}(x_bar); x_bar must be a face member."""
    return member_tangent(conj_subdiff_face(reg, y_bar, tol), x_bar, tol)


# ---------------------------------------------------------------------------
# tangent to the subdifferential at the multiplier (adjoint-kernel condition)


def tangent_subdiff(reg, x_bar, y_bar, tol=DEFAULT_TOL):
    """T_{dg(x_bar)}(y_bar), read off the conjugate face of y_bar, or None
    when no exact description is supported."""
    x_bar = np.asarray(x_bar, dtype=float)
    if not subdiff_contains(reg, x_bar, y_bar, tol):
        raise ValueError("y_bar is not in dg(x_bar)")
    return conj_subdiff_face(reg, y_bar, tol).subdiff_tangent(x_bar, tol)


# ---------------------------------------------------------------------------
# relative interior of the face versus the range of K


def ri_intersects_range(face, k_op, tol=DEFAULT_TOL, x_bar=None):
    """Does Im K meet the relative interior of the conjugate face?

    Returns 'yes' | 'no' | 'unknown'.  K = I (read from is_identity, so a
    plain identity matrix too) has the whole space as its range, which meets
    the relative interior of the face: the face holds K x_bar.  Otherwise
    only a curved face (NuclearFace) decides it: a polyhedral face is
    qualified by polyhedrality, so the certificates never ask.
    """
    k_op = as_operator(k_op)
    if k_op.is_identity:                            # Im K = Y
        return "yes"
    return face.ri_meets_range(k_op.range_space(tol), tol, x_bar)
