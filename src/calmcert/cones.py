"""Closed convex cone descriptions and the kernel-intersection decision.

The certificates all reduce to one question: given an operator M (Phi, or
K^T for the adjoint-kernel condition) and a described closed convex cone
C, is {w in C : M w = 0} = {0}?  Each cone answers through one of two
procedures, and its class attribute `exact` says which.  Each exact cone
lifts itself: `lifted(mat, scale)` writes Ker M cap C as one system
Q = {z : G z <= 0, H z = 0} with M / scale in its equality block, and a
linear map F with F Q = Ker M cap C.  The exact cones are a subspace plus
rays (a plain subspace when there are no rays), a polyhedral cone
{A w <= 0, E w = 0}, and the preimage under K of either, which lifts its
inner cone's system.  PSD cones hand the probe their projection:
`probe_parts()` gives the K (None for K = I) and the embedded PSD cone that
the probe projects through.  `preimage` keeps every cone as a
PreimageCone, whose decision is its inner cone's.  The regularizers write
their cones in these forms directly, group-Lasso ones included, whatever
the number of groups.

The kernel of M is never formed.  When F vanishes on null(H) the
equalities decide; otherwise one LP for a relative-interior point of Q
does.  A nontrivial answer carries a witness w in C with M w = 0, a trivial
one the LP duals (a Stiemke/Gordan alternative, zero when the equalities
decide), each verified before it is reported.  The embedded-PSD degenerate
case uses an alternating-projection probe on a kernel basis of M, its
starts run as one stack, that can only answer Nontrivial-with-witness or
Unknown.

Polyhedron is the set {A y <= c, E y = rhs}: the polyhedral regularizer,
PolyhedralCone and the polyhedral conjugate face are Polyhedrons.  It holds
the one polyhedral membership test, and one least-distance NNLS that both
projects (keeping its factors for as long as the set lives) and decides
whether the set is empty.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# scipy.optimize is imported where an LP or NNLS is solved: it is most of the
# package's import time, and group-Lasso and nuclear solves never need it.

from .linalg import (Subspace, DEFAULT_TOL, as_operator, beyond, member_slack,
                     nonzero, null_space, rank_count, row_norms, within)


@dataclass
class DualCertificate:
    """Proof that F vanishes on Q = {z : G z <= 0, H z = 0}.

    G and H have unit-scale rows (unit rows, or M / ||M||).  mu >= 0 with
    mu >= 1 on the rows `implicit` and G^T mu + H^T beta = 0 force those
    rows to be tight on all of Q, so Q lies in null([H; G_implicit]); F is
    zero on that null space.  mu = 0 when F is zero on null(H) already.
    """
    g: np.ndarray
    h: np.ndarray
    f: np.ndarray
    implicit: np.ndarray            # boolean mask over the rows of G
    mu: np.ndarray
    beta: np.ndarray

    def verify(self, tol=DEFAULT_TOL):
        i = self.implicit
        if np.any(self.mu < 0) or np.any(self.mu[i] < 1.0) or beyond(
                np.linalg.norm(self.g.T @ self.mu + self.h.T @ self.beta),
                tol.member):
            return False
        span = _null(np.vstack([self.h, self.g[i]]), tol)
        return within(float(np.linalg.norm(self.f @ span)), tol.member)


@dataclass
class TrivialityVerdict:
    outcome: str                    # "trivial" | "nontrivial" | "unknown"
    witness: np.ndarray = None      # unit vector in Ker M cap C, iff nontrivial
    reason: str = ""
    certificate: DualCertificate = None   # verified; trivial, unless M = I or PSD

    @classmethod
    def trivial(cls, certificate=None):
        return cls("trivial", certificate=certificate)

    @classmethod
    def nontrivial(cls, witness):
        return cls("nontrivial", witness=np.asarray(witness, dtype=float))

    @classmethod
    def unknown(cls, reason):
        return cls("unknown", reason=reason)

    @property
    def is_trivial(self):
        return self.outcome == "trivial"

    @property
    def is_nontrivial(self):
        return self.outcome == "nontrivial"

    @property
    def is_unknown(self):
        return self.outcome == "unknown"


# ---------------------------------------------------------------------------
# cone variants


class Cone:
    """What trivial_intersection asks of a cone.

    An exact cone (exact = True) defines lifted(mat, scale) -> (G, H, F),
    the system _decide reads; a PSD cone defines probe_parts() -> (K or
    None, the embedded PSD cone), what _psd_probe projects through.
    """

    exact = True

    def residual(self, w):
        w = np.asarray(w, dtype=float)
        return float(np.linalg.norm(w - self.project(w)))


class SubspacePlusRays(Cone):
    """span + nonnegative combinations of the given rays (rays normalized);
    with no rays, the subspace itself."""

    def __init__(self, span, rays=()):
        self.span = span
        self.ambient = span.ambient_dim
        rays = [np.asarray(r, dtype=float) for r in rays]
        norms = [np.linalg.norm(r) for r in rays]
        if any(nrm <= 0 for nrm in norms):
            raise ValueError("zero ray in cone description")
        self.rays = [r / nrm for r, nrm in zip(rays, norms)]

    def _ray_matrix(self):
        return np.stack(self.rays, axis=1) if self.rays \
            else np.zeros((self.ambient, 0))

    def member(self, w, tol):
        """within(residual(w), tol, ||w||); an array of slacks gives one
        answer per slack from one residual."""
        return within(self.residual(w), tol, np.linalg.norm(w))

    @cached_property
    def _rays_off_span(self):
        """The rays' components in the span's complement (columns)."""
        r = self._ray_matrix()
        return r - self.span.project(r)

    def project(self, w):
        """Projection onto the cone (exact: NNLS on the span complement, which
        rays that lie in the span skip)."""
        w = np.asarray(w, dtype=float)
        ws = self.span.project(w)
        rp = self._rays_off_span
        if not rp.any():
            return ws
        import scipy.optimize
        lam, _ = scipy.optimize.nnls(rp, w - ws)
        return ws + rp @ lam

    def lifted(self, mat, scale):
        """z = (xi, lam), F = [B R] (B the span's basis, R the rays):
        H = M F / scale, and G = -I on lam."""
        r = self._ray_matrix()
        f = np.hstack([self.span.basis, r])
        g = np.hstack([np.zeros((r.shape[1], self.span.dim)), -np.eye(r.shape[1])])
        return g, mat @ f / scale, f

    def __repr__(self):
        return (f"SubspacePlusRays(span_dim={self.span.dim}, "
                f"rays={len(self.rays)}, ambient={self.ambient})")


PROJECTION_SLACK = 1e-9        # of a projection's rows and its result check


class Polyhedron:
    """{y : A y <= c, E y = rhs} and the factors its projections reuse.

    The set holds its row norms, A Z for an orthonormal basis Z of Ker E,
    and, per active row set J, the factors M^T (M M^T)^+ and (M M^T)^+ of
    M = [A_J; E].  The polyhedral regularizer, a polyhedral conjugate face
    and a PolyhedralCone are each one, and it remembers the active set of
    its last projection's NNLS.
    """

    def __init__(self, a, c, e=None, rhs=None):
        self.A = np.asarray(a, dtype=float)
        self.c = np.asarray(c, dtype=float)
        dim = self.A.shape[1]
        self.E = np.zeros((0, dim)) if e is None else np.asarray(e, dtype=float)
        self.rhs = np.zeros(self.E.shape[0]) if rhs is None \
            else np.asarray(rhs, dtype=float)
        self._factors = {}
        self._last = ()

    @cached_property
    def _norms(self):
        return np.linalg.norm(np.vstack([self.A, self.E]), axis=1)

    @cached_property
    def _az(self):
        return self.A @ null_space(self.E).basis

    def _factor(self, rows):
        """(M, target, M^T (M M^T)^+, (M M^T)^+) for the rows J at equality;
        the last two are None when M has no rows."""
        if rows not in self._factors:
            mm = np.vstack([self.A[list(rows)], self.E])
            target = np.concatenate([self.c[list(rows)], self.rhs])
            proj = gram = None
            if mm.shape[0]:
                gram = np.linalg.pinv(mm @ mm.T)
                proj = mm.T @ gram
            self._factors[rows] = (mm, target, proj, gram)
        return self._factors[rows]

    def _onto(self, rows, point):
        """The point's projection onto {A_J y = c_J, E y = rhs}."""
        mm, target, proj, _ = self._factor(rows)
        if proj is None:
            return point.copy()
        return point - proj @ (mm @ point - target)

    def _least_distance(self, h):
        """The active rows of min ||z|| over -(A Z) z >= h: the positive
        multipliers of one NNLS of [-(A Z)^T; h^T] against the last unit
        vector (Lawson & Hanson, Solving Least Squares Problems, 1974, ch.
        23); None when its residual vanishes, which happens only when no z
        meets the rows."""
        import scipy.optimize
        az = self._az
        unit = np.zeros(az.shape[1] + 1)
        unit[-1] = 1.0
        lam, res = scipy.optimize.nnls(np.vstack([-az.T, h]), unit)
        return None if res <= np.finfo(float).eps \
            else tuple(np.flatnonzero(lam > 0.0).tolist())

    def _gaps(self, point, slack):
        """(y0, h): y0 the point's projection onto {E y = rhs}, and h =
        A y0 - c relaxed by ||a_i|| member_slack(slack, ||y0||)."""
        y = self._onto((), point)
        relax = member_slack(slack, np.linalg.norm(y))
        return y, self.A @ y - self.c - relax * self._norms[:self.A.shape[0]]

    def is_empty(self):
        """Whether project finds no point for the point 0: its least-distance
        NNLS reads no z, or the projection onto the active rows it reads
        fails contains, both at PROJECTION_SLACK.  So an inequality that the
        equalities hold tight does not read empty at roundoff, and an NNLS
        residual of a contradictory pair of rows that stays above roundoff
        does not read nonempty.  E y = rhs is taken as consistent.  With no
        rows of A the set is not empty, and no NNLS is solved.  The active
        set that project reuses is left as it was."""
        if not self.A.shape[0]:
            return False
        point = np.zeros(self.A.shape[1])
        rows = self._least_distance(self._gaps(point, PROJECTION_SLACK)[1])
        return rows is None or \
            not self.contains(self._onto(rows, point), PROJECTION_SLACK)

    def contains(self, y, slack):
        """A y <= c, E y = rhs, row i at ||row_i|| member_slack(slack, ||y||).

        The one polyhedral membership rule: the slack scales with the row, so
        rescaling a row together with its offset changes no answer.  A stack
        of points (rows) gives one answer per point, and an array of slacks
        one answer per slack.
        """
        y = np.asarray(y, dtype=float)
        bound = np.multiply.outer(member_slack(slack, row_norms(y)), self._norms)
        m = self.A.shape[0]
        return ~np.any(y @ self.A.T - self.c > bound[..., :m], axis=-1) \
            & ~np.any(np.abs(y @ self.E.T - self.rhs) > bound[..., m:], axis=-1)

    def _reuse(self, point):
        """The projection onto the last NNLS's active set when it is the KKT
        point: every inequality multiplier positive and the result in the
        set at PROJECTION_SLACK; None otherwise."""
        if not self._last:
            return None
        mm, target, proj, gram = self._factor(self._last)
        r = mm @ point - target
        if not (gram[:len(self._last)] @ r > 0.0).all():
            return None
        y = point - proj @ r
        return y if self.contains(y, PROJECTION_SLACK) else None

    def project(self, point):
        """Projection of a point by least-distance programming.

        With y0 the projection of the point onto {E y = rhs}, the answer is
        y0 + Z z for the z of least norm with -(A Z) z >= h = A y0 - c.  When
        h < 0 that z is 0, and y0 is returned without an NNLS.  Otherwise the
        active set of the last NNLS is tried (see _reuse); only when it fails
        does the least-distance NNLS (_least_distance) solve the problem, and
        its active rows become the ones reused next.  The answer is the point's
        projection onto those rows at equality and {E y = rhs}, from the
        factors of that set, the same numbers as computed afresh.  h is
        relaxed by ||a_i|| member_slack(PROJECTION_SLACK, ||y0||), the slack of
        contains, which checks the result, so that rows tight only at
        roundoff (a face's own support row, a cone row that the equalities
        pin) do not make the set look empty.
        """
        point = np.asarray(point, dtype=float)
        y, h = self._gaps(point, PROJECTION_SLACK)
        if (h >= 0.0).any():
            reused = self._reuse(point)
            if reused is not None:
                return reused
            rows = self._least_distance(h)
            if rows is None:
                raise RuntimeError("polyhedral projection failed (empty set)")
            self._last = rows
            y = self._onto(rows, point)
        if not self.contains(y, PROJECTION_SLACK):
            raise RuntimeError("polyhedral projection failed (infeasible result)")
        return y


class PolyhedralCone(Polyhedron, Cone):
    """{w : A w <= 0, E w = 0}; either block may be empty."""

    def __init__(self, a, e=None, ambient=None):
        a = np.asarray(a, dtype=float) if a is not None else None
        e = np.asarray(e, dtype=float) if e is not None else None
        if a is None and e is None:
            raise ValueError("polyhedral cone needs at least one block")
        self.ambient = ambient if ambient is not None else (
            a.shape[1] if a is not None and a.size else e.shape[1])
        a = a if a is not None and a.size else np.zeros((0, self.ambient))
        e = e if e is not None and e.size else np.zeros((0, self.ambient))
        super().__init__(a, np.zeros(a.shape[0]), e)

    member = Polyhedron.contains

    def lifted(self, mat, scale):
        """z = w, F = I: G = A and H = [M / scale; E], A and E at unit rows."""
        return (_unit_rows(self.A), np.vstack([mat / scale, _unit_rows(self.E)]),
                np.eye(self.ambient))

    def __repr__(self):
        return (f"PolyhedralCone(ineq={self.A.shape[0]}, eq={self.E.shape[0]}, "
                f"ambient={self.ambient})")


class PsdCone(Cone):
    """{U_p H V_p^T embedded in R^{m x n} : H in S^p, P^T H P >= 0}.

    U, V are the orthogonal factors of the carrying face, p the block size
    (p = 0 gives {0}), kernel_basis P (p x q).  P = I_p is the nuclear face
    itself; a tangent cone's P spans the nullspace of the base point's
    compression, and make_psd_embedded makes it a subspace when q = 0.
    """

    exact = False

    def __init__(self, u, v, p, kernel_basis, m, n):
        self.U = np.asarray(u, dtype=float)
        self.V = np.asarray(v, dtype=float)
        self.p = int(p)
        # reshape cannot infer the width of an empty block's empty kernel
        self.P = np.asarray(kernel_basis, dtype=float).reshape(self.p, -1) \
            if self.p else np.zeros((0, 0))
        self.m, self.n = int(m), int(n)
        self.ambient = self.m * self.n

    def compress(self, w):
        """U^T W V for w (or each row of a stack) vec'd as an m x n W."""
        w = np.asarray(w, dtype=float)
        return self.U.T @ w.reshape(w.shape[:-1] + (self.m, self.n)) @ self.V

    def block(self, w):
        """The symmetric part of the p x p block of w's compression."""
        c = self.compress(w)[..., :self.p, :self.p]
        return 0.5 * (c + c.swapaxes(-1, -2))

    def embed(self, h):
        """U [H 0; 0 0] V^T, vec'd, for a p x p block H (or a stack)."""
        full = np.zeros(h.shape[:-2] + (self.m, self.n))
        full[..., :self.p, :self.p] = h
        out = self.U @ full @ self.V.T
        return out.reshape(out.shape[:-2] + (self.ambient,))

    def member(self, w, tol):
        """The compression of w vanishes off the p x p block, the block is
        symmetric and its kernel compression is PSD, each at the slack
        member_slack(tol, ||w||); an array of slacks gives one answer per
        slack from one compression."""
        slack = member_slack(tol, np.linalg.norm(w))
        c = self.compress(w)
        off = c.copy()
        off[:self.p, :self.p] = 0.0
        h = c[:self.p, :self.p]
        low = 0.0
        if self.P.shape[1]:
            g = self.P.T @ (0.5 * (h + h.T)) @ self.P
            low = float(np.linalg.eigvalsh(0.5 * (g + g.T)).min())
        return (float(np.abs(off).max(initial=0.0)) <= slack) \
            & (float(np.abs(h - h.T).max(initial=0.0)) <= slack) & (low >= -slack)

    def project(self, w):
        """Exact projection: symmetrize the block, clip the kernel compression.

        For a stack of points (rows), one batched eigh projects them all.
        """
        h = self.block(w)
        if self.P.shape[1]:
            g = self.P.T @ h @ self.P
            lam, q = np.linalg.eigh(0.5 * (g + g.swapaxes(-1, -2)))
            # Q diag(lam+) Q^T as (Q * lam+) Q^T: the same numbers
            gplus = (q * np.clip(lam, 0.0, None)[..., None, :]) @ q.swapaxes(-1, -2)
            h = h + self.P @ (gplus - self.P.T @ h @ self.P) @ self.P.T
        return self.embed(h)

    def probe_parts(self):
        """(K, inner) for the probe: K = I, which it reads as None."""
        return None, self

    def __repr__(self):
        return f"PsdCone(p={self.p}, kernel={self.P.shape[1]}, {self.m}x{self.n})"


def symmetric_block_basis(u, v, p):
    """Orthonormal basis (vec'd columns) of {U_p H V_p^T : H in S^p}."""
    cols = []
    up, vp = np.asarray(u)[:, :p], np.asarray(v)[:, :p]
    for i in range(p):
        for j in range(i, p):
            h = np.zeros((p, p))
            if i == j:
                h[i, i] = 1.0
            else:
                h[i, j] = h[j, i] = 1.0 / np.sqrt(2.0)
            cols.append((up @ h @ vp.T).ravel())
    return np.stack(cols, axis=1) if cols else np.zeros((len(u) * len(v), 0))


def make_psd_embedded(u, v, p, kernel_basis, m, n):
    """PSD-embedded tangent cone; collapses to a subspace when the kernel is 0."""
    cone = PsdCone(u, v, p, kernel_basis, m, n)
    if cone.P.shape[1]:
        return cone
    return SubspacePlusRays(Subspace._orthonormal(symmetric_block_basis(u, v, p)))


class PreimageCone(Cone):
    """{w : K w in inner}: exact when the inner cone is."""

    def __init__(self, k_matrix, inner):
        self.K = np.asarray(k_matrix, dtype=float)
        self.inner = inner
        self.ambient = self.K.shape[1]
        self.exact = inner.exact

    def member(self, w, tol):
        """K w within tol ||K||_F of the inner cone at scale ||w||: the error
        K passes on from w scales with K, so rescaling K changes nothing."""
        w = np.asarray(w, dtype=float)
        return within(self.residual(w), tol * float(np.linalg.norm(self.K)),
                      np.linalg.norm(w))

    def residual(self, w):
        return self.inner.residual(self.K @ np.asarray(w, dtype=float))

    def lifted(self, mat, scale):
        """z = (w, z'), with (G', H', F') the inner cone's own lift (no M rows):
        M w = 0, K w = F' z', G' z' <= 0, H' z' = 0.  Over span(S) + rays R
        that is z = (w, s, lam) and H = [M 0 0; K -S -R].

        K is scaled to unit largest column and the rows of [K, -F'] to unit
        norm, which leaves Q unchanged; F keeps the w block.
        """
        g, h, f = self.inner.lifted(np.zeros((0, self.inner.ambient)), 1.0)
        n, tail = self.ambient, f.shape[1]
        k_scale = float(np.linalg.norm(self.K, axis=0).max(initial=0.0)) or 1.0
        h = np.vstack([np.hstack([mat / scale, np.zeros((mat.shape[0], tail))]),
                       _unit_rows(np.hstack([self.K / k_scale, -f])),
                       np.hstack([np.zeros((h.shape[0], n)), h])])
        return np.hstack([np.zeros((g.shape[0], n)), g]), h, np.eye(n, n + tail)

    def probe_parts(self):
        """(K, inner) for the probe, K composed with the inner cone's own."""
        k, psd = self.inner.probe_parts()
        return (self.K if k is None else k @ self.K), psd


# ---------------------------------------------------------------------------
# preimages


def preimage(k_op, cone, tol=DEFAULT_TOL):
    """Cone {w : K w in C}, K a LinearOp or a matrix: C itself for K = I,
    otherwise a PreimageCone over C, decided through C's own procedure.
    tol is not read; the signature keeps it for the callers that pass one.
    """
    k_op = as_operator(k_op)
    if cone.ambient != k_op.rows:
        raise ValueError("operator rows must match cone ambient dimension")
    if k_op.is_identity:
        return cone
    # the PreimageCone's K is dense
    return PreimageCone(k_op.matrix, cone)


# ---------------------------------------------------------------------------
# the triviality decision


def _null(a, tol):
    """Null-space basis (columns) of a stack of unit-scale rows: singular
    values at most tol.rank count as zero."""
    if a.shape[0] == 0:
        return np.eye(a.shape[1])
    _, s, vt = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    return vt[rank_count(s, tol.rank):].T


def _unit_rows(mat):
    """The nonzero rows of mat at unit norm."""
    nrm = np.linalg.norm(mat, axis=1)
    keep = nrm > 0
    return mat[keep] / nrm[keep, None]


def _verify_witness(mat, norm, cone, w, tol):
    """w at unit norm when M w = 0 at tol.derived_rank on the scale ||M||
    and w is in the cone; None otherwise."""
    nrm = float(np.linalg.norm(w))
    if nrm <= 0:
        return None
    w = w / nrm
    if nonzero(np.linalg.norm(mat @ w), tol.derived_rank, norm):
        return None
    if not cone.member(w, tol.derived_member):
        return None
    return w


# HiGHS's feasibility tolerances, at the solver's floor: its default 1e-7
# lets an LP's answer miss the KKT bound that it is checked at.
LP_TOLERANCE = 1e-10

LinearProgram = namedtuple("LinearProgram", "status message x value ineq eq",
                           defaults=(None,) * 4)


def linear_program(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
                   bounds=(-np.inf, np.inf)):
    """The package's one LP, by HiGHS (Huangfu & Hall, Math. Prog. Comp. 10,
    2018): min c^T x over A_ub x <= b_ub, A_eq x = b_eq and bounds (one pair
    for all or one per variable).  status: 0 solved, 2 infeasible, 3
    unbounded, else a failure that message names.  Solved, the multipliers
    ineq >= 0 and eq make c + A_ub^T ineq + A_eq^T eq zero on free variables."""
    import scipy.optimize
    res = scipy.optimize.linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
        method="highs", options={"primal_feasibility_tolerance": LP_TOLERANCE,
                                 "dual_feasibility_tolerance": LP_TOLERANCE})
    if res.status != 0:
        return LinearProgram(res.status, res.message)
    return LinearProgram(0, res.message, res.x, float(res.fun),
                         -res.ineqlin.marginals, -res.eqlin.marginals)


def _decide(mat, norm, cone, g, h, f, tol):
    """Decide Ker M cap C = {0} as: is F zero on all of Q = {G z <= 0, H z = 0}?

    When F vanishes on null(H), the equalities alone decide, and the
    certificate has mu = 0.  Otherwise one LP, max sum t over
    G z + t <= 0, H z = 0, 0 <= t <= 1, gives a relative-interior point z*
    of Q; its implicit equalities are the rows with t = 0, and
    span Q = null([H; G_I]).  F is nonzero on Q exactly when it is nonzero
    on that span: then z* + eps b, with b the span direction F stretches
    most and its sign chosen so that F z* and F b do not cancel, is a
    witness in Q.  Otherwise the LP duals are the certificate.  Both are
    verified before they are reported.
    """
    m, dz = g.shape
    z_star, implicit = np.zeros(dz), np.zeros(m, dtype=bool)
    mu, beta = np.zeros(m), np.zeros(h.shape[0])
    basis = _null(h, tol)
    if m and beyond(np.linalg.norm(f @ basis), tol.member):
        lp = linear_program(
            np.concatenate([np.zeros(dz), -np.ones(m)]),
            np.hstack([g, np.eye(m)]), np.zeros(m),
            np.hstack([h, np.zeros((h.shape[0], m))]), np.zeros(h.shape[0]),
            bounds=np.repeat([[-np.inf, np.inf], [0.0, 1.0]], [dz, m], axis=0))
        if lp.status != 0:
            return TrivialityVerdict.unknown(f"cone LP failed: {lp.message}")
        z_star, implicit = lp.x[:dz], lp.x[dz:] < 0.5
        mu, beta = np.clip(lp.ineq, 0.0, None), lp.eq
        basis = _null(np.vstack([h, g[implicit]]), tol)
    _, gains, vt = np.linalg.svd(f @ basis, full_matrices=False)
    if gains.size and beyond(gains[0], tol.member):
        b = basis @ vt[0]
        z_c = basis @ (basis.T @ z_star)
        if (f @ z_c) @ (f @ b) < 0:               # F z* and F b must not cancel
            b = -b
        # G z* <= -1 off the implicit rows, so this step stays inside Q
        eps = 0.5 / max(float(np.abs(g @ b).max(initial=0.0)), 1e-12)
        w = _verify_witness(mat, norm, cone, f @ (z_c + eps * b), tol)
        if w is None:
            return TrivialityVerdict.unknown("cone witness failed verification")
        return TrivialityVerdict.nontrivial(w)
    low = float(mu[implicit].min(initial=1.0))    # scale to min mu_I = 1
    if low > 0:
        mu, beta = mu / low, beta / low
    cert = DualCertificate(g, h, f, implicit, mu, beta)
    if not cert.verify(tol):
        return TrivialityVerdict.unknown("dual certificate failed verification")
    return TrivialityVerdict.trivial(cert)


def _psd_probe(mat, norm, cone, k_mat, inner_psd, tol, seed):
    """Alternating-projection probe for the heuristic-only PSD-degenerate case.

    The 32 random starts in Ker M run as the rows of one stack: each
    iteration projects the live rows onto Ker M and then onto the cone
    (through K and its pseudo-inverse when K != I), one stacked cone
    projection for all of them.  A row is frozen once its norm falls below
    1e-8.  The first row, in start order, that ends at norm >= 0.5 and
    gives a verified witness decides; otherwise the answer is Unknown.
    """
    n_sub = null_space(mat, tol)
    if n_sub.dim == 0:
        return TrivialityVerdict.trivial()
    basis = n_sub.basis
    xi = np.random.default_rng(seed).standard_normal((32, n_sub.dim))
    w = (xi / row_norms(xi)[:, None]) @ basis.T
    kplus = np.linalg.pinv(k_mat) if k_mat is not None else None
    live = np.ones(len(w), dtype=bool)
    for _ in range(500):
        v = (w[live] @ basis) @ basis.T
        if k_mat is None:
            v = inner_psd.project(v)
        else:
            kv = v @ k_mat.T
            v = v + (inner_psd.project(kv) - kv) @ kplus.T
        w[live] = v
        live[live] = row_norms(v) >= 1e-8
        if not live.any():
            break
    for row in w:
        if float(np.linalg.norm(row)) >= 0.5:
            cand = _verify_witness(mat, norm, cone, n_sub.project(row), tol)
            if cand is not None:
                return TrivialityVerdict.nontrivial(cand)
    return TrivialityVerdict.unknown("PSD cone, heuristic inconclusive")


def trivial_intersection(m, cone, tol=DEFAULT_TOL, seed=0):
    """Decide Ker M cap C = {0}, M a LinearOp or a matrix.

    An exact cone lifts itself (lifted) and _decide decides its system; a
    PSD cone hands _psd_probe its parts (probe_parts).  A nontrivial verdict
    carries a verified witness, a trivial one on an exact cone a verified
    DualCertificate.  M enters the LP system as an equality block at scale
    1 / ||M||, so Ker M is never formed; a singular value of M F below
    tol.rank ||M|| counts as zero.
    """
    m = as_operator(m)
    if m.cols != cone.ambient:
        raise ValueError("operator columns and cone ambient dimension differ")
    if m.is_identity:                             # Ker I = {0}
        return TrivialityVerdict.trivial()
    mat, norm = m.matrix, m.op_norm()             # M's rows enter the LP system
    scale = norm or 1.0                           # M = 0 leaves zero rows
    if cone.exact:
        return _decide(mat, norm, cone, *cone.lifted(mat, scale), tol)
    return _psd_probe(mat, norm, cone, *cone.probe_parts(), tol, seed)


# ---------------------------------------------------------------------------
# tangent cone of a face restricted to a range


def active_rows(a, c, x, slack):
    """Rows i of A x <= c with a_i x >= c_i - ||a_i|| member_slack(slack, x).

    The slack scales with ||a_i||, as in PolyhedralCone.member, so that
    rescaling a row together with c_i does not change the answer.
    """
    x = np.asarray(x, dtype=float)
    scale = member_slack(slack, np.linalg.norm(x))
    return a @ x >= c - scale * np.linalg.norm(a, axis=1)


def tangent_with_range_restriction(face, z, k_op, tol=DEFAULT_TOL):
    """Tangent cone of (face cap Im K) at z = K x_bar, or None when unknown.

    Polyhedral faces get the exact construction (Im K orthogonal-complement
    equalities added to the face system before taking active rows); PSD faces
    are supported only when the restriction is vacuous (Im K = Y).  Its
    preimage under K is that of the face's own tangent, which is what the
    certificates decide on; this construction is the reference the two are
    compared against.
    """
    z = np.asarray(z, dtype=float)
    if not face.contains(z, tol.derived_member):
        raise ValueError("base point is not a member of the face")
    k_op = as_operator(k_op)
    if k_op.is_identity:                          # Im K = Y
        return face.tangent_at(z, tol)
    imk = k_op.range_space(tol)
    if not imk.contains(z, tol.derived_member):
        raise ValueError("base point is not in the range of K")
    if imk.dim == imk.ambient_dim:
        return face.tangent_at(z, tol)
    if not face.is_polyhedral:
        return None
    a, c, e, _ = face.polyhedral_system()
    e_all = np.vstack([e, imk.complement().basis.T])
    return PolyhedralCone(a[active_rows(a, c, z, tol.derived_member)], e_all,
                          ambient=face.dim)
