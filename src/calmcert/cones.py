"""Closed convex cone descriptions and the kernel-intersection decision.

The certificates all reduce to one question: given a subspace N and a
described closed convex cone C, is N cap C = {0}?  Subspace cones are
settled by subspace algebra.  Polyhedral cones, cones generated by rays and
preimages of those are written as one system Q = {z : G z <= 0, H z = 0}
with a coordinate projection F onto kernel coordinates, and settled by one
LP for a relative-interior point of Q: a nontrivial answer carries a
witness in N cap C, a trivial one the LP duals (a Stiemke/Gordan
alternative), each verified before it is reported.  The embedded-PSD
degenerate case uses an alternating-projection probe that can only answer
Nontrivial-with-witness or Unknown.
"""

from dataclasses import dataclass

import numpy as np

# scipy.optimize is imported where an LP or NNLS is solved: it is most of the
# package's import time, and group-Lasso and nuclear solves never need it.

from .linalg import Subspace, Tolerances, DEFAULT_TOL, null_space, intersect_subspaces


@dataclass
class DualCertificate:
    """Proof that F z = z[:d] vanishes on Q = {z : G z <= 0, H z = 0}.

    G and H have unit rows.  mu >= 0 with mu >= 1 on the rows `implicit`
    and G^T mu + H^T beta = 0 force those rows to be tight on all of Q, so
    Q lies in null([H; G_implicit]); F is zero on that null space.
    """
    g: np.ndarray
    h: np.ndarray
    d: int
    implicit: np.ndarray            # boolean mask over the rows of G
    mu: np.ndarray
    beta: np.ndarray

    def verify(self, tol=DEFAULT_TOL):
        i = self.implicit
        if np.any(self.mu < 0) or np.any(self.mu[i] < 1.0):
            return False
        if np.linalg.norm(self.g.T @ self.mu + self.h.T @ self.beta) > tol.member:
            return False
        span = null_space(np.vstack([self.h, self.g[i]]), tol)
        return float(np.linalg.norm(span.basis[:self.d])) <= tol.member


@dataclass
class TrivialityVerdict:
    outcome: str                    # "trivial" | "nontrivial" | "unknown"
    witness: np.ndarray = None      # unit vector in N cap C, set iff nontrivial
    reason: str = ""
    certificate: DualCertificate = None   # verified; trivial ray/polyhedral only

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


class ConeDescription:
    """Base for closed convex cones supporting membership(w, tol)."""

    ambient = 0

    def member(self, w, tol):
        raise NotImplementedError

    def residual(self, w):
        """Distance-like membership residual; np.inf when not computable."""
        raise NotImplementedError


class SubspaceCone(ConeDescription):
    def __init__(self, subspace):
        self.subspace = subspace
        self.ambient = subspace.ambient_dim

    @classmethod
    def zero(cls, n):
        return cls(Subspace.zero(n))

    @classmethod
    def full(cls, n):
        return cls(Subspace.full(n))

    def member(self, w, tol):
        return self.subspace.contains(w, tol)

    def residual(self, w):
        return self.subspace.residual(w)

    def project(self, w):
        return self.subspace.project(w)

    def __repr__(self):
        return f"SubspaceCone(dim={self.subspace.dim}, ambient={self.ambient})"


class SubspacePlusRays(ConeDescription):
    """span + nonnegative combinations of the given rays (rays normalized)."""

    def __init__(self, span, rays):
        self.span = span
        self.ambient = span.ambient_dim
        rs = []
        for r in rays:
            r = np.asarray(r, dtype=float)
            nrm = np.linalg.norm(r)
            if nrm <= 0:
                raise ValueError("zero ray in cone description")
            rs.append(r / nrm)
        self.rays = rs

    def _ray_matrix(self):
        if not self.rays:
            return np.zeros((self.ambient, 0))
        return np.stack(self.rays, axis=1)

    def residual(self, w):
        w = np.asarray(w, dtype=float)
        return float(np.linalg.norm(w - self.project(w)))

    def member(self, w, tol):
        return self.residual(w) <= tol * max(1.0, float(np.linalg.norm(w)))

    def project(self, w):
        """Projection onto the cone (exact: NNLS on the span complement)."""
        import scipy.optimize
        w = np.asarray(w, dtype=float)
        ws = self.span.project(w)
        wp = w - ws
        r = self._ray_matrix()
        if r.shape[1] == 0:
            return ws
        rp = r - self.span.project(r)
        lam, _ = scipy.optimize.nnls(rp, wp)
        return ws + rp @ lam

    def __repr__(self):
        return (f"SubspacePlusRays(span_dim={self.span.dim}, "
                f"rays={len(self.rays)}, ambient={self.ambient})")


class PolyhedralCone(ConeDescription):
    """{w : A w <= 0, E w = 0}; either block may be empty."""

    def __init__(self, a, e=None, ambient=None):
        a = np.asarray(a, dtype=float) if a is not None else None
        e = np.asarray(e, dtype=float) if e is not None else None
        if a is None and e is None:
            raise ValueError("polyhedral cone needs at least one block")
        self.ambient = ambient if ambient is not None else (
            a.shape[1] if a is not None and a.size else e.shape[1])
        self.A = a if a is not None and a.size else np.zeros((0, self.ambient))
        self.E = e if e is not None and e.size else np.zeros((0, self.ambient))

    def member(self, w, tol):
        w = np.asarray(w, dtype=float)
        slack = tol * max(1.0, float(np.linalg.norm(w)))
        if self.A.shape[0] and float(np.max(self.A @ w)) > slack:
            return False
        if self.E.shape[0] and float(np.max(np.abs(self.E @ w))) > slack:
            return False
        return True

    def residual(self, w):
        w = np.asarray(w, dtype=float)
        parts = [0.0]
        if self.A.shape[0]:
            parts.append(float(np.max(np.clip(self.A @ w, 0.0, None), initial=0.0)))
        if self.E.shape[0]:
            parts.append(float(np.max(np.abs(self.E @ w), initial=0.0)))
        return max(parts)

    def __repr__(self):
        return (f"PolyhedralCone(ineq={self.A.shape[0]}, eq={self.E.shape[0]}, "
                f"ambient={self.ambient})")


class PsdCone(ConeDescription):
    """{U_p H V_p^T embedded in R^{m x n} : H in S^p, P^T H P >= 0}.

    U, V are the orthogonal factors of the carrying face, p the block size,
    kernel_basis P (p x q) spans the nullspace of the base point's p x p
    compression.  q = 0 never reaches this class (the cone is then a plain
    subspace); construct via make_psd_embedded.
    """

    def __init__(self, u, v, p, kernel_basis, m, n):
        self.U = np.asarray(u, dtype=float)
        self.V = np.asarray(v, dtype=float)
        self.p = int(p)
        self.P = np.asarray(kernel_basis, dtype=float).reshape(self.p, -1)
        self.m, self.n = int(m), int(n)
        self.ambient = self.m * self.n

    def _compress(self, w):
        mat = np.asarray(w, dtype=float).reshape(self.m, self.n)
        return self.U.T @ mat @ self.V

    def _embed(self, h):
        full = np.zeros((self.m, self.n))
        full[:self.p, :self.p] = h
        return (self.U @ full @ self.V.T).ravel()

    def member(self, w, tol):
        slack = tol * max(1.0, float(np.linalg.norm(w)))
        c = self._compress(w)
        off = c.copy()
        off[:self.p, :self.p] = 0.0
        if c.size and float(np.abs(off).max(initial=0.0)) > slack:
            return False
        h = c[:self.p, :self.p]
        if float(np.abs(h - h.T).max(initial=0.0)) > slack:
            return False
        if self.P.shape[1]:
            g = self.P.T @ (0.5 * (h + h.T)) @ self.P
            if float(np.linalg.eigvalsh(0.5 * (g + g.T)).min()) < -slack:
                return False
        return True

    def project(self, w):
        """Exact projection: symmetrize the block, clip the kernel compression."""
        c = self._compress(w)
        h = 0.5 * (c[:self.p, :self.p] + c[:self.p, :self.p].T)
        if self.P.shape[1]:
            g = self.P.T @ h @ self.P
            lam, q = np.linalg.eigh(0.5 * (g + g.T))
            gplus = q @ np.diag(np.clip(lam, 0.0, None)) @ q.T
            h = h + self.P @ (gplus - self.P.T @ h @ self.P) @ self.P.T
        return self._embed(h)

    def residual(self, w):
        return float(np.linalg.norm(np.asarray(w, dtype=float) - self.project(w)))

    def __repr__(self):
        return f"PsdCone(p={self.p}, kernel={self.P.shape[1]}, {self.m}x{self.n})"


def make_psd_embedded(u, v, p, kernel_basis, m, n):
    """PSD-embedded tangent cone; collapses to a subspace when the kernel is 0."""
    kernel_basis = np.asarray(kernel_basis, dtype=float).reshape(p, -1)
    if kernel_basis.shape[1] == 0:
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
        basis = np.stack(cols, axis=1) if cols else np.zeros((m * n, 0))
        return SubspaceCone(Subspace(m * n, basis))
    return PsdCone(u, v, p, kernel_basis, m, n)


class ProductCone(ConeDescription):
    """Product over disjoint coordinate blocks; blocks partition the ambient."""

    def __init__(self, ambient, components):
        # components: list of (index_array, cone over the block coordinates)
        self.ambient = int(ambient)
        self.components = [(np.asarray(ix, dtype=int), cone) for ix, cone in components]
        covered = sorted(i for ix, _ in self.components for i in ix)
        if covered != list(range(self.ambient)):
            raise ValueError("product blocks must partition the ambient dimension")

    def member(self, w, tol):
        w = np.asarray(w, dtype=float)
        return all(cone.member(w[ix], tol) for ix, cone in self.components)

    def residual(self, w):
        w = np.asarray(w, dtype=float)
        return float(np.sqrt(sum(cone.residual(w[ix]) ** 2
                                 for ix, cone in self.components)))


class PreimageCone(ConeDescription):
    """{w : K w in inner}; kept as a node only when no exact push-in exists."""

    def __init__(self, k_matrix, inner):
        self.K = np.asarray(k_matrix, dtype=float)
        self.inner = inner
        self.ambient = self.K.shape[1]

    def member(self, w, tol):
        return self.inner.member(self.K @ np.asarray(w, dtype=float), tol)

    def residual(self, w):
        return self.inner.residual(self.K @ np.asarray(w, dtype=float))


# ---------------------------------------------------------------------------
# structural simplification


def _embed_rows(rows, ix, ambient):
    out = np.zeros((rows.shape[0], ambient))
    out[:, ix] = rows
    return out


def _block_to_polyhedral(cone, ix, ambient, tol):
    """(A, E) rows of a block cone embedded in the ambient space, or None."""
    if isinstance(cone, SubspaceCone):
        comp = cone.subspace.complement()
        return np.zeros((0, ambient)), _embed_rows(comp.basis.T, ix, ambient)
    if isinstance(cone, PolyhedralCone):
        return _embed_rows(cone.A, ix, ambient), _embed_rows(cone.E, ix, ambient)
    if isinstance(cone, SubspacePlusRays) and len(cone.rays) <= 1:
        lin = cone.span
        if not cone.rays:
            comp = lin.complement()
            return np.zeros((0, ambient)), _embed_rows(comp.basis.T, ix, ambient)
        r = cone.rays[0]
        rperp = r - lin.project(r)
        nrm = np.linalg.norm(rperp)
        if nrm <= tol.member:          # ray inside span: block is the span
            comp = lin.complement()
            return np.zeros((0, ambient)), _embed_rows(comp.basis.T, ix, ambient)
        rperp = rperp / nrm
        w = Subspace(lin.ambient_dim,
                     np.hstack([lin.basis, rperp.reshape(-1, 1)]))
        comp = w.complement()
        a = _embed_rows(-rperp.reshape(1, -1), ix, ambient)
        return a, _embed_rows(comp.basis.T, ix, ambient)
    return None


def simplify(cone, tol=DEFAULT_TOL):
    """Flatten products and push preimages inward where this is exact."""
    if isinstance(cone, ProductCone):
        comps = [(ix, simplify(c, tol)) for ix, c in cone.components]
        n = cone.ambient
        if all(isinstance(c, (SubspaceCone, SubspacePlusRays)) for _, c in comps):
            span_cols, rays = [], []
            for ix, c in comps:
                sub = c.subspace if isinstance(c, SubspaceCone) else c.span
                if sub.dim:
                    span_cols.append(_embed_rows(sub.basis.T, ix, n).T)
                if isinstance(c, SubspacePlusRays):
                    for r in c.rays:
                        rr = np.zeros(n)
                        rr[ix] = r
                        rays.append(rr)
            basis = np.hstack(span_cols) if span_cols else np.zeros((n, 0))
            span = Subspace(n, basis)
            if rays:
                return SubspacePlusRays(span, rays)
            return SubspaceCone(span)
        blocks = [_block_to_polyhedral(c, ix, n, tol) for ix, c in comps]
        if all(b is not None for b in blocks):
            a = np.vstack([b[0] for b in blocks])
            e = np.vstack([b[1] for b in blocks])
            return PolyhedralCone(a, e, ambient=n)
        return ProductCone(n, comps)
    if isinstance(cone, PreimageCone):
        inner = simplify(cone.inner, tol)
        k = cone.K
        if k.shape[0] == k.shape[1] and np.allclose(k, np.eye(k.shape[0])):
            return inner
        if isinstance(inner, SubspaceCone):
            comp = inner.subspace.complement()
            if comp.dim == 0:
                return SubspaceCone.full(k.shape[1])
            return SubspaceCone(null_space(comp.basis.T @ k, tol))
        if isinstance(inner, PolyhedralCone):
            return PolyhedralCone(inner.A @ k, inner.E @ k, ambient=k.shape[1])
        return PreimageCone(k, inner)
    if isinstance(cone, SubspacePlusRays) and not cone.rays:
        return SubspaceCone(cone.span)
    return cone


def preimage(k_op, cone, tol=DEFAULT_TOL):
    """Cone {w : K w in C}, eagerly simplified when exact (subspaces, polyhedra)."""
    k = k_op if isinstance(k_op, np.ndarray) else k_op._dense
    if cone.ambient != k.shape[0]:
        raise ValueError("operator rows must match cone ambient dimension")
    return simplify(PreimageCone(k, cone), tol)


def polar_cone(cone, tol=DEFAULT_TOL):
    """Polar {v : <v, w> <= 0 for all w in C}; None when not representable."""
    cone = simplify(cone, tol)
    if isinstance(cone, SubspaceCone):
        return SubspaceCone(cone.subspace.complement())
    if isinstance(cone, SubspacePlusRays):
        a = np.stack(cone.rays, axis=0) if cone.rays else np.zeros((0, cone.ambient))
        return PolyhedralCone(a, cone.span.basis.T, ambient=cone.ambient)
    if isinstance(cone, PolyhedralCone):
        span = Subspace(cone.ambient, cone.E.T)
        rays = [cone.A[i] for i in range(cone.A.shape[0])
                if np.linalg.norm(cone.A[i]) > tol.member]
        if rays:
            return SubspacePlusRays(span, rays)
        return SubspaceCone(span)
    return None


def membership(cone, w, tol):
    """Algebraic membership test at tolerance tol (a Tolerances or a float)."""
    t = tol.member if isinstance(tol, Tolerances) else float(tol)
    return cone.member(np.asarray(w, dtype=float), t)


# ---------------------------------------------------------------------------
# the triviality decision


def _verify_witness(n_sub, cone, w, tol):
    nrm = float(np.linalg.norm(w))
    if nrm <= 0:
        return None
    w = w / nrm
    if n_sub.residual(w) > 10 * tol.member:
        return None
    if not cone.member(w, 10 * tol.member):
        return None
    return w


def _unit_rows(mat, src_norms, tol):
    """Rows of mat at unit norm; rows the map left at roundoff size
    (norm <= tol.rank * the norm of their source row) carry no constraint."""
    nrm = np.linalg.norm(mat, axis=1)
    keep = nrm > tol.rank * src_norms
    return mat[keep] / nrm[keep, None]


def _rays_system(n_sub, k, span, rays, tol):
    """(G, H, d) over z = (xi, s, lam): M xi = S s + R lam, lam >= 0.

    M = N, or K N for a preimage; M is scaled to unit largest column, which
    leaves the cone of directions xi unchanged.  F keeps the xi block.
    """
    m = n_sub.basis if k is None else k @ n_sub.basis
    scale = float(np.linalg.norm(m, axis=0).max(initial=0.0)) or 1.0
    k_norms = 1.0 if k is None else np.linalg.norm(k, axis=1)
    r = np.stack(rays, axis=1)
    s = span.basis
    src = np.sqrt((k_norms / scale) ** 2 + np.sum(s ** 2, axis=1)
                  + np.sum(r ** 2, axis=1))
    h = _unit_rows(np.hstack([m / scale, -s, -r]), src, tol)
    g = np.hstack([np.zeros((r.shape[1], m.shape[1] + s.shape[1])),
                   -np.eye(r.shape[1])])
    return g, h, n_sub.dim


def _decide(n_sub, cone, g, h, d, tol):
    """Decide N cap C = {0} as: is z[:d] zero on all of Q = {G z <= 0, H z = 0}?

    One LP, max sum t over G z + t <= 0, H z = 0, 0 <= t <= 1, gives a
    relative-interior point z* of Q; its implicit equalities are the rows
    with t = 0, and span Q = null([H; G_I]).  F z = z[:d] is nonzero on Q
    exactly when it is nonzero on that span: then z* + eps b, with b the
    span direction F stretches most and its sign chosen so that F z* and
    F b do not cancel, is a witness in Q.  Otherwise the LP duals are the
    certificate.  Both are verified before they are reported.
    """
    m, dz = g.shape
    z_star, implicit = np.zeros(dz), np.zeros(m, dtype=bool)
    mu, beta = np.zeros(m), np.zeros(h.shape[0])
    if m:
        import scipy.optimize
        res = scipy.optimize.linprog(
            np.concatenate([np.zeros(dz), -np.ones(m)]),
            A_ub=np.hstack([g, np.eye(m)]), b_ub=np.zeros(m),
            A_eq=np.hstack([h, np.zeros((h.shape[0], m))]),
            b_eq=np.zeros(h.shape[0]),
            bounds=[(None, None)] * dz + [(0.0, 1.0)] * m, method="highs")
        if res.status != 0:
            return TrivialityVerdict.unknown(f"cone LP failed: {res.message}")
        z_star, implicit = res.x[:dz], res.x[dz:] < 0.5
        mu, beta = np.clip(-res.ineqlin.marginals, 0.0, None), -res.eqlin.marginals
    basis = null_space(np.vstack([h, g[implicit]]), tol).basis
    _, gains, vt = np.linalg.svd(basis[:d], full_matrices=False)
    if gains.size and gains[0] > tol.member:
        b = basis @ vt[0]
        z_c = basis @ (basis.T @ z_star)
        if z_c[:d] @ b[:d] < 0:                   # F z* and F b must not cancel
            b = -b
        # G z* <= -1 off the implicit rows, so this step stays inside Q
        eps = 0.5 / max(float(np.abs(g @ b).max(initial=0.0)), 1e-12)
        w = _verify_witness(n_sub, cone, n_sub.basis @ (z_c + eps * b)[:d], tol)
        if w is None:
            return TrivialityVerdict.unknown("cone witness failed verification")
        return TrivialityVerdict.nontrivial(w)
    low = float(mu[implicit].min(initial=1.0))    # scale to min mu_I = 1
    if low > 0:
        mu, beta = mu / low, beta / low
    cert = DualCertificate(g, h, d, implicit, mu, beta)
    if not cert.verify(tol):
        return TrivialityVerdict.unknown("dual certificate failed verification")
    return TrivialityVerdict.trivial(cert)


def _psd_probe(n_sub, cone, k_mat, inner_psd, tol, seed):
    """Alternating-projection probe for the heuristic-only PSD-degenerate case."""
    rng = np.random.default_rng(seed)
    d = n_sub.dim
    kplus = np.linalg.pinv(k_mat) if k_mat is not None else None
    for _ in range(32):
        xi = rng.standard_normal(d)
        w = n_sub.basis @ (xi / np.linalg.norm(xi))
        for _ in range(500):
            w = n_sub.project(w)
            if k_mat is None:
                w = inner_psd.project(w)
            else:
                y = inner_psd.project(k_mat @ w)
                w = w + kplus @ (y - k_mat @ w)
            if np.linalg.norm(w) < 1e-8:
                break
        nrm = float(np.linalg.norm(w))
        if nrm >= 0.5:
            cand = _verify_witness(n_sub, cone, w, tol)
            if cand is not None:
                return TrivialityVerdict.nontrivial(cand)
    return TrivialityVerdict.unknown("PSD cone, heuristic inconclusive")


def trivial_intersection(n_sub, cone, tol=DEFAULT_TOL, seed=0):
    """Decide N cap C = {0}; returns a verified witness when nontrivial."""
    if n_sub.ambient_dim != cone.ambient:
        raise ValueError("subspace and cone ambient dimensions differ")
    if n_sub.dim == 0:
        return TrivialityVerdict.trivial()
    cone = simplify(cone, tol)

    if isinstance(cone, SubspaceCone):
        inter = intersect_subspaces(n_sub, cone.subspace, tol)
        if inter.dim == 0:
            return TrivialityVerdict.trivial()
        w = _verify_witness(n_sub, cone, inter.basis[:, 0], tol)
        if w is None:
            return TrivialityVerdict.unknown("ill-conditioned subspace intersection")
        return TrivialityVerdict.nontrivial(w)

    if isinstance(cone, SubspacePlusRays):
        return _decide(n_sub, cone,
                       *_rays_system(n_sub, None, cone.span, cone.rays, tol), tol)

    if isinstance(cone, PolyhedralCone):      # z = xi: A N xi <= 0, E N xi = 0
        rows = [_unit_rows(m @ n_sub.basis, np.linalg.norm(m, axis=1), tol)
                for m in (cone.A, cone.E)]
        return _decide(n_sub, cone, *rows, n_sub.dim, tol)

    if isinstance(cone, PsdCone):
        return _psd_probe(n_sub, cone, None, cone, tol, seed)

    if isinstance(cone, PreimageCone):
        inner = cone.inner
        if isinstance(inner, SubspacePlusRays):
            return _decide(n_sub, cone, *_rays_system(
                n_sub, cone.K, inner.span, inner.rays, tol), tol)
        if isinstance(inner, PsdCone):
            return _psd_probe(n_sub, cone, cone.K, inner, tol, seed)
        return TrivialityVerdict.unknown(
            f"no decision procedure for preimage of {type(inner).__name__}")

    return TrivialityVerdict.unknown(
        f"no decision procedure for {type(cone).__name__}")


# ---------------------------------------------------------------------------
# tangent cone of a face restricted to a range


def tangent_with_range_restriction(face, z, k_op, tol=DEFAULT_TOL):
    """Tangent cone of (face cap Im K) at z = K x_bar, or None when unknown.

    Polyhedral faces get the exact construction (Im K orthogonal-complement
    equalities added to the face system before taking active rows); PSD faces
    are supported only when the restriction is vacuous (Im K = Y).
    """
    from .linalg import range_space
    k = k_op if isinstance(k_op, np.ndarray) else k_op._dense
    z = np.asarray(z, dtype=float)
    imk = range_space(k, tol)
    if not face.contains(z, 10 * tol.member):
        raise ValueError("base point is not a member of the face")
    if imk.residual(z) > 10 * tol.member * max(1.0, float(np.linalg.norm(z))):
        raise ValueError("base point is not in the range of K")
    if imk.dim == imk.ambient_dim:
        return face.tangent_at(z, tol)
    system = face.polyhedral_system()
    if system is None:
        return None
    a, c, e, _ = system
    comp = imk.complement()
    e_all = np.vstack([e, comp.basis.T]) if e.shape[0] else comp.basis.T
    scale = max(1.0, float(np.linalg.norm(z)))
    a_act = a[a @ z >= c - 10 * tol.member * scale]
    return PolyhedralCone(a_act, e_all, ambient=face.dim)
