"""The two-step kernel decision the one-system decision replaced, kept
verbatim as the test reference.

Step one forms N = Ker M as a Subspace (`null_space`, threshold
tol.rank * sigma_max(M)); step two is the old `trivial_intersection(N, C)`:
principal angles for a subspace cone (`intersect_subspaces`), and an LP
over kernel coordinates xi (F z = z[:d]) for ray, polyhedral and preimage
cones.  `ref_trivial_intersection(m, cone)` runs both steps; the PSD
branches are left out, since the PSD probe was not replaced.

`kernel_op(n_sub)` is the operator the new decision takes for a subspace N
given by its basis: the rows of an orthonormal basis of its complement.

The old decision branched on a separate subspace-cone class, and pushed
preimages inward with `simplify`; both are kept here as it had them, the
class as the no-ray `SubspacePlusRays` that replaced it.
"""

from dataclasses import dataclass

import numpy as np

from calmcert.cones import (PolyhedralCone, PreimageCone, SubspacePlusRays,
                            TrivialityVerdict)
from calmcert.linalg import DEFAULT_TOL, Subspace, nonzero, null_space


class SubspaceCone(SubspacePlusRays):
    """span(B), the cone the old decision read by principal angles."""

    def __init__(self, subspace):
        super().__init__(subspace)
        self.subspace = subspace

    @classmethod
    def full(cls, n):
        return cls(Subspace.full(n))


def _pull_back_rows(rows, k, tol):
    """rows @ k without the rows K maps to roundoff size (zero at tol.rank on
    the scale ||row|| ||K||_F): their constraint holds for every w, and their
    direction is noise that a per-row membership slack would not forgive."""
    out = rows @ k
    return out[nonzero(np.linalg.norm(out, axis=1), tol.rank,
                       np.linalg.norm(rows, axis=1), np.linalg.norm(k))]


def simplify(cone, tol=DEFAULT_TOL):
    """Push preimages inward where this is exact."""
    if isinstance(cone, PreimageCone):
        inner = simplify(cone.inner, tol)
        k = cone.K
        if isinstance(inner, SubspaceCone):
            comp = inner.subspace.complement()
            if comp.dim == 0:
                return SubspaceCone.full(k.shape[1])
            return SubspaceCone(null_space(comp.basis.T @ k, tol))
        if isinstance(inner, PolyhedralCone):
            return PolyhedralCone(_pull_back_rows(inner.A, k, tol),
                                  _pull_back_rows(inner.E, k, tol),
                                  ambient=k.shape[1])
        return PreimageCone(k, inner)
    if isinstance(cone, SubspacePlusRays) and not cone.rays:
        return SubspaceCone(cone.span)
    return cone


def kernel_op(n_sub):
    """A matrix whose kernel is N."""
    return n_sub.complement().basis.T


def ref_trivial_intersection(m, cone, tol=DEFAULT_TOL):
    """null_space(M) followed by the old decision."""
    mat = m if isinstance(m, np.ndarray) else m.matrix
    return trivial_intersection(null_space(mat, tol), cone, tol)


def intersect_subspaces(p, q, tol=DEFAULT_TOL):
    """P cap Q from the principal angles between P and Q.

    With S the basis of smaller dimension and T the other, the singular
    values of the residual S - T (T^T S) (n x dim S) are the sines of the
    principal angles (Bjorck & Golub, Math. Comp. 27, 1973), and
    P cap Q = S V[:, sin <= tol.rank].  The threshold is absolute, since the
    sines lie in [0, 1].  The null space of the projector stack
    [I - P P^T; I - Q Q^T] used before kept singular values up to
    tol.rank * sigma_max(stack), with sigma_max in [1, sqrt 2]; the stack's
    singular value for an angle theta is sqrt(2) sin(theta / 2).  When P and
    Q were both R^n the stack was pure roundoff, which that relative
    threshold could read as full rank, returning {0}.
    """
    if p.ambient_dim != q.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    if p.dim == 0 or q.dim == 0:
        return Subspace.zero(p.ambient_dim)
    s, t = (p.basis, q.basis) if p.dim <= q.dim else (q.basis, p.basis)
    _, sines, vt = np.linalg.svd(s - t @ (t.T @ s), full_matrices=False)
    return Subspace._orthonormal(s @ vt[sines <= tol.rank].T)


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

    if isinstance(cone, PreimageCone):
        inner = cone.inner
        if isinstance(inner, SubspacePlusRays):
            return _decide(n_sub, cone, *_rays_system(
                n_sub, cone.K, inner.span, inner.rays, tol), tol)
        return TrivialityVerdict.unknown(
            f"no decision procedure for preimage of {type(inner).__name__}")

    return TrivialityVerdict.unknown(
        f"no decision procedure for {type(cone).__name__}")
