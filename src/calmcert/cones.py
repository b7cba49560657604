"""Closed convex cone descriptions and the kernel-intersection decision.

The certificates all reduce to one question: given a subspace N and a
described closed convex cone C, is N cap C = {0}?  Exact answers come from
subspace algebra plus activation-pattern enumeration over ray / inequality
subsets; each 1-dimensional pattern subspace is settled by an exact
membership test, degenerate higher-dimensional patterns fall back to a tiny
LP whose candidate witnesses are re-verified before being reported, and the
embedded-PSD degenerate case uses an alternating-projection probe that can
only answer Nontrivial-with-witness or Unknown.
"""

from dataclasses import dataclass

import numpy as np

# scipy.optimize is imported where an LP or NNLS is solved: it is most of the
# package's import time, and group-Lasso and nuclear solves never need it.

from .linalg import Subspace, Tolerances, DEFAULT_TOL, null_space, intersect_subspaces

PATTERN_CAP = 20          # hard cap on rays / inequality rows, per contract
ENUM_LIMIT = 4096         # subsets enumerated exhaustively below this count


@dataclass
class TrivialityVerdict:
    outcome: str                    # "trivial" | "nontrivial" | "unknown"
    witness: np.ndarray = None      # unit vector, set iff nontrivial
    reason: str = ""

    @classmethod
    def trivial(cls):
        return cls("trivial")

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
        import scipy.optimize
        w = np.asarray(w, dtype=float)
        wp = w - self.span.project(w)
        r = self._ray_matrix()
        if r.shape[1] == 0:
            return float(np.linalg.norm(wp))
        rp = r - self.span.project(r)
        _, res = scipy.optimize.nnls(rp, wp)
        return float(res)

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


def _subsets_by_size(k):
    from itertools import combinations
    for size in range(1, k + 1):
        for combo in combinations(range(k), size):
            yield list(combo)


def _lp_probe_rays(b_map, n_basis, span_basis, ray_matrix, cone, n_sub, tol):
    """Full-pattern LP over {B xi = S s + R lam, lam >= 0, sum lam = 1}.

    Returns (verdict_or_None, trouble_flag); any candidate witness is verified
    by exact membership before being reported.
    """
    import scipy.optimize
    ydim, d = b_map.shape
    ds = span_basis.shape[1]
    k = ray_matrix.shape[1]
    nvar = d + ds + k
    a_eq = np.zeros((ydim + 1, nvar))
    a_eq[:ydim, :d] = b_map
    a_eq[:ydim, d:d + ds] = -span_basis
    a_eq[:ydim, d + ds:] = -ray_matrix
    a_eq[ydim, d + ds:] = 1.0
    b_eq = np.zeros(ydim + 1)
    b_eq[ydim] = 1.0
    big = 1e6
    bounds = [(-big, big)] * (d + ds) + [(0.0, 1.0)] * k
    trouble = False
    for j in range(d):
        for sign in (1.0, -1.0):
            c = np.zeros(nvar)
            c[j] = -sign
            res = scipy.optimize.linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                                         method="highs")
            if res.status == 2:       # infeasible: no pattern point at all
                return None, trouble
            if not res.success:
                trouble = True
                continue
            xi = res.x[:d]
            if np.abs(xi[j]) > 1e-7:
                w = _verify_witness(n_sub, cone, n_basis @ xi, tol)
                if w is not None:
                    return TrivialityVerdict.nontrivial(w), trouble
                trouble = True
    return None, trouble


def _decide_rays(n_sub, cone, b_map, span, rays, tol, side_member=None):
    """Pattern enumeration for N cap (span + cone(rays)) through the map B.

    b_map sends kernel coordinates xi to the carrier space of span/rays;
    side_member tests membership there (defaults to the cone itself, which
    is correct when the carrier space IS the ambient space).
    """
    if side_member is None:
        side_member = cone.member
    d = b_map.shape[1]
    k = len(rays)
    if k > PATTERN_CAP:
        return TrivialityVerdict.unknown(
            f"combinatorial limit: {k} rays exceeds cap {PATTERN_CAP}")
    ray_mat = (np.stack(rays, axis=1) if rays
               else np.zeros((b_map.shape[0], 0)))

    def pattern_subspace(cols):
        w_basis = np.hstack([span.basis] + [ray_mat[:, [i]] for i in cols]) \
            if cols else span.basis
        wsub = Subspace(b_map.shape[0], w_basis)
        comp = wsub.complement()
        if comp.dim == 0:
            return Subspace.full(d)
        return null_space(comp.basis.T @ b_map, tol)

    # empty pattern: exact subspace phase; its candidates are members by
    # construction, so a verification failure is a conditioning problem
    x0 = pattern_subspace([])
    if x0.dim > 0:
        w = _verify_witness(n_sub, cone, n_sub.basis @ x0.basis[:, 0], tol)
        if w is not None:
            return TrivialityVerdict.nontrivial(w)
        return TrivialityVerdict.unknown(
            "ill-conditioned span-pattern intersection")
    # the full pattern bounds every other one: nothing to find when empty
    if k > 0 and pattern_subspace(list(range(k))).dim == 0:
        return TrivialityVerdict.trivial()
    degenerate = 2 ** k > ENUM_LIMIT
    if not degenerate:
        for cols in _subsets_by_size(k):
            xp = pattern_subspace(cols)
            if xp.dim == 0:
                continue
            if xp.dim == 1:
                xi = xp.basis[:, 0]
                for sign in (1.0, -1.0):
                    cand = sign * xi
                    if side_member(b_map @ cand, tol.member):
                        w = _verify_witness(n_sub, cone, n_sub.basis @ cand, tol)
                        if w is not None:
                            return TrivialityVerdict.nontrivial(w)
            else:
                degenerate = True
    if degenerate and k > 0:
        verdict, trouble = _lp_probe_rays(b_map, n_sub.basis, span.basis,
                                          ray_mat, cone, n_sub, tol)
        if verdict is not None:
            return verdict
        if trouble:
            return TrivialityVerdict.unknown("LP probe inconclusive on a "
                                             "degenerate ray pattern")
    return TrivialityVerdict.trivial()


def _decide_polyhedral(n_sub, cone, b_map, a, e, tol):
    """Pattern enumeration for N cap {A w <= 0, E w = 0} through the map B."""
    d = b_map.shape[1]
    ap = a @ b_map
    ep = e @ b_map
    m = ap.shape[0]
    if m > PATTERN_CAP:
        return TrivialityVerdict.unknown(
            f"combinatorial limit: {m} inequality rows exceeds cap {PATTERN_CAP}")

    def tight_subspace(rows):
        stack = np.vstack([ap[rows], ep]) if rows else ep
        if stack.shape[0] == 0:
            return Subspace.full(d)
        return null_space(stack, tol)

    lin = tight_subspace(list(range(m)))
    if lin.dim > 0:
        w = _verify_witness(n_sub, cone, n_sub.basis @ lin.basis[:, 0], tol)
        if w is not None:
            return TrivialityVerdict.nontrivial(w)
        return TrivialityVerdict.unknown(
            "ill-conditioned lineality intersection")
    # the equality-only pattern bounds every other one
    if tight_subspace([]).dim == 0:
        return TrivialityVerdict.trivial()
    degenerate = 2 ** m > ENUM_LIMIT
    if not degenerate:
        dead_masks = []
        for rows in [[]] + list(_subsets_by_size(m)):
            mask = sum(1 << i for i in rows)
            if any(mask & dm == dm for dm in dead_masks):
                continue        # a subset already had a zero intersection
            xp = tight_subspace(rows)
            if xp.dim == 0:
                dead_masks.append(mask)
                continue
            if xp.dim == 1:
                xi = xp.basis[:, 0]
                for sign in (1.0, -1.0):
                    cand = sign * xi
                    if cone.member(b_map @ cand, tol.member):
                        w = _verify_witness(n_sub, cone, n_sub.basis @ cand, tol)
                        if w is not None:
                            return TrivialityVerdict.nontrivial(w)
            else:
                degenerate = True
    if degenerate:
        import scipy.optimize
        trouble = False
        bounds = [(-1.0, 1.0)] * d
        a_ub = ap if ap.shape[0] else None
        b_ub = np.zeros(ap.shape[0]) if ap.shape[0] else None
        a_eq = ep if ep.shape[0] else None
        b_eq = np.zeros(ep.shape[0]) if ep.shape[0] else None
        for j in range(d):
            for sign in (1.0, -1.0):
                c = np.zeros(d)
                c[j] = -sign
                res = scipy.optimize.linprog(c, A_ub=a_ub, b_ub=b_ub,
                                             A_eq=a_eq, b_eq=b_eq,
                                             bounds=bounds, method="highs")
                if not res.success:
                    trouble = True
                    continue
                if np.abs(res.x[j]) > 1e-7:
                    w = _verify_witness(n_sub, cone, n_sub.basis @ res.x, tol)
                    if w is not None:
                        return TrivialityVerdict.nontrivial(w)
                    trouble = True
        if trouble:
            return TrivialityVerdict.unknown("LP probe inconclusive on a "
                                             "degenerate inequality pattern")
    return TrivialityVerdict.trivial()


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
        return _decide_rays(n_sub, cone, n_sub.basis, cone.span, cone.rays, tol)

    if isinstance(cone, PolyhedralCone):
        return _decide_polyhedral(n_sub, cone, n_sub.basis, cone.A, cone.E, tol)

    if isinstance(cone, PsdCone):
        return _psd_probe(n_sub, cone, None, cone, tol, seed)

    if isinstance(cone, PreimageCone):
        inner = cone.inner
        if isinstance(inner, SubspacePlusRays):
            return _decide_rays(n_sub, cone, cone.K @ n_sub.basis,
                                inner.span, inner.rays, tol,
                                side_member=inner.member)
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
    active = []
    for i in range(a.shape[0]):
        if a[i] @ z >= c[i] - 10 * tol.member * scale:
            active.append(i)
    a_act = a[active] if active else np.zeros((0, a.shape[1]))
    return PolyhedralCone(a_act, e_all, ambient=face.dim)
