"""Dense linear algebra kernel: factorizations, numerical rank, subspaces.

Everything downstream (cones, certificates) reduces to the operations here.
Matrices are plain 2-D float64 ndarrays; subspaces always carry orthonormal
bases so that membership is a single projection residual.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across the package.

    rank:   singular values below rank * sigma_max are treated as zero
    orth:   orthogonality / symmetry slack
    member: set-membership slack (boundary classification)
    kkt:    optimality residual target
    """

    rank: float = 1e-9
    orth: float = 1e-8
    member: float = 1e-7
    kkt: float = 1e-10

    @property
    def derived_member(self):
        """The membership slack of a point the computation derived (K x_bar
        on its face, a witness in its cone, a face's base point): 10 * member,
        since such a point carries the errors of the steps that made it.
        Derived from member, not a field: no caller sets it."""
        return 10 * self.member

    def __post_init__(self):
        for name in ("rank", "orth", "member", "kkt"):
            v = getattr(self, name)
            if not (v > 0.0 and np.isfinite(v)):
                raise ValueError(f"tolerance {name!r} must be strictly positive")
        if self.rank >= 1.0:
            raise ValueError("tolerance 'rank' must be < 1")


DEFAULT_TOL = Tolerances()


def frozen(array):
    """Mark a cached array read-only, so no caller can edit the shared copy."""
    array.flags.writeable = False
    return array


def _as_matrix(a):
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


class Subspace:
    """Linear subspace of R^n stored as an orthonormal basis (n x k)."""

    def __init__(self, ambient_dim, basis=None):
        self.ambient_dim = int(ambient_dim)
        if basis is None:
            basis = np.zeros((self.ambient_dim, 0))
        basis = np.asarray(basis, dtype=float)
        if basis.ndim == 1:
            basis = basis.reshape(-1, 1)
        if basis.shape[0] != self.ambient_dim:
            raise ValueError("basis rows do not match ambient dimension")
        self.basis = _reorthonormalize(basis)

    @classmethod
    def _orthonormal(cls, basis):
        """Subspace over a basis that is orthonormal by construction (no QR)."""
        sub = cls.__new__(cls)
        sub.ambient_dim = basis.shape[0]
        sub.basis = basis
        return sub

    @property
    def dim(self):
        return self.basis.shape[1]

    @classmethod
    def full(cls, n):
        return cls._orthonormal(np.eye(n))

    @classmethod
    def zero(cls, n):
        return cls._orthonormal(np.zeros((n, 0)))

    def project(self, w):
        w = np.asarray(w, dtype=float)
        return self.basis @ (self.basis.T @ w)

    def residual(self, w):
        w = np.asarray(w, dtype=float)
        return float(np.linalg.norm(w - self.project(w)))

    def contains(self, w, tol):
        return self.residual(w) <= tol * max(1.0, float(np.linalg.norm(w)))

    def complement(self):
        """Orthogonal complement as a Subspace."""
        n = self.ambient_dim
        if self.dim == 0:
            return Subspace.full(n)
        if self.dim == n:
            return Subspace.zero(n)
        q, _ = np.linalg.qr(self.basis, mode="complete")
        return Subspace._orthonormal(q[:, self.dim:])

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def _reorthonormalize(basis):
    """QR re-orthonormalization; drops numerically dependent columns."""
    if basis.shape[1] == 0:
        return basis
    q, r = np.linalg.qr(basis)
    keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, np.abs(np.diag(r)).max())
    return q[:, keep]


def _orth_columns(a, tol_rank):
    """Orthonormal basis of the column space of a at relative rank tolerance."""
    if a.size == 0:
        return np.zeros((a.shape[0], 0))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[0], 0))
    r = int(np.sum(s > tol_rank * s[0]))
    return u[:, :r]


def row_dots(a, b):
    """<a, b> over the last axis, broadcast over the others: a @ b for two
    vectors, and for a stack of rows bit for bit what a_i @ b_i gives on
    each row (a matrix-vector product sums in another order)."""
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def row_norms(a):
    """||a|| over the last axis, bit for bit np.linalg.norm of each row."""
    return np.sqrt(row_dots(a, a))


def spectral_norm(a, gram=None):
    """||A||_2 from the smaller Gram matrix: sqrt of the largest eigenvalue of
    A A^T when A has no more rows than columns, else of A^T A (pass `gram`
    when it is already at hand).  An empty matrix has norm 0."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    if a.shape[0] <= a.shape[1]:
        gram = a @ a.T
    elif gram is None:
        gram = a.T @ a
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))


def null_space(a, tol=DEFAULT_TOL):
    """Orthonormal basis of {w : ||A w|| <= rank_tol * sigma_max * ||w||}.

    The economy V of a matrix with at least as many rows as columns is
    already square, so the full factorization is taken only for wide A.
    """
    a = _as_matrix(a)
    n = a.shape[1]
    if a.size == 0:
        return Subspace.full(n)
    _, s, vt = np.linalg.svd(a, full_matrices=a.shape[0] < n)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return Subspace.full(n)
    r = int(np.sum(s > tol.rank * smax))
    return Subspace._orthonormal(vt[r:].T)


def range_space(a, tol=DEFAULT_TOL):
    """Orthonormal basis of the column space at the relative rank tolerance."""
    a = _as_matrix(a)
    return Subspace._orthonormal(_orth_columns(a, tol.rank))
