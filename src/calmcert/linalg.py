"""Dense linear algebra kernel: factorizations, numerical rank, subspaces,
and the linear operators Phi and K.

Everything downstream (cones, certificates) reduces to the operations here.
Matrices are plain 2-D float64 ndarrays; subspaces always carry orthonormal
bases so that membership is a single projection residual.  LinearOp, here
so that cones can import it, is the one way in to Phi and K: a function
that also takes a plain matrix coerces it once with as_operator.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class InstanceError(ValueError):
    """Schema or dimension violation; carries the offending field path.
    Tolerances and LinearOp raise it at their field's name (`rank`, `n1`),
    which model.at_field re-raises at its path (`tol.rank`, `--tol-rank`)."""

    def __init__(self, path, message):
        self.path, self.message = path, message
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across the package.

    rank:   a singular value at most rank * sigma_max is zero (nonzero)
    member: set-membership slack (within, beyond, dual_ball)
    kkt:    optimality residual target
    """

    rank: float = 1e-9
    member: float = 1e-7
    kkt: float = 1e-10

    @property
    def derived_member(self):
        """The membership slack of a point the computation derived (K x_bar
        on its face, a witness in its cone, a face's base point): 10 * member,
        since such a point carries the errors of the steps that made it.
        Derived from member, not a field: no caller sets it."""
        return 10 * self.member

    @property
    def derived_rank(self):
        """The rank cut of a vector the computation derived (a cone witness
        in Ker M): 10 * rank, derived as derived_member is."""
        return 10 * self.rank

    def __post_init__(self):
        for name in ("rank", "member", "kkt"):
            v = getattr(self, name)
            if not (v > 0.0 and np.isfinite(v)):
                raise InstanceError(name, "must be strictly positive and finite")
        if self.rank >= 1.0:
            raise InstanceError("rank", "must be < 1")


DEFAULT_TOL = Tolerances()


# ---------------------------------------------------------------------------
# the tolerance rules: every comparison of the package with tol.member,
# tol.derived_member or tol.rank goes through one of three rules, membership
# (member_slack, within, beyond), rank (nonzero, rank_count) and the dual
# ball (dual_ball)


def member_slack(slack, scale=0.0):
    """slack * max(1, scale): the membership slack at a point of norm scale,
    absolute up to unit scale.  An array of scales (one per row of a stack)
    gives one slack per row, an array of slacks one per slack."""
    if np.ndim(scale):
        return slack * np.maximum(1.0, scale)
    return slack * max(1.0, float(scale))


def within(value, slack, scale=0.0):
    """Membership: value <= member_slack(slack, scale), entry by entry.
    A NaN value is not within."""
    return value <= member_slack(slack, scale)


def beyond(value, slack, scale=0.0):
    """value > member_slack(slack, scale), entry by entry.  A NaN value is
    not beyond either, so this is not `not within`."""
    return value > member_slack(slack, scale)


def nonzero(values, rank, *scales):
    """Rank: a value is zero when at most rank times its scale, the factors
    multiplied in the order given; True on the values above that (not on
    NaN), entry by entry."""
    bound = rank
    for factor in scales:
        bound = bound * factor
    return values > bound


def rank_count(s, rank, *scales):
    """The number of singular values s that nonzero keeps."""
    return int(np.sum(nonzero(s, rank, *scales)))


def dual_ball(ratio, member):
    """(outside, boundary) for ratios ||y_J|| / w or sigma_i / w of a
    multiplier to the dual ball's radius: above 1 + member it is outside
    (the multiplier is rejected), at least 1 - member on the boundary."""
    return ratio > 1.0 + member, ratio >= 1.0 - member


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
    """Linear subspace of R^n stored as an orthonormal basis (n x k): the
    SVD basis of the given columns at DEFAULT_TOL.rank (_orth_columns), or
    one orthonormal by construction (_orthonormal)."""

    def __init__(self, ambient_dim, basis=None):
        self.ambient_dim = int(ambient_dim)
        if basis is None:
            basis = np.zeros((self.ambient_dim, 0))
        basis = np.asarray(basis, dtype=float)
        if basis.ndim == 1:
            basis = basis.reshape(-1, 1)
        if basis.shape[0] != self.ambient_dim:
            raise ValueError("basis rows do not match ambient dimension")
        self.basis = _orth_columns(basis, DEFAULT_TOL.rank)

    @classmethod
    def _orthonormal(cls, basis):
        """Subspace over a basis orthonormal by construction (unfactored)."""
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
        return within(self.residual(w), tol, np.linalg.norm(w))

    def complement(self):
        """Orthogonal complement: the null space of the basis's transpose."""
        return null_space(self.basis.T)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def _orth_columns(a, tol_rank):
    """Orthonormal basis of the column space of a at relative rank tolerance."""
    if a.size == 0:
        return np.zeros((a.shape[0], 0))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, :rank_count(s, tol_rank, s[0])]     # none when s[0] is 0


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
    return Subspace._orthonormal(vt[rank_count(s, tol.rank, smax):].T)


def range_space(a, tol=DEFAULT_TOL):
    """Orthonormal basis of the column space at the relative rank tolerance."""
    a = _as_matrix(a)
    return Subspace._orthonormal(_orth_columns(a, tol.rank))


# ---------------------------------------------------------------------------
# linear operators


class LinearOp:
    """Linear operator given as dense | identity | grad1d | grad2d.

    grad1d(n) is the (n-1) x n map x -> (x_1 - x_2, ..., x_{n-1} - x_n).
    grad2d(n1, n2) maps an n1 x n2 image (row-major vector) to the stacked
    forward differences: all vertical entries (x_{i+1,j} - x_{i,j}, zero in
    the last row) first, then all horizontal ones (x_{i,j+1} - x_{i,j}, zero
    in the last column), each block row-major over (i, j).

    An operator is immutable: its entries are a private read-only array, so
    its norm, identity test, range and singular values are computed once.
    K.adjoint is K^T, a read-only view tied to K that reads its norm off K.
    `matrix` serves the decisions that must factor or stack the entries;
    each caller outside this module says why.
    """

    def __init__(self, kind, **params):
        self.kind = kind
        self.params = params
        self._dense = frozen(self._entries())
        self.shape = self._dense.shape
        self.rows, self.cols = self.shape
        self._ranges = {}

    @classmethod
    def dense(cls, matrix):
        return cls("dense", matrix=np.asarray(matrix, dtype=float))

    @classmethod
    def identity(cls, dim):
        return cls("identity", dim=int(dim))

    @classmethod
    def grad1d(cls, n):
        return cls("grad1d", n=int(n))

    @classmethod
    def grad2d(cls, n1, n2):
        return cls("grad2d", n1=int(n1), n2=int(n2))

    def _entries(self):
        if self.kind == "adjoint":
            return self.params["of"]._dense.T
        if self.kind == "dense":
            m = np.array(self.params["matrix"], dtype=float)
            if m.ndim != 2:
                raise ValueError("dense operator must be 2-D")
            if not np.all(np.isfinite(m)):
                raise ValueError("dense operator has non-finite entries")
            return m
        if self.kind == "identity":
            return np.eye(self.params["dim"])
        if self.kind == "grad1d":
            n = self.params["n"]
            if n < 2:
                raise InstanceError("n", "grad1d requires n >= 2")
            return np.eye(n - 1, n) - np.eye(n - 1, n, 1)
        if self.kind == "grad2d":
            n1, n2 = self.params["n1"], self.params["n2"]
            if n1 < 1 or n2 < 1:
                raise InstanceError("n1" if n1 < 1 else "n2",
                                    "grad2d requires n1, n2 >= 1")
            m = np.zeros((2 * n1 * n2, n1 * n2))
            idx = np.arange(n1 * n2).reshape(n1, n2)     # pixel (i, j)
            down = idx[:-1].ravel()             # i < n1 - 1: its vertical row
            m[down, down + n2] = 1.0
            m[down, down] = -1.0
            right = idx[:, :-1].ravel()         # j < n2 - 1: its horizontal row
            m[n1 * n2 + right, right + 1] = 1.0
            m[n1 * n2 + right, right] = -1.0
            return m
        raise ValueError(f"unknown operator kind {self.kind!r}")

    @property
    def matrix(self):
        """The entries as a read-only dense array, shared, not copied."""
        return self._dense

    @cached_property
    def is_identity(self):
        # a unit diagonal and no other nonzero entry, read in place: no
        # n x n identity is built to compare with
        if self.kind == "identity":
            return True
        d = self._dense
        return self.rows == self.cols and bool(np.all(np.diagonal(d) == 1.0)) \
            and int(np.count_nonzero(d)) == self.rows

    def apply(self, x):
        if self.is_identity:            # a copy costs less than I @ x
            return np.array(x, dtype=float)
        return self._dense @ np.asarray(x, dtype=float)

    def apply_adjoint(self, y):
        if self.is_identity:
            return np.array(y, dtype=float)
        return self._dense.T @ np.asarray(y, dtype=float)

    def columns(self, idx):
        """The columns idx as a new array (A_idx)."""
        return self._dense[:, idx]

    def op_norm(self):
        return self._op_norm

    @cached_property
    def adjoint(self):
        """K^T as an operator; K = I is its own."""
        return self if self.is_identity else LinearOp("adjoint", of=self)

    def gram(self):
        """A^T A, computed once per operator and read-only."""
        return self._gram

    def range_space(self, tol=DEFAULT_TOL):
        """Im K as a Subspace at tol.rank, factored once per rank tolerance."""
        if tol.rank not in self._ranges:
            self._ranges[tol.rank] = range_space(self._dense, tol)
        return self._ranges[tol.rank]

    def singular_values(self):
        """The singular values, nonincreasing, computed once and read-only."""
        return self._singular_values

    @cached_property
    def nonzero_rows(self):
        """The mask of the rows with a nonzero entry, read-only."""
        return frozen(np.any(self._dense != 0.0, axis=1))

    @cached_property
    def _gram(self):
        return frozen(self._dense.T @ self._dense)

    @cached_property
    def _singular_values(self):
        return frozen(np.linalg.svd(self._dense, compute_uv=False))

    @cached_property
    def _op_norm(self):
        if self.kind == "adjoint":                  # ||K^T|| = ||K||
            return self.params["of"].op_norm()
        if self.kind in ("grad1d", "grad2d"):
            # K^T K is the Laplacian of a path of n nodes (grad1d) or the
            # Kronecker sum of two (grad2d); a path's largest eigenvalue is
            # 4 sin^2(pi (n - 1) / (2 n)), 0 for a single node
            sides = (self.params["n"],) if self.kind == "grad1d" \
                else (self.params["n1"], self.params["n2"])
            return float(np.sqrt(sum(4.0 * np.sin(np.pi * (n - 1) / (2 * n)) ** 2
                                     for n in sides)))
        m = self._dense
        if m.size == 0:
            return 0.0
        if self.is_identity:
            return 1.0
        return spectral_norm(m, self.gram() if m.shape[0] > m.shape[1] else None)

    def to_json_dict(self):
        if self.kind in ("dense", "adjoint"):
            return _matrix_json(self._dense)
        return {"kind": self.kind, **self.params}     # identity, grad1d, grad2d

    def __repr__(self):
        return f"LinearOp({self.kind}, shape={self.shape})"


def as_operator(m):
    """m as a LinearOp: m itself, or LinearOp.dense of a matrix."""
    return m if isinstance(m, LinearOp) else LinearOp.dense(m)


def _matrix_header(matrix):
    """The JSON form of a dense matrix without its entries."""
    return {"kind": "dense", "rows": matrix.shape[0], "cols": matrix.shape[1]}


def _matrix_json(matrix):
    """The JSON form of a dense matrix: its header and row-major entries."""
    matrix = np.asarray(matrix, dtype=float)
    return {**_matrix_header(matrix), "entries": matrix.ravel().tolist()}
