"""Seeded K != I instances for the solution-map and primal-dual certificates.

`corpus_doc(seed)` is an instance JSON document, deterministic in the seed.
The seed picks, in turn, the analysis operator K, the regularizer and
whether Phi has a duplicated column:

  K:   a tall Gaussian matrix, [D; 0], [I; D], [I; I] or grad1d, with D
       diagonal (entries of either sign)
  g:   l1, groups {i, i + d/2} pairing the two halves of Y = R^d (the
       groups [I; I] maps one coordinate of x into twice), or the nuclear
       norm of a 2 x 3 matrix

Phi has fewer rows than columns on most draws, so Ker Phi is nontrivial,
and a duplicated column pushes the data along it, so that Ker Phi meets
the tangent cone on a share of the draws.
"""

import numpy as np

K_KINDS = ("tall", "diag_zero", "identity_diag", "identity_identity", "grad1d")
REG_KINDS = ("l1", "pairs", "nuclear")


def dense_doc(mat):
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    return {"kind": "dense", "rows": mat.shape[0], "cols": mat.shape[1],
            "entries": [float(v) for v in mat.ravel()]}


def _diag(rng, n):
    return np.diag(rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 2.0, size=n))


def _operator(rng, kind, reg_kind):
    """(K as a JSON document, K as a matrix): d x n, d even unless l1."""
    d_fixed = 6 if reg_kind == "nuclear" else None
    if kind == "grad1d":
        n = 7 if d_fixed else int(rng.choice([3, 5]))
        k = np.eye(n - 1, n) - np.eye(n - 1, n, 1)
        return {"kind": "grad1d", "n": n}, k
    if kind in ("identity_diag", "identity_identity"):
        n = 3 if d_fixed else int(rng.integers(2, 4))
        lower = _diag(rng, n) if kind == "identity_diag" else np.eye(n)
        k = np.vstack([np.eye(n), lower])
    elif kind == "diag_zero":
        n = 3 if d_fixed else int(rng.integers(2, 4))
        k = np.vstack([_diag(rng, n), np.zeros((d_fixed - n if d_fixed else n, n))])
    else:
        n = int(rng.integers(2, 5))
        d = d_fixed or 2 * int(rng.integers(n // 2 + 1, n + 1))
        k = rng.standard_normal((d, n))
    return dense_doc(k), k


def corpus_doc(seed):
    rng = np.random.default_rng(seed)
    k_kind = K_KINDS[seed % len(K_KINDS)]
    reg_kind = REG_KINDS[(seed // len(K_KINDS)) % len(REG_KINDS)]
    k_doc, k = _operator(rng, k_kind, reg_kind)
    d, n = k.shape
    m = int(rng.integers(1, n + 1))
    phi = rng.standard_normal((m, n))
    b = 2.0 * rng.standard_normal(m)
    if (seed // 15) % 2:                          # a duplicated column
        i, j = rng.choice(n, size=2, replace=False)
        phi[:, j] = phi[:, i]
        b = b + float(rng.uniform(2.0, 4.0)) * phi[:, i]
    if reg_kind == "nuclear":
        reg = {"kind": "nuclear", "m": 2, "n": 3}
    elif reg_kind == "pairs" and d % 2 == 0:
        reg = {"kind": "group_lasso", "dim": d,
               "groups": [[i, i + d // 2] for i in range(d // 2)]}
    else:
        reg = {"kind": "group_lasso", "dim": d, "groups": [[i] for i in range(d)]}
    # below max |Phi^T b| / ||K||, so that x_bar = 0 is not the rule
    scale = float(np.abs(phi.T @ b).max()) / float(np.linalg.norm(k, 2))
    reg["weight"] = float(rng.uniform(0.05, 1.0)) * scale
    return {"phi": dense_doc(phi), "b": [float(v) for v in b],
            "mu": float(rng.uniform(0.5, 2.0)), "k": k_doc, "reg": reg}
