"""The planted nuclear recipe: a 3 x 4 nuclear-norm document whose solution
set is known, either a segment (refuting draws) or one point (transverse
draws).

K = I: weight 1, mu = 1, y_bar = x0 = U V_1^T (p = 3, the compression of x0
on the unit block is the identity), d = U diag(-2, 1, 1) V_1^T with
<y_bar, d> = 0.  Phi's first row is vec(y_bar) and its six other rows are
Gaussian; b = Phi x0 + e_1, so (x0, y_bar) is a KKT pair.
* A refuting draw makes the six rows orthogonal to d: every x0 + t d,
  t in [-1, 1/2], solves the same data (the compression I + t diag(-2, 1, 1)
  is psd exactly there), and the solution map is not isolated calm.
* A transverse draw leaves them Gaussian: seven rows on the six-dimensional
  span of the face meet it in 0 (almost surely), and the solution map is
  isolated calm.

Given an invertible K, the document has Phi K in Phi's place and the
solution K^-1 x0, with the segment K^-1 (x0 + t d) (tilted_k gives the K of
the tests).
"""

import numpy as np

SEGMENT = (-1.0, 0.5)       # the planted t range of a refuting draw


def tilted_k(seed):
    """K = I_12 + 0.3 G, G Gaussian from default_rng(1000 + seed)."""
    return np.eye(12) + 0.3 * np.random.default_rng(1000 + seed) \
        .standard_normal((12, 12))


def planted_nuclear(seed, refute=True, k=None):
    """(doc, x0, d): the instance JSON document of one draw, its planted
    solution and the direction of its segment (None for a transverse
    draw), both in the coordinates of x."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    v = np.linalg.qr(rng.standard_normal((4, 4)))[0][:, :3]
    y_bar = (u @ v.T).ravel()
    d = (u @ np.diag([-2.0, 1.0, 1.0]) @ v.T).ravel()
    rows = [y_bar]
    for _ in range(6):
        r = rng.standard_normal(12)
        rows.append(r - (r @ d) / (d @ d) * d if refute else r)
    phi = np.array(rows)
    b = phi @ y_bar
    b[0] += 1.0
    x0 = y_bar
    k_doc = {"kind": "identity", "dim": 12}
    if k is not None:
        phi = phi @ k
        x0, d = np.linalg.solve(k, x0), np.linalg.solve(k, d)
        k_doc = {"kind": "dense", "rows": 12, "cols": 12,
                 "entries": k.ravel().tolist()}
    doc = {"phi": {"kind": "dense", "rows": 7, "cols": 12,
                   "entries": phi.ravel().tolist()},
           "b": b.tolist(), "mu": 1.0, "k": k_doc,
           "reg": {"kind": "nuclear", "m": 3, "n": 4, "weight": 1.0}}
    return doc, x0, d if refute else None
