"""Box-indicator instances {|y_i| <= c_i} with a diagonal Phi."""

import numpy as np


def box_document(rng, d, free, clipped):
    """Instance JSON with `clipped` coordinates of x on the boundary of the
    box; free=True zeroes Phi's last column, so that coordinate moves freely
    inside its bounds (a segment of solutions)."""
    c = rng.uniform(0.5, 1.5, size=d)
    scale = rng.uniform(0.5, 1.5, size=d)
    if free:
        scale[-1] = 0.0
    target = c * rng.uniform(0.0, 0.7, size=d)
    out = rng.choice(d - 1, size=clipped, replace=False)
    target[out] = c[out] * rng.uniform(1.5, 2.5, size=clipped)
    target *= rng.choice([-1.0, 1.0], size=d)
    phi = np.diag(scale)[:d - 1] if free else np.diag(scale)
    a = np.vstack([np.eye(d), -np.eye(d)])
    return {"phi": {"kind": "dense", "rows": phi.shape[0], "cols": d,
                    "entries": phi.ravel().tolist()},
            "b": (phi @ target).tolist(), "mu": 1.0,
            "k": {"kind": "identity", "dim": d},
            "reg": {"kind": "polyhedral_indicator",
                    "A": {"kind": "dense", "rows": 2 * d, "cols": d,
                          "entries": a.ravel().tolist()},
                    "c": np.concatenate([c, c]).tolist()}}
