"""The first-order primal-dual splitting without the Newton finish, kept
verbatim as the test reference for `calmcert.solver._splitting`.

`tv_image` and `SLOW_TV` restate the TV denoising draws of the benchmark's
sweep workload (piecewise-constant three-level images plus noise), so that
the solver tests run on the same slow-regime instances.
"""

import numpy as np

from calmcert import regularizers as rz
from calmcert import solver
from calmcert.gallery import tv_groups
from calmcert.solver import SolverError, _make_pair, kkt_residual


def _splitting(instance, cfg, x0, y0):
    """Primal-dual splitting for general K (smooth term by gradient step)."""
    reg = instance.reg
    knorm = instance.k.op_norm()
    lsmooth = instance.phi.op_norm() ** 2 / instance.mu
    if knorm == 0.0:
        tau = 0.99 * (2.0 / lsmooth if lsmooth > 0 else 1.0)
        sigma = 1.0
    else:
        # tau = sigma = s with s^2 ||K||^2 + s L/2 = 0.99
        s = (-lsmooth / 2.0 + np.sqrt(lsmooth ** 2 / 4.0 + 4.0 * 0.99 * knorm ** 2)) \
            / (2.0 * knorm ** 2)
        tau = sigma = s
    scale = 1.0 + float(np.linalg.norm(instance.b))
    x = np.asarray(x0, dtype=float).copy()
    y = np.asarray(y0, dtype=float).copy()
    for it in range(1, solver.MAX_ITER + 1):
        x_new = x - tau * (instance.smooth_grad(x) + instance.k.apply_adjoint(y))
        u = y + sigma * instance.k.apply(2.0 * x_new - x)
        y = u - sigma * rz.prox(reg, 1.0 / sigma, u / sigma)
        x = x_new
        if it % solver.CHECK_EVERY == 0 or it == solver.MAX_ITER:
            res = kkt_residual(instance, x, y)
            if max(res["stationarity"], res["graph"]) <= cfg.tol_kkt * scale:
                return _make_pair(instance, x, y, it)
    raise SolverError(
        f"no convergence after {solver.MAX_ITER} iterations "
        f"(residuals {kkt_residual(instance, x, y)})",
        _make_pair(instance, x, y, solver.MAX_ITER))



def tv_image(rng, n1, n2, noise=0.05, weight=0.1, scale=1.0):
    """TV denoising (Phi = I, K = grad2d) of a noisy three-level image."""
    img = np.zeros((n1, n2))
    ci, cj = int(rng.integers(1, n1)), int(rng.integers(1, n2))
    levels = rng.uniform(-1.0, 1.0, size=3)
    img[:ci, :] = levels[0]
    img[ci:, :cj] = levels[1]
    img[ci:, cj:] = levels[2]
    b = img.ravel() + noise * rng.standard_normal(n1 * n2)
    return {"phi": {"kind": "identity", "dim": n1 * n2},
            "b": [float(v) for v in scale * b], "mu": 1.0,
            "k": {"kind": "grad2d", "n1": n1, "n2": n2},
            "reg": {"kind": "group_lasso", "dim": 2 * n1 * n2,
                    "groups": tv_groups(n1, n2), "weight": float(scale * weight)}}


# slow-regime images of the splitting solver: (size, noise, weight, image
# seed), the image drawn from default_rng([image seed, 11])
SLOW_TV = ((6, 0.02, 0.1, 8), (6, 0.05, 0.1, 8), (8, 0.02, 0.1, 0),
           (8, 0.05, 0.2, 0), (6, 0.02, 0.1, 2), (6, 0.02, 0.1, 3))
