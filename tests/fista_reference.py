"""FISTA without the Newton finish, kept verbatim as the test reference for
`calmcert.solver._fista`.

`lasso` restates the K = I Lasso draws of the benchmark's certify workload
(m = n/2 Gaussian rows, a few active columns or groups, optionally one of
them duplicated), so that the solver tests run on the same instances.
"""

import numpy as np

from calmcert import regularizers as rz
from calmcert import solver
from calmcert.solver import SolverError, _make_pair, kkt_residual


def objective(instance, x):
    """1/(2 mu) ||Phi x - b||^2 + g(K x)."""
    r = instance.phi.apply(x) - instance.b
    return float(r @ r) / (2.0 * instance.mu) \
        + rz.value(instance.reg, instance.k.apply(x))


def _fista(instance, cfg, x0):
    """FISTA for K = identity; the multiplier is y = v(x) at convergence."""
    reg = instance.reg
    lsmooth = instance.phi.op_norm() ** 2 / instance.mu
    step = 1.0 if lsmooth == 0.0 else 1.0 / lsmooth
    scale = 1.0 + float(np.linalg.norm(instance.b))
    x = np.asarray(x0, dtype=float).copy()
    z = x.copy()
    theta = 1.0
    best_obj = objective(instance, x)
    best_x = x.copy()
    for it in range(1, solver.MAX_ITER + 1):
        grad = instance.smooth_grad(z)
        x_new = rz.prox(reg, step, z - step * grad)
        if float(np.dot(z - x_new, x_new - x)) > 0.0:
            theta = 1.0
            z = x_new.copy()
        else:
            theta_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
            z = x_new + (theta - 1.0) / theta_new * (x_new - x)
            theta = theta_new
        x = x_new
        if it % solver.CHECK_EVERY == 0 or it == solver.MAX_ITER:
            obj = objective(instance, x)
            if obj < best_obj:
                best_obj = obj
                best_x = x.copy()
            y = instance.v_of(x)
            res = kkt_residual(instance, x, y)
            if max(res["stationarity"], res["graph"]) <= cfg.tol_kkt * scale:
                return _make_pair(instance, x, y, it)
    y = instance.v_of(best_x)
    raise SolverError(
        f"no convergence after {solver.MAX_ITER} iterations "
        f"(residuals {kkt_residual(instance, best_x, y)})",
        _make_pair(instance, best_x, y, solver.MAX_ITER))


def lasso(rng, n, grouped=False, dup=False):
    """K = I Lasso (singleton groups) or group Lasso (groups of 4), m = n/2.

    dup=True copies an active column or group onto an inactive one and
    doubles its coefficients: the data then admit a segment of solutions.
    """
    m = n // 2
    size = 4 if grouped else 1
    ngroups = n // size
    groups = [list(range(g * size, (g + 1) * size)) for g in range(ngroups)]
    phi = rng.standard_normal((m, n)) / np.sqrt(m)
    active = rng.choice(ngroups, size=max(2, ngroups // 15), replace=False)
    x0 = np.zeros(n)
    for g in active:
        x0[groups[g]] = rng.choice([-1.0, 1.0], size=size) * \
            rng.uniform(1.0, 2.0, size=size)
    if dup:
        src = int(active[0])
        dst = int(rng.choice([g for g in range(ngroups) if g not in active]))
        phi[:, groups[dst]] = phi[:, groups[src]]
        x0[groups[src]] *= 2.0
    b = phi @ x0 + 0.01 * rng.standard_normal(m)
    weight = 0.1 * float(np.max(np.abs(phi.T @ b)))
    return {"phi": {"kind": "dense", "rows": m, "cols": n,
                    "entries": phi.ravel().tolist()},
            "b": b.tolist(), "mu": 1.0, "k": {"kind": "identity", "dim": n},
            "reg": {"kind": "group_lasso", "dim": n, "groups": groups,
                    "weight": weight}}
