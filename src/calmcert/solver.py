"""High-accuracy primal-dual solver for min 1/(2 mu)||Phi x - b||^2 + g(K x).

K = identity: FISTA with gradient-based adaptive restart.
General K:    primal-dual splitting (gradient step on the smooth quadratic,
              proximal step on the dual of g), steps fixed from operator
              norms so that tau * (L_f / 2 + sigma ||K||^2) < 1.

Convergence is declared on the KKT residuals, not on iterate increments:
stationarity ||(1/mu) Phi^T(Phi x - b) + K^T y|| and the subgradient graph
residual ||K x - prox_g(K x + y)||, both relative to scale = 1 + ||b||.
"""

from dataclasses import dataclass

import numpy as np

from . import regularizers as rz
from .model import SolutionPair


class SolverError(RuntimeError):
    """Non-convergence; carries the best iterate found."""

    def __init__(self, message, pair):
        super().__init__(message)
        self.pair = pair


@dataclass
class SolverConfig:
    max_iter: int = 200000
    tol_kkt: float = 1e-10
    restart: bool = True
    check_every: int = 25

    def __post_init__(self):
        if not self.tol_kkt > 0:
            raise ValueError("tol_kkt must be positive")


def objective(instance, x):
    return instance.smooth_value(x) + rz.value(instance.reg, instance.k.apply(x))


def kkt_residual(instance, x, y):
    """{'stationarity', 'graph'}: zero exactly at primal-dual solutions."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    kx = instance.k.apply(x)
    stat = instance.smooth_grad(x) + instance.k.apply_adjoint(y)
    graph = kx - rz.prox(instance.reg, 1.0, kx + y)
    return {"stationarity": float(np.linalg.norm(stat)),
            "graph": float(np.linalg.norm(graph))}


def _dual_feasibility(reg, y):
    """Violation of the dual-norm bound (0 for feasible multipliers)."""
    y = np.asarray(y, dtype=float)
    if reg.kind == "group_lasso":
        return max(0.0, float(rz.group_norms(reg, y).max(initial=0.0)) - reg.weight)
    if reg.kind == "nuclear":
        s = np.linalg.svd(y.reshape(reg.m, reg.n), compute_uv=False)
        return max(0.0, float(s[0]) - reg.weight) if s.size else 0.0
    return 0.0


def _gap_proxy(reg, kx, y):
    """Fenchel-Young gap g(Kx) + g*(y) - <y, Kx> restricted to finite g*."""
    gval = rz.value(reg, kx)
    if not np.isfinite(gval):
        return np.inf
    if reg.kind == "polyhedral_indicator":
        # g* is the support function; evaluate it at y via the face LP value
        try:
            face = rz.PolyhedralFace(reg, y, rz.DEFAULT_TOL)
            gstar = face.support
        except ValueError:
            return np.inf
        return abs(gstar - float(np.dot(y, kx)))
    return abs(gval - float(np.dot(y, kx)))


def _make_pair(instance, x, y, iters):
    v = instance.v_of(x)
    res = kkt_residual(instance, x, y)
    return SolutionPair(
        x_bar=np.asarray(x, dtype=float),
        y_bar=np.asarray(y, dtype=float),
        v_bar=v,
        residuals={"stationarity": res["stationarity"],
                   "dual_feas": _dual_feasibility(instance.reg, y),
                   "gap_proxy": _gap_proxy(instance.reg, instance.k.apply(x), y)},
        iterations=iters,
    )


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
    for it in range(1, cfg.max_iter + 1):
        grad = instance.smooth_grad(z)
        x_new = rz.prox(reg, step, z - step * grad)
        if cfg.restart and float(np.dot(z - x_new, x_new - x)) > 0.0:
            theta = 1.0
            z = x_new.copy()
        else:
            theta_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
            z = x_new + (theta - 1.0) / theta_new * (x_new - x)
            theta = theta_new
        x = x_new
        if it % cfg.check_every == 0 or it == cfg.max_iter:
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
        f"no convergence after {cfg.max_iter} iterations "
        f"(residuals {kkt_residual(instance, best_x, y)})",
        _make_pair(instance, best_x, y, cfg.max_iter))


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
    for it in range(1, cfg.max_iter + 1):
        x_new = x - tau * (instance.smooth_grad(x) + instance.k.apply_adjoint(y))
        u = y + sigma * instance.k.apply(2.0 * x_new - x)
        y = u - sigma * rz.prox(reg, 1.0 / sigma, u / sigma)
        x = x_new
        if it % cfg.check_every == 0 or it == cfg.max_iter:
            res = kkt_residual(instance, x, y)
            if max(res["stationarity"], res["graph"]) <= cfg.tol_kkt * scale:
                return _make_pair(instance, x, y, it)
    raise SolverError(
        f"no convergence after {cfg.max_iter} iterations "
        f"(residuals {kkt_residual(instance, x, y)})",
        _make_pair(instance, x, y, cfg.max_iter))


def solve(instance, cfg=None, x0=None, y0=None):
    """Solve P(b, mu) to KKT residuals <= tol_kkt * (1 + ||b||)."""
    cfg = cfg or SolverConfig()
    if x0 is None:
        x0 = np.zeros(instance.dim_x)
    if instance.k.is_identity:
        return _fista(instance, cfg, x0)
    if y0 is None:
        y0 = np.zeros(instance.dim_y)
    return _splitting(instance, cfg, x0, y0)


def solve_perturbed(instance, db, dmu, warm, cfg=None):
    """Solve P(b + db, mu + dmu) warm-started at a known solution pair."""
    if instance.mu + dmu <= 0:
        raise ValueError("perturbed mu must stay positive")
    db = np.zeros(len(instance.b)) if db is None else np.asarray(db, dtype=float)
    pert = instance.perturbed(db, dmu)
    cfg = cfg or SolverConfig()
    if float(np.linalg.norm(db)) == 0.0 and dmu == 0.0:
        res = kkt_residual(pert, warm.x_bar, warm.y_bar)
        scale = 1.0 + float(np.linalg.norm(pert.b))
        if max(res.values()) <= cfg.tol_kkt * scale:
            return _make_pair(pert, warm.x_bar, warm.y_bar, 0)
    return solve(pert, cfg, x0=warm.x_bar, y0=warm.y_bar)
