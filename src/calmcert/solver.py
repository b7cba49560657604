"""High-accuracy primal-dual solver for min 1/(2 mu)||Phi x - b||^2 + g(K x).

First-order steps come from one of two generators, which know nothing of
checks:
K = identity: FISTA with gradient-based adaptive restart.
General K:    primal-dual splitting (gradient step on the smooth quadratic,
              proximal step on the dual of g), steps fixed from operator
              norms so that tau * (L_f / 2 + sigma ||K||^2) < 1.

`solve` holds the one loop that drives them.  It checks the KKT residuals
every CHECK_EVERY iterations and at MAX_ITER; a solve given a start (x0,
and y0 for general K) also checks it at iteration 0, before any first-order
step, while a cold solve starts at zero and checks first at CHECK_EVERY.
For K = I a check reads the multiplier y = v(x).  A solve that reaches
MAX_ITER raises SolverError with its last iterate and the residuals of its
last check.

For a group-Lasso g (l1 and TV included), a check that fails tries a
semismooth Newton finish on
F(x, y) = (grad f(x) + K^T y, K x - prox_g(K x + y)) = 0: steps on the
generalized Jacobian of the group prox, each halved until
max(||stat||, ||graph||) drops.  The first-order steps alone converge only
linearly; under isolated calmness, the property this package certifies, the
Newton steps converge fast locally (Li, Sun & Toh, SIAM J. Optim. 28, 2018;
Hintermueller & Stadler, SIAM J. Sci. Comput. 28, 2006).  A perturbed
problem's solution lies within kappa (||db|| + |dmu|) of the base pair, so a
solve warm-started there usually ends at its start check, with no
first-order iteration.  For K = I the system is reduced exactly to the |A|
unknowns of the active groups A (dx is -graph off A), regularized by
eps = tol.rank ||Phi||^2 / mu so that duplicated columns keep it solvable.
For general K the system is reduced to the n unknowns dx: dy is eliminated
exactly on A, and on the inactive rows Z through K_Z dx - eps dy_Z =
-graph_Z, eps = tol.rank ||K||^2, which leaves the n x n Schur complement
of the (n + |Z|) saddle system, solved and then refined once with the same
matrix (Benzi, Golub & Liesen, Acta Numerica 14, 2005).  A try that
fails leaves the iterate as it was; tries are made at checks 1, 3, 7, 15,
..., the next at 2 * checks + 1, so an instance where Newton cannot win pays
for O(log(checks)) tries.  Nuclear and polyhedral g run the first-order
steps alone.

Convergence is declared on the KKT residuals, not on iterate increments:
stationarity ||(1/mu) Phi^T(Phi x - b) + K^T y|| and the subgradient graph
residual ||K x - prox_g(K x + y)||, both relative to scale = 1 + ||b||.  A
Newton iterate is returned only when it meets that same rule; for K = I the
pair returned is FISTA's (x, v(x)).  SolutionPair.residuals holds the two
residuals the pair was accepted on.  SolutionPair.iterations counts
first-order iterations (0 for a solve that ends at its start check),
newton_steps the Newton steps (linear solves) taken across all tries.
"""

from dataclasses import dataclass

import numpy as np

from . import regularizers as rz
from .model import SolutionPair


class SolverError(RuntimeError):
    """Non-convergence; carries the last iterate and the residuals of its
    check as a SolutionPair."""

    def __init__(self, message, pair):
        super().__init__(message)
        self.pair = pair


MAX_ITER = 200000              # first-order iterations of one solve
CHECK_EVERY = 25               # iterations between two KKT checks


@dataclass
class SolverConfig:
    tol_kkt: float = None           # None: the instance's own tol.kkt

    def __post_init__(self):
        if self.tol_kkt is not None and not self.tol_kkt > 0:
            raise ValueError("tol_kkt must be positive")


def _kkt_vectors(instance, x, y):
    """(stationarity, graph, u = K x + y): the KKT residual vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    kx = instance.k.apply(x)
    u = kx + y
    stat = instance.smooth_grad(x) + instance.k.apply_adjoint(y)
    return stat, kx - rz.prox(instance.reg, 1.0, u), u


def _residuals(stat, graph):
    return {"stationarity": float(np.linalg.norm(stat)),
            "graph": float(np.linalg.norm(graph))}


def kkt_residual(instance, x, y):
    """{'stationarity', 'graph'}: zero exactly at primal-dual solutions."""
    stat, graph, _ = _kkt_vectors(instance, x, y)
    return _residuals(stat, graph)


def kkt_scale(instance):
    """1 + ||b||, the scale of the data that every KKT bound is relative to."""
    return 1.0 + float(np.linalg.norm(instance.b))


def kkt_bound(instance, level=1.0, tol_kkt=None):
    """level * tol_kkt * kkt_scale(instance), the one KKT bound (tol_kkt
    defaults to instance.tol.kkt).

    Level 1 is the bound every pair that enters a verb is accepted at, the
    solver's or one with a user's multiplier, and the default target of
    `solve`; the verbs solve their pairs finer, to pair_config's target.
    10 is the bound of the instability probe's alternate points, and 1e3
    that of the uniqueness oracle's.
    """
    if tol_kkt is None:
        tol_kkt = instance.tol.kkt
    return level * tol_kkt * kkt_scale(instance)


def pair_config(instance):
    """The solver configuration of every verb's pair and of the sweep's
    perturbed solves, min(1e-12, tol.kkt): the sweep's ratios are distances
    from x_bar, and a nuclear solution set is read off the pair's face."""
    return SolverConfig(tol_kkt=min(1e-12, instance.tol.kkt))


def kkt_within(res, bound):
    """Whether every residual of `kkt_residual` is at most bound.

    A NaN residual fails, wherever it sits: `max(res.values()) <= bound`
    would pass {stationarity: 0.1, graph: NaN} and fail the same values in
    the other order.
    """
    return all(r <= bound for r in res.values())


def _make_pair(instance, x, y, iters, newton_steps=0, res=None):
    """The SolutionPair of (x, y), whose residuals are res, the
    kkt_residual(instance, x, y) that the caller accepted it on (computed
    when the caller has none)."""
    if res is None:
        res = kkt_residual(instance, x, y)
    return SolutionPair(
        x_bar=np.asarray(x, dtype=float),
        y_bar=np.asarray(y, dtype=float),
        v_bar=instance.v_of(x),
        residuals=res,
        iterations=iters,
        newton_steps=newton_steps,
    )


def _fista(instance, x):
    """FISTA with gradient-based adaptive restart for K = identity from x:
    yields (x, None) after each step, the multiplier being read at a check
    as y = v(x)."""
    reg = instance.reg
    lsmooth = instance.phi.op_norm() ** 2 / instance.mu
    step = 1.0 if lsmooth == 0.0 else 1.0 / lsmooth
    z = x.copy()
    theta = 1.0
    while True:
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
        yield x, None


# A Newton try gives up after this many steps, and a step after this many
# halvings that do not lower the residual.
_NEWTON_STEPS = 20
_NEWTON_HALVINGS = 8


def _newton_direction(instance, eps, stat, graph, u):
    """(dx, dy) solving the generalized Jacobian system of F at (x, y), K != I.

    The equations are H dx + K^T dy = -stat and (I - D) K dx - D dy = -graph,
    H = Phi^T Phi / mu from the Gram matrix that Phi caches.  On the
    invertible blocks A they give dy_A = M K_A dx + D_A^{-1} graph_A, M the
    |A| x |A| block of prox_jacobian and D_A^{-1} = I + M.  On Z,
    where D = 0, K_Z dx = -graph_Z is regularized to
    K_Z dx - eps dy_Z = -graph_Z, since K_Z loses rank on TV (the cycles of
    the grid graph); so dy_Z = (K_Z dx + graph_Z) / eps.  Both read
    dy = W K dx + q, W = M on A and I / eps on Z, which leaves the n x n
    Schur complement of the saddle system in (dx, dy_Z):
        S dx = (H + K^T W K) dx = -stat - K^T q.
    S is singular exactly when the saddle system is, and np.linalg.solve
    then raises LinAlgError.  The K_Z^T K_Z / eps term makes S about 1 / eps
    times worse conditioned than H, and forming dy_Z divides a cancellation
    by eps, so this dx meets H dx + K^T dy = -stat only to about 1e-7
    relative.  One step of iterative refinement on that residual e, with
    the same S, adds (S^{-1} e, W K S^{-1} e) and restores the accuracy of
    an LU of the saddle system.  When K_Z has no nonzero entry nothing is
    divided by eps, and the step is skipped; a count on the operator's cached
    mask of nonzero rows decides that without copying K_Z.
    """
    k = instance.k.matrix       # the Schur complement K^T W K is formed dense
    a, m = instance.reg.prox_jacobian(u)
    wk = k * (1.0 / eps)                                            # W K
    wk[a] = m @ k[a]
    q = graph / eps
    q[a] = graph[a] + m @ graph[a]
    h = instance.phi.gram() / instance.mu
    s = h + k.T @ wk
    dx = np.linalg.solve(s, -stat - k.T @ q)
    dy = wk @ dx + q
    if instance.k.nonzero_rows.sum() > instance.k.nonzero_rows[a].sum():
        ddx = np.linalg.solve(s, -stat - h @ dx - k.T @ dy)
        dx += ddx
        dy += wk @ ddx
    return dx, dy


def _identity_direction(instance, eps, stat, graph, u):
    """(dx, dy) solving the generalized Jacobian system of F at (x, y), K = I.

    The equations are H dx + dy = -stat and (I - D) dx - D dy = -graph.  On
    Z the prox is zero, so dx_Z = -graph_Z; on A, dy_A = M_A dx_A +
    D_A^{-1} graph_A (M_A prox_jacobian's block, D_A^{-1} = I + M_A) leaves
    one |A| x |A| system
    (Phi_A^T Phi_A / mu + M_A + eps I) dx_A
        = -stat_A - Phi_A^T Phi_Z dx_Z / mu - D_A^{-1} graph_A,
    and dy = -stat - H dx.  Duplicated columns or groups make
    Phi_A^T Phi_A singular; eps > 0 keeps the system solvable.
    """
    phi = instance.phi
    a, m = instance.reg.prox_jacobian(u)
    dx = -graph
    dx[a] = 0.0
    if a.size:
        phi_a = phi.columns(a)
        lhs = phi_a.T @ phi_a / instance.mu + m
        lhs[np.diag_indices(a.size)] += eps
        dinv_graph = graph[a] + m @ graph[a]
        rhs = -stat[a] - phi_a.T @ phi.apply(dx) / instance.mu - dinv_graph
        dx[a] = np.linalg.solve(lhs, rhs)
    dy = -stat - phi.apply_adjoint(phi.apply(dx)) / instance.mu
    return dx, dy


def _newton_finish(instance, x, y, target, kkt=None):
    """Semismooth Newton on F(x, y) = (grad f(x) + K^T y, K x - prox_g(K x + y)).

    Each step halves its length until max(||stat||, ||graph||) drops.  kkt
    is _kkt_vectors(instance, x, y) when the caller has it.  Returns
    (x, y, steps, res), steps the linear solves made and res the
    kkt_residual of the pair returned, with x and res None when the
    residual did not reach target within _NEWTON_STEPS steps, a step found
    no decrease or a Newton system was singular.  The regularization eps
    is tol.rank ||K||^2 for K != I (tol.rank for K = 0) and
    tol.rank ||Phi||^2 / mu for K = I, on the scale of the system it
    regularizes.  For K = I the pair returned is FISTA's (x, v(x)), and only
    when it too meets target.
    """
    if instance.k.is_identity:
        direction = _identity_direction
        eps = instance.tol.rank * instance.phi.op_norm() ** 2 / instance.mu
    else:
        # a zero K has no scale, and none is needed: K_Z has no entry, and
        # graph_Z = -prox(y)_Z = 0 where the prox is flat, so dy_Z = 0 for
        # every eps > 0
        direction = _newton_direction
        eps = instance.tol.rank * (instance.k.op_norm() ** 2 or 1.0)
    stat, graph, u = _kkt_vectors(instance, x, y) if kkt is None else kkt
    res = _residuals(stat, graph)
    merit = max(res.values())
    steps = 0
    while merit > target:
        if steps == _NEWTON_STEPS:
            return None, None, steps, None
        steps += 1
        try:
            dx, dy = direction(instance, eps, stat, graph, u)
        except np.linalg.LinAlgError:
            return None, None, steps, None
        t = 1.0
        for _ in range(_NEWTON_HALVINGS):
            trial = _kkt_vectors(instance, x + t * dx, y + t * dy)
            trial_res = _residuals(trial[0], trial[1])
            trial_merit = max(trial_res.values())
            if trial_merit < merit:
                break
            t /= 2.0
        else:
            return None, None, steps, None
        x, y = x + t * dx, y + t * dy
        stat, graph, u = trial
        res, merit = trial_res, trial_merit
    if instance.k.is_identity:
        y = instance.v_of(x)
        res = kkt_residual(instance, x, y)
        if not kkt_within(res, target):
            return None, None, steps, None
    return x, y, steps, res


def _splitting(instance, x, y):
    """Primal-dual splitting for general K from (x, y), the smooth term by
    gradient step: yields (x, y) after each step."""
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
    while True:
        x_new = x - tau * (instance.smooth_grad(x) + instance.k.apply_adjoint(y))
        u = y + sigma * instance.k.apply(2.0 * x_new - x)
        y = u - sigma * rz.prox(reg, 1.0 / sigma, u / sigma)
        x = x_new
        yield x, y


def solve(instance, cfg=None, x0=None, y0=None):
    """Solve P(b, mu) to KKT residuals <= tol_kkt * (1 + ||b||), tol_kkt
    being cfg's, or the instance's own tol.kkt when cfg sets none.

    One loop drives the first-order steps (FISTA for K = I, splitting
    otherwise).  It checks the KKT residuals every CHECK_EVERY iterations
    and at MAX_ITER, and at iteration 0 when a start x0 is given (with y0,
    or zero; v(x0) when K = I); for K = I the check reads y = v(x).  A
    group-Lasso g gets a Newton try at checks 1, 3, 7, 15, ...: a try that
    fails leaves the iterate as it was, and the next is at 2 * checks + 1.
    A solve that does not converge raises SolverError with its last iterate,
    whose residuals are those of its check at MAX_ITER.
    """
    cfg = cfg or SolverConfig()
    target = kkt_bound(instance, tol_kkt=cfg.tol_kkt)
    newton = hasattr(instance.reg, "prox_jacobian")
    x = np.zeros(instance.dim_x) if x0 is None else np.array(x0, dtype=float)
    y = np.zeros(instance.dim_y) if y0 is None else np.array(y0, dtype=float)
    identity = instance.k.is_identity
    steps = _fista(instance, x) if identity else _splitting(instance, x, y)
    checks, next_try, newton_steps = 0, 1, 0
    for it in range(0 if x0 is not None else 1, MAX_ITER + 1):
        if it:
            x, y = next(steps)
        if it % CHECK_EVERY and it != MAX_ITER:
            continue
        if identity:
            y = instance.v_of(x)
        checks += 1
        kkt = _kkt_vectors(instance, x, y)
        res = _residuals(kkt[0], kkt[1])
        if kkt_within(res, target):
            return _make_pair(instance, x, y, it, newton_steps, res)
        if newton and checks == next_try:
            xn, yn, n, nres = _newton_finish(instance, x, y, target, kkt)
            newton_steps += n
            if xn is not None:
                return _make_pair(instance, xn, yn, it, newton_steps, nres)
            next_try = 2 * checks + 1
    raise SolverError(
        f"no convergence after {MAX_ITER} iterations (residuals {res})",
        _make_pair(instance, x, y, MAX_ITER, newton_steps, res))


def solve_perturbed(instance, db, dmu, warm, cfg=None):
    """Solve P(b + db, mu + dmu) warm-started at a known solution pair.

    The start check returns the pair itself, with iterations == 0, when it
    already meets the target (as it does for db = 0, dmu = 0).  A perturbed
    mu that is not positive raises the instance's InstanceError."""
    pert = instance.perturbed(db, dmu)
    return solve(pert, cfg, x0=warm.x_bar, y0=warm.y_bar)
