"""The difference-quotient lab as it evaluated one point per call, kept
verbatim as the reference for the stacked one in calmcert.empirics.

kernel_formula_check, _quotients and zero_product_check are the versions
that scored each candidate direction, and built each graph sample, with
its own regularizer call (and spent a second prox per sample on the
graph_sample residual the check never reads).  graph_sample, which only
this reference and the tests call, lives here too.
"""

from dataclasses import dataclass

import numpy as np

from calmcert import regularizers as rz


@dataclass
class GraphSample:
    """A point ((x + t w), (v + t z)) on the subgradient graph."""

    t: float
    w: np.ndarray
    z: np.ndarray
    residual: float


def graph_sample(reg, x_bar, v_bar, d, t):
    """Exact subgradient-graph point from one prox evaluation, with the
    fixed-point residual of a second one."""
    x_bar = np.asarray(x_bar, dtype=float)
    v_bar = np.asarray(v_bar, dtype=float)
    p = x_bar + v_bar + t * np.asarray(d, dtype=float)
    u = rz.prox(reg, 1.0, p)
    s = p - u
    res = float(np.linalg.norm(u - rz.prox(reg, 1.0, u + s)))
    return GraphSample(t=t, w=(u - x_bar) / t, z=(s - v_bar) / t, residual=res)


def _quotients(fn, x_bar, v_bar, w, t_grid, perturb, refine_above, projector):
    """second_subderivative_estimate for the value function fn, refining
    with projector (onto the conjugate face of v_bar, or None)."""
    x_bar = np.asarray(x_bar, dtype=float)
    v_bar = np.asarray(v_bar, dtype=float)
    w = np.asarray(w, dtype=float)
    base = fn(x_bar)

    def quotient(t, direction):
        val = fn(x_bar + t * direction)
        if not np.isfinite(val):
            return np.inf
        return (val - base - t * float(v_bar @ direction)) / (0.5 * t * t)

    cutoff = np.inf if refine_above is None else float(refine_above)
    out = []
    for t in t_grid:
        t = float(t)
        q = quotient(t, w)
        if q > cutoff or not np.isfinite(q):
            for i in range(w.size):
                for sgn in (1.0, -1.0):
                    wp = w.copy()
                    wp[i] += sgn * perturb
                    q = min(q, quotient(t, wp))
            if projector is not None:
                secant = (projector(x_bar + t * w) - x_bar) / t
                if float(np.linalg.norm(secant - w)) <= perturb:
                    q = min(q, quotient(t, secant))
        out.append(float(q))
    return out


def kernel_formula_check(reg, x_bar, v_bar, floors, n_dirs=50, seed=0,
                         t=1e-5, tol=None):
    """Classify directions by the quotient estimator vs cone membership.

    Directions are half uniform on the sphere, half projected onto the
    computed tangent cone so both classes are exercised; the acceptance
    standard is zero disagreements.  One conjugate face gives both the
    tangent cone and the secant projector of the quotient refinement.
    Direction i is refined and classified at floors[i], where this code
    had one fixed threshold; the lab derives the floors.
    """
    tol = tol or rz.DEFAULT_TOL
    rng = np.random.default_rng(seed)
    x_bar = np.asarray(x_bar, dtype=float)
    v_bar = np.asarray(v_bar, dtype=float)
    face = rz.conj_subdiff_face(reg, v_bar, tol)
    cone = rz.member_tangent(face, x_bar, tol)
    fn = reg.strict_value
    n = x_bar.size
    dirs = []
    for i in range(n_dirs):
        d = rng.standard_normal(n)
        d /= np.linalg.norm(d)
        if i % 2 == 1:
            p = cone.project(d)
            if p is not None and np.linalg.norm(p) > 1e-9:
                d = p / np.linalg.norm(p)
        dirs.append(d)
    agreements, disagreements, details = 0, 0, []
    for d, floor in zip(dirs, floors):
        member = cone.member(d, tol.member)
        q = _quotients(fn, x_bar, v_bar, d, [t], 1e-3, floor,
                       face.project)[0]
        est_member = q <= floor
        ok = member == est_member
        agreements += ok
        disagreements += not ok
        details.append({"member": bool(member), "quotient": q,
                        "estimator_member": bool(est_member)})
    return {"n": len(dirs), "agreements": agreements,
            "disagreements": disagreements, "details": details}


def zero_product_check(reg, x_bar, v_bar, n_samples=200, seed=0,
                       t=1e-6, tol=1e-6, cone_tol=None):
    """Two-way zero-product test on random proximal graph samples.

    For each sample (w, z) of the subgradient graphical derivative:
      * positivity: <z, w> >= -1e-8 (1 + ||z|| ||w||)  (monotonicity)
      * product ~ 0  =>  z and w lie in the respective tangent cones
      * both memberships (strict)  =>  product ~ 0

    On curved faces the product is quadratic in the distance to the kernel,
    so the forward conclusion is checked at a sqrt-scaled slack while the
    backward hypothesis uses the strict linear slack.

    The samples are centred on the exact graph point with the same prox
    argument, x' = prox(x_bar + v_bar), v' = x_bar + v_bar - x': a computed
    pair lies off the graph by the solver error, which division by t would
    magnify past the positivity slack.  Centred on the graph, firm
    nonexpansiveness of the prox makes <z, w> >= 0 hold up to roundoff.
    The shift ||x' - x_bar|| is reported as "center_shift".
    """
    cone_tol = cone_tol or rz.DEFAULT_TOL
    rng = np.random.default_rng(seed)
    x_in = np.asarray(x_bar, dtype=float)
    arg = x_in + np.asarray(v_bar, dtype=float)
    x_bar = rz.prox(reg, 1.0, arg)
    v_bar = arg - x_bar
    t_primal = rz.tangent_subdiff(reg, x_bar, v_bar, cone_tol)
    t_dual = rz.tangent_conj_subdiff(reg, v_bar, x_bar, cone_tol)
    if t_primal is None:
        return {"available": False,
                "reason": "tangent cone to dg(x_bar) not representable"}
    n = x_bar.size
    counts = {"n": 0, "positivity_violations": 0, "forward_violations": 0,
              "backward_violations": 0, "zero_products": 0,
              "both_members": 0, "min_inner": np.inf,
              "center_shift": float(np.linalg.norm(x_bar - x_in))}
    for _ in range(n_samples):
        d = rng.standard_normal(n)
        d /= np.linalg.norm(d)
        sample = graph_sample(reg, x_bar, v_bar, d, t)
        w, z = sample.w, sample.z
        inner = float(z @ w)
        norms = float(np.linalg.norm(z) * np.linalg.norm(w))
        counts["n"] += 1
        counts["min_inner"] = min(counts["min_inner"], inner / (1.0 + norms))
        if inner < -1e-8 * (1.0 + norms):
            counts["positivity_violations"] += 1
        near_zero = inner <= tol * (norms + 1.0)
        loose = 3.0 * np.sqrt(max(inner, 0.0) + tol) + 10 * tol
        if near_zero:
            counts["zero_products"] += 1
            if not (t_primal.member(z, loose) and t_dual.member(w, loose)):
                counts["forward_violations"] += 1
        if t_primal.member(z, 10 * tol) and t_dual.member(w, 10 * tol):
            counts["both_members"] += 1
            if abs(inner) > 10 * tol * (norms + 1.0):
                counts["backward_violations"] += 1
    counts["available"] = True
    return counts
