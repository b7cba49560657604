"""Independent numerical validation of the certificates.

Nothing here trusts the cone machinery: sweeps re-solve perturbed problems,
the instability probe constructs explicit alternate solutions and re-checks
their optimality residuals, and the difference-quotient laboratory compares
tangent-cone membership against second-order quotients and proximal graph
samples.  The laboratory evaluates in stacks: the candidate directions of a
refined quotient take one regularizer value call, and all graph samples of
a zero-product check one prox call, each row giving bit for bit what it
gives on its own.  kernel_formula_check is its one quotient estimator.
"""

from dataclasses import dataclass

import numpy as np

from . import regularizers as rz
from .certificates import read_pair, solution_resolution, solution_set_extent
from .linalg import row_dots, row_norms
from .solver import (SolverError, kkt_bound, kkt_residual, kkt_within,
                     pair_config, solve_perturbed)


@dataclass
class KappaEstimate:
    """Empirical calmness-modulus statistics from a perturbation sweep."""

    radii: list
    samples: list                       # dicts, one per perturbation
    kappa_hat_per_radius: list
    blowup_flag: bool

    def to_json_dict(self):
        return {"radii": [float(r) for r in self.radii],
                "samples": self.samples,
                "kappa_hat_per_radius": [None if v is None else float(v)
                                         for v in self.kappa_hat_per_radius],
                "blowup_flag": bool(self.blowup_flag)}

    def csv_rows(self):
        header = ["radius", "db_norm", "dmu", "x_dist", "ratio",
                  "solver_iters", "flag"]
        rows = [header]
        for s in self.samples:
            rows.append([s["radius"], s["db_norm"], s["dmu"], s["x_dist"],
                         "inf" if s["ratio"] is None else s["ratio"],
                         s["solver_iters"], s["flag"]])
        return rows


def perturbation_sweep(instance, pair, radii, n_per_radius=16, seed=0):
    """Max displacement-to-perturbation ratios over random (db, dmu) spheres.

    Samples whose solution jumps far from x_bar (possibly a different branch
    of the solution set) are flagged 'nonlocal' and excluded from kappa_hat;
    non-converged solves are flagged, never dropped silently.  Every solve
    meets pair_config's target, the one the verbs solve their pairs to:
    every ratio is a distance from x_bar.  A radius that is not positive, or
    whose perturbation has no finite norm, raises ValueError naming it.
    """
    radii = [float(r) for r in radii]
    for r in radii:
        if not r > 0:
            raise ValueError(f"sweep radius {r!r} is not positive")
    rng = np.random.default_rng(seed)
    cfg = pair_config(instance)
    ne = len(instance.b)
    x_bar = np.asarray(pair.x_bar, dtype=float)
    local_cap = 0.1 * float(np.linalg.norm(x_bar)) + 0.1
    samples = []
    kappa = []
    for r in radii:
        best = None
        for _ in range(n_per_radius):
            z = rng.standard_normal(ne + 1)
            z = r * z / np.linalg.norm(z)
            db, dmu = z[:ne], float(z[ne])
            if instance.mu + dmu < instance.mu / 2.0:
                dmu = -instance.mu / 2.0
            with np.errstate(over="ignore"):
                db_norm = float(np.linalg.norm(db))
            denom = db_norm + abs(dmu)
            if not np.isfinite(denom):
                raise ValueError(
                    f"sweep radius {r!r}: the perturbation has no finite norm")
            entry = {"radius": r, "db_norm": db_norm, "dmu": dmu}
            try:
                sol = solve_perturbed(instance, db, dmu, pair, cfg)
                dist = float(np.linalg.norm(sol.x_bar - x_bar))
                ratio = dist / denom if denom > 0 else None
                entry.update(x_dist=dist, ratio=ratio,
                             solver_iters=sol.iterations,
                             newton_steps=sol.newton_steps, flag="ok")
                if dist > local_cap:
                    entry["flag"] = "nonlocal"
            except SolverError as exc:
                dist = float(np.linalg.norm(exc.pair.x_bar - x_bar))
                entry.update(x_dist=dist, ratio=dist / denom if denom else None,
                             solver_iters=exc.pair.iterations,
                             newton_steps=exc.pair.newton_steps,
                             flag="nonconverged")
            samples.append(entry)
            if entry["flag"] == "ok" and entry["ratio"] is not None:
                best = entry["ratio"] if best is None else max(best, entry["ratio"])
        kappa.append(best)
    blowup = False
    for i in range(len(radii)):
        for j in range(len(radii)):
            if radii[i] >= 99.0 * radii[j] and kappa[i] and kappa[j]:
                if kappa[j] >= 10.0 * kappa[i]:
                    blowup = True
    return KappaEstimate(radii=radii, samples=samples,
                         kappa_hat_per_radius=kappa, blowup_flag=blowup)


# ---------------------------------------------------------------------------
# witness-direction instability construction


def instability_probe(instance, pair, witness, t_grid):
    """Alternate solutions of the SAME data along a witness, verified by KKT.

    For every face and every K, "alternate" is the far end of the solution
    set along the witness (certificates.solution_set_extent), and the
    entries are that end and the points at distance t from x_bar toward it,
    for each t of the grid beyond the pair's resolution and short of the
    end: each has b_dist 0 and ratio None.  The probe refutes when every
    entry passes KKT with y_bar at level 10 of kkt_bound.  A pair whose face
    cannot be built, or a witness with no far end, gives no entry and does
    not refute.
    """
    level = max(10.0, 1e-10 / instance.tol.kkt)         # level 10, floored
    try:
        reading = read_pair(instance, pair)
    except (ValueError, RuntimeError) as exc:
        end, cause = None, str(exc)
    else:
        end, cause = solution_set_extent(instance, reading, witness, level)
    if end is None:
        return {"available": False, "entries": [], "refuted": False,
                "reason": cause}
    x_bar, face = reading.x_bar, reading.face
    width = float(np.linalg.norm(end - x_bar))
    r = solution_resolution(instance)
    entries = []
    for t in [float(t) for t in t_grid if r < float(t) < width] + [width]:
        x_t = x_bar + (t / width) * (end - x_bar) if t < width else end
        k_t = instance.k.apply(x_t)
        res = kkt_residual(instance, x_t, reading.y_bar)
        entries.append({"t": t, "available": True,
                        "x_dist": float(np.linalg.norm(x_t - x_bar)),
                        "b_dist": 0.0, "ratio": None, **res,
                        "verified": kkt_within(res, kkt_bound(instance, level)),
                        "projection_residual":
                            float(np.linalg.norm(k_t - face.project(k_t)))})
    return {"available": True, "entries": entries,
            "refuted": all(e["verified"] for e in entries),
            "alternate": [float(v) for v in end]}


# ---------------------------------------------------------------------------
# second-subderivative difference quotients


def _quotient(fn, base, x_bar, v_bar, t, directions):
    """(quotients, values g(x_bar + t d)) for one direction or a stack; a
    step off the domain of g has quotient +inf."""
    val = fn(x_bar + t * directions)
    with np.errstate(invalid="ignore"):
        q = (val - base - t * row_dots(directions, v_bar)) / (0.5 * t * t)
    return np.where(np.isfinite(val), q, np.inf), val


def _refined(fn, base, x_bar, v_bar, w, t, q, perturb, projector):
    """The least of w's quotient q and those of its candidates: the 2n
    directions w +- perturb e_i, and the secant through projector (onto the
    conjugate face of v_bar) when it lies within perturb of w.  One fn call
    scores all the candidates."""
    coord = np.arange(w.size)
    candidates = np.repeat(w[None, :], 2 * w.size, axis=0)
    candidates[2 * coord, coord] += perturb
    candidates[2 * coord + 1, coord] -= perturb
    secant = (projector(x_bar + t * w) - x_bar) / t
    if float(np.linalg.norm(secant - w)) <= perturb:
        candidates = np.vstack([candidates, secant])
    return min(q, float(_quotient(fn, base, x_bar, v_bar, t, candidates)[0].min()))


def kernel_formula_check(reg, x_bar, v_bar, n_dirs=50, seed=0, tol=None):
    """Classify directions by the quotient estimator vs cone membership.

    Directions are half uniform on the sphere, half projected onto the
    computed tangent cone T so both classes are exercised; the acceptance
    standard is zero disagreements.  One conjugate face gives both the
    tangent cone and the secant projector of the quotient refinement.

    The estimator reads d as a member when its quotient
    q = [g(x+td) - g(x) - t<v,d>] / (t^2/2), at t = 1e-5, is at most the
    error floor

        nu = 8 eps (|g(x)| + |g(x+td)| + t sum_i |v_i d_i|) / (t^2/2) + 2 rho / t,

    and refines q only above it, a desk approximation of the liminf: q
    becomes the least quotient of d, of the directions d +- perturb e_i and
    of the face-projected secant (the recovery sequence of a tangent
    direction of a curved face, such as an embedded PSD block in a rotated
    basis) when it lies within perturb of d.  A member's exact second
    subderivative is 0, so nu bounds what is left:
    * Roundoff.  Each term of the numerator carries an error of a few ulps
      of its size (sum_i |v_i d_i| bounds that of the inner product), and
      the division by t^2/2 magnifies it.
    * The pair's backward error.  (x, v) lies at distance rho from the graph
      point (x', v') = (prox_g(x + v), x + v - x') of dg: ||x - x'|| =
      ||v - v'|| = rho.  The quotient's limit belongs to that point.  Using
      v for v' shifts t<v,d> by up to t rho, which is 2 rho / t in q.
      Moving the base point from x' to x changes the increment of g along
      td only through the change of g's slope over distance rho, nothing on
      the linear pieces of g (l1, the polyhedral indicator).
    A step off the domain of g adds nothing to the roundoff term.

    A non-member d at distance delta = ||d - P_T d|| from T has a positive
    second subderivative.  Off the critical cone it grows at first order,
    q ~ delta / t; on it, through a curved piece of g, only quadratically,
    q >= delta^2 / reach, where reach = 1 / (least curvature of g at x):
    ||x_J|| / w for a group of two or more indices, sigma_max(X) / w for the
    nuclear norm, 0 where g has no curved piece (the kind's reach).  The
    refinement moves d by up to perturb = 1e-3, which can reach T.  So the
    estimator separates d from T only when (delta - perturb)^2 / reach > nu:
    its resolution is perturb + sqrt(nu * reach).  A non-member within it is
    listed in "near_boundary" (indices into "details") and counted neither
    as an agreement nor as a disagreement.  Each detail row carries its
    floor nu, its distance delta and its resolution.
    """
    t, perturb = 1e-5, 1e-3
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
            if np.linalg.norm(p) > 1e-9:
                d = p / np.linalg.norm(p)
        dirs.append(d)
    dirs = np.reshape(dirs, (n_dirs, n))
    base = fn(x_bar)
    raw, values = _quotient(fn, base, x_bar, v_bar, t, dirs)
    # a step off the domain of g adds no roundoff: its value is not summed
    sizes = abs(float(base)) + np.where(np.isfinite(values), np.abs(values), 0.0) \
        + t * (np.abs(dirs) @ np.abs(v_bar))
    rho = float(np.linalg.norm(x_bar - rz.prox(reg, 1.0, x_bar + v_bar)))
    floors = 8.0 * np.finfo(float).eps * sizes / (0.5 * t * t) + 2.0 * rho / t
    reach = reg.reach(x_bar)
    agreements, disagreements, near, details = 0, 0, [], []
    for i, d in enumerate(dirs):
        member = cone.member(d, tol.member)
        floor = float(floors[i])
        q = float(raw[i])
        if q > floor or not np.isfinite(q):
            q = _refined(fn, base, x_bar, v_bar, d, t, q, perturb, face.project)
        est_member = q <= floor
        distance = float(np.linalg.norm(d - cone.project(d)))
        resolution = perturb + float(np.sqrt(floor * reach))
        if not member and distance <= resolution:
            near.append(i)
        elif member == est_member:
            agreements += 1
        else:
            disagreements += 1
        # an infinite quotient (a step off the domain of g) is written null
        details.append({"member": bool(member),
                        "quotient": q if np.isfinite(q) else None,
                        "estimator_member": bool(est_member), "floor": floor,
                        "distance": distance, "resolution": resolution})
    return {"n": len(dirs), "agreements": agreements,
            "disagreements": disagreements, "near_boundary": near,
            "details": details}


# ---------------------------------------------------------------------------
# zero-product property on proximal graph samples


def zero_product_check(reg, x_bar, v_bar, n_samples=200, seed=0, tol=None):
    """Two-way zero-product test on random proximal graph samples.

    For each sample (w, z) of the subgradient graphical derivative, taken
    at t = 1e-6 (tol gives the tangent cones; the float slack of "~ 0" and
    of the memberships is s = 1e-6):
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

    The n_samples directions d are drawn as one (n_samples, n) array, the
    stream of n_samples single draws, and the graph points
    (u, p - u) with u = prox(p), p = x_bar + v_bar + t d, come from one
    prox call on their stack.
    "min_inner" is null when there are no samples.
    """
    t, slack = 1e-6, 1e-6
    tol = tol or rz.DEFAULT_TOL
    rng = np.random.default_rng(seed)
    x_in = np.asarray(x_bar, dtype=float)
    arg = x_in + np.asarray(v_bar, dtype=float)
    x_bar = rz.prox(reg, 1.0, arg)
    v_bar = arg - x_bar
    face = rz.conj_subdiff_face(reg, v_bar, tol)      # one face, both cones
    t_primal = rz.subdiff_tangent(face, x_bar, tol)
    t_dual = rz.member_tangent(face, x_bar, tol)
    if t_primal is None:
        return {"available": False,
                "reason": "tangent cone to dg(x_bar) not representable"}
    d = rng.standard_normal((n_samples, x_bar.size))
    d /= row_norms(d)[:, None]
    p = x_bar + v_bar + t * d
    u = np.ascontiguousarray(rz.prox(reg, 1.0, p))
    w = (u - x_bar) / t
    z = (p - u - v_bar) / t
    inner = row_dots(z, w)
    norms = row_norms(z) * row_norms(w)
    near_zero = inner <= slack * (norms + 1.0)
    loose = 3.0 * np.sqrt(np.maximum(inner, 0.0) + slack) + 10 * slack
    counts = {"n": n_samples,
              "positivity_violations": int(np.sum(inner < -1e-8 * (1.0 + norms))),
              "forward_violations": 0, "backward_violations": 0,
              "zero_products": int(np.sum(near_zero)), "both_members": 0,
              "min_inner": float(np.min(inner / (1.0 + norms))) if n_samples
              else None,
              "center_shift": float(np.linalg.norm(x_bar - x_in))}
    strict = 10 * slack
    for i in range(n_samples):
        # a w is tested only when z passes a slack, as loose >= strict
        slacks = np.array((strict, loose[i]) if near_zero[i] else (strict,))
        z_in = t_primal.member(z[i], slacks)
        w_in = t_dual.member(w[i], slacks) if z_in.any() else z_in
        if near_zero[i] and not (z_in[1] and w_in[1]):
            counts["forward_violations"] += 1
        if z_in[0] and w_in[0]:
            counts["both_members"] += 1
            if abs(inner[i]) > 10 * slack * (norms[i] + 1.0):
                counts["backward_violations"] += 1
    counts["available"] = True
    return counts
