"""Seeded instance generators for the benchmark workloads.

Everything here is plain numpy: the generators never import calmcert, so
the program sees only the instance JSON files written from these documents.
The same (workload, seed) always gives byte-identical documents.
"""

import numpy as np

WORKLOADS = ("certify", "sweep")


def _dense(mat):
    mat = np.asarray(mat, dtype=float)
    return {"kind": "dense", "rows": mat.shape[0], "cols": mat.shape[1],
            "entries": [float(v) for v in mat.ravel()]}


def _vec(v):
    return [float(x) for x in np.asarray(v, dtype=float).ravel()]


def _groups_reg(groups, dim, weight):
    return {"kind": "group_lasso", "dim": dim,
            "groups": [[int(i) for i in g] for g in groups],
            "weight": float(weight)}


def _identity(n):
    return {"kind": "identity", "dim": n}


def tv_groups(n1, n2):
    """Isotropic pairing of the 2-D gradient components (as in the demo)."""
    groups, paired = [], set()
    for i in range(n1 - 1):
        for j in range(n2 - 1):
            a, b = i * n2 + j, n1 * n2 + i * n2 + j
            groups.append([a, b])
            paired.update((a, b))
    groups.extend([i] for i in range(2 * n1 * n2) if i not in paired)
    return groups


# ---------------------------------------------------------------------------
# curated cases with hand-derived conclusions (the demo gallery, restated
# here so the expectations do not come from the program under test)


def _l1(dim, weight=1.0):
    return _groups_reg([[i] for i in range(dim)], dim, weight)


CURATED = {
    "lasso_scalar": (
        {"phi": _dense([[1.0]]), "b": [3.0], "mu": 1.0,
         "k": _identity(1), "reg": _l1(1)},
        {"solution_map": "isolated_calm", "unknown": False}),
    "lasso_segment": (
        {"phi": _dense([[1.0, 1.0]]), "b": [2.0], "mu": 1.0,
         "k": _identity(2), "reg": _l1(2)},
        {"solution_map": "not_isolated_calm", "unknown": False}),
    "lasso_coordinate": (
        {"phi": _dense([[1.0, 0.0]]), "b": [3.0], "mu": 1.0,
         "k": _identity(2), "reg": _l1(2)},
        {"solution_map": "isolated_calm", "unknown": False}),
    "tv_grad1d": (
        {"phi": _identity(3), "b": [1.0, 2.0, 3.0], "mu": 1.0,
         "k": {"kind": "grad1d", "n": 3}, "reg": _l1(2)},
        {"solution_map": "isolated_calm", "primal_dual": "isolated_calm",
         "unknown": False}),
    "polyhedral_box": (
        {"phi": _dense([[1.0, 0.0]]), "b": [2.0], "mu": 1.0, "k": _identity(2),
         "reg": {"kind": "polyhedral_indicator",
                 "A": _dense([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                 "c": [1.0, 1.0, 1.0, 1.0]}},
        {"solution_map": "not_isolated_calm", "unknown": False}),
    "nuclear_nondegenerate": (
        {"phi": _dense([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                        [0.0, 0.0, 0.0, 1.0]]),
         "b": [2.0, 0.0, 0.5], "mu": 1.0, "k": _identity(4),
         "reg": {"kind": "nuclear", "m": 2, "n": 2, "weight": 1.0}},
        {"solution_map": "isolated_calm", "unknown": False}),
    "nuclear_degenerate": (
        {"phi": _dense([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                        [0.0, 0.0, 0.0, 1.0]]),
         "b": [2.0, 0.0, 1.0], "mu": 1.0, "k": _identity(4),
         "reg": {"kind": "nuclear", "m": 2, "n": 2, "weight": 1.0}},
        {"solution_map": "inconclusive", "unknown": True}),
    "pd_multiplier_segment": (
        {"phi": _dense([[1.0]]), "b": [1.0], "mu": 1.0,
         "k": _dense([[1.0], [1.0]]), "reg": _l1(2)},
        {"solution_map": "isolated_calm", "primal_dual": "not_isolated_calm",
         "unknown": False}),
}


# ---------------------------------------------------------------------------
# random strata


def lasso(rng, n, grouped=False, dup=False):
    """K = I Lasso (singleton groups) or group Lasso (groups of 4), m = n/2.

    dup=True copies an active column (l1) or a whole active group (group
    Lasso) onto an inactive one and doubles its coefficients, so that it
    stays active in the solution (at the generator's original scale it was
    shrunk to zero in about one draw in 500): the data then admit a segment
    of solutions, so the verdict must be not_isolated_calm with a witness.
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
    return {"phi": _dense(phi), "b": _vec(b), "mu": 1.0, "k": _identity(n),
            "reg": _groups_reg(groups, n, weight)}


def nuclear(rng, p, q, rank=2):
    """Low-rank matrix sensing: Phi sees 3/4 of the p*q entries' span."""
    d = p * q
    rows = (3 * d) // 4
    phi = rng.standard_normal((rows, d)) / np.sqrt(rows)
    x0 = rng.standard_normal((p, rank)) @ rng.standard_normal((rank, q))
    b = phi @ x0.ravel() + 0.01 * rng.standard_normal(rows)
    weight = 0.2 * float(np.linalg.norm((phi.T @ b).reshape(p, q), 2))
    return {"phi": _dense(phi), "b": _vec(b), "mu": 1.0, "k": _identity(d),
            "reg": {"kind": "nuclear", "m": p, "n": q, "weight": weight}}


def box(rng, d, free, clipped):
    """Box indicator {|y_i| <= c_i} (2d rows) with a diagonal Phi.

    The problem separates: x_i = clip(b_i / phi_i), so exactly `clipped`
    coordinates sit on the boundary, which keeps the polyhedral prox's
    active-set enumeration at the same depth for every seed.  With
    free=True the last column of Phi is zero: that coordinate is free inside
    its bounds, a segment of solutions (not_isolated_calm); otherwise Phi is
    invertible and the problem strongly convex (isolated_calm).
    """
    c = rng.uniform(0.5, 1.5, size=d)
    scale = rng.uniform(0.5, 1.5, size=d)
    if free:
        scale[-1] = 0.0
    out = rng.choice(d - 1, size=clipped, replace=False)
    target = c * rng.uniform(0.0, 0.7, size=d)
    target[out] = c[out] * rng.uniform(1.5, 2.5, size=clipped)
    target *= rng.choice([-1.0, 1.0], size=d)
    phi = np.diag(scale)[:d - 1] if free else np.diag(scale)
    a = np.vstack([np.eye(d), -np.eye(d)])
    return {"phi": _dense(phi), "b": _vec(phi @ target), "mu": 1.0,
            "k": _identity(d),
            "reg": {"kind": "polyhedral_indicator", "A": _dense(a),
                    "c": _vec(np.concatenate([c, c]))}}


def tv_image(rng, n1, n2, noise=0.05, weight=0.1, scale=1.0):
    """TV denoising (Phi = I, K = grad2d) of a piecewise-constant image."""
    img = np.zeros((n1, n2))
    ci, cj = int(rng.integers(1, n1)), int(rng.integers(1, n2))
    levels = rng.uniform(-1.0, 1.0, size=3)
    img[:ci, :] = levels[0]
    img[ci:, :cj] = levels[1]
    img[ci:, cj:] = levels[2]
    b = img.ravel() + noise * rng.standard_normal(n1 * n2)
    ny = 2 * n1 * n2
    return {"phi": _identity(n1 * n2), "b": _vec(scale * b), "mu": 1.0,
            "k": {"kind": "grad2d", "n1": n1, "n2": n2},
            "reg": _groups_reg(tv_groups(n1, n2), ny, scale * weight)}


# ---------------------------------------------------------------------------
# workloads: a list of ops, each naming its instance, verb and expectation


def _op(name, stratum, doc, verb, args=(), expect=None, reseed=False):
    """One op.  reseed=True gives the verb a new --seed in every cycle (see
    run.Bench.argv), so a run averages over its random draws."""
    return {"name": name, "stratum": stratum, "doc": doc, "verb": verb,
            "args": list(args), "expect": expect or {}, "reseed": reseed}


# Lasso instances per (kind, n) in a certify cycle (3 where not listed);
# every third one duplicates an active column or group.
CERTIFY_COUNTS = {("l1", 60): 15, ("group", 60): 6, ("group", 400): 6}


def _certify_ops(rng):
    """The verification verbs: certify(-pd), probe, solve and lab.

    The op counts place the cycle's median latency inside the l1 n=60
    block and its 90th percentile inside the group n=400 block, so that
    neither lands on the edge between two strata of different cost.
    """
    ops = []
    for n in (60, 200, 400):
        for kind in ("l1", "group"):
            for i in range(CERTIFY_COUNTS.get((kind, n), 3)):
                dup = i % 3 == 1
                doc = lasso(rng, n, grouped=kind == "group", dup=dup)
                stratum = f"{kind}_{'dup' if dup else 'generic'}/n{n}"
                expect = {"solution_map": "not_isolated_calm"} if dup else {}
                verb = "certify" if i % 3 == 2 else "certify-pd"
                ops.append(_op(f"{kind}{n}_{i}", stratum, doc, verb,
                               expect=expect))
                if (kind, n, i) == ("l1", 60, 1):
                    ops.append(_op(f"{kind}{n}_{i}", stratum, doc, "probe",
                                   expect=expect))
    for p, q in ((6, 8), (10, 12)):
        ops.append(_op(f"nuclear{p}x{q}", f"nuclear/{p}x{q}",
                       nuclear(rng, p, q), "certify-pd"))
    for d, free, clipped, verdict in ((4, True, 1, "not_isolated_calm"),
                                      (6, False, 2, "isolated_calm")):
        ops.append(_op(f"box{2 * d}", f"box/{2 * d}rows",
                       box(rng, d, free, clipped), "certify-pd",
                       expect={"solution_map": verdict, "unknown": False}))
    for name, (doc, expect) in CURATED.items():
        ops.append(_op(name, f"curated_{name}", doc, "certify-pd", expect=expect))
    for name in ("lasso_segment", "polyhedral_box", "pd_multiplier_segment"):
        doc, expect = CURATED[name]
        ops.append(_op(name, f"curated_{name}", doc, "probe", expect=expect))
    for name in ("tv_grad1d", "nuclear_nondegenerate"):
        ops.append(_op(name, f"curated_{name}", CURATED[name][0], "solve"))
    ops.append(_op("tv4_scaled", "tv_scaled/4x4", tv_scaled(), "certify-pd"))
    for i in range(2):
        ops.append(_op(f"lab_l1_40_{i}", "lab_l1/n40", lasso(rng, 40), "lab"))
    ops.append(_op("lab_nuclear6x8", "lab_nuclear/6x8", nuclear(rng, 6, 8),
                   "lab"))
    for name in ("nuclear_degenerate", "polyhedral_box"):
        ops.append(_op(name, f"curated_{name}", CURATED[name][0], "lab"))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def tv_scaled():
    """A fixed TV 4x4 instance with (b, weight) scaled by 1e5.

    The solver accepts it and `certify_primal_dual` then raises "y_bar is
    not in dg(x_bar)" (exit code 1).  It is fixed because other draws of the
    scaled stratum can instead run the splitting solver to its 200k-iteration
    cap (~25 s), which would make one op outweigh a whole run.
    """
    return tv_image(np.random.default_rng([0, 5]), 4, 4, scale=1e5)


# Fixed TV images in the slow regime of the splitting solver: each sweep
# below runs 1000-2000 iterations (cold solve plus two warm ones).  Random
# draws of this regime range from 200 to over 20k iterations, so these are
# fixed: the run's seed varies their perturbations, not the images.
# (size, noise, weight, image seed)
SLOW_TV = ((6, 0.02, 0.1, 8), (6, 0.05, 0.1, 8), (8, 0.02, 0.1, 0),
           (8, 0.05, 0.2, 0), (6, 0.02, 0.1, 2), (6, 0.02, 0.1, 3))


def _sweep_ops(rng):
    """Well-conditioned random TV 6x6 draws (75-iteration solves) and the
    fixed slow-regime images; the cheap draws are 2 of the 8 ops, so the
    median and the 90th percentile fall well inside the slow-regime sweeps.

    A slow-regime sweep's warm solves take from 100 to 700 iterations
    depending on the perturbation drawn, so every cycle draws new ones.
    """
    ops = []
    for i in range(2):
        doc = tv_image(rng, 6, 6, noise=0.2, weight=0.02)
        ops.append(_op(f"tv6x6_{i}", "tv/6x6", doc, "sweep",
                       args=["--radii", "1e-2,1e-3", "--samples", "3"],
                       reseed=True))
    for k, (n, noise, weight, image) in enumerate(SLOW_TV):
        doc = tv_image(np.random.default_rng([image, 11]), n, n, noise=noise,
                       weight=weight)
        ops.append(_op(f"tv{n}x{n}_slow{k}", f"tv_slow/{n}x{n}", doc, "sweep",
                       args=["--radii", "1e-2,1e-3", "--samples", "1"],
                       reseed=True))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def build(workload, seed):
    """The op list of one cycle of a workload, deterministic in the seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return {"certify": _certify_ops, "sweep": _sweep_ops}[workload](rng)
