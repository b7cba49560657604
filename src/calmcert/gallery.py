"""Curated instances with known conclusions, plus random-instance generators.

These drive the `demo` command and the acceptance suite.  Every expected
conclusion below has a closed-form derivation (soft thresholding, sign
enumeration, or hand singular-value analysis).
"""

import numpy as np

from .linalg import _matrix_json as _matrix
from .model import load_instance


def _l1(dim, weight=1.0):
    return {"kind": "group_lasso", "dim": dim,
            "groups": [[i] for i in range(dim)], "weight": weight}


def curated_cases():
    """Name, instance document, expected outcomes."""
    cases = []

    # scalar soft threshold: x(b) = b - mu for b > mu, multiplier 1
    cases.append({
        "name": "lasso_scalar",
        "instance": {"phi": _matrix([[1.0]]), "b": [3.0], "mu": 1.0,
                     "k": {"kind": "identity", "dim": 1}, "reg": _l1(1)},
        "expected": {"solution_map": "isolated_calm", "x_bar": [2.0],
                     "y_bar": [1.0], "unknown": False},
    })

    # solution segment {x >= 0, x1 + x2 = 1}: isolated calmness fails
    cases.append({
        "name": "lasso_segment",
        "instance": {"phi": _matrix([[1.0, 1.0]]), "b": [2.0], "mu": 1.0,
                     "k": {"kind": "identity", "dim": 2}, "reg": _l1(2)},
        "expected": {"solution_map": "not_isolated_calm", "probe_refuted": True,
                     "unknown": False},
    })

    # kernel of Phi misses the face tangent: unique despite Ker Phi != 0
    cases.append({
        "name": "lasso_coordinate",
        "instance": {"phi": _matrix([[1.0, 0.0]]), "b": [3.0], "mu": 1.0,
                     "k": {"kind": "identity", "dim": 2}, "reg": _l1(2)},
        "expected": {"solution_map": "isolated_calm", "x_bar": [2.0, 0.0],
                     "unknown": False},
    })

    # 1-D total variation: surjective difference operator, flat solution
    cases.append({
        "name": "tv_grad1d",
        "instance": {"phi": {"kind": "identity", "dim": 3}, "b": [1.0, 2.0, 3.0],
                     "mu": 1.0, "k": {"kind": "grad1d", "n": 3}, "reg": _l1(2)},
        "expected": {"solution_map": "isolated_calm",
                     "primal_dual": "isolated_calm",
                     "x_bar": [2.0, 2.0, 2.0], "unknown": False},
    })

    # box indicator with a free coordinate: a solution segment again
    cases.append({
        "name": "polyhedral_box",
        "instance": {"phi": _matrix([[1.0, 0.0]]), "b": [2.0], "mu": 1.0,
                     "k": {"kind": "identity", "dim": 2},
                     "reg": {"kind": "polyhedral_indicator",
                             "A": _matrix([[1.0, 0.0], [-1.0, 0.0],
                                           [0.0, 1.0], [0.0, -1.0]]),
                             "c": [1.0, 1.0, 1.0, 1.0]}},
        "expected": {"solution_map": "not_isolated_calm", "probe_refuted": True,
                     "unknown": False},
    })

    # nuclear norm, multiplier sigma = (1, 0.5): unit block matches the rank,
    # the tangent cone collapses to a subspace and the verdict is exact
    cases.append({
        "name": "nuclear_nondegenerate",
        "instance": {"phi": _matrix([[1.0, 0.0, 0.0, 0.0],
                                     [0.0, 0.0, 1.0, 0.0],
                                     [0.0, 0.0, 0.0, 1.0]]),
                     "b": [2.0, 0.0, 0.5], "mu": 1.0,
                     "k": {"kind": "identity", "dim": 4},
                     "reg": {"kind": "nuclear", "m": 2, "n": 2, "weight": 1.0}},
        "expected": {"solution_map": "isolated_calm", "unknown": False},
    })

    # nuclear norm, multiplier = identity: unit block exceeds the rank, the
    # heuristic PSD path must answer Unknown (exit code 2)
    cases.append({
        "name": "nuclear_degenerate",
        "instance": {"phi": _matrix([[1.0, 0.0, 0.0, 0.0],
                                     [0.0, 0.0, 1.0, 0.0],
                                     [0.0, 0.0, 0.0, 1.0]]),
                     "b": [2.0, 0.0, 1.0], "mu": 1.0,
                     "k": {"kind": "identity", "dim": 4},
                     "reg": {"kind": "nuclear", "m": 2, "n": 2, "weight": 1.0}},
        "expected": {"solution_map": "inconclusive", "unknown": True},
    })

    # non-unique multipliers: the solution map is calm, the primal-dual is not
    cases.append({
        "name": "pd_multiplier_segment",
        "instance": {"phi": _matrix([[1.0]]), "b": [1.0], "mu": 1.0,
                     "k": _matrix([[1.0], [1.0]]), "reg": _l1(2)},
        "expected": {"solution_map": "isolated_calm",
                     "primal_dual": "not_isolated_calm", "unknown": False},
    })
    return cases


def instance_for(name):
    for case in curated_cases():
        if case["name"] == name:
            return load_instance(case["instance"])
    raise KeyError(name)


# ---------------------------------------------------------------------------
# random instance generators (acceptance suites)


def _random_partition(rng, n, max_groups):
    ngroups = int(rng.integers(1, min(max_groups, n) + 1))
    idx = list(rng.permutation(n))
    cuts = sorted(rng.choice(range(1, n), size=ngroups - 1, replace=False)) \
        if ngroups > 1 else []
    groups, start = [], 0
    for c in list(cuts) + [n]:
        groups.append(sorted(int(i) for i in idx[start:c]))
        start = c
    return groups


def random_group_lasso_instance(seed, dim_max=6, max_groups=3,
                                dim_e_choices=(1, 2, 3, 4), k_kinds=("identity",)):
    """Random analysis group-Lasso instance (deterministic in the seed).

    Generic data gives unique solutions almost surely, so a share of
    instances gets an exactly duplicated column of Phi; that stratum is
    where solution segments (and isolated-calmness failures) live.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, dim_max + 1))
    groups = _random_partition(rng, n, max_groups)
    dim_e = int(rng.choice(dim_e_choices))
    phi = rng.standard_normal((dim_e, n))
    b = 2.0 * rng.standard_normal(dim_e)
    if rng.random() < 0.4 and n >= 2:
        i, j = rng.choice(n, size=2, replace=False)
        phi[:, j] = phi[:, i]
        # push data along the duplicated column so it tends to be active;
        # segments need the duplicates in singleton groups most of the time
        b = b + float(rng.uniform(2.0, 4.0)) * phi[:, i]
        if rng.random() < 0.6:
            groups = [[idx] for idx in range(n)]
    mu = float(rng.uniform(0.5, 2.0))
    kind = k_kinds[int(rng.integers(0, len(k_kinds)))]
    if kind == "dense":
        k = _matrix(np.eye(n) + 0.3 * rng.standard_normal((n, n)))
    else:
        k = {"kind": "identity", "dim": n}
    doc = {"phi": _matrix(phi), "b": [float(v) for v in b], "mu": mu,
           "k": k, "reg": {"kind": "group_lasso", "dim": n, "groups": groups,
                           "weight": 1.0}}
    return load_instance(doc)


def tv_groups(n1, n2):
    """Isotropic pairing of the 2-D gradient components, row-major interior."""
    groups = []
    paired = set()
    for i in range(n1 - 1):
        for j in range(n2 - 1):
            a = i * n2 + j
            b = n1 * n2 + i * n2 + j
            groups.append([a, b])
            paired.update((a, b))
    for idx in range(2 * n1 * n2):
        if idx not in paired:
            groups.append([idx])
    return groups
